import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcore.candidates import _nearest_facilities
from weakcore.model import (
    Assignment,
    ClusteringInstance,
    ClusterProfile,
    MetricSpace,
    ValidationError,
    WeightedPoints,
    validate_instance,
)


def test_distance_345_triangle():
    space = MetricSpace.euclidean([[0.0, 0.0], [3.0, 4.0]])
    assert space.distance(0, 1) == 5.0


def test_distance_identity():
    space = MetricSpace.euclidean([[1.0, 2.0], [3.0, 4.0]])
    assert space.distance(0, 0) == 0.0
    assert space.distance(1, 1) == 0.0


def test_explicit_lookup():
    mat = np.array([[0.0, 7.5], [7.5, 0.0]])
    space = MetricSpace.explicit(mat)
    assert space.distance(0, 1) == 7.5
    assert space.distance(1, 0) == 7.5


def test_explicit_rejects_asymmetry():
    mat = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        MetricSpace.explicit(mat)


def test_explicit_rejects_nonzero_diagonal():
    with pytest.raises(ValidationError):
        MetricSpace.explicit(np.array([[0.5]]))


def test_explicit_sampled_triangle_warns():
    mat = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
    with pytest.warns(UserWarning, match="triangle"):
        MetricSpace.explicit(mat, triangle_check="sampled")


def test_explicit_full_triangle_raises():
    mat = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 1.0], [10.0, 1.0, 0.0]])
    with pytest.raises(ValidationError):
        MetricSpace.explicit(mat, triangle_check="full")


def test_index_out_of_range():
    space = MetricSpace.euclidean([[0.0], [1.0]])
    with pytest.raises(IndexError):
        space.distance(0, 2)


def _nearest(space, x, facilities):
    """Stage 1's lookup for the single point ``x`` among ``facilities``."""
    inst = ClusteringInstance(space, np.array([x]), np.ones(1), np.array(facilities), k=1)
    return int(_nearest_facilities(inst, [0])[0])


def test_nearest_facility_basic(line_instance):
    space = line_instance.space
    assert _nearest(space, 2, [1, 4]) == 1  # positions 1 and 10


def test_nearest_facility_tie_breaks_low_index():
    space = MetricSpace.euclidean([[5.0], [1.0], [9.0]])
    assert _nearest(space, 0, [2, 1]) == 1  # both at distance 4


def test_nearest_facility_singleton():
    space = MetricSpace.euclidean([[0.0], [7.0]])
    assert _nearest(space, 0, [1]) == 1


def test_nearest_facility_empty_errors():
    """An instance without facilities never reaches the lookup: validation refuses it."""
    space = MetricSpace.euclidean([[0.0]])
    inst = ClusteringInstance(space, np.array([0]), np.ones(1), np.array([], dtype=np.int64), k=1)
    assert "instance has no facilities" in validate_instance(inst)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_nearest_facility_is_minimal(seed):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(8, 2))
    space = MetricSpace.euclidean(coords)
    fac_ids = list(range(1, 8))
    fac = _nearest(space, 0, fac_ids)
    for other in fac_ids:
        assert space.distance(0, fac) <= space.distance(0, other)


def test_validate_instance_clean(line_instance):
    assert validate_instance(line_instance) == []


def test_validate_instance_flags_bad_weight(line_instance):
    inst = ClusteringInstance(
        line_instance.space,
        line_instance.points,
        np.array([1.0, 1.0, 0.0, 1.0, 1.0]),
        line_instance.facilities,
        k=2,
    )
    report = validate_instance(inst)
    assert any("weight" in r for r in report)


def test_validate_instance_flags_k_too_large(line_instance):
    inst = ClusteringInstance(
        line_instance.space,
        line_instance.points,
        line_instance.weights,
        line_instance.facilities,
        k=6,
    )
    report = validate_instance(inst)
    assert any("exceeds facility count" in r for r in report)


def test_profile_consistency_plain(line_instance):
    B = line_instance.weighted_points()
    assert ClusterProfile([3.0, 2.0]).check_consistency(B) == []
    assert ClusterProfile([3.0, 3.0]).check_consistency(B) != []


def test_profile_consistency_labeled(labeled_line_instance):
    B = labeled_line_instance.weighted_points()
    good = ClusterProfile([[1.0, 2.0], [2.0, 0.0]])
    assert good.check_consistency(B) == []
    bad = ClusterProfile([[3.0, 2.0], [2.0, 0.0]])
    assert bad.check_consistency(B) != []


def test_assignment_conservation(line_instance):
    B = line_instance.weighted_points()
    sigma = Assignment(B.indices, np.zeros(5, dtype=int), B.weights)
    assert sigma.check_conservation(B) == []
    short = Assignment(B.indices, np.zeros(5, dtype=int), B.weights * 0.5)
    assert short.check_conservation(B) != []


def test_assignment_rejects_negative_mass():
    with pytest.raises(ValidationError):
        Assignment([0], [0], [-1.0])


def test_pairwise_matches_scalar(small_metric_instance):
    inst = small_metric_instance
    d = inst.space.pairwise(inst.points, inst.facilities)
    for i, p in enumerate(inst.points.tolist()):
        for j, f in enumerate(inst.facilities.tolist()):
            assert d[i, j] == pytest.approx(inst.space.distance(p, f), abs=1e-12)


def _loop_label_cluster_mass(sigma, B, k):
    label_of = dict(zip(B.indices.tolist(), B.labels.tolist()))
    out = np.zeros((k, B.n_labels))
    for p, c, mass in sigma.entries():
        out[c, label_of[p]] += mass
    return out


def _loop_point_totals(sigma):
    totals = {}
    for p, _, mass in sigma.entries():
        totals[p] = totals.get(p, 0.0) + mass
    return totals


def _loop_conservation_report(sigma, B):
    totals = _loop_point_totals(sigma)
    report = []
    for p, w in zip(B.indices.tolist(), B.weights.tolist()):
        got = totals.get(p, 0.0)
        if abs(got - w) > 1e-9 * max(abs(w), 1e-300):
            report.append(f"point {p}: assigned mass {got:.12g} != weight {w:.12g}")
    extra = sorted(set(totals) - set(B.indices.tolist()))
    if extra:
        report.append(f"assignment touches points outside the set: {extra[:5]}")
    return report


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_assignment_bookkeeping_matches_loops(seed):
    """Split each point's weight over random clusters in shuffled order, drop
    an entry or add an outside point now and then, and compare the vectorised
    bookkeeping with plain loops, sums bit for bit."""
    rng = np.random.default_rng(seed)
    size, k, m = int(rng.integers(1, 40)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    space = MetricSpace.euclidean(np.zeros((120, 1)))
    indices = rng.choice(100, size, replace=False)
    B = WeightedPoints(space, indices, rng.uniform(0.1, 3.0, size), rng.integers(0, m, size))
    entries = [
        (p, int(rng.integers(0, k)), w * share)
        for p, w in zip(B.indices.tolist(), B.weights.tolist())
        for share in rng.dirichlet(np.ones(int(rng.integers(1, 4))))
    ]
    if rng.random() < 0.3:
        entries.pop(int(rng.integers(0, len(entries))))
    outside = rng.random() < 0.3
    if outside:
        entries.append((int(rng.integers(100, 120)), 0, 1.0))
    order = rng.permutation(len(entries))
    sigma = Assignment(*(np.array([entries[i][f] for i in order]) for f in range(3)))

    report = sigma.check_conservation(B)
    assert report == _loop_conservation_report(sigma, B)
    assert any("outside the set" in line for line in report) == outside
    if outside:
        with pytest.raises(ValidationError, match="outside the set"):
            sigma.label_cluster_mass(B, k)
    else:
        assert np.array_equal(sigma.label_cluster_mass(B, k), _loop_label_cluster_mass(sigma, B, k))
