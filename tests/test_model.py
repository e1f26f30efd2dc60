import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import distance
from weakcore.candidates import _nearest_facilities
from weakcore.cli import make_random_metric
from weakcore.model import (
    Assignment,
    ClusteringInstance,
    ClusterProfile,
    TRIANGLE_TOL,
    MetricSpace,
    ValidationError,
    WeightedPoints,
    _row_argmin,
    validate_instance,
)


def test_distance_345_triangle():
    space = MetricSpace.euclidean([[0.0, 0.0], [3.0, 4.0]])
    assert distance(space, 0, 1) == 5.0


def test_distance_identity():
    space = MetricSpace.euclidean([[1.0, 2.0], [3.0, 4.0]])
    assert distance(space, 0, 0) == 0.0
    assert distance(space, 1, 1) == 0.0


def test_explicit_lookup():
    mat = np.array([[0.0, 7.5], [7.5, 0.0]])
    space = MetricSpace.explicit(mat)
    assert distance(space, 0, 1) == 7.5
    assert distance(space, 1, 0) == 7.5


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


def _broadcast_verdict(mat):
    """The triangle verdict from the whole (n, n, n) table of d(a,b) + d(b,c)."""
    return bool(np.all(mat <= (mat[:, :, None] + mat[None, :, :]).min(axis=1) + TRIANGLE_TOL))


@pytest.mark.parametrize("seed", range(10))
def test_full_triangle_check_matches_broadcast(seed):
    mat = make_random_metric(10, 4, 2, seed=seed).space.matrix.copy()
    if seed % 2:  # plant a violation: one pair far beyond any path through a midpoint
        a, c = seed % 14, (seed + 5) % 14
        mat[a, c] = mat[c, a] = mat.max() * 3
    space = MetricSpace.explicit(mat, triangle_check="off")
    assert space._triangle_holds_everywhere() == _broadcast_verdict(mat) == (seed % 2 == 0)


def test_full_triangle_check_memory_is_quadratic():
    space = make_random_metric(120, 30, 2, seed=3).space
    n = space.size
    tracemalloc.start()
    try:
        assert space._triangle_holds_everywhere()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n * 8


def test_index_out_of_range():
    space = MetricSpace.euclidean([[0.0], [1.0]])
    with pytest.raises(IndexError):
        distance(space, 0, 2)


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
        assert distance(space, 0, fac) <= distance(space, 0, other)


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


@pytest.mark.parametrize("points, facilities, flagged", [
    ([0, 1, 2, 3, 4], [4, 0, 3, 1, 2], []),
    ([4, 0, 3, 0, 2], [0, 1, 2, 3, 4], ["duplicate point indices"]),
    ([0, 1, 2, 3, 4], [2, 0, 1, 4, 2], ["duplicate facility indices"]),
    ([3, 3, 3, 3, 3], [1, 1, 0, 0, 2], ["duplicate point indices", "duplicate facility indices"]),
])
def test_validate_instance_flags_duplicate_ids(line_instance, points, facilities, flagged):
    inst = ClusteringInstance(line_instance.space, np.array(points), line_instance.weights,
                              np.array(facilities), k=2)
    assert [r for r in validate_instance(inst) if r.startswith("duplicate")] == flagged


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
    # An extra label column is refused even when it carries no weight.
    extra = ClusterProfile([[1.0, 2.0, 0.0], [2.0, 0.0, 0.0]])
    assert extra.check_consistency(B) == ["profile has 3 label columns, the point set has 2 labels"]


def test_weight_totals_are_summed_once_per_point_set(monkeypatch, labeled_line_instance):
    """The total and per-label weights are fsums over the weights, taken
    once per point set however often a profile is checked against it."""
    import weakcore.model as model

    B = labeled_line_instance.weighted_points()
    sums = []
    fsum = model.math.fsum
    monkeypatch.setattr(model.math, "fsum", lambda xs: sums.append(1) or fsum(xs))
    for profile in (ClusterProfile([3.0, 2.0]), ClusterProfile([[1.0, 2.0], [2.0, 0.0]])):
        for _ in range(3):
            assert profile.check_consistency(B) == []
    totals = B.total_weight, B.label_weight(0), B.label_weight(1), B.label_weight(2)
    monkeypatch.undo()
    by_label = [fsum(B.weights[B.labels == j].tolist()) for j in range(2)]
    assert totals == (fsum(B.weights.tolist()), *by_label, 0.0)
    # Three sums for the point set (total, label 0, label 1), and one per
    # profile column per check.
    assert len(sums) == 3 + 3 * (1 + 2)


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
            assert d[i, j] == pytest.approx(distance(inst.space, p, f), abs=1e-12)


def _norm_table(coords, rows, cols):
    """Distances by numpy's norm over the (rows, cols, d) difference array."""
    return np.linalg.norm(coords[rows][:, None, :] - coords[cols][None, :, :], axis=-1)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 16, 17, 129, 300])
def test_euclidean_kernel_has_the_norms_bits(d):
    """pairwise and distance_pairs add the squared coordinates in numpy's
    pairwise-summation order, so each distance equals np.linalg.norm's bit
    for bit: one running sum below 8 coordinates, eight from 8 to 128 and
    a split in halves above. Coordinates span several magnitudes so that a
    different order would round differently."""
    rng = np.random.default_rng(d)
    coords = rng.standard_normal((40, d)) * 10.0 ** rng.integers(-3, 4, size=(40, d))
    space = MetricSpace.euclidean(coords)
    rows, cols = rng.integers(0, 40, 25), rng.integers(0, 40, 9)
    assert np.array_equal(space.pairwise(rows, cols), _norm_table(coords, rows, cols))
    a, b = rng.integers(0, 40, 30), rng.integers(0, 40, 30)
    assert np.array_equal(space.distance_pairs(a, b), np.linalg.norm(coords[a] - coords[b], axis=-1))
    for r, c in (([], cols), (rows, []), ([], [])):
        r, c = np.asarray(r, dtype=np.int64), np.asarray(c, dtype=np.int64)
        assert space.pairwise(r, c).shape == (r.size, c.size)
    assert space.distance_pairs([], []).shape == (0,)
    ids = np.array([3, 3, 7, 3, 7])
    same = space.pairwise(ids, ids)
    assert np.array_equal(same, _norm_table(coords, ids, ids))
    assert np.all(np.diagonal(same) == 0.0) and same[0, 1] == 0.0 and same[2, 4] == 0.0
    assert np.all(space.distance_pairs(ids, ids) == 0.0)


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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 60),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_row_argmin_is_argmin_bit_for_bit(n, k, seed, fortran):
    """Index and entry of each row's minimum equal np.argmin's, ties to the
    lowest column included, also between 0.0 and -0.0 and at infinity."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 1.0, 2.5, np.inf, rng.random(), -rng.random()])
    table = values[rng.integers(0, values.size, size=(n, k))]  # ties on every row
    noise = rng.random((n, k)) < 0.3
    table[noise] = rng.normal(size=int(noise.sum()))
    if fortran:
        table = np.asfortranarray(table)
    index, minimum = _row_argmin(table)
    want = np.argmin(table, axis=1)
    assert index.dtype == np.intp and index.tolist() == want.tolist()
    assert minimum.tobytes() == table[np.arange(n), want].tobytes()
