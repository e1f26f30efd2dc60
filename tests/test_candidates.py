import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weakcore.candidates as candidates
from conftest import random_small_instance
from oracles import best_centers_for_assignment, nearest_facility_map
from weakcore.candidates import (
    CandidateParams,
    _draw,
    _nearest_facilities,
    build_candidates_euclidean_means,
    build_candidates_metric,
    default_eta,
    dz_seed,
    resolve_eta,
)
from weakcore.cli import make_planar_blobs, make_random_metric
from weakcore.constraints import Balanced
from weakcore.coreset import SummaryParams, build_summary, build_universal_weak_coreset
from weakcore.model import ClusteringInstance, MetricSpace, ValidationError
from weakcore.oracle import brute_force_opt


def test_default_eta_formula():
    # ceil((k/eps)^2 ln(2 + k/eps)) at k=2, eps=0.25
    assert default_eta(2, 0.25) == 148
    assert resolve_eta(CandidateParams(eta=1), k=3, eps=0.5) == 3  # floor at k


@pytest.mark.parametrize(
    "field, value",
    [("euclidean_subset_size", 0), ("euclidean_base_size", -2), ("max_euclidean_candidates", 0)],
)
def test_candidate_params_reject_sizes_below_one(field, value):
    """A size below 1 is refused up front, naming its field, instead of
    being replaced by the default (0) or failing inside the build."""
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        CandidateParams(**{field: value})


def test_dz_seed_single_facility():
    space = MetricSpace.euclidean([[0.0], [1.0], [2.0]])
    inst = ClusteringInstance(space, [0, 1], [1.0, 1.0], [2], k=1)
    assert dz_seed(inst, 1, 1, seed=0)[0].tolist() == [2]


def test_dz_seed_coincident_points_fallback():
    # All points sit on facility 3; the remaining picks come from the
    # farthest-point fallback and must still be distinct.
    space = MetricSpace.euclidean([[0.0], [0.0], [0.0], [0.0], [5.0], [9.0]])
    inst = ClusteringInstance(space, [0, 1, 2], np.ones(3), [3, 4, 5], k=3)
    picked, _ = dz_seed(inst, 3, 1, seed=7)
    assert sorted(picked.tolist()) == [3, 4, 5]
    assert picked.tolist()[0] == 3  # every point maps to the coincident facility first


def test_dz_seed_deterministic(line_instance):
    a, _ = dz_seed(line_instance, 2, 1, seed=42)
    b, _ = dz_seed(line_instance, 2, 1, seed=42)
    assert a.tolist() == b.tolist()


def test_dz_seed_too_many_centers(line_instance):
    with pytest.raises(ValidationError):
        dz_seed(line_instance, 6, 1, seed=0)


def _tied_integer_metric(seed):
    """Manhattan distances on a 4x4 integer grid: many equidistant
    facilities, listed in shuffled id order."""
    rng = np.random.default_rng(seed)
    n, f = 25, 7
    grid = rng.integers(0, 4, size=(n + f, 2))
    mat = np.abs(grid[:, None, :] - grid[None, :, :]).sum(axis=2).astype(float)
    facilities = n + rng.permutation(f)
    return ClusteringInstance(MetricSpace.explicit(mat), np.arange(n), np.ones(n), facilities, k=2)


def _label_subinstances(seed):
    inst = make_planar_blobs(60, 9, 3, m=3, seed=seed)
    for j in range(inst.n_labels):
        mask = inst.labels == j
        yield ClusteringInstance(inst.space, inst.points[mask], inst.weights[mask],
                                 inst.facilities[::-1], inst.k, inst.z)


@pytest.mark.parametrize("seed", range(5))
def test_nearest_facilities_keep_the_full_map_tie_rule(seed):
    """Looking up only the drawn positions picks, at every position, the
    facility the full nearest-facility map picks: the lowest id among the
    nearest."""
    tied = _tied_integer_metric(seed)
    d = tied.space.pairwise(tied.points, tied.facilities)
    assert np.any((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1)  # ties occur
    for inst in [tied, *_label_subinstances(seed)]:
        everywhere = np.arange(inst.n)
        assert _nearest_facilities(inst, everywhere).tolist() == nearest_facility_map(inst).tolist()
        drawn = np.random.default_rng(seed).integers(0, inst.n, size=10)
        assert _nearest_facilities(inst, drawn).tolist() == nearest_facility_map(inst)[drawn].tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=60).filter(any),
    st.one_of(st.none(), st.sampled_from([0, 1]), st.integers(2, 50)),
    st.integers(0, 2**32 - 1),
)
@example([0.0, 0.0, 3.0, 0.0], None, 0)  # a one-point support
@example([0.0, 2.0], 5, 1)
@example([1.0], 0, 2)
def test_draw_is_generator_choice(weights, size, seed):
    """_draw returns what Generator.choice returns for the same p, and takes
    the same values from the stream."""
    w = np.asarray(weights)
    p = w / w.sum()
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = _draw(mine, p, size), theirs.choice(p.size, size, p=p)
    if size is None:
        assert np.ndim(got) == 0 and int(got) == int(want)
    else:
        assert got.shape == want.shape and got.tolist() == want.tolist()
        assert np.all(w[got] > 0)
    assert mine.random() == theirs.random()


def test_draw_at_a_cdf_step_takes_the_next_positive_index():
    """A uniform value exactly on a step of the cdf belongs to the next
    index, as in Generator.choice, so an index with p == 0 is never drawn,
    not even by a value of 0.0."""

    class Stream:
        def random(self, size=None):
            return np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])

    p = np.array([0.0, 0.25, 0.0, 0.25, 0.5, 0.0])
    assert _draw(Stream(), p, 5).tolist() == [1, 3, 4, 4, 4]


def _count_lookups(monkeypatch):
    calls = []
    lookup = candidates._nearest_facilities

    def spy(inst, positions):
        calls.append(np.size(positions))
        return lookup(inst, positions)

    monkeypatch.setattr(candidates, "_nearest_facilities", spy)
    return calls


def test_one_point_classes_take_the_fallback_without_100_redraws(monkeypatch):
    """In a one-point label class every seeding round after the first can
    only draw the one point again, whose facility is already chosen. The
    round checks that once, after a few failed redraws, and takes the
    fallback: the summary and the coreset are those of the full redraw loop."""
    inst = make_planar_blobs(60, 10, 3, m=60, seed=2)
    params = SummaryParams(sample_count=3, seed=5)
    calls = _count_lookups(monkeypatch)
    fast = build_summary(inst, 10, 0.5, params)
    # Per class: the first draw, then two rounds of redraws and one check each.
    assert calls == [1] * 60 * (1 + 2 * (candidates._REDRAWS_BEFORE_CHECK + 1))
    fast_cs = build_universal_weak_coreset(inst, 0.5, 0.05, seed=5)

    monkeypatch.setattr(candidates, "_REDRAWS_BEFORE_CHECK", 100)  # the loop never checks
    calls.clear()
    slow = build_summary(inst, 10, 0.5, params)
    assert calls == [1] * 60 * (1 + 2 * 100)
    slow_cs = build_universal_weak_coreset(inst, 0.5, 0.05, seed=5)
    assert fast.indices.tolist() == slow.indices.tolist() and fast.weights.tolist() == slow.weights.tolist()
    assert (fast.sample_count, fast.ring_count) == (slow.sample_count, slow.ring_count)
    for a, b in [(fast_cs.S, slow_cs.S), (fast_cs.v, slow_cs.v), (fast_cs.J, slow_cs.J)]:
        assert a.tobytes() == b.tobytes()
    assert fast_cs.info == slow_cs.info


def test_redraws_go_on_when_the_check_finds_a_new_facility(monkeypatch):
    """A light point far from the first pick maps to a facility not yet
    chosen, so a round whose first redraws all repeat the first pick keeps
    drawing, and picks what the full redraw loop picks, not the fallback."""
    # Points at 0 and 100; facilities at 1 (nearest to 0), 101 (nearest to
    # 100) and 1000 (the farthest-point fallback).
    space = MetricSpace.euclidean([[0.0], [100.0], [1.0], [101.0], [1000.0]])
    inst = ClusteringInstance(space, [0, 1], [900.0, 1.0], [2, 3, 4], k=2)
    calls = _count_lookups(monkeypatch)
    kept_drawing = 0
    for seed in range(40):
        calls.clear()
        fast = dz_seed(inst, 2, 1, seed=seed)[0].tolist()
        kept_drawing += len(calls) > 2 + candidates._REDRAWS_BEFORE_CHECK and fast == [2, 3]
        with monkeypatch.context() as m:
            m.setattr(candidates, "_REDRAWS_BEFORE_CHECK", 100)
            assert dz_seed(inst, 2, 1, seed=seed)[0].tolist() == fast
    assert kept_drawing


def test_metric_candidates_subset_of_facilities(line_instance):
    params = CandidateParams(eta=20, seed=1)
    j = build_candidates_metric(line_instance, 0.5, params)
    assert set(j.tolist()) <= set(line_instance.facilities.tolist())
    assert j.size <= 20 + line_instance.k
    assert np.all(np.diff(j) > 0)  # sorted, deduplicated


def test_metric_candidates_f_equals_k():
    space = MetricSpace.euclidean([[0.0], [1.0], [5.0], [6.0]])
    inst = ClusteringInstance(space, [0, 1], np.ones(2), [2, 3], k=2)
    j = build_candidates_metric(inst, 0.5, CandidateParams(eta=10, seed=3))
    assert set(j.tolist()) <= {2, 3}
    assert j.size <= 2


def test_metric_candidates_points_subset_of_facilities(line_instance):
    # X subset of F: every sampled point maps to itself.
    j = build_candidates_metric(line_instance, 0.5, CandidateParams(eta=50, seed=5))
    assert set(j.tolist()) <= set(line_instance.points.tolist())


def test_metric_candidates_golden_rerun(line_instance):
    params = CandidateParams(eta=12, seed=2024)
    first = build_candidates_metric(line_instance, 0.5, params)
    second = build_candidates_metric(line_instance, 0.5, params)
    assert first.tolist() == second.tolist()


def test_euclidean_means_single_point():
    space = MetricSpace.euclidean([[1.0, 1.0], [0.0, 0.0]])
    inst = ClusteringInstance(space, [0], [1.0], [1], k=1, z=2)
    params = CandidateParams(euclidean_subset_size=3, euclidean_base_size=4, seed=0)
    j = build_candidates_euclidean_means(inst, 1.0, params)
    assert j.shape == (1, 2)
    assert np.allclose(j[0], [1.0, 1.0])


def test_euclidean_means_two_point_base():
    # Base {(0,0), (2,0)} with subset size 2 -> means {(0,0), (1,0), (2,0)}.
    space = MetricSpace.euclidean([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    inst = ClusteringInstance(space, [0, 1], np.ones(2), [2], k=1, z=2)
    # Force the base to be exactly the two points by drawing many.
    params = CandidateParams(euclidean_subset_size=2, euclidean_base_size=40, seed=1)
    j = build_candidates_euclidean_means(inst, 1.0, params)
    for expected in ([0.0, 0.0], [1.0, 0.0], [2.0, 0.0]):
        assert any(np.allclose(row, expected) for row in j)


def test_euclidean_means_near_centroid():
    inst = make_planar_blobs(60, 6, 1, z=2, seed=9)
    pts = inst.space.coords[inst.points]
    centroid = pts.mean(axis=0)
    rms = np.sqrt(((pts - centroid) ** 2).sum(axis=1).mean())
    j = build_candidates_euclidean_means(
        inst, 1.0, CandidateParams(euclidean_subset_size=2, euclidean_base_size=12, seed=4)
    )
    best = np.min(np.linalg.norm(j - centroid, axis=1))
    assert best <= rms


def test_euclidean_means_requires_euclidean_z2(line_instance):
    with pytest.raises(ValidationError):
        build_candidates_euclidean_means(line_instance, 0.5, CandidateParams())
    inst = make_random_metric(4, 3, 1, z=2, seed=0)
    with pytest.raises(ValidationError):
        build_candidates_euclidean_means(inst, 0.5, CandidateParams())


def test_euclidean_means_cap():
    inst = make_planar_blobs(50, 5, 2, z=2, seed=3)
    params = CandidateParams(
        euclidean_subset_size=4, euclidean_base_size=20, max_euclidean_candidates=100, seed=5
    )
    j = build_candidates_euclidean_means(inst, 0.5, params)
    assert j.shape[0] <= 100


def test_empirical_property_A_statistical():
    """Universality on desk-scale instances: for an adversarial assignment
    from the optimal balanced solution, the best tuple from J stays within
    (3 + eps) of the best tuple from F, in at least 95% of instances."""
    eps = 0.25
    hits = 0
    trials = 50
    for seed in range(trials):
        inst = random_small_instance(seed, n_max=12, f_max=8, k_max=2, z=1)
        if inst.k < 2:
            inst = ClusteringInstance(
                inst.space, inst.points, inst.weights, inst.facilities, 2, 1, inst.labels
            )
        W = inst.total_weight
        spec = Balanced(np.full(2, W / 4), np.full(2, W))
        _, _, sigma = brute_force_opt(inst, spec)
        B = inst.weighted_points()
        j = build_candidates_metric(inst, eps, CandidateParams(seed=seed))
        _, best_j = best_centers_for_assignment(B, sigma, j, 1)
        _, best_f = best_centers_for_assignment(B, sigma, inst.facilities, 1)
        if best_j <= (3 + eps) * best_f + 1e-9:
            hits += 1
    assert hits / trials >= 0.95
