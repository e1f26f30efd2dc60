import numpy as np
import pytest

from conftest import random_small_instance
from oracles import best_centers_for_assignment, nearest_facility_map
from weakcore.candidates import (
    CandidateParams,
    _nearest_facilities,
    build_candidates_euclidean_means,
    build_candidates_metric,
    default_eta,
    dz_seed,
    resolve_eta,
)
from weakcore.cli import make_planar_blobs, make_random_metric
from weakcore.constraints import Balanced
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
