import numpy as np
import pytest

from conftest import random_small_instance
from oracles import exhaustive_voronoi_opt
from weakcore.constraints import Balanced, FixedProfile, FractionBounds, Unconstrained, optimal_feasible_cost
from weakcore.coreset import build_universal_weak_coreset, identity_weak_coreset
from weakcore.flowlp import Infeasible, SolverLimit
import weakcore.meta as meta
from weakcore.meta import (
    best_tuple,
    count_center_tuples,
    enumerate_center_tuples,
    solve_constrained,
    voronoi_bounds,
)
from weakcore.model import (
    ClusteringInstance,
    ClusterProfile,
    MetricSpace,
    ValidationError,
    WeightedPoints,
)
from weakcore.cli import make_planar_blobs
from weakcore.constraints import check_feasibility, voronoi_profile
from weakcore.oracle import brute_force_opt, verify_property_A


def test_enumerate_unordered_distinct():
    tuples = list(enumerate_center_tuples(["a", "b", "c"], 2))
    assert tuples == [("a", "b"), ("a", "c"), ("b", "c")]


def test_enumerate_ordered():
    tuples = list(enumerate_center_tuples(["a", "b"], 2, ordered=True))
    assert tuples == [("a", "b"), ("b", "a")]


def test_enumerate_counts():
    assert count_center_tuples(5, 2, ordered=False, allow_repeats=False) == 10
    assert count_center_tuples(5, 2, ordered=True, allow_repeats=False) == 20
    assert count_center_tuples(5, 2, ordered=True, allow_repeats=True) == 25
    assert len(list(enumerate_center_tuples(range(5), 2, True, True))) == 25
    assert len(list(enumerate_center_tuples(range(5), 2, False, True))) == 15


def test_enumerate_k_too_large():
    with pytest.raises(ValidationError):
        list(enumerate_center_tuples(["a"], 2))


def test_solve_unconstrained_line(line_instance):
    cs = identity_weak_coreset(line_instance)
    res = solve_constrained(cs, line_instance, Unconstrained())
    assert res.cost_on_full == pytest.approx(3.0)
    assert res.cost_on_summary == pytest.approx(3.0)
    assert res.tuples_evaluated == 2  # the Voronoi bound prunes the other 8


def test_solve_balanced_line(line_instance):
    cs = identity_weak_coreset(line_instance)
    spec = Balanced(np.array([2.0, 2.0]), np.array([3.0, 3.0]))
    res = solve_constrained(cs, line_instance, spec)
    assert res.cost_on_full == pytest.approx(3.0)


def test_solve_balanced_heterogeneous_ordered(line_instance):
    cs = identity_weak_coreset(line_instance)
    spec = Balanced(np.array([4.0, 1.0]), np.array([5.0, 5.0]))
    res = solve_constrained(cs, line_instance, spec)
    assert res.cost_on_full == pytest.approx(10.0)
    assert res.tuples_evaluated == 12  # ordered mode: 20 tuples, 8 pruned
    totals = res.assignment_on_full.cluster_totals(2)
    assert totals[0] >= 4.0 - 1e-9


def test_finalize_voronoi(line_instance):
    B = line_instance.weighted_points()
    z = line_instance.z
    cost, sigma, _ = optimal_feasible_cost(B, np.array([1, 4]), Unconstrained(), z)
    assert cost == pytest.approx(3.0)
    prof = voronoi_profile(B, np.array([1, 4]), z)
    cost2, sigma2, _ = optimal_feasible_cost(B, np.array([1, 4]), FixedProfile(prof), z)
    assert cost2 == pytest.approx(cost)


def test_finalize_balanced(line_instance):
    spec = Balanced(np.array([2.0, 2.0]), np.array([3.0, 3.0]))
    B = line_instance.weighted_points()
    cost, sigma, _ = optimal_feasible_cost(B, np.array([1, 4]), spec, line_instance.z)
    assert cost == pytest.approx(3.0)
    assert sorted(sigma.cluster_totals(2).tolist()) == [2.0, 3.0]


def test_solve_infeasible_propagates(line_instance):
    cs = identity_weak_coreset(line_instance)
    spec = Balanced(np.array([4.0, 4.0]), np.array([5.0, 5.0]))  # sum lower > W
    with pytest.raises(Infeasible):
        solve_constrained(cs, line_instance, spec)


def test_solve_z_mismatch(line_instance):
    cs = identity_weak_coreset(line_instance)
    with pytest.raises(ValidationError):
        solve_constrained(cs, line_instance.with_z(2), Unconstrained())


@pytest.mark.parametrize(
    "spec", [Unconstrained(), Balanced(np.ones(2), np.ones(2))], ids=["unconstrained", "balanced"]
)
def test_ties_break_to_earliest_tuple(spec):
    # Points at 0 and 10, facilities at -1, 1, 9, 11: every left/right pair
    # costs 2, and (-1, 9) is the earliest of the four in enumeration order.
    inst = ClusteringInstance(
        space=MetricSpace.euclidean(np.array([[0.0], [10.0], [-1.0], [1.0], [9.0], [11.0]])),
        points=np.array([0, 1]),
        weights=np.ones(2),
        facilities=np.array([2, 3, 4, 5]),
        k=2,
        z=1,
    )
    cs = identity_weak_coreset(inst)
    res = solve_constrained(cs, inst, spec)
    assert (res.centers, res.cost_on_summary, res.tuples_evaluated) == ((2, 4), 2.0, 4)
    assert brute_force_opt(inst, spec)[:2] == ((2, 4), 2.0)
    assert verify_property_A(inst, cs, spec).records[0].centers == (2, 4)


def test_cost_target_stops_early(line_instance):
    cs = identity_weak_coreset(line_instance)
    res = solve_constrained(cs, line_instance, Unconstrained(), cost_target=1e9)
    # One solve, of the tuple with the lowest (Voronoi bound, rank).
    assert res.tuples_evaluated == 1
    B = line_instance.weighted_points()
    dist = B.space.pairwise(B.indices, np.sort(line_instance.facilities))
    combo, _ = exhaustive_voronoi_opt(dist, B.weights, 2)
    assert res.centers == tuple(int(c) for c in np.sort(line_instance.facilities)[list(combo)])
    assert res.centers == (1, 3)
    # The answer is still exactly costed on the full data.
    assert res.cost_on_full == pytest.approx(3.0)


def test_cost_target_below_every_cost_is_exhaustive(line_instance):
    cs = identity_weak_coreset(line_instance)
    exhaustive = solve_constrained(cs, line_instance, Unconstrained())
    res = solve_constrained(cs, line_instance, Unconstrained(), cost_target=1.0)
    assert res.tuples_evaluated == exhaustive.tuples_evaluated == 2
    assert res.centers == exhaustive.centers
    assert res.cost_on_full == exhaustive.cost_on_full


def _random_specs(rng, B, k, m):
    """One spec per family, from random bounds that are sometimes infeasible."""
    W = B.total_weight
    shares = rng.dirichlet(np.ones(k))
    if m > 1:
        label_w = np.array([B.label_weight(j) for j in range(m)])
        profile = ClusterProfile(rng.dirichlet(np.ones(k), size=m).T * label_w)
    else:
        profile = ClusterProfile(W * shares)
    alpha = rng.uniform(0.0, 0.4, size=(k, m))
    specs = [
        Unconstrained(),
        Balanced(np.full(k, 0.5 * W / k), np.full(k, 1.5 * W / k)),
        Balanced(W * shares * rng.uniform(0.6, 1.1), W * shares * 1.3),
        FixedProfile(profile),
    ]
    if m > 1:
        specs.append(FractionBounds(alpha, np.minimum(1.0, alpha + rng.uniform(0.2, 0.7))))
    return specs


def _best_or_infeasible(*args, **kwargs):
    try:
        cost, tup, _, solves = best_tuple(*args, **kwargs)
    except Infeasible:
        return "infeasible", None
    return (tup, cost), solves


@pytest.mark.parametrize("seed", range(24))
def test_pruned_walk_matches_exhaustive(seed):
    m = 1 + seed % 2
    inst = random_small_instance(seed, n_max=9, f_max=5, k_max=3, m=m)
    rng = np.random.default_rng(1000 + seed)
    B = WeightedPoints(inst.space, inst.points, rng.uniform(0.3, 3.0, inst.n), inst.labels)
    facilities = np.sort(inst.facilities)
    for spec in _random_specs(rng, B, inst.k, m):
        for ordered in (False, True):
            args = (B, facilities, inst.k, spec, inst.z, ordered)
            pruned, pruned_solves = _best_or_infeasible(*args, prune=True)
            exhaustive, all_solves = _best_or_infeasible(*args, prune=False)
            # Same tuple, bitwise-equal cost, or both infeasible.
            assert pruned == exhaustive, (type(spec).__name__, ordered)
            if exhaustive != "infeasible":
                assert all_solves == count_center_tuples(facilities.size, inst.k, ordered, False)
                assert pruned_solves <= all_solves


def test_mirror_tie_breaks_to_earlier_rank_despite_bound_rounding():
    # Points at +-a_i with one non-dyadic weight and facilities at -f < +f:
    # both one-center tuples cost the same fsum, but their dot-product bounds
    # may differ in the last bit. The earlier rank, -f, must still win.
    winner_bound_above_cost = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 10.0, size=int(rng.integers(5, 40)))
        f = float(rng.uniform(0.5, 5.0))
        coords = np.concatenate([rng.permutation(np.concatenate([a, -a])), [-f, f]])
        n = coords.size - 2
        B = WeightedPoints(MetricSpace.euclidean(coords[:, None]), np.arange(n), np.full(n, 0.1))
        facilities = np.array([n, n + 1])
        exhaustive = best_tuple(B, facilities, 1, Unconstrained(), 1, False, prune=False)
        pruned = best_tuple(B, facilities, 1, Unconstrained(), 1, False)
        assert exhaustive[:2] == pruned[:2] == (exhaustive[0], (n,))
        _, bounds = voronoi_bounds(B, facilities, 1, 1, False, False)
        winner_bound_above_cost += bool(bounds[1] < bounds[0] and bounds[0] > exhaustive[0])
    # +f is visited first and -f's bound exceeds the tied cost: a stop rule
    # without slack would return +f.
    assert winner_bound_above_cost > 0


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("allow_repeats", [False, True])
def test_voronoi_bounds_match_loop_across_blocks(monkeypatch, ordered, allow_repeats):
    inst = make_planar_blobs(12, 6, 3, z=2, seed=5)
    B = inst.weighted_points()
    pool = np.sort(inst.facilities)
    monkeypatch.setattr(meta, "_BOUND_CELLS", 5 * B.size)  # blocks of 5 tuples
    positions, bounds = voronoi_bounds(B, pool, 3, 2, ordered, allow_repeats)
    tuples = list(enumerate_center_tuples(range(pool.size), 3, ordered, allow_repeats))
    assert positions.tolist() == [list(t) for t in tuples]
    dz = B.space.pairwise(B.indices, pool) ** 2
    expected = [B.weights @ dz[:, list(t)].min(axis=1) for t in tuples]
    assert np.allclose(bounds, expected, rtol=1e-12, atol=0.0)


def test_pruned_walk_refuses_more_than_ten_million_tuples(line_instance):
    # C(400, 3) = 10,586,800 tuples: refused before any table is built.
    with pytest.raises(SolverLimit, match="10586800 center tuples exceed the ceiling of 10000000"):
        best_tuple(line_instance.weighted_points(), np.arange(400), 3, Unconstrained(), 1, False)


@pytest.mark.parametrize("seed", range(8))
def test_degenerate_compression_matches_brute_force(seed):
    inst = random_small_instance(seed, n_max=9, f_max=5, k_max=2)
    cs = identity_weak_coreset(inst)
    res = solve_constrained(cs, inst, Unconstrained())
    _, opt, _ = brute_force_opt(inst, Unconstrained())
    assert res.cost_on_full == pytest.approx(opt, abs=1e-7)
    assert res.cost_on_summary == pytest.approx(opt, abs=1e-7)


def test_meta_result_internally_consistent():
    inst = make_planar_blobs(60, 10, 2, m=2, seed=23)
    cs = identity_weak_coreset(inst)
    spec = FractionBounds(np.full(2, 0.1), np.full(2, 0.9))
    res = solve_constrained(cs, inst, spec)
    B = inst.weighted_points()
    assert check_feasibility(res.assignment_on_full, B, spec, k=2) == []
    from weakcore.constraints import assignment_cost

    assert assignment_cost(B, res.assignment_on_full, np.array(res.centers), 1) == pytest.approx(
        res.cost_on_full
    )


def test_solve_with_euclidean_synthetic_centers():
    inst = make_planar_blobs(50, 6, 2, z=2, seed=29)
    from weakcore.candidates import CandidateParams

    cs = build_universal_weak_coreset(
        inst, 0.5, 0.05, mode="euclidean_kmeans", seed=8,
        candidate_params=CandidateParams(
            euclidean_subset_size=2, euclidean_base_size=10, max_euclidean_candidates=300
        ),
    )
    assert cs.alpha == 1.0
    res = solve_constrained(cs, inst, Unconstrained())
    assert res.center_coords is not None and res.center_coords.shape == (2, 2)
    for row, c in zip(res.center_coords, res.centers):
        assert np.array_equal(row, cs.J_coords[c - inst.space.size])
    assert check_feasibility(res.assignment_on_full, inst.weighted_points(), Unconstrained()) == []
    # Synthetic means may beat any facility tuple, but not by pathological amounts.
    _, opt_f, _ = brute_force_opt(inst, Unconstrained())
    assert res.cost_on_full <= 3.0 * opt_f
    assert res.cost_on_full > 0


def test_property_b_implies_summary_bound():
    """Where the winning tuple's summary/full ratio is inside (1 +/- eps),
    the full cost is bounded by (1+eps)/(1-eps) times the summary cost."""
    inst = make_planar_blobs(150, 15, 3, seed=41)
    from weakcore.coreset import SummaryParams

    eps = 0.25
    cs = build_universal_weak_coreset(
        inst, 0.2, 0.05, seed=13, summary_params=SummaryParams(sample_count=12, seed=13)
    )
    res = solve_constrained(cs, inst, Unconstrained())
    ratio = res.cost_on_full / res.cost_on_summary
    if 1 - eps <= ratio <= 1 + eps:
        assert res.cost_on_full <= (1 + eps) / (1 - eps) * res.cost_on_summary + 1e-9
