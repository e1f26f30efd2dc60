import numpy as np
import pytest

import dataclasses

from conftest import count_tables, one_spec_per_family, random_small_instance
from oracles import exhaustive_voronoi_opt
from weakcore.constraints import (
    Balanced,
    FixedProfile,
    FractionBounds,
    Unconstrained,
    is_symmetric,
    optimal_feasible_cost,
)
from weakcore.coreset import SummaryParams, build_universal_weak_coreset, identity_weak_coreset
from weakcore.flowlp import Infeasible, SolverError, SolverLimit
import weakcore.constraints as constraints
import weakcore.meta as meta
from weakcore.meta import (
    best_tuple,
    count_center_tuples,
    enumerate_center_tuples,
    solve_constrained,
    voronoi_bounds,
)
from weakcore.model import (
    Assignment,
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
    # Ordered mode: 20 tuples; the Voronoi stop leaves 12, and the incumbents'
    # prices skip 9 of those, so 3 are solved. With the full-data re-solve,
    # which starts warm from the winner's prices, that is 4 transport solves.
    assert res.tuples_evaluated == 3
    assert res.stats == {
        "tuples_total": 20, "tuples_solved": 3, "tuples_infeasible": 0, "tuples_skipped_by_price": 9,
        "transport_solves": 4, "transport_augmentations": 3, "transport_searches": 3, "warm_starts": 1,
    }
    totals = res.assignment_on_full.cluster_totals(2)
    assert totals[0] >= 4.0 - 1e-9


def test_heterogeneous_bounds_walk_ordered_tuples(line_instance):
    """Bounds that tell the clusters apart need ordered tuples: walking
    unordered ones (what an unordered override did) missed the optimum (4, 1)
    at 10.0 and returned (0, 2) at 16.0, in the solver and in the exhaustive
    reference alike. The spec alone picks the order, so no override is taken."""
    cs = identity_weak_coreset(line_instance)
    spec = Balanced(np.array([1.0, 4.0]), np.array([5.0, 5.0]))
    res = solve_constrained(cs, line_instance, spec)
    assert (res.centers, res.cost_on_full) == ((4, 1), 10.0)
    assert brute_force_opt(line_instance, spec)[:2] == ((4, 1), 10.0)
    with pytest.raises(TypeError):
        solve_constrained(cs, line_instance, spec, ordered=False)
    with pytest.raises(TypeError):
        brute_force_opt(line_instance, spec, ordered=False)
    with pytest.raises(TypeError):
        best_tuple(line_instance.weighted_points(), np.arange(5), 2, spec, 1, ordered=False)


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
    """One spec per family, from random bounds that are sometimes infeasible,
    plus the symmetric specs that the priced bound may match slot orders
    for: balanced bounds with no upper bound, a fixed profile with equal
    rows and, when labeled, a labeled one with equal rows and fraction
    bounds shared by every cluster."""
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
    specs.append(Balanced(np.full(k, rng.uniform(0.05, 0.3) * W), np.full(k, np.inf)))
    specs.append(FixedProfile(ClusterProfile(np.full(k, W / k))))
    if m > 1:
        specs.append(FixedProfile(ClusterProfile(np.tile(label_w / k, (k, 1)))))
        a = rng.uniform(0.0, 0.45)
        specs.append(FractionBounds(np.full((k, m), a), np.full((k, m), min(1.0, a + rng.uniform(0.1, 0.6)))))
    return specs


def _best_or_infeasible(*args, **kwargs):
    stats = {}
    try:
        cost, tup, _, solves, _ = best_tuple(*args, stats=stats, **kwargs)
    except Infeasible:
        return "infeasible", None
    assert solves == stats["tuples_solved"]
    assert stats["tuples_solved"] + stats["tuples_skipped_by_price"] <= stats["tuples_total"]
    assert stats["tuples_infeasible"] <= stats["tuples_solved"]
    return (tup, cost), solves


@pytest.mark.parametrize("seed", range(24))
def test_pruned_walk_matches_exhaustive(seed):
    m = 1 + seed % 2
    inst = random_small_instance(seed, n_max=9, f_max=5, k_max=3, m=m)
    rng = np.random.default_rng(1000 + seed)
    B = WeightedPoints(inst.space, inst.points, rng.uniform(0.3, 3.0, inst.n), inst.labels)
    facilities = np.sort(inst.facilities)
    for spec in _random_specs(rng, B, inst.k, m):
        args = (B, facilities, inst.k, spec, inst.z)
        pruned, pruned_solves = _best_or_infeasible(*args, prune=True)
        exhaustive, all_solves = _best_or_infeasible(*args, prune=False)
        # Same tuple, bitwise-equal cost, or both infeasible.
        assert pruned == exhaustive, type(spec).__name__
        if exhaustive != "infeasible":
            ordered = not is_symmetric(spec)
            assert all_solves == count_center_tuples(facilities.size, inst.k, ordered, False)
            assert pruned_solves <= all_solves


@pytest.mark.parametrize("seed", range(12))
def test_equal_row_profile_walk_matches_every_ordered_tuple(seed):
    """A fixed profile with equal rows is symmetric, so the walk takes
    unordered tuples; its cost must still be the least over every ordered
    tuple, solved one by one."""
    m = 1 + seed % 2
    inst = random_small_instance(seed, n_max=9, f_max=5, k_max=3, m=m)
    rng = np.random.default_rng(3000 + seed)
    B = WeightedPoints(inst.space, inst.points, rng.uniform(0.3, 3.0, inst.n), inst.labels)
    facilities = np.sort(inst.facilities)
    k = inst.k
    profiles = [np.full(k, B.total_weight / k)]
    if m > 1:
        profiles.append(np.tile([B.label_weight(j) / k for j in range(m)], (k, 1)))
    for values in profiles:
        spec = FixedProfile(ClusterProfile(values))
        assert is_symmetric(spec)
        stats = {}
        cost = best_tuple(B, facilities, k, spec, inst.z, stats=stats)[0]
        assert stats["tuples_total"] == count_center_tuples(facilities.size, k, False, False)
        direct = min(
            optimal_feasible_cost(B, np.array(t), spec, inst.z)[0]
            for t in enumerate_center_tuples(facilities, k, ordered=True)
        )
        assert cost == pytest.approx(direct, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", range(12))
def test_priced_bound_never_exceeds_the_exact_cost(monkeypatch, seed):
    """Weak duality, checked on its own: the bound that one feasible tuple's
    multipliers put on any tuple, as the largest over the slot orders the
    walk tries, is at most that tuple's exact cost, and it meets the cost of
    the tuple the multipliers came from. Fraction LP multipliers are <= 0."""
    m = 1 + seed % 2
    inst = random_small_instance(seed, n_max=8, f_max=5, k_max=3, m=m)
    rng = np.random.default_rng(2000 + seed)
    B = WeightedPoints(inst.space, inst.points, rng.uniform(0.3, 3.0, inst.n), inst.labels)
    duals = []
    solve_lp = constraints.solve_lp

    def spy(lp):
        sol = solve_lp(lp)
        duals.append(sol.ub_duals)
        return sol

    monkeypatch.setattr(constraints, "solve_lp", spy)
    tuples = np.array(list(enumerate_center_tuples(np.sort(inst.facilities), inst.k, ordered=True)))
    d = B.space.pairwise(B.indices, tuples.ravel()).reshape(B.size, *tuples.shape) ** inst.z
    for spec in one_spec_per_family(B, inst.k, rng) + _random_specs(rng, B, inst.k, m):
        costs, prices = np.full(len(tuples), np.inf), [None] * len(tuples)
        for r, t in enumerate(tuples):
            try:
                costs[r], _, _, prices[r] = optimal_feasible_cost(B, t, spec, inst.z, return_prices=True)
            except Infeasible:
                pass
        feasible = np.flatnonzero(costs < np.inf)
        if isinstance(spec, Unconstrained):  # the Voronoi bound is exact: nothing to price
            assert all(p is None for p in prices)
            continue
        slack = 1e-9 * np.maximum(1.0, np.abs(costs))
        for r in feasible:
            rows, offset = constraints._lagrangian(B, spec, prices[r])
            bounds = np.max(
                [B.weights @ (d - rows[:, None, order]).min(axis=2) for order in meta._slot_orders(inst.k, spec)],
                axis=0,
            ) + offset
            assert np.all(bounds <= costs + slack), type(spec).__name__
            own = B.weights @ (d[:, r] - rows).min(axis=1) + offset
            assert own >= costs[r] - slack[r], type(spec).__name__
    assert (len(duals) > 0) == (m > 1)
    assert all(np.all(y <= 0.0) for y in duals)


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
        exhaustive = best_tuple(B, facilities, 1, Unconstrained(), 1, prune=False)
        pruned = best_tuple(B, facilities, 1, Unconstrained(), 1)
        assert exhaustive[:2] == pruned[:2] == (exhaustive[0], (n,))
        bounds = voronoi_bounds(B, np.arange(2)[:, None], B.space.pairwise(B.indices, facilities))
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
    tuples = list(enumerate_center_tuples(range(pool.size), 3, ordered, allow_repeats))
    positions = meta._positions(pool.size, 3, ordered, allow_repeats, len(tuples))
    assert positions.tolist() == [list(t) for t in tuples]
    dz = B.space.pairwise(B.indices, pool) ** 2
    bounds = voronoi_bounds(B, positions, dz)
    expected = [B.weights @ dz[:, list(t)].min(axis=1) for t in tuples]
    assert np.allclose(bounds, expected, rtol=1e-12, atol=0.0)


def test_pruned_walk_refuses_more_than_ten_million_tuples(line_instance):
    # C(400, 3) = 10,586,800 tuples: refused before any table is built.
    with pytest.raises(SolverLimit, match="10586800 center tuples exceed the ceiling of 10000000"):
        best_tuple(line_instance.weighted_points(), np.arange(400), 3, Unconstrained(), 1)


@pytest.mark.parametrize("seed", range(8))
def test_degenerate_compression_matches_brute_force(seed):
    inst = random_small_instance(seed, n_max=9, f_max=5, k_max=2)
    cs = identity_weak_coreset(inst)
    res = solve_constrained(cs, inst, Unconstrained())
    _, opt, _ = brute_force_opt(inst, Unconstrained())
    assert res.cost_on_full == pytest.approx(opt, abs=1e-7)
    assert res.cost_on_summary == pytest.approx(opt, abs=1e-7)


@pytest.mark.parametrize("kind", ["balanced", "profile", "labeled-profile"])
def test_resolve_starts_from_the_winners_summary_prices(monkeypatch, kind):
    """Stage 3 offers the full re-solve the sink prices of the winning
    tuple's summary solve from the enumeration walk, one row per label
    class: no summary solve runs twice, and the warm re-solve costs what a
    cold one does."""
    m = 2 if kind == "labeled-profile" else 1
    inst = make_planar_blobs(600, 5, 2, m=m, seed=3)
    cs = build_universal_weak_coreset(
        inst, 0.5, 0.05, seed=3, summary_params=SummaryParams(sample_count=10, seed=3)
    )
    B = inst.weighted_points()
    W = B.total_weight
    if kind == "balanced":
        spec = Balanced(np.full(2, 0.35 * W), np.full(2, 0.65 * W))
    elif kind == "profile":
        spec = FixedProfile(ClusterProfile([0.4 * W, 0.6 * W]))
    else:
        label = np.array([B.label_weight(0), B.label_weight(1)])
        spec = FixedProfile(ClusterProfile(np.outer([0.3, 0.7], label)))
    calls = []
    solve = constraints.solve_bounded_transportation

    def spy(problem, prices=None):
        sol = solve(problem, prices)
        calls.append((prices, sol))
        return sol

    monkeypatch.setattr(constraints, "solve_bounded_transportation", spy)
    res = solve_constrained(cs, inst, spec)
    walk, resolve = calls[:-m], calls[-m:]
    assert len(walk) == res.tuples_evaluated * m
    assert all(prices is None for prices, _ in walk)
    offered = np.stack([prices for prices, _ in resolve])
    groups = [np.stack([sol.prices for _, sol in walk[i : i + m]]) for i in range(0, len(walk), m)]
    assert any(np.array_equal(offered, g) for g in groups)
    monkeypatch.undo()
    cold, _, _ = optimal_feasible_cost(B, np.array(res.centers), spec, inst.z)
    assert res.cost_on_full == pytest.approx(cold, rel=1e-12)


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


@pytest.mark.parametrize("prune", [True, False])
def test_best_tuple_builds_one_table(monkeypatch, prune):
    """The walk builds one |B| x |candidates| D^z table, for the bounds and
    for every tuple's exact solve, and none per tuple."""
    inst = make_planar_blobs(80, 7, 3, m=2, seed=2)
    B = inst.weighted_points()
    pool = np.sort(inst.facilities)
    tables = count_tables(monkeypatch)
    for spec in one_spec_per_family(B, 3, np.random.default_rng(2)):
        tables.clear()
        evaluated = best_tuple(B, pool, 3, spec, 1, prune=prune)[3]
        assert tables == [(B.size, pool.size)], type(spec).__name__
        assert evaluated == count_center_tuples(pool.size, 3, not is_symmetric(spec), False) or prune


def test_stage_3_builds_one_full_table_and_checks_conservation_once(monkeypatch):
    """solve_constrained builds one summary table for the walk and one
    full-data table for the re-solve, and checks weight conservation once,
    on the full-data answer of a transport or LP family."""
    inst = make_planar_blobs(200, 6, 2, m=2, seed=8)
    cs = build_universal_weak_coreset(
        inst, 0.5, 0.05, seed=8, summary_params=SummaryParams(sample_count=5, seed=8)
    )
    candidate_ids, summary, full = cs.bind(inst, inst.z)
    assert summary.size < full.size
    tables = count_tables(monkeypatch)
    checks = []
    check = Assignment.check_conservation

    def spy(self, B, *args):
        checks.append(B.size)
        return check(self, B, *args)

    monkeypatch.setattr(Assignment, "check_conservation", spy)
    for spec in one_spec_per_family(full, 2, np.random.default_rng(8)):
        tables.clear()
        checks.clear()
        solve_constrained(cs, inst, spec)
        assert tables == [(summary.size, candidate_ids.size), (full.size, 2)], type(spec).__name__
        assert checks == ([] if isinstance(spec, Unconstrained) else [full.size]), type(spec).__name__


def test_stage_3_catches_a_flow_that_drops_a_point(monkeypatch):
    """Solves read their costs from the table and rescale each point's
    masses to its weight; a full-data flow that leaves a point with no mass
    at all is caught by stage 3's conservation check."""
    inst = make_planar_blobs(200, 6, 2, seed=8)
    cs = build_universal_weak_coreset(
        inst, 0.5, 0.05, seed=8, summary_params=SummaryParams(sample_count=5, seed=8)
    )
    solve = constraints.solve_bounded_transportation

    def drop_a_point(problem, prices=None):
        sol = solve(problem, prices)
        if problem.cost.shape[0] < inst.n:
            return sol
        keep = sol.rows != 7
        return dataclasses.replace(sol, rows=sol.rows[keep], cols=sol.cols[keep], masses=sol.masses[keep])

    monkeypatch.setattr(constraints, "solve_bounded_transportation", drop_a_point)
    W = inst.total_weight
    with pytest.raises(SolverError, match="weight conservation: point 7: assigned mass 0 "):
        solve_constrained(cs, inst, Balanced(np.full(2, 0.3 * W), np.full(2, 0.7 * W)))
