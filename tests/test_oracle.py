import numpy as np
import pytest

import weakcore.constraints as constraints
import weakcore.oracle as oracle
from conftest import count_assignments, count_tables, one_spec_per_family, random_small_instance
from oracles import exhaustive_voronoi_opt
from weakcore.cli import make_planar_blobs, make_random_metric
from weakcore.constraints import Balanced, FixedProfile, Unconstrained, profile_cost, voronoi_profile
from weakcore.coreset import SummaryParams, build_universal_weak_coreset, identity_weak_coreset
from weakcore.flowlp import SolverLimit
from weakcore.meta import solve_constrained
from weakcore.model import ClusteringInstance, ClusterProfile, ValidationError
from weakcore.oracle import brute_force_opt, verify_property_A, verify_property_B


def test_brute_force_line_k2(line_instance):
    centers, cost, _ = brute_force_opt(line_instance, Unconstrained())
    assert cost == pytest.approx(3.0)


def test_brute_force_line_k1(line_instance):
    inst = ClusteringInstance(
        line_instance.space,
        line_instance.points,
        line_instance.weights,
        line_instance.facilities,
        k=1,
    )
    centers, cost, _ = brute_force_opt(inst, Unconstrained())
    assert centers == (2,)
    assert cost == pytest.approx(18.0)


def test_brute_force_k_equals_f_zero_cost(line_instance):
    inst = ClusteringInstance(
        line_instance.space,
        line_instance.points,
        line_instance.weights,
        line_instance.facilities,
        k=5,
    )
    _, cost, _ = brute_force_opt(inst, Unconstrained())
    assert cost == pytest.approx(0.0)


def test_brute_force_matches_independent_enumeration():
    for seed in range(10):
        inst = random_small_instance(seed, n_max=8, f_max=5, k_max=2, euclidean=True)
        _, cost, _ = brute_force_opt(inst, Unconstrained())
        d = inst.space.pairwise(inst.points, inst.facilities) ** inst.z
        _, expect = exhaustive_voronoi_opt(d, inst.weights, inst.k)
        assert cost == pytest.approx(expect, abs=1e-9)


def test_brute_force_ceiling():
    inst = make_planar_blobs(10, 10, 3, seed=1)
    with pytest.raises(SolverLimit):
        brute_force_opt(inst, Unconstrained(), max_solves=10)


def test_brute_force_fixed_profile_of_own_winner(line_instance):
    centers, cost, _ = brute_force_opt(line_instance, Unconstrained())
    prof = voronoi_profile(line_instance.weighted_points(), np.array(centers), 1)
    _, cost2, _ = brute_force_opt(line_instance, FixedProfile(prof))
    assert cost2 == pytest.approx(cost)


def test_oracle_never_above_meta():
    for seed in range(5):
        inst = random_small_instance(seed + 100, n_max=8, f_max=5, k_max=2)
        cs = identity_weak_coreset(inst)
        W = inst.total_weight
        spec = Balanced(np.full(inst.k, W / (4 * inst.k)), np.full(inst.k, W))
        res = solve_constrained(cs, inst, spec)
        _, opt, _ = brute_force_opt(inst, spec)
        assert opt <= res.cost_on_full + 1e-9


def test_property_b_identity_ratios_exactly_one(line_instance):
    cs = identity_weak_coreset(line_instance)
    rep = verify_property_B(line_instance, cs, trials=30, eps=0.25, seed=5)
    assert rep.passes == 30
    assert rep.worst_ratio == 1.0
    assert all(r.ratio == 1.0 for r in rep.records)


def test_property_b_trials_start_full_solves_from_summary_prices(monkeypatch):
    """Each trial solves the summary first. A Voronoi-profile trial needs no
    full solve; a random-profile trial offers the summary's prices to its
    full solve. Most of those take the warm start and need fewer
    augmentations than cold solves of the same problems; one that keeps the
    Voronoi start is the cold solve."""
    inst = make_planar_blobs(600, 5, 2, seed=5)
    cs = build_universal_weak_coreset(
        inst, 0.5, 0.05, seed=5, summary_params=SummaryParams(sample_count=10, seed=5)
    )
    full = []
    solve = constraints.solve_bounded_transportation

    def spy(problem, prices=None):
        sol = solve(problem, prices)
        if problem.cost.shape[0] == inst.n:
            assert prices is not None
            full.append((sol, solve(problem)))
        return sol

    monkeypatch.setattr(constraints, "solve_bounded_transportation", spy)
    rep = verify_property_B(inst, cs, trials=10, eps=0.25, seed=5)
    assert [r.profile_kind for r in rep.records] == ["voronoi", "random"] * 5 and len(full) == 5
    assert rep.stats == {"full_solves": 5, "summary_solves": 10, "voronoi_trials": 5, "tables": 2}
    for warm, cold in full:
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
    assert sum(warm.warm_start for warm, _ in full) >= 3
    for warm, cold in full:
        if warm.warm_start:
            assert warm.augmentations < cold.augmentations
        else:  # the start rule kept the Voronoi start: the cold solve, bit for bit
            assert warm.augmentations == cold.augmentations and np.array_equal(warm.flow, cold.flow)
    assert sum(w.augmentations for w, _ in full) < sum(c.augmentations for _, c in full) / 2


@pytest.mark.parametrize("z", [1, 2])
def test_property_b_voronoi_trial_cost_equals_its_solve(z):
    """A Voronoi-profile trial prices the full data with the Voronoi cost
    instead of a solve: the Voronoi assignment is optimal and meets its own
    profile, so the profile solve it replaces returns the same cost, bit for
    bit, and moves no point."""
    checked = 0
    for seed in range(6):
        make = make_planar_blobs if seed % 2 else make_random_metric
        inst = make(120 + 40 * seed, 6, 2 + seed % 3, z=z, seed=seed)
        cs = build_universal_weak_coreset(
            inst, 0.5, 0.05, seed=seed, summary_params=SummaryParams(sample_count=5, seed=seed)
        )
        rep = verify_property_B(inst, cs, trials=8, eps=0.25, seed=seed)
        full = inst.weighted_points()
        for r in rep.records[0::2]:
            stats = {}
            gamma = ClusterProfile(np.array(r.profile))
            cost, _ = profile_cost(full, np.array(r.centers), gamma, z, stats=stats)
            assert r.profile_kind == "voronoi" and cost == r.cost_full
            assert stats["transport_augmentations"] == 0
            checked += 1
    assert checked == 24


def test_property_b_degenerate_profile_supported(line_instance):
    # A profile concentrating everything on one cluster still yields a ratio.
    cs = identity_weak_coreset(line_instance)
    rep = verify_property_B(line_instance, cs, trials=2, eps=0.25, seed=0)
    assert len(rep.records) == 2
    assert all(np.isfinite(r.ratio) for r in rep.records)


def test_property_b_compressed_statistics():
    inst = make_planar_blobs(200, 20, 3, seed=55)
    cs = build_universal_weak_coreset(
        inst, 0.2, 0.05, seed=7, summary_params=SummaryParams(sample_count=12, seed=7)
    )
    rep = verify_property_B(inst, cs, trials=200, eps=0.25, seed=99)
    assert rep.pass_fraction >= 0.95
    assert rep.trials == 200 and len(rep.records) == 200


def test_property_b_trials_reproducible(line_instance):
    cs = identity_weak_coreset(line_instance)
    a = verify_property_B(line_instance, cs, trials=10, eps=0.25, seed=3)
    b = verify_property_B(line_instance, cs, trials=10, eps=0.25, seed=3)
    assert [r.centers for r in a.records] == [r.centers for r in b.records]
    assert [r.profile for r in a.records] == [r.profile for r in b.records]


def test_property_a_with_j_equals_f(line_instance):
    cs = identity_weak_coreset(line_instance)
    rep = verify_property_A(line_instance, cs)
    assert rep.worst_ratio == pytest.approx(1.0)
    assert rep.passed


def test_property_a_reuses_brute_force_when_j_is_sorted_f(line_instance, monkeypatch):
    import weakcore.meta as meta

    calls = []
    real = meta.optimal_feasible_cost

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(meta, "optimal_feasible_cost", counting)
    cs = identity_weak_coreset(line_instance)
    rep = verify_property_A(line_instance, cs)
    assert len(calls) == 10  # C(5, 2) tuples, walked once
    assert rep.worst_ratio == 1.0
    assert rep.records[0].centers == brute_force_opt(line_instance, Unconstrained())[0] == (1, 3)

    # J holding F in another order is walked on its own: ties may break differently.
    calls.clear()
    shuffled = type(cs)(
        S=cs.S, v=cs.v, alpha=cs.alpha, z=cs.z, epsilon=cs.epsilon, delta=cs.delta,
        seed=cs.seed, mode=cs.mode, J=cs.J[::-1].copy(), info=cs.info,
    )
    rep = verify_property_A(line_instance, shuffled)
    assert len(calls) == 12  # 10 exhaustive over F, 2 pruned over J
    assert rep.worst_ratio == 1.0


def test_property_a_reports_bad_j(line_instance):
    cs = identity_weak_coreset(line_instance)
    # Remove every facility near the right cluster; ratio grows but is reported.
    crippled = type(cs)(
        S=cs.S, v=cs.v, alpha=cs.alpha, z=cs.z, epsilon=cs.epsilon, delta=cs.delta,
        seed=cs.seed, mode=cs.mode, J=np.array([0, 1, 2]), info=cs.info,
    )
    rep = verify_property_A(line_instance, crippled)
    assert rep.worst_ratio > 1.0


@pytest.mark.parametrize("prop", ["A", "B"])
def test_verify_rejects_a_coreset_built_for_another_z(line_instance, prop):
    """A z=1 coreset scored with z=2 is an input error, not a silent pass."""
    cs = identity_weak_coreset(line_instance)
    with pytest.raises(ValidationError, match="z=1"):
        if prop == "A":
            verify_property_A(line_instance.with_z(2), cs)
        else:
            verify_property_B(line_instance, cs, trials=2, eps=0.1, z=2)


def test_property_a_statistical_suite():
    eps = 0.25
    hits = 0
    trials = 25
    for seed in range(trials):
        inst = random_small_instance(seed + 500, n_max=12, f_max=8, k_max=2, z=1)
        cs = build_universal_weak_coreset(inst, eps, 0.05, seed=seed)
        rep = verify_property_A(inst, cs)
        hits += rep.worst_ratio <= 3 + eps
    assert hits / trials >= 0.95


def test_property_b_builds_one_full_and_one_summary_table_per_call(monkeypatch):
    """One full-data table and one summary table over the distinct centers
    drawn serve every trial of a call; on the identity coreset one table
    serves both sides. Tables too large for ``MAX_TABLE_CELLS`` are built
    for runs of trials instead, with the same records."""
    inst = make_planar_blobs(300, 5, 2, seed=5)
    cs = build_universal_weak_coreset(
        inst, 0.5, 0.05, seed=5, summary_params=SummaryParams(sample_count=5, seed=5)
    )
    _, summary, _ = cs.bind(inst, inst.z)
    assert summary.size < inst.n
    tables = count_tables(monkeypatch)
    whole = verify_property_B(inst, cs, trials=6, eps=0.25, seed=5)
    columns = len({c for r in whole.records for c in r.centers})
    assert 2 < columns <= 5
    assert tables == [(inst.n, columns), (summary.size, columns)] and whole.stats["tables"] == 2
    tables.clear()
    rep = verify_property_B(inst, identity_weak_coreset(inst), trials=4, eps=0.25, seed=5)
    assert tables == [(inst.n, len({c for r in rep.records for c in r.centers}))]
    assert rep.stats["tables"] == 1

    tables.clear()
    monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", 3 * inst.n)
    runs = verify_property_B(inst, cs, trials=6, eps=0.25, seed=5)
    assert all(rows in (inst.n, summary.size) and cols <= 3 for rows, cols in tables)
    assert runs.stats["tables"] == len(tables) > 2
    assert [vars(r) for r in runs.records] == [vars(r) for r in whole.records]


def test_each_answer_builds_one_assignment(monkeypatch):
    """Exact solves return their support; only an answer wraps one into an
    Assignment. solve_constrained builds one per call for every family (its
    full-data answer), brute_force_opt one (its winner's), and a property-B
    verify none, although each of its trials runs exact solves."""
    inst = make_planar_blobs(120, 6, 2, m=2, seed=3)
    cs = build_universal_weak_coreset(
        inst, 0.5, 0.05, seed=3, summary_params=SummaryParams(sample_count=5, seed=3)
    )
    built = count_assignments(monkeypatch)
    for spec in one_spec_per_family(inst.weighted_points(), 2, np.random.default_rng(3)):
        built.clear()
        res = solve_constrained(cs, inst, spec)
        assert built == [len(res.assignment_on_full)], type(spec).__name__
        built.clear()
        _, _, sigma = brute_force_opt(inst, spec)
        assert built == [len(sigma)], type(spec).__name__
    built.clear()
    report = verify_property_B(inst, cs, trials=10, eps=0.5, seed=3)
    assert report.stats["full_solves"] > 0 and report.stats["summary_solves"] == 10
    assert built == []
