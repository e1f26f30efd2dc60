"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Budgeted criteria also assert their runtime."""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_small_instance
from weakcore.cli import main, make_planar_blobs
from weakcore.candidates import CandidateParams
from weakcore.constraints import (
    Balanced,
    FixedProfile,
    FractionBounds,
    Unconstrained,
    ldiversity_bounds,
    optimal_feasible_cost,
    profile_cost,
    voronoi_profile,
)
from weakcore.coreset import SummaryParams, build_universal_weak_coreset, identity_weak_coreset
from weakcore.flowlp import BoundedTransportationProblem, LinearProgram, solve_bounded_transportation, solve_lp
from weakcore.meta import solve_constrained
from weakcore.model import ClusteringInstance, ClusterProfile, MetricSpace, WeightedPoints
from weakcore.oracle import brute_force_opt, verify_property_B


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_transportation_vs_lp_oracle():
    """Transportation solves match the LP oracle and carry a slackness certificate."""
    rng = np.random.default_rng(20240501)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 4))
        cost = rng.uniform(0.05, 10.0, size=(m, n))
        supplies = rng.uniform(0.1, 5.0, size=m)
        split = rng.exponential(1.0, size=n)
        demands = supplies.sum() * split / split.sum()
        p = BoundedTransportationProblem(cost, supplies, demands, demands)
        sol = solve_bounded_transportation(p)

        red = cost - sol.source_potentials[:, None] - sol.sink_potentials[None, :]
        assert red.min() >= -1e-9, "reduced-cost certificate failed"
        on_flow = sol.flow > 0
        if on_flow.any():
            assert np.max(np.abs(red[on_flow])) <= 1e-9, "slackness certificate failed"

        received = np.tile(np.eye(n), m)  # sink totals, as a pair of <= rows each
        lp = solve_lp(
            LinearProgram(
                objective=cost,
                b_eq=supplies,
                a_ub=np.vstack([received, -received]),
                b_ub=np.concatenate([demands, -demands]),
            )
        )
        worst = max(worst, abs(sol.objective - lp.objective))
        assert abs(sol.objective - lp.objective) <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, True, f"200 solves, worst LP gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_functional_identities():
    """Voronoi-profile identity, vacuous bounds, [0,1] fractions, cost scaling."""
    worst_voronoi = worst_scale = 0.0
    for seed in range(100):
        inst = random_small_instance(seed, n_max=9, f_max=6, k_max=2, m=2, z=1 + seed % 2)
        B = inst.weighted_points()
        rng = np.random.default_rng(seed + 10_000)
        centers = np.sort(rng.choice(inst.facilities, size=inst.k, replace=False))
        z = inst.z
        W = B.total_weight

        direct, _ = optimal_feasible_cost(B, centers, Unconstrained(), z)[:2]
        via, _ = profile_cost(B, centers, voronoi_profile(B, centers, z), z)
        worst_voronoi = max(worst_voronoi, abs(via - direct) / max(direct, 1e-12))
        assert abs(via - direct) <= 1e-9 * max(1.0, direct)

        vac, _, _ = optimal_feasible_cost(
            B, centers, Balanced(np.zeros(inst.k), np.full(inst.k, W)), z
        )
        assert abs(vac - direct) <= 1e-9 * max(1.0, direct)

        frac, _, _ = optimal_feasible_cost(
            B, centers, FractionBounds(np.zeros(inst.k), np.ones(inst.k)), z
        )
        assert abs(frac - direct) <= 1e-7 * max(1.0, direct)

        s = float(rng.uniform(0.3, 6.0))
        if inst.space.is_euclidean:
            scaled_space = MetricSpace.euclidean(inst.space.coords * s)
        else:
            scaled_space = MetricSpace.explicit(inst.space.matrix * s, triangle_check="off")
        Bs = WeightedPoints(scaled_space, B.indices, B.weights, B.labels)
        draws = rng.exponential(1.0, size=inst.k)
        gamma = ClusterProfile(W * draws / draws.sum())
        base, _ = profile_cost(B, centers, gamma, z)
        scaled, _ = profile_cost(Bs, centers, gamma, z)
        rel = abs(scaled - base * s**z) / max(1e-12, base * s**z)
        worst_scale = max(worst_scale, rel)
        assert rel <= 1e-9 or base == 0.0
    report(2, True, f"100 instances; worst voronoi gap {worst_voronoi:.2e}, "
                    f"worst scaling gap {worst_scale:.2e}")


def _feasible_specs_for(inst, rng):
    """One representative spec per constraint family, all feasible."""
    W = inst.total_weight
    k = inst.k
    specs = [("unconstrained", Unconstrained())]
    centers = np.sort(rng.choice(inst.facilities, size=k, replace=False))
    specs.append(
        ("profile-voronoi", FixedProfile(voronoi_profile(inst.weighted_points(), centers, inst.z)))
    )
    draws = rng.exponential(1.0, size=k)
    specs.append(("profile-random", FixedProfile(ClusterProfile(W * draws / draws.sum()))))
    specs.append(("balanced-vacuous", Balanced(np.zeros(k), np.full(k, W))))
    target = W * np.random.default_rng(rng.integers(2**31)).dirichlet(np.ones(k))
    lower = target * rng.uniform(0.2, 0.8, size=k)
    upper = target + (W - target) * rng.uniform(0.2, 0.8, size=k)
    specs.append(("balanced-random", Balanced(lower, np.minimum(upper, W))))
    if inst.labels is not None:
        shares = np.array(
            [inst.weights[inst.labels == j].sum() / W for j in range(inst.n_labels)]
        )
        alpha = np.full(k, float(rng.uniform(0, shares.min())))
        beta = np.full(k, float(rng.uniform(shares.max(), 1.0)))
        specs.append(("fractions", FractionBounds(alpha, beta)))
        l_least = max(inst.n_labels, math.ceil(1.0 / shares.min() - 1e-12))
        specs.append(("ldiv-at-least", ldiversity_bounds(l_least, k, inst.n_labels)))
        l_most = max(1, math.floor(1.0 / shares.max() + 1e-12))
        specs.append(("ldiv-at-most", ldiversity_bounds(l_most, k, inst.n_labels, at_most=True)))
    return specs


def test_criterion_3_degenerate_compression_exact():
    """With S=X, v=w, J=F the meta-solver equals brute force for every family."""
    start = time.perf_counter()
    pairs = 0
    worst = 0.0
    for seed in range(16):
        labeled = seed % 2 == 1
        inst = random_small_instance(
            seed + 300, n_max=10, f_max=6, k_max=2, m=2 if labeled else 1
        )
        cs = identity_weak_coreset(inst)
        rng = np.random.default_rng(seed + 77)
        for name, spec in _feasible_specs_for(inst, rng):
            res = solve_constrained(cs, inst, spec)
            _, opt, _ = brute_force_opt(inst, spec)
            gap = abs(res.cost_on_full - opt)
            worst = max(worst, gap)
            assert gap <= 1e-7, f"{name} mismatch on seed {seed}: {res.cost_on_full} vs {opt}"
            pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs >= 100
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"
    report(3, True, f"{pairs} instance/spec pairs exact (worst gap {worst:.2e}), {elapsed:.1f}s")


@pytest.mark.parametrize(
    "z,window,compressed_samples",
    [(1, 0.25, 12), (2, 0.30, 16)],
    ids=["z1", "z2"],
)
def test_criterion_4_property_b(z, window, compressed_samples):
    """Summary cost preservation over 500 random (C, Gamma) trials."""
    start = time.perf_counter()
    inst = make_planar_blobs(200, 25, 3, z=z, seed=2024 + z)
    cs = build_universal_weak_coreset(inst, 0.2, 0.05, seed=31)
    rep = verify_property_B(inst, cs, trials=500, eps=window, z=z, seed=404)
    assert rep.pass_fraction >= 0.95

    # The default budget exceeds n=200, so S=X above; repeat with real compression.
    cs2 = build_universal_weak_coreset(
        inst, 0.2, 0.05, seed=32,
        summary_params=SummaryParams(sample_count=compressed_samples, seed=32),
    )
    assert cs2.S.size < inst.n
    rep2 = verify_property_B(inst, cs2, trials=500, eps=window, z=z, seed=505)
    elapsed = time.perf_counter() - start
    assert rep2.pass_fraction >= 0.95
    assert elapsed < 120.0, f"criterion 4 (z={z}) took {elapsed:.1f}s"
    report(
        4,
        True,
        f"z={z}: identity {rep.passes}/500 (worst {rep.worst_ratio:.3f}), "
        f"compressed |S|={cs2.S.size} {rep2.passes}/500 (worst {rep2.worst_ratio:.3f}), "
        f"{elapsed:.1f}s",
    )


def _random_balanced_suite(z, seeds, eps=0.25):
    hits = 0
    ratios = []
    for seed in seeds:
        inst = random_small_instance(seed, n_max=12, f_max=8, k_max=2, z=z)
        if inst.k < 2:
            inst = ClusteringInstance(
                inst.space, inst.points, inst.weights, inst.facilities, 2, z, inst.labels
            )
        rng = np.random.default_rng(seed + 9_000)
        W = inst.total_weight
        target = W * rng.dirichlet(np.ones(2))
        lower = target * rng.uniform(0.2, 0.8, size=2)
        upper = np.minimum(target + (W - target) * rng.uniform(0.2, 0.8, size=2), W)
        spec = Balanced(lower, upper)
        cs = build_universal_weak_coreset(inst, eps, 0.05, seed=seed)
        res = solve_constrained(cs, inst, spec)
        _, opt, _ = brute_force_opt(inst, spec)
        ratio = res.cost_on_full / opt if opt > 0 else 1.0
        ratios.append(ratio)
        bound = (3 if z == 1 else 9) + eps
        hits += ratio <= bound + 1e-9
    return hits, ratios


def test_criterion_5_approximation_ratio():
    """Coreset-driven solves stay within (3+eps) / (9+eps) of brute force."""
    start = time.perf_counter()
    eps = 0.25
    hits1, ratios1 = _random_balanced_suite(1, range(50), eps)
    hits2, ratios2 = _random_balanced_suite(2, range(50, 100), eps)
    elapsed = time.perf_counter() - start
    assert hits1 / 50 >= 0.95, f"z=1 hit rate {hits1}/50"
    assert hits2 / 50 >= 0.95, f"z=2 hit rate {hits2}/50"
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"
    report(
        5,
        True,
        f"z=1 {hits1}/50 within 3+eps (max ratio {max(ratios1):.3f}); "
        f"z=2 {hits2}/50 within 9+eps (max ratio {max(ratios2):.3f}); {elapsed:.1f}s",
    )


def test_criterion_6_multilabel_fraction_bounds():
    """Two-label fraction-bound instances against the LP-backed oracle."""
    eps = 0.25
    hits = 0
    ratios = []
    for seed in range(50):
        inst = random_small_instance(seed + 700, n_max=12, f_max=8, k_max=2, m=2, z=1)
        if inst.k < 2:
            inst = ClusteringInstance(
                inst.space, inst.points, inst.weights, inst.facilities, 2, 1, inst.labels
            )
        rng = np.random.default_rng(seed + 11_000)
        W = inst.total_weight
        shares = np.array([inst.weights[inst.labels == j].sum() / W for j in range(2)])
        alpha = np.full(2, float(rng.uniform(0, shares.min() * 0.9)))
        beta = np.full(2, float(rng.uniform(min(shares.max() * 1.1, 1.0), 1.0)))
        spec = FractionBounds(alpha, beta)
        cs = build_universal_weak_coreset(inst, eps, 0.05, seed=seed)
        res = solve_constrained(cs, inst, spec)
        _, opt, _ = brute_force_opt(inst, spec)
        ratio = res.cost_on_full / opt if opt > 0 else 1.0
        ratios.append(ratio)
        hits += ratio <= 3 + eps + 1e-9
    assert hits / 50 >= 0.95
    report(6, True, f"{hits}/50 within 3+eps against the LP oracle "
                    f"(max ratio {max(ratios):.3f})")


def test_criterion_7_compression_independent_of_n():
    """Identical params on n in {1000, 4000, 16000} give identical configured
    sample counts, bounded |J|, and |S| under the configured cap."""
    eps, delta, k = 0.2, 0.05, 3
    sample_count = 20
    results = []
    for n in (1000, 4000, 16000):
        inst = make_planar_blobs(n, 32, k, z=1, seed=606)
        cs = build_universal_weak_coreset(
            inst, eps, delta, seed=909,
            candidate_params=CandidateParams(seed=1),
            summary_params=SummaryParams(sample_count=sample_count, seed=2, delta=delta),
        )
        results.append((n, cs))
    counts = {cs.info["ring_sample_count"] for _, cs in results}
    assert counts == {sample_count}, "configured per-ring sample counts differ"
    etas = {cs.info["eta"] for _, cs in results}
    assert len(etas) == 1
    for n, cs in results:
        assert cs.j_size <= cs.info["eta"] + k
        cap = cs.info["ring_count"] * sample_count
        assert cs.S.size <= cap, f"|S|={cs.S.size} exceeds cap {cap} at n={n}"
    sizes = {n: (cs.j_size, int(cs.S.size)) for n, cs in results}
    report(7, True, f"configured count {sample_count} identical; sizes {sizes}")


def test_criterion_8_cli_determinism(tmp_path):
    """Randomized commands repeated with the same seed write identical bytes."""
    def run(args):
        code = main([str(a) for a in args])
        assert code == 0
        return code

    outputs = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        inst, cs, con, res, orc, ver = (
            d / "inst.json", d / "cs.json", d / "con.json",
            d / "res.json", d / "orc.json", d / "ver.json",
        )
        run(["generate", "--kind", "planar-blobs", "--n", 60, "--facilities", 10,
             "--k", 2, "--seed", 42, "--out", inst])
        run(["coreset", "--instance", inst, "--epsilon", 0.25, "--delta", 0.05,
             "--seed", 42, "--sample-count", 6, "--out", cs])
        con.write_text(json.dumps({"type": "balanced", "l": [10, 10], "u": [50, 50]}))
        run(["solve", "--instance", inst, "--coreset", cs, "--constraint", con,
             "--seed", 42, "--out", res])
        run(["oracle", "--instance", inst, "--constraint", con, "--seed", 42, "--out", orc])
        run(["verify", "--instance", inst, "--coreset", cs, "--which", "B",
             "--trials", 30, "--epsilon", 0.25, "--seed", 42, "--out", ver])
        outputs[tag] = [p.read_bytes() for p in (inst, cs, res, orc, ver)]
    assert outputs["one"] == outputs["two"]
    report(8, True, "generate/coreset/solve/oracle/verify byte-identical under --seed")
