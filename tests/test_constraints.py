import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakcore.constraints as constraints
import weakcore.flowlp as flowlp
from conftest import random_small_instance
from oracles import lp_vertex_enumeration
from weakcore.cli import make_planar_blobs
from weakcore.constraints import (
    Balanced,
    FixedProfile,
    FractionBounds,
    Unconstrained,
    assignment_cost,
    check_feasibility,
    is_symmetric,
    ldiversity_bounds,
    optimal_feasible_cost,
    profile_cost,
    voronoi_assignment,
    voronoi_profile,
)
from weakcore.flowlp import SolverError, SolverLimit
from weakcore.model import Assignment, ClusterProfile, MetricSpace, ValidationError, WeightedPoints

LINE_CENTERS = np.array([1, 4])  # space indices of positions 1 and 10


def fraction_lp_oracle(B, centers, alpha, beta, z):
    """The fraction-bound assignment LP handed to the independent
    vertex-enumeration oracle; ``alpha``/``beta`` are scalars or (k, m)."""
    n = B.size
    k = centers.size
    m = B.n_labels
    alpha = np.broadcast_to(alpha, (k, m))
    beta = np.broadcast_to(beta, (k, m))
    d = B.space.pairwise(B.indices, centers) ** z
    a_eq = np.zeros((n, n * k))
    for x in range(n):
        a_eq[x, x * k : (x + 1) * k] = 1.0
    rows = []
    for i in range(k):
        for j in range(m):
            low = np.zeros(n * k)
            high = np.zeros(n * k)
            for x in range(n):
                inl = 1.0 if B.labels[x] == j else 0.0
                low[x * k + i] = alpha[i, j] - inl
                high[x * k + i] = inl - beta[i, j]
            rows.append(low)
            rows.append(high)
    _, obj = lp_vertex_enumeration(
        d.ravel(), a_eq=a_eq, b_eq=B.weights, a_ub=np.array(rows), b_ub=np.zeros(len(rows))
    )
    return obj


def test_assignment_cost_single_point():
    space = MetricSpace.euclidean([[0.0], [4.0]])
    B = WeightedPoints(space, [0], [1.0])
    sigma = Assignment([0], [0], [1.0])
    assert assignment_cost(B, sigma, [1], 1) == 4.0
    assert assignment_cost(B, sigma, [1], 2) == 16.0


def test_assignment_cost_line_voronoi(line_instance):
    B = line_instance.weighted_points()
    cost, sigma = voronoi_assignment(B, LINE_CENTERS, 1)
    assert cost == 3.0
    assert assignment_cost(B, sigma, LINE_CENTERS, 1) == 3.0


def test_assignment_cost_rejects_broken_conservation(line_instance):
    B = line_instance.weighted_points()
    sigma = Assignment(B.indices, np.zeros(5, dtype=int), B.weights * 0.25)
    with pytest.raises(ValidationError):
        assignment_cost(B, sigma, LINE_CENTERS, 1)


def test_voronoi_profile_line(line_instance):
    B = line_instance.weighted_points()
    assert voronoi_profile(B, LINE_CENTERS, 1).values.tolist() == [3.0, 2.0]


def test_voronoi_profile_coincident_centers(line_instance):
    B = line_instance.weighted_points()
    prof = voronoi_profile(B, np.array([1, 1]), 1)
    assert prof.values.tolist() == [5.0, 0.0]


def test_voronoi_profile_single_point():
    space = MetricSpace.euclidean([[0.0], [1.0]])
    B = WeightedPoints(space, [0], [2.5])
    assert voronoi_profile(B, [1], 1).values.tolist() == [2.5]


def test_profile_cost_line_examples(line_instance):
    B = line_instance.weighted_points()
    assert profile_cost(B, LINE_CENTERS, ClusterProfile([3.0, 2.0]), 1)[0] == pytest.approx(3.0)
    assert profile_cost(B, LINE_CENTERS, ClusterProfile([5.0, 0.0]), 1)[0] == pytest.approx(19.0)
    assert profile_cost(B, LINE_CENTERS, ClusterProfile([0.0, 5.0]), 1)[0] == pytest.approx(28.0)


def test_profile_cost_rejects_inconsistent_total(line_instance):
    B = line_instance.weighted_points()
    with pytest.raises(ValidationError):
        profile_cost(B, LINE_CENTERS, ClusterProfile([3.0, 3.0]), 1)


def test_labeled_profile_single_label_reduces_to_plain(labeled_line_instance):
    B = labeled_line_instance.weighted_points()
    unl = WeightedPoints(B.space, B.indices, B.weights)
    plain, _ = profile_cost(unl, LINE_CENTERS, ClusterProfile([3.0, 2.0]), 1)
    lab = ClusterProfile(np.array([[3.0, 0.0], [0.0, 2.0]]))
    labeled, _ = profile_cost(B, LINE_CENTERS, lab, 1)
    # label 0 = {0,1,2} all to center at 1; label 1 = {9,10} all to center at 10
    assert labeled == pytest.approx(plain)


def test_labeled_profile_per_label_voronoi(labeled_line_instance):
    B = labeled_line_instance.weighted_points()
    gamma = ClusterProfile(np.array([[3.0, 0.0], [0.0, 2.0]]))
    cost, sigma = profile_cost(B, LINE_CENTERS, gamma, 1)
    assert cost == pytest.approx(3.0)
    assert check_feasibility(sigma, B, FixedProfile(gamma), k=2) == []


def test_labeled_profile_crossing_demands_matches_lp(labeled_line_instance):
    B = labeled_line_instance.weighted_points()
    gamma = ClusterProfile(np.array([[1.0, 2.0], [2.0, 0.0]]))
    cost, sigma = profile_cost(B, LINE_CENTERS, gamma, 1)
    # Independent joint LP over sigma with per-(cluster,label) equalities.
    n, k, m = 5, 2, 2
    d = B.space.pairwise(B.indices, LINE_CENTERS)
    a_eq_rows = []
    b_eq = []
    for x in range(n):
        row = np.zeros(n * k)
        row[x * k : (x + 1) * k] = 1.0
        a_eq_rows.append(row)
        b_eq.append(1.0)
    for i in range(k):
        for j in range(m):
            row = np.zeros(n * k)
            for x in range(n):
                if B.labels[x] == j:
                    row[x * k + i] = 1.0
            a_eq_rows.append(row)
            b_eq.append(gamma.values[i, j])
    _, oracle_obj = lp_vertex_enumeration(d.ravel(), a_eq=np.array(a_eq_rows), b_eq=np.array(b_eq))
    assert cost == pytest.approx(oracle_obj, abs=1e-7)


def test_optimal_feasible_unconstrained_is_voronoi(line_instance):
    B = line_instance.weighted_points()
    cost, sigma, prof = optimal_feasible_cost(B, LINE_CENTERS, Unconstrained(), 1)
    assert cost == pytest.approx(3.0)
    assert prof.values.tolist() == [3.0, 2.0]


def test_optimal_feasible_vacuous_balanced(line_instance):
    B = line_instance.weighted_points()
    spec = Balanced(np.zeros(2), np.full(2, 5.0))
    cost, _, _ = optimal_feasible_cost(B, LINE_CENTERS, spec, 1)
    assert cost == pytest.approx(3.0)


def test_optimal_feasible_balanced_line(line_instance):
    B = line_instance.weighted_points()
    spec = Balanced(np.array([2.0, 2.0]), np.array([3.0, 3.0]))
    cost, sigma, prof = optimal_feasible_cost(B, LINE_CENTERS, spec, 1)
    assert cost == pytest.approx(3.0)
    assert check_feasibility(sigma, B, spec, k=2) == []


def test_optimal_feasible_fraction_bounds_vs_vertex_oracle(labeled_line_instance):
    B = labeled_line_instance.weighted_points()
    specs = [
        FractionBounds(np.full(2, 0.2), np.full(2, 0.8)),
        # One pair per (cluster, label), none equal to its transpose: a row
        # built for (label, cluster) instead changes the optimum (9 -> 10).
        FractionBounds(np.array([[0.5, 0.2], [0.1, 0.4]]), np.array([[0.8, 0.5], [0.6, 0.9]])),
    ]
    for spec in specs:
        cost, sigma, prof = optimal_feasible_cost(B, LINE_CENTERS, spec, 1)
        oracle = fraction_lp_oracle(B, LINE_CENTERS, *spec.per_label(2, 2), 1)
        assert cost == pytest.approx(oracle, abs=1e-6)
        assert check_feasibility(sigma, B, spec, k=2) == []


def test_fraction_bounds_need_labels(line_instance):
    B = line_instance.weighted_points()
    with pytest.raises(ValidationError):
        optimal_feasible_cost(B, LINE_CENTERS, FractionBounds(np.zeros(2), np.ones(2)), 1)


def test_fraction_bounds_zero_one_equals_unconstrained(labeled_line_instance):
    B = labeled_line_instance.weighted_points()
    spec = FractionBounds(np.zeros(2), np.ones(2))
    cost, _, _ = optimal_feasible_cost(B, LINE_CENTERS, spec, 1)
    assert cost == pytest.approx(3.0, abs=1e-7)


def segregated_blobs(n, seed):
    """Planar blobs (k=3, m=2) whose labels split the points by x coordinate,
    so nearest-center clusters are far from the label shares."""
    inst = make_planar_blobs(n, 6, 3, m=2, seed=seed)
    x = inst.space.coords[inst.points, 0]
    labels = (x > np.median(x)).astype(np.int64)
    return WeightedPoints(inst.space, inst.points, inst.weights, labels), inst.facilities[:3]


def test_fraction_lp_at_voronoi_takes_no_pivot(monkeypatch):
    """The crash basis is the Voronoi assignment: when it meets the bounds,
    the LP is solved without a single pivot."""
    inst = make_planar_blobs(60, 4, 3, m=2, seed=2)
    B, centers = inst.weighted_points(), inst.facilities[:3]
    spec = FractionBounds(np.full(3, 0.3), np.full(3, 0.7))
    voronoi_cost, sigma = voronoi_assignment(B, centers, 1)
    assert check_feasibility(sigma, B, spec, k=3) == []
    pivots = []
    pivot = flowlp._pivot

    def counted(T, basis, row, col):
        pivots.append((row, col))
        pivot(T, basis, row, col)

    monkeypatch.setattr(flowlp, "_pivot", counted)
    cost, _, _ = optimal_feasible_cost(B, centers, spec, 1)
    assert pivots == []
    assert cost == pytest.approx(voronoi_cost, rel=1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_fraction_lp_multipliers_certify_the_optimum(seed):
    """The fraction rows' multipliers y are <= 0 and their Lagrangian bound
    sum_x w_x min_i (d[x,i] - a_ub[:, (x,i)].y) + b_ub.y meets c.x."""
    rng = np.random.default_rng(seed)
    B, centers = segregated_blobs(int(rng.integers(6, 40)), int(rng.integers(0, 2**31)))
    shares = np.array([B.label_weight(j) for j in range(2)]) / B.total_weight
    alpha = shares * rng.uniform(0.0, 1.0, size=(3, 2))
    beta = shares + (1.0 - shares) * rng.uniform(0.0, 1.0, size=(3, 2))
    seen = []

    def solve(lp):
        seen.append((lp, flowlp.solve_lp(lp)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constraints, "solve_lp", solve)
        optimal_feasible_cost(B, centers, FractionBounds(alpha, beta), int(rng.integers(1, 3)))
    (lp, sol), = seen
    y = sol.ub_duals
    assert y.shape == lp.b_ub.shape and np.all(y <= 0.0)
    assert lp.objective.shape == (B.size, 3) and np.array_equal(lp.b_eq, B.weights)
    priced = lp.objective - (y @ lp.a_ub).reshape(B.size, 3)
    bound = lp.b_eq @ priced.min(axis=1) + lp.b_ub @ y
    assert bound == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)


def test_fraction_lp_with_wrong_multipliers_is_solver_error(monkeypatch):
    """Zero multipliers give the Voronoi bound, which is below the optimum
    when the bounds bind: the certificate check refuses the solve."""
    B, centers = segregated_blobs(40, 3)
    spec = ldiversity_bounds(2, 3, 2)

    def without_duals(lp):
        sol = flowlp.solve_lp(lp)
        return flowlp.LpSolution(sol.x, sol.objective, np.zeros_like(sol.ub_duals))

    monkeypatch.setattr(constraints, "solve_lp", without_duals)
    with pytest.raises(SolverError, match="duality gap"):
        optimal_feasible_cost(B, centers, spec, 1)


def test_fraction_lp_cap_fires_before_allocation():
    """7,000 points at k=3 is 21,000 LP variables, over the cap: the solve
    refuses with SolverLimit before building anything of n x nk size (the
    tableau alone would be over 1 GB)."""
    B, centers = segregated_blobs(7_000, 5)
    tracemalloc.start()
    try:
        with pytest.raises(SolverLimit):
            optimal_feasible_cost(B, centers, ldiversity_bounds(2, 3, 2), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6


@pytest.mark.parametrize(
    "spec",
    [ldiversity_bounds(2, 3, 2), FractionBounds(np.full(3, 0.3), np.full(3, 0.7))],
    ids=["ldiv-at-least", "fractions-0.3-0.7"],
)
def test_fraction_lp_at_1000_points(spec):
    """One full fraction LP with 3,000 variables on label-segregated blobs
    finishes in under 5 s and meets its bounds."""
    B, centers = segregated_blobs(1_000, 7)
    started = time.perf_counter()
    cost, sigma, _ = optimal_feasible_cost(B, centers, spec, 1)
    assert time.perf_counter() - started < 5.0
    assert check_feasibility(sigma, B, spec, k=3) == []
    assert cost > voronoi_assignment(B, centers, 1)[0]


def test_check_feasibility_names_upper_bound(line_instance):
    B = line_instance.weighted_points()
    _, sigma = voronoi_assignment(B, np.array([1, 1]), 1)  # everything to cluster 0
    spec = Balanced(np.zeros(2), np.array([4.0, 4.0]))
    report = check_feasibility(sigma, B, spec, k=2)
    assert len(report) == 1 and "upper bound" in report[0]


# Each spec breaks one cell of the Voronoi assignment to LINE_CENTERS, whose
# cluster totals are [3, 2] and (cluster, label) masses [[3, 0], [0, 2]].
ONE_BROKEN_CELL = {
    "profile": (FixedProfile(ClusterProfile([2.5, 2.0])), "cluster 0: mass 3 above upper bound 2.5"),
    "labeled-profile": (
        FixedProfile(ClusterProfile([[3.0, 0.5], [0.0, 2.0]])),
        "cluster 0, label 1: mass 0 below lower bound 0.5",
    ),
    "balanced-lower": (Balanced([0.0, 2.5], [5.0, 5.0]), "cluster 1: mass 2 below lower bound 2.5"),
    "fraction-low": (
        FractionBounds([[0.0, 0.0], [0.1, 0.0]], np.ones((2, 2))),
        "cluster 1, label 0: mass 0 below lower bound 0.2",
    ),
    "fraction-high": (
        FractionBounds(np.zeros((2, 2)), [[0.5, 1.0], [1.0, 1.0]]),
        "cluster 0, label 0: mass 3 above upper bound 1.5",
    ),
}


@pytest.mark.parametrize("spec, message", ONE_BROKEN_CELL.values(), ids=ONE_BROKEN_CELL.keys())
def test_check_feasibility_reports_the_one_broken_cell(labeled_line_instance, spec, message):
    B = labeled_line_instance.weighted_points()
    _, sigma = voronoi_assignment(B, LINE_CENTERS, 1)
    assert check_feasibility(sigma, B, spec, k=2) == [message]


@pytest.mark.parametrize(
    "spec, shapes",
    [
        (Balanced(np.zeros(3), np.full(3, 5.0)), "Balanced has shape (3,), the assignment's mass table (2,)"),
        (FixedProfile(ClusterProfile([1.0, 2.0, 2.0])), "has shape (3,), the assignment's mass table (2,)"),
        (
            FixedProfile(ClusterProfile([[3.0, 0.0, 0.0], [0.0, 2.0, 0.0]])),
            "has shape (2, 3), the assignment's mass table (2, 2)",
        ),
    ],
    ids=["balanced-k3", "profile-k3", "profile-3-labels"],
)
def test_check_feasibility_rejects_a_spec_of_another_shape(labeled_line_instance, spec, shapes):
    """A spec sized for k=3, or a profile with more label columns than the
    point set has labels, used to raise IndexError."""
    B = labeled_line_instance.weighted_points()
    _, sigma = voronoi_assignment(B, LINE_CENTERS, 1)
    with pytest.raises(ValidationError, match=re.escape(shapes)):
        check_feasibility(sigma, B, spec, k=2)


def test_check_feasibility_exact_proportional_split(labeled_line_instance):
    B = labeled_line_instance.weighted_points()
    # Split every point proportionally: cluster fractions equal label shares.
    pts, cls, mass = [], [], []
    for pos, p in enumerate(B.indices.tolist()):
        for i, frac in enumerate((0.5, 0.5)):
            pts.append(p)
            cls.append(i)
            mass.append(B.weights[pos] * frac)
    sigma = Assignment(pts, cls, mass)
    shares = np.array([3.0, 2.0]) / 5.0
    spec = FractionBounds(
        np.tile(shares, (2, 1)), np.tile(shares, (2, 1))
    )  # alpha = beta = proportional
    assert check_feasibility(sigma, B, spec, k=2) == []


def test_ldiversity_readings():
    at_least = ldiversity_bounds(2, k=2, m=2)
    assert np.all(at_least.alpha == 0.5) and np.all(at_least.beta == 1.0)
    at_most = ldiversity_bounds(2, k=2, m=2, at_most=True)
    assert np.all(at_most.alpha == 0.0) and np.all(at_most.beta == 0.5)


def test_is_symmetric():
    assert is_symmetric(Unconstrained())
    assert is_symmetric(Balanced(np.array([1.0, 1.0]), np.array([3.0, 3.0])))
    assert not is_symmetric(Balanced(np.array([1.0, 2.0]), np.array([3.0, 3.0])))
    assert is_symmetric(FractionBounds(np.zeros(2), np.ones(2)))
    assert not is_symmetric(FixedProfile(ClusterProfile([2.0, 3.0])))


def test_voronoi_profile_cost_identity(line_instance):
    B = line_instance.weighted_points()
    for tup in itertools.combinations(line_instance.facilities.tolist(), 2):
        centers = np.array(tup)
        direct, _ = voronoi_assignment(B, centers, 1)
        prof = voronoi_profile(B, centers, 1)
        via_profile, _ = profile_cost(B, centers, prof, 1)
        assert via_profile == pytest.approx(direct, rel=1e-9)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_profile_cost_dominates_unconstrained(seed):
    inst = random_small_instance(seed, n_max=8, f_max=5, k_max=2)
    B = inst.weighted_points()
    rng = np.random.default_rng(seed)
    centers = rng.choice(inst.facilities, size=inst.k, replace=False)
    base, _, _ = optimal_feasible_cost(B, centers, Unconstrained(), inst.z)
    draws = rng.exponential(1.0, size=inst.k)
    gamma = ClusterProfile(B.total_weight * draws / draws.sum())
    cost, _ = profile_cost(B, centers, gamma, inst.z)
    assert cost >= base - 1e-9 * max(1.0, abs(base))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_widening_balanced_bounds_never_increases_cost(seed):
    inst = random_small_instance(seed, n_max=8, f_max=5, k_max=2)
    B = inst.weighted_points()
    rng = np.random.default_rng(seed + 7)
    centers = rng.choice(inst.facilities, size=inst.k, replace=False)
    W = B.total_weight
    draws = rng.exponential(1.0, size=inst.k)
    target = W * draws / draws.sum()
    lower = target * rng.uniform(0.3, 0.9)
    upper = target + (W - target) * rng.uniform(0.1, 0.9)
    tight, _, _ = optimal_feasible_cost(B, centers, Balanced(lower, upper), inst.z)
    wide, _, _ = optimal_feasible_cost(
        B, centers, Balanced(lower * 0.5, upper + 0.5 * (W - upper)), inst.z
    )
    assert wide <= tight + 1e-7 * max(1.0, abs(tight))


@given(st.integers(0, 2**31 - 1), st.floats(0.25, 8.0))
@settings(max_examples=15, deadline=None)
def test_distance_scaling_multiplies_costs(seed, s):
    inst = random_small_instance(seed, n_max=7, f_max=4, k_max=2, euclidean=True)
    z = inst.z
    B = inst.weighted_points()
    scaled_space = MetricSpace.euclidean(inst.space.coords * s)
    Bs = WeightedPoints(scaled_space, B.indices, B.weights, B.labels)
    rng = np.random.default_rng(seed + 3)
    centers = rng.choice(inst.facilities, size=inst.k, replace=False)
    draws = rng.exponential(1.0, size=inst.k)
    gamma = ClusterProfile(B.total_weight * draws / draws.sum())
    base, _ = profile_cost(B, centers, gamma, z)
    scaled, _ = profile_cost(Bs, centers, gamma, z)
    assert scaled == pytest.approx(base * s**z, rel=1e-9, abs=1e-12)


def brute_force_sigma_oracle(B, centers, spec, z, grid=5):
    """Tiny-instance oracle: vertex enumeration over the feasible-assignment LP."""
    n, k = B.size, centers.size
    d = B.space.pairwise(B.indices, centers) ** z
    a_eq = np.zeros((n, n * k))
    for x in range(n):
        a_eq[x, x * k : (x + 1) * k] = 1.0
    b_eq = B.weights
    a_ub, b_ub = None, None
    if isinstance(spec, Balanced):
        rows, rhs = [], []
        for i in range(k):
            row = np.zeros(n * k)
            row[i::k] = 1.0
            rows.append(row)
            rhs.append(min(spec.upper[i], B.total_weight))
            rows.append(-row)
            rhs.append(-spec.lower[i])
        a_ub, b_ub = np.array(rows), np.array(rhs)
    elif isinstance(spec, FractionBounds):
        alpha, beta = spec.per_label(k, B.n_labels)
        rows = []
        for i in range(k):
            for j in range(B.n_labels):
                low = np.zeros(n * k)
                high = np.zeros(n * k)
                for x in range(n):
                    inl = 1.0 if B.labels[x] == j else 0.0
                    low[x * k + i] = alpha[i, j] - inl
                    high[x * k + i] = inl - beta[i, j]
                rows.append(low)
                rows.append(high)
        a_ub, b_ub = np.array(rows), np.zeros(len(rows))
    _, obj = lp_vertex_enumeration(d.ravel(), a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
    return obj


@pytest.mark.parametrize("seed", range(6))
def test_optimal_feasible_matches_vertex_oracle_tiny(seed):
    inst = random_small_instance(seed, n_max=5, f_max=4, k_max=2, m=2)
    B = inst.weighted_points()
    rng = np.random.default_rng(seed + 11)
    centers = rng.choice(inst.facilities, size=inst.k, replace=False)
    W = B.total_weight
    specs = [
        Unconstrained(),
        Balanced(np.full(inst.k, 0.2), np.full(inst.k, W)),
    ]
    if inst.labels is not None and inst.k <= 2 and B.size <= 5:
        shares = [B.label_weight(j) / W for j in range(B.n_labels)]
        specs.append(
            FractionBounds(np.full(inst.k, 0.0), np.full(inst.k, min(1.0, max(shares) + 0.2)))
        )
    for spec in specs:
        got, _, _ = optimal_feasible_cost(B, centers, spec, inst.z)
        if isinstance(spec, Unconstrained):
            d = B.space.pairwise(B.indices, centers) ** inst.z
            expect = float(B.weights @ d.min(axis=1))
        else:
            expect = brute_force_sigma_oracle(B, centers, spec, inst.z)
        assert got == pytest.approx(expect, abs=1e-6)
