import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weakcore.flowlp as flowlp
from oracles import ksink_transport_one_source, lp_vertex_enumeration, min_cost_integral_splits
from weakcore.cli import make_planar_blobs
from weakcore.flowlp import (
    BoundedTransportationProblem,
    Infeasible,
    LinearProgram,
    SolverError,
    SolverLimit,
    _certify,
    _ksink_transport,
    solve_bounded_transportation,
    solve_lp,
)
from weakcore.model import ValidationError

LINE_COSTS = np.array(
    [[1.0, 10.0], [0.0, 9.0], [1.0, 8.0], [8.0, 1.0], [9.0, 0.0]]
)  # positions 0,1,2,9,10 against sinks at 1 and 10, z=1


def pinned(cost, supplies, demands):
    """Plain transportation: every sink receives exactly its demand."""
    return BoundedTransportationProblem(cost, supplies, demands, demands)


def random_transportation(seed):
    """Pinned problems: small ones, except that seeds ending in 9 draw a
    large one (50-300 sources, 2-4 sinks) that needs many augmenting paths.
    Half of the large ones have integral costs, supplies and demands, so many
    of their cost differences and sink totals tie."""
    rng = np.random.default_rng(seed)
    if seed % 10 == 9:
        m = int(rng.integers(50, 301))
        n = int(rng.integers(2, 5))
        if rng.random() < 0.5:
            cost = rng.integers(1, 10, size=(m, n)).astype(float)
            supplies = rng.integers(1, 6, size=m).astype(float)
            demands = rng.multinomial(int(supplies.sum()) - n, np.full(n, 1 / n)) + 1.0
            return pinned(cost, supplies, demands)
    else:
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 4))
    cost = rng.uniform(0.1, 10.0, size=(m, n))
    supplies = rng.uniform(0.1, 5.0, size=m)
    split = rng.exponential(1.0, size=n)
    demands = supplies.sum() * split / split.sum()
    return pinned(cost, supplies, demands)


def random_bounded_transportation(seed):
    """Integral sink bounds around the demands of ``random_transportation(seed)``,
    so the problem is feasible; about a quarter of the sinks are pinned to
    their demand."""
    p = random_transportation(seed)
    demands = p.sink_lower
    rng = np.random.default_rng(seed + 1)
    n = demands.size
    lower = np.floor(demands * rng.uniform(0.0, 1.0, size=n))
    upper = np.ceil(demands * rng.uniform(1.0, 2.0, size=n))
    fixed = rng.random(n) < 0.25
    lower[fixed] = upper[fixed] = demands[fixed]
    return BoundedTransportationProblem(p.cost, p.supplies, lower, upper)


def assert_certificate(p, sol, tol=1e-9):
    """Reduced costs are >= 0 and vanish on the flow; ``v_b - v_hub`` is
    >= 0 where sink b could receive more and <= 0 where it could receive less."""
    red = p.cost - sol.source_potentials[:, None] - sol.sink_potentials[None, :]
    assert red.min(initial=0.0) >= -tol
    mask = sol.flow > 0
    if mask.any():
        assert np.max(np.abs(red[mask])) <= tol
    gap = sol.sink_potentials - sol.hub_potential
    slack = 1e-9 * max(1.0, p.supplies.sum())
    assert np.all(gap[sol.sink_totals < p.sink_upper - slack] >= -tol)
    assert np.all(gap[sol.sink_totals > p.sink_lower + slack] <= tol)


def bounded_transportation_as_lp(p):
    """Each source's supply as its row total; each sink's received total
    between its bounds as a pair of ``<=`` rows."""
    m, n = p.cost.shape
    cols = np.tile(np.eye(n), m)  # total received by sink j
    return LinearProgram(
        objective=p.cost,
        b_eq=p.supplies,
        a_ub=np.vstack([cols, -cols]),
        b_ub=np.concatenate([p.sink_upper, -p.sink_lower]),
    )


def lp_oracle(lp):
    """Vertex-enumeration optimum of ``lp``, with its row totals written out
    as equality rows; None when no point is feasible."""
    n, k = lp.objective.shape
    _, obj = lp_vertex_enumeration(
        lp.objective.ravel(),
        a_eq=np.kron(np.eye(n), np.ones(k)),
        b_eq=lp.b_eq,
        a_ub=lp.a_ub,
        b_ub=lp.b_ub,
    )
    return obj


def test_single_cell():
    sol = solve_bounded_transportation(pinned([[7.0]], [1.0], [1.0]))
    assert sol.objective == pytest.approx(7.0)


def test_diagonal_matching():
    p = pinned([[0.0, 10.0], [10.0, 0.0]], [1.0, 1.0], [1.0, 1.0])
    sol = solve_bounded_transportation(p)
    assert sol.objective == pytest.approx(0.0)


def test_fractional_split_matches_hand_derivation():
    # Frozen from the vertex-enumeration oracle: x11=1, x12=0.5, x22=0.5.
    p = pinned([[1.0, 2.0], [3.0, 1.0]], [1.5, 0.5], [1.0, 1.0])
    sol = solve_bounded_transportation(p)
    assert sol.objective == pytest.approx(2.5, abs=1e-9)
    assert sol.objective == pytest.approx(lp_oracle(bounded_transportation_as_lp(p)), abs=1e-9)


def test_unbalanced_rejected():
    with pytest.raises(Infeasible, match="exclude the supply"):
        solve_bounded_transportation(pinned([[1.0]], [1.0], [2.0]))


def test_nonfinite_cost_rejected():
    with pytest.raises(ValidationError):
        pinned([[np.inf]], [1.0], [1.0])


def test_zero_rows_and_columns_reinstated():
    p = pinned([[1.0, 5.0, 2.0], [4.0, 1.0, 3.0]], [2.0, 0.0], [1.0, 0.0, 1.0])
    sol = solve_bounded_transportation(p)
    assert sol.flow[1].sum() == 0.0
    assert sol.flow[:, 1].sum() == 0.0
    assert sol.objective == pytest.approx(3.0)
    assert_certificate(p, sol)


@pytest.mark.parametrize(
    "cost, supplies, demands",
    [(np.zeros((2, 0)), [0.0, 0.0], []), ([[1.0, 2.0]], [1e-10], [0.0, 0.0])],
    ids=["no-sinks", "supply-within-balance-tolerance"],
)
def test_zero_demand_ships_nothing(cost, supplies, demands):
    p = pinned(cost, supplies, demands)
    sol = solve_bounded_transportation(p)
    assert sol.flow.shape == p.cost.shape and not sol.flow.any() and sol.objective == 0.0
    assert_certificate(p, sol)


def test_unreachable_short_sink_is_solver_error():
    """The sinks together take half the supply: once sink 1 is full, the rest
    at sink 0 reaches no node short of its balance."""
    bounds = np.array([0.0, 0.5])
    with pytest.raises(SolverError, match="reaches no sink"):
        _ksink_transport(np.ones((1, 2)), np.ones(1), bounds, bounds)


def test_flow_conservation_and_lp_agreement():
    for seed in range(60):
        p = random_transportation(seed)
        sol = solve_bounded_transportation(p)
        assert np.allclose(sol.flow.sum(axis=1), p.supplies, rtol=1e-9, atol=1e-9)
        assert np.allclose(sol.flow.sum(axis=0), p.sink_lower, rtol=1e-9, atol=1e-9)
        assert_certificate(p, sol)
        lp_sol = solve_lp(bounded_transportation_as_lp(p))
        assert sol.objective == pytest.approx(lp_sol.objective, abs=1e-7)

        b = random_bounded_transportation(seed)
        bsol = solve_bounded_transportation(b)
        assert np.allclose(bsol.flow.sum(axis=1), b.supplies, rtol=1e-9, atol=1e-9)
        assert np.all(bsol.sink_totals >= b.sink_lower - 1e-9)
        assert np.all(bsol.sink_totals <= b.sink_upper + 1e-9)
        assert_certificate(b, bsol)
        lp_sol = solve_lp(bounded_transportation_as_lp(b))
        assert bsol.objective == pytest.approx(lp_sol.objective, abs=1e-7)


@pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12], ids=["exact", "over", "under"])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_bounded_tight_sum_lp_agreement(side, offset):
    """When sum(lower) or sum(upper) equals the supply W, exactly or within
    1e-12 relative, every sink sits on that bound: the bounded solve agrees
    with the LP and with the pinned solve at those demands."""
    for seed in range(20):
        p = random_transportation(seed)
        b = random_bounded_transportation(seed)
        tight = p.sink_lower * (1.0 + offset)
        if side == "lower":
            lower, upper = tight, np.maximum(b.sink_upper, tight)
        else:
            lower, upper = np.minimum(b.sink_lower, tight), tight
        bp = BoundedTransportationProblem(p.cost, p.supplies, lower, upper)
        bsol = solve_bounded_transportation(bp)
        W = p.supplies.sum()
        assert np.allclose(bsol.flow.sum(axis=1), p.supplies, rtol=1e-9, atol=1e-9)
        assert np.allclose(bsol.sink_totals, p.sink_lower, rtol=1e-9, atol=1e-9 * W)
        assert bsol.objective == pytest.approx(solve_bounded_transportation(p).objective, rel=1e-9, abs=1e-9)
        assert bsol.objective == pytest.approx(solve_lp(bounded_transportation_as_lp(bp)).objective, abs=1e-7)


def test_certificate_checks_hub_arcs():
    """On the line, sink 0 ends at its upper bound and sink 1 at its lower
    one. The solver's potentials pass; moving the hub's potential by one
    prices a hub arc that still has capacity below zero, and fails."""
    lower, upper = np.array([2.0, 2.0]), np.array([3.0, 3.0])
    (rows, cols, masses), u, v, *_ = _ksink_transport(LINE_COSTS, np.ones(5), lower, upper)
    totals = np.bincount(cols, masses, minlength=2)
    assert totals.tolist() == [3.0, 2.0]
    rises, falls = totals < upper, totals > lower
    _certify(LINE_COSTS, rows, cols, u, v, rises, falls, 10.0)
    for shift in (1.0, -1.0):
        with pytest.raises(SolverError, match="hub arc"):
            _certify(LINE_COSTS, rows, cols, u, v + np.array([0.0, 0.0, shift]), rises, falls, 10.0)


def test_certificate_refuses_flow_off_its_cheapest_sink():
    """``u`` is the row minimum of ``cost - v``, so only the support check can
    refuse a flow: moving point 0 from sink 0, its cheapest under the
    solver's potentials, to sink 1 puts flow on a positive reduced cost."""
    lower, upper = np.array([2.0, 2.0]), np.array([3.0, 3.0])
    (rows, cols, masses), u, v, *_ = _ksink_transport(LINE_COSTS, np.ones(5), lower, upper)
    assert (rows[0], cols[0], masses[0]) == (0, 0, 1.0)
    assert LINE_COSTS[0, 1] - v[1] > LINE_COSTS[0, 0] - v[0]
    moved = cols.copy()
    moved[0] = 1
    totals = np.bincount(moved, masses, minlength=2)
    with pytest.raises(SolverError, match="complementary slackness"):
        _certify(LINE_COSTS, rows, moved, u, v, totals < upper, totals > lower, 10.0)


def test_planar_blobs_at_8000_points():
    """n=8,000 blob points against k=3 facilities whose Voronoi cells hold
    4%, 56% and 40% of the weight: the plain transport carries a certificate
    at several demand vectors inside the sink bounds, and the bounded solve
    meets those bounds, costs no more than any of them and finishes in
    under 2 s."""
    inst = make_planar_blobs(8_000, 12, 3, seed=1)
    coords = inst.space.coords
    cost = np.linalg.norm(
        coords[inst.points][:, None, :] - coords[inst.facilities[:3]][None, :, :], axis=2
    )
    supplies = inst.weights
    W = supplies.sum()
    lower, upper = np.full(3, 0.3 * W), np.full(3, 0.36 * W)

    started = time.perf_counter()
    bsol = solve_bounded_transportation(BoundedTransportationProblem(cost, supplies, lower, upper))
    assert time.perf_counter() - started < 2.0
    assert np.all(bsol.sink_totals >= lower - 1e-9 * W)
    assert np.all(bsol.sink_totals <= upper + 1e-9 * W)

    for shares in ([1 / 3, 1 / 3, 1 / 3], [0.3, 0.34, 0.36], [0.36, 0.34, 0.3]):
        p = pinned(cost, supplies, np.array(shares) * W)
        sol = solve_bounded_transportation(p)
        assert_certificate(p, sol)
        assert bsol.objective <= sol.objective * (1 + 1e-12)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_duplicated_sink_keeps_objective(seed):
    p = random_transportation(seed)
    rng = np.random.default_rng(seed + 1)
    j = int(rng.integers(0, p.sink_lower.size))
    frac = rng.uniform(0.2, 0.8)
    cost2 = np.hstack([p.cost, p.cost[:, j : j + 1]])
    demands2 = np.concatenate([p.sink_lower, [p.sink_lower[j] * (1 - frac)]])
    demands2[j] *= frac
    sol = solve_bounded_transportation(p)
    sol2 = solve_bounded_transportation(pinned(cost2, p.supplies, demands2))
    assert sol2.objective == pytest.approx(sol.objective, rel=1e-9, abs=1e-9)


@given(st.integers(0, 2**31 - 1), st.floats(0.1, 25.0))
@settings(max_examples=30, deadline=None)
def test_cost_scaling_scales_objective(seed, s):
    p = random_transportation(seed)
    sol = solve_bounded_transportation(p)
    scaled = solve_bounded_transportation(pinned(p.cost * s, p.supplies, p.sink_lower))
    assert scaled.objective == pytest.approx(sol.objective * s, rel=1e-9, abs=1e-12)
    # The optimal flow of the original remains optimal for the scaled problem.
    assert np.sum(sol.flow * p.cost * s) == pytest.approx(scaled.objective, rel=1e-9, abs=1e-12)


def test_bounded_vacuous_equals_nearest_sink():
    costs = LINE_COSTS
    W = 5.0
    p = BoundedTransportationProblem(costs, np.ones(5), [0.0, 0.0], [W, W])
    sol = solve_bounded_transportation(p)
    nearest = float(costs.min(axis=1).sum())
    assert sol.objective == pytest.approx(nearest)


def test_bounded_line_2_3():
    # Frozen from the integral-splits oracle: {0,1,2}->1, {9,10}->10.
    p = BoundedTransportationProblem(LINE_COSTS, np.ones(5), [2.0, 2.0], [3.0, 3.0])
    sol = solve_bounded_transportation(p)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert min_cost_integral_splits(LINE_COSTS, [2, 2], [3, 3]) == pytest.approx(3.0)
    assert np.all(sol.sink_totals >= np.array([2.0, 2.0]) - 1e-9)
    assert np.all(sol.sink_totals <= np.array([3.0, 3.0]) + 1e-9)


def test_bounded_line_4_1():
    # Frozen from the integral-splits oracle: {0,1,2,9}->1, {10}->10.
    p = BoundedTransportationProblem(LINE_COSTS, np.ones(5), [4.0, 1.0], [5.0, 5.0])
    sol = solve_bounded_transportation(p)
    assert sol.objective == pytest.approx(10.0, abs=1e-9)
    assert min_cost_integral_splits(LINE_COSTS, [4, 1], [5, 5]) == pytest.approx(10.0)
    # Sink 0 sits on its lower bound: each unit it must take moves the point
    # at 9 from cost 1 to cost 8, so v_0 - v_hub prices that bound at 7.
    assert (sol.sink_potentials - sol.hub_potential).tolist() == pytest.approx([7.0, 0.0])
    assert_certificate(p, sol)


def test_bounded_infeasible_bounds():
    p = BoundedTransportationProblem(LINE_COSTS, np.ones(5), [4.0, 4.0], [5.0, 5.0])
    with pytest.raises(Infeasible):
        solve_bounded_transportation(p)


def test_bounded_infinite_upper():
    p = BoundedTransportationProblem(LINE_COSTS, np.ones(5), [1.0, 1.0], [np.inf, np.inf])
    sol = solve_bounded_transportation(p)
    assert sol.objective == pytest.approx(3.0)


def subsample_prices(p, seed):
    """Sink prices from a cold solve on about an eighth of the sources, their
    supplies scaled up to the full total, as a summary of them would give."""
    rng = np.random.default_rng(seed)
    m = p.supplies.size
    rows = np.sort(rng.choice(m, size=max(1, m // 8), replace=False))
    sup = p.supplies[rows]
    sup = sup * (p.supplies.sum() / sup.sum()) if sup.sum() > 0 else sup
    sub = BoundedTransportationProblem(p.cost[rows], sup, p.sink_lower, p.sink_upper)
    return solve_bounded_transportation(sub).prices


def test_warm_start_matches_cold():
    """Started from a subsample's prices, pinned and bounded solves (a third
    of the bounded ones with infinite upper bounds) reach the cold solve's
    objective within 1e-12 relative, both with a certificate and sink totals
    within their bounds; the warm start is taken on some of them."""
    warm_taken = 0
    for seed in range(120):
        base = random_transportation(seed)
        bounded = random_bounded_transportation(seed)
        upper = np.where(np.arange(bounded.sink_upper.size) % 3 == 1, np.inf, bounded.sink_upper)
        loose = BoundedTransportationProblem(bounded.cost, bounded.supplies, bounded.sink_lower, upper)
        for p in (base, loose):
            cold = solve_bounded_transportation(p)
            warm = solve_bounded_transportation(p, subsample_prices(p, seed))
            assert not cold.warm_start
            warm_taken += warm.warm_start
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)
            slack = 1e-9 * max(1.0, p.supplies.sum())
            for sol in (cold, warm):
                assert_certificate(p, sol)
                assert np.allclose(sol.flow.sum(axis=1), p.supplies, rtol=1e-9, atol=1e-9)
                assert np.all(sol.sink_totals >= p.sink_lower - slack)
                assert np.all(sol.sink_totals <= p.sink_upper + slack)
    assert warm_taken >= 20


def test_warm_start_rule_on_the_line():
    """Sink 0 sits on its lower bound 4 at price 7, sink 1 at price 0. Those
    prices put the point at 9 on sink 0 (a tie, to the lower index), sink 0
    passes its lower bound and sink 1 its clipped total: the warm start is
    the optimum and needs no augmentation, while the Voronoi start needs
    one. Prices of another length are refused."""
    p = BoundedTransportationProblem(LINE_COSTS, np.ones(5), [4.0, 1.0], [5.0, 5.0])
    cold = solve_bounded_transportation(p)
    assert (cold.augmentations, cold.warm_start) == (1, False)
    assert cold.prices.tolist() == [7.0, 0.0]
    warm = solve_bounded_transportation(p, cold.prices)
    assert (warm.augmentations, warm.warm_start) == (0, True)
    assert warm.objective == pytest.approx(10.0, abs=1e-9)
    assert_certificate(p, warm)
    with pytest.raises(ValidationError, match="one finite number per sink"):
        solve_bounded_transportation(p, np.zeros(3))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_bounded_matches_integral_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    k = int(rng.integers(1, 3))
    costs = rng.uniform(0.0, 9.0, size=(n, k))
    lower = rng.integers(0, max(1, n // k), size=k)
    upper = lower + rng.integers(1, n + 1, size=k)
    if lower.sum() > n or upper.sum() < n:
        lower = np.zeros(k, dtype=int)
        upper = np.full(k, n)
    p = BoundedTransportationProblem(costs, np.ones(n), lower.astype(float), upper.astype(float))
    sol = solve_bounded_transportation(p)
    oracle = min_cost_integral_splits(costs, lower.tolist(), upper.tolist())
    assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_lp_simple_lower_bound():
    """x[0, 0] >= 3 moves mass off the row's cheapest column; the bound's
    multiplier is the cost difference of the two columns."""
    sol = solve_lp(LinearProgram(objective=[[1.0, 0.0]], b_eq=[5.0], a_ub=[[-1.0, 0.0]], b_ub=[-3.0]))
    assert sol.x.tolist() == [[pytest.approx(3.0), pytest.approx(2.0)]]
    assert sol.objective == pytest.approx(3.0)
    assert sol.ub_duals == pytest.approx([-1.0])


def test_lp_equality():
    sol = solve_lp(LinearProgram(objective=[[1.0, 1.0]], b_eq=[1.0]))
    assert sol.objective == pytest.approx(1.0)


def test_lp_three_variable_vertex_oracle():
    """max x1 + 2 x2 + 3 x3 over x1 + x2 + x3 <= 4 and x1 + 3 x2 <= 6; the
    fourth column takes up the first row's slack at zero cost."""
    lp = LinearProgram(
        objective=[[-1.0, -2.0, -3.0, 0.0]], b_eq=[4.0], a_ub=[[1.0, 3.0, 0.0, 0.0]], b_ub=[6.0]
    )
    oracle_obj = lp_oracle(lp)
    assert oracle_obj == pytest.approx(-12.0)  # frozen
    assert solve_lp(lp).objective == pytest.approx(oracle_obj, abs=1e-7)


def test_lp_infeasible():
    with pytest.raises(Infeasible):
        solve_lp(LinearProgram(objective=[[1.0]], b_eq=[1.0], a_ub=[[1.0]], b_ub=[0.5]))


def test_lp_variable_cap():
    with pytest.raises(SolverLimit):
        LinearProgram(objective=np.zeros((6_667, 3)), b_eq=np.ones(6_667))


@pytest.mark.parametrize(
    "objective, b_eq",
    [(np.zeros(3), [1.0]), (np.zeros((2, 0)), [1.0, 1.0]), (np.zeros((2, 2)), [1.0]), (np.zeros((1, 2)), [-1.0])],
    ids=["vector-objective", "no-columns", "row-count", "negative-total"],
)
def test_lp_rejects_malformed_rows(objective, b_eq):
    with pytest.raises(ValidationError):
        LinearProgram(objective=objective, b_eq=b_eq)


def test_lp_without_constraints(monkeypatch):
    """With no ``<=`` rows each row sends its total to its cheapest column,
    ties to the lowest, without a pivot; with no rows at all the solution is
    empty, and a ``<=`` row that no point meets is infeasible."""
    pivots = []
    monkeypatch.setattr(flowlp, "_pivot", lambda *args: pivots.append(args))
    c = np.array([[3.0, -1.0, 2.0], [0.5, 0.5, 4.0], [2.0, 2.0, -7.0]])
    sol = solve_lp(LinearProgram(objective=c, b_eq=[1.0, 2.0, 0.5]))
    assert pivots == []
    assert sol.x.tolist() == [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.5]]
    assert sol.objective == pytest.approx(-3.5) and sol.ub_duals.size == 0

    empty = solve_lp(LinearProgram(objective=np.zeros((0, 2)), b_eq=[]))
    assert empty.x.shape == (0, 2) and empty.objective == 0.0 and empty.ub_duals.size == 0
    with pytest.raises(Infeasible):
        solve_lp(LinearProgram(objective=np.zeros((0, 2)), b_eq=[], a_ub=np.zeros((1, 0)), b_ub=[-1.0]))


@given(st.integers(0, 2**31 - 1), st.booleans())
@example(15, False)  # negative costs; the dual simplex takes four pivots
@example(1, True)  # a shifted rhs that no x >= 0 meets
@settings(max_examples=60, deadline=None)
def test_lp_matches_vertex_enumeration(seed, shift_rhs):
    """Random costs of both signs; integer ``<=`` rows through a point x0 with
    zeros, plus a scaled copy of the first, so the LP is often degenerate. A
    shifted rhs may leave the rows with no nonnegative solution."""
    rng = np.random.default_rng(seed)
    n, k, r = (int(v) for v in rng.integers(1, 4, size=3))
    c = rng.uniform(-2.0, 3.0, size=(n, k))
    x0 = rng.uniform(0.0, 1.0, size=(n, k)) * (rng.random((n, k)) < 0.6)
    a_ub = rng.integers(-1, 3, size=(r, n * k)).astype(float)
    b_ub = a_ub @ x0.ravel()
    if shift_rhs:
        b_ub = b_ub + rng.integers(-1, 2, size=r)
    lp = LinearProgram(c, x0.sum(axis=1), np.vstack([a_ub, 2.0 * a_ub[0]]), np.append(b_ub, 2.0 * b_ub[0]))
    oracle_obj = lp_oracle(lp)
    if oracle_obj is None:
        with pytest.raises(Infeasible):
            solve_lp(lp)
    else:
        assert solve_lp(lp).objective == pytest.approx(oracle_obj, abs=1e-7)


def _reference_problem(rng, k, costs, bounded):
    """A feasible problem with k sinks: random, unit (0/1) or small-integer
    costs, the last two with integral supplies and demands so that keys and
    sink totals tie; bounded problems get an infinite upper bound now and
    then and pin about a quarter of their sinks."""
    m = int(rng.integers(1, 60)) if rng.random() < 0.85 else int(rng.integers(100, 300))
    if costs == "random":
        cost, supply = rng.uniform(0.0, 10.0, size=(m, k)), rng.uniform(0.0, 3.0, size=m)
        supply[rng.random(m) < 0.1] = 0.0
    elif costs == "unit":
        cost, supply = (rng.random((m, k)) < 0.7).astype(float), np.ones(m)
    else:
        cost, supply = rng.integers(0, 5, size=(m, k)).astype(float), rng.integers(0, 4, size=m).astype(float)
    W = supply.sum()
    share = rng.exponential(1.0, size=k)
    demand = W * share / share.sum()
    if costs != "random":
        demand = np.floor(demand)
        demand[0] += W - demand.sum()
    if not bounded:
        return pinned(cost, supply, demand)
    lower, upper = demand * rng.uniform(0.0, 1.0, size=k), demand * rng.uniform(1.0, 2.0, size=k)
    upper[rng.random(k) < 0.2] = np.inf
    fixed = rng.random(k) < 0.25
    lower[fixed] = upper[fixed] = demand[fixed]
    return BoundedTransportationProblem(cost, supply, lower, upper)


def test_solver_matches_the_one_source_reference_bit_for_bit(monkeypatch):
    """Arcs sorted on first use, runs of sources along one arc and the
    support in place of a dense flow change no bit of the answer: on 2,160
    random problems (k in {2, 3, 5}; pinned and bounded; cold and warm from
    a subsample's prices; random, unit and integer costs) the solver returns
    the reference solver's flow, potentials, augmentation count and start,
    and its sink totals are the dense flow's column sums. Runs spare
    searches: fewer searches than augmentations overall."""
    calls = []
    solver = flowlp._ksink_transport

    def spy(*args):
        out = solver(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(flowlp, "_ksink_transport", spy)
    rng = np.random.default_rng(20)
    searches = augmentations = warm_taken = 0
    for i in range(2160):
        k, costs = (2, 3, 5)[i % 3], ("random", "unit", "integer")[i // 3 % 3]
        p = _reference_problem(rng, k, costs, bounded=bool(i // 9 % 2))
        prices = None
        if i // 18 % 2:
            try:
                prices = subsample_prices(p, i)
            except Infeasible:  # the subsample holds no supply
                prices = rng.normal(0.0, 1.0, size=k)
        calls.clear()
        sol = solve_bounded_transportation(p, prices)
        args, (_, u, v, aug, searched, warm) = calls[-1]
        flow, ref_u, ref_v, ref_aug, ref_warm = ksink_transport_one_source(*args)
        assert sol.flow.tobytes() == flow.tobytes(), i
        assert (u.tobytes(), v.tobytes(), aug) == (ref_u.tobytes(), ref_v.tobytes(), ref_aug), i
        assert warm == ref_warm, i
        assert sol.sink_totals.tobytes() == flow.sum(axis=0).tobytes(), i
        assert np.all(sol.masses > 0) and np.all(np.diff(sol.rows * k + sol.cols) > 0), i
        searches, augmentations, warm_taken = searches + searched, augmentations + aug, warm_taken + warm
    assert warm_taken >= 200
    assert searches < 0.9 * augmentations
