"""Exact transportation, bounded transportation, and dense-simplex LP solvers.

All solvers are pure functions over float64 inputs. The network solvers
certify optimality before returning, by complementary slackness on the final
node potentials; the LP solver checks feasibility and returns the multipliers
of its ``<=`` rows, whose Lagrangian bound the fraction-bound LP in
:mod:`weakcore.constraints` checks against the objective.
Every transportation problem here has many sources (points) and few sinks
(clusters), so one solver serves both network problems: successive shortest
paths over an exchange graph with one node per sink plus one hub node that
carries the sink bounds, started from the Voronoi assignment. Dijkstra ties
go to the lowest node index and each arc's source is the least
``(cost difference, source index)``, so results are deterministic.
The LP solver works on one dense tableau over the structural and slack
columns, with no artificial variables. It starts from a crash basis (Bixby,
"Implementing the simplex method: the initial basis", ORSA J. Comput. 1992):
each equality row takes a column of its own as basic, which for the
fraction-bound LP is every point at its nearest center. Phase 1 is the dual
simplex (Lemke 1954) under the reduced costs shifted up to zero, so a start
that breaks only a few rows takes only a few pivots; the true cost row is
carried through it, and phase 2 is the primal simplex under that row.
Problem sizes are desk scale by design; the LP is capped at
``MAX_LP_VARIABLES`` structural variables.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ValidationError, _float_array

MAX_LP_VARIABLES = 20_000


class Infeasible(Exception):
    """The problem admits no feasible solution."""


class Unbounded(Exception):
    """The objective is unbounded below."""


class SolverLimit(Exception):
    """A configured size or iteration ceiling was exceeded."""


class SolverError(RuntimeError):
    """Internal failure: a solve finished without a valid optimality certificate."""


@dataclass(frozen=True, eq=False)
class TransportationProblem:
    """Balanced transportation: ship supplies to demands at per-arc unit costs."""

    cost: np.ndarray
    supplies: np.ndarray
    demands: np.ndarray

    def __post_init__(self):
        cost = _float_array(self.cost, "cost matrix", ndim=2)
        sup = _float_array(self.supplies, "supplies", ndim=1)
        dem = _float_array(self.demands, "demands", ndim=1)
        if cost.shape != (sup.size, dem.size):
            raise ValidationError(
                f"cost shape {cost.shape} does not match {sup.size} supplies x {dem.size} demands"
            )
        if np.any(sup < 0) or np.any(dem < 0):
            raise ValidationError("supplies and demands must be nonnegative")
        total_s = float(sup.sum())
        total_d = float(dem.sum())
        if abs(total_s - total_d) > 1e-9 * max(1.0, total_s):
            raise ValidationError(f"unbalanced problem: supply {total_s} vs demand {total_d}")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "supplies", sup)
        object.__setattr__(self, "demands", dem)


@dataclass(frozen=True, eq=False)
class BoundedTransportationProblem:
    """Transportation with per-sink lower and upper bounds on received flow."""

    cost: np.ndarray
    supplies: np.ndarray
    sink_lower: np.ndarray
    sink_upper: np.ndarray

    def __post_init__(self):
        cost = _float_array(self.cost, "cost matrix", ndim=2)
        sup = _float_array(self.supplies, "supplies", ndim=1)
        lo = np.asarray(self.sink_lower, dtype=np.float64)
        hi = np.asarray(self.sink_upper, dtype=np.float64)
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValidationError("sink bounds contain NaN")
        if lo.ndim != 1 or hi.ndim != 1:
            raise ValidationError("sink bounds must be vectors")
        if cost.shape != (sup.size, lo.size) or hi.size != lo.size:
            raise ValidationError("bound/cost dimensions are inconsistent")
        if np.any(sup < 0):
            raise ValidationError("supplies must be nonnegative")
        if np.any(lo < 0) or np.any(hi < lo):
            raise ValidationError("need 0 <= lower <= upper for every sink")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "supplies", sup)
        object.__setattr__(self, "sink_lower", lo)
        object.__setattr__(self, "sink_upper", hi)


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min c.x subject to a_eq x = b_eq, a_ub x <= b_ub, x >= 0; a block
    left out is stored with zero rows."""

    objective: np.ndarray
    a_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None

    def __post_init__(self):
        c = _float_array(self.objective, "objective", ndim=1)
        n = c.size
        if n > MAX_LP_VARIABLES:
            raise SolverLimit(f"LP has {n} variables; the cap is {MAX_LP_VARIABLES}")

        def _pair(a, b, name):
            if a is None and b is None:
                return np.zeros((0, n)), np.zeros(0)
            a = _float_array(a, f"{name} matrix", ndim=2)
            b = _float_array(b, f"{name} rhs", ndim=1)
            if a.shape != (b.size, n):
                raise ValidationError(f"{name} dimensions inconsistent with objective")
            return a, b

        a_eq, b_eq = _pair(self.a_eq, self.b_eq, "equality")
        a_ub, b_ub = _pair(self.a_ub, self.b_ub, "inequality")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)


@dataclass(frozen=True, eq=False)
class TransportSolution:
    flow: np.ndarray
    objective: float
    source_potentials: np.ndarray
    sink_potentials: np.ndarray


@dataclass(frozen=True, eq=False)
class BoundedTransportSolution:
    flow: np.ndarray
    objective: float
    sink_totals: np.ndarray


@dataclass(frozen=True, eq=False)
class LpSolution:
    x: np.ndarray
    objective: float
    ub_duals: np.ndarray


# ---------------------------------------------------------------------------
# k-sink transportation: successive shortest paths between sinks
# ---------------------------------------------------------------------------


def _ksink_transport(cost, supply, lower, upper):
    """Exact transportation for many sources and few sinks, each sink
    receiving between ``lower[b]`` and ``upper[b]`` of the supply.

    Returns (flow, u, v) where (u, v) are optimal node potentials; the last
    entry of ``v`` is the hub's. Each sink passes what it receives on to one
    zero-cost hub node, index n, which absorbs the whole supply (Ahuja,
    Magnanti and Orlin, *Network Flows*, ch. 9); with ``lower == upper`` the
    hub has no arcs and this is plain transportation. Every source starts at
    its nearest sink (the Voronoi assignment, optimal once sink bounds are
    ignored) and every sink passes its Voronoi total clipped to its bounds;
    successive shortest paths then move excess to nodes short of their
    balance. Arc a -> b between sinks moves some source x from a to b at
    reduced cost ``c[x,b] - c[x,a] - v_b + v_a``; a hub arc changes what a
    sink passes on at reduced cost ``v_tail - v_head``. The key
    ``c[x,b] - c[x,a]`` does not depend on the potentials, so one lazy heap
    per ordered sink pair keeps each arc's cheapest source; an entry is stale
    once x has no mass left at a. Ties break deterministically: heap order
    ``(key, source)`` picks the source of an arc, and Dijkstra settles the
    lowest node index among equal distances (the hub last).
    """
    m, n = cost.shape
    hub = n
    if not upper.any():  # the supply is within the balance tolerance of zero: ship nothing
        return np.zeros((m, n)), cost.min(axis=1, initial=0.0), np.zeros(n + 1)
    scale = max(1.0, float(np.max(np.abs(cost), initial=0.0)))
    eps = 1e-13 * max(1.0, float(supply.sum()))
    live = np.flatnonzero(supply > 0)
    home = np.argmin(cost, axis=1)

    crow = cost.tolist()
    mass = [[0.0] * n for _ in range(m)]
    for x, a, s in zip(live.tolist(), home[live].tolist(), supply[live].tolist()):
        mass[x][a] = s
    total = np.bincount(home[live], supply[live], minlength=n)
    through = np.clip(total, lower, upper)
    excess = (total - through).tolist() + [float(through.sum()) - float(supply.sum())]
    through, lo, hi = through.tolist(), lower.tolist(), upper.tolist()
    heaps = [[[] for _ in range(n)] for _ in range(n)]
    for a in range(n):
        at_a = live[home[live] == a]
        for b in set(range(n)) - {a}:
            heaps[a][b] = list(zip((cost[at_a, b] - cost[at_a, a]).tolist(), at_a.tolist()))
            heapq.heapify(heaps[a][b])

    def top(a, b):
        """The cheapest live entry of arc a -> b, or None; a hub arc's source is None."""
        if b == hub:
            return (0.0, None) if through[a] < hi[a] else None
        if a == hub:
            return (0.0, None) if through[b] > lo[b] else None
        heap = heaps[a][b]
        while heap and mass[heap[0][1]][a] <= 0.0:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def capacity(a, b, x):
        if x is not None:
            return mass[x][a]
        return hi[a] - through[a] if b == hub else through[b] - lo[b]

    v = [0.0] * (n + 1)
    while max(excess) > eps:
        dist = [0.0 if e > eps else math.inf for e in excess]
        pred = [None] * (n + 1)
        open_ = list(range(n + 1))
        while True:
            a = min(open_, key=dist.__getitem__, default=None)
            if a is None or dist[a] == math.inf:
                raise SolverError("the exchange graph reaches no sink under its demand")
            open_.remove(a)
            if excess[a] < -eps:
                break
            for b in open_:
                entry = top(a, b)
                if entry is not None:
                    d = dist[a] + entry[0] - v[b] + v[a]
                    if d < dist[b]:
                        dist[b] = d
                        pred[b] = (a, entry[1])
        target = node = a
        v = [vj + min(dj, dist[target]) for vj, dj in zip(v, dist)]

        path = []
        while pred[node] is not None:
            a, x = pred[node]
            path.append((a, node, x))
            node = a
        source = node
        caps = [capacity(*arc) for arc in path]
        delta = min(excess[source], -excess[target], *caps)
        for (a, b, x), cap in zip(path, caps):
            if b == hub:  # a saturated hub arc lands on its bound exactly
                through[a] = hi[a] if delta == cap else through[a] + delta
            elif a == hub:
                through[b] = lo[b] if delta == cap else through[b] - delta
            else:
                row = mass[x]
                if row[b] == 0.0:  # x arrives at b: it can now leave b for any sink
                    cx = crow[x]
                    for c in range(n):
                        if c != b:
                            heapq.heappush(heaps[b][c], (cx[c] - cx[b], x))
                row[b] += delta
                row[a] -= delta
        excess[source] -= delta
        excess[target] += delta

    flow = np.array(mass).reshape(m, n)
    v = np.array(v)
    u = (cost - v[None, :n]).min(axis=1)
    through = np.array(through)
    _certify(cost, flow, u, v, through < upper, through > lower, scale)
    return flow, u, v


def _certify(cost, flow, u, v, rises, falls, scale):
    """Check complementary slackness; ``rises``/``falls`` mark the sinks whose
    hub arc can still carry more/less, which bounds ``v_b - v_hub`` below/above."""
    red = cost - u[:, None] - v[None, :-1]
    cert_tol = 1e-9 * max(1.0, scale)
    if red.min(initial=np.inf) < -cert_tol:
        raise SolverError(f"negative reduced cost after convergence: {red.min():.3e}")
    support = flow > 0
    if support.any() and np.max(np.abs(np.where(support, red, 0.0))) > cert_tol:
        raise SolverError("complementary slackness violated on the flow support")
    gap = v[:-1] - v[-1]
    if np.any(gap[rises] < -cert_tol) or np.any(gap[falls] > cert_tol):
        raise SolverError("a hub arc with residual capacity has a negative reduced cost")


def solve_transportation(p: TransportationProblem) -> TransportSolution:
    """Exact minimum-cost solution of a balanced transportation problem.

    The returned potentials certify optimality: every reduced cost is
    >= -1e-9 and reduced costs vanish on arcs carrying flow. Zero-supply
    sources and zero-demand sinks carry no flow.
    """
    dem = p.demands
    if dem.sum() > 0:
        dem = dem * (p.supplies.sum() / dem.sum())  # exact rebalance within tolerance
    flow, u, v = _ksink_transport(p.cost, p.supplies, dem, dem)
    objective = float(np.sum(flow * p.cost))
    return TransportSolution(flow=flow, objective=objective, source_potentials=u, sink_potentials=v[:-1])


def solve_bounded_transportation(p: BoundedTransportationProblem) -> BoundedTransportSolution:
    """Transportation with per-sink [lower, upper] bounds on received weight.

    One k-sink solve with a hub node behind the sinks. A bound sum within
    tolerance of the supply total is rescaled onto it exactly. Raises
    :class:`Infeasible` when the bound sums exclude the supply total.
    """
    W = float(p.supplies.sum())
    lo = p.sink_lower
    hi = np.minimum(p.sink_upper, W)  # a sink can never receive more than everything
    tol = 1e-9 * max(1.0, W)
    if lo.sum() > W + tol or W > hi.sum() + tol:
        raise Infeasible(
            f"sink bounds exclude the supply: sum(l)={lo.sum():.12g}, "
            f"W={W:.12g}, sum(u)={hi.sum():.12g}"
        )
    # A bound sum within tolerance of W pins every sink to that bound: put it on W exactly.
    lower = lo * (W / lo.sum()) if lo.sum() > 0 and W - lo.sum() <= tol else lo
    upper = hi * (W / hi.sum()) if hi.sum() > 0 and hi.sum() - W <= tol else hi
    flow, _, _ = _ksink_transport(p.cost, p.supplies, lower, upper)
    totals = flow.sum(axis=0)
    if np.any(totals < lo - tol) or np.any(totals > hi + tol):
        raise SolverError("bounded transportation produced out-of-bound sink totals")
    return BoundedTransportSolution(flow, float(np.sum(flow * p.cost)), totals)


# ---------------------------------------------------------------------------
# Dense simplex LP
# ---------------------------------------------------------------------------


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    hit = np.flatnonzero(factors)  # rows the entering column is absent from stay as they are
    T[hit] -= np.outer(factors[hit], T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T, basis, n_cols, tol):
    """Iterate the tableau to optimality over its first ``len(basis)`` rows.
    The last row holds reduced costs, the last column the rhs; rows between
    are pivoted along. Dantzig pricing, permanent Bland fallback."""
    rows = len(basis)
    bland = False
    degenerate_streak = 0
    max_iter = 20_000 + 50 * (rows + n_cols)
    for _ in range(max_iter):
        costs = T[-1, :n_cols]
        if bland:
            hits = np.flatnonzero(costs < -tol)
            if hits.size == 0:
                return
            col = int(hits[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -tol:
                return
        coeffs = T[:rows, col]
        positive = coeffs > tol
        if not positive.any():
            raise Unbounded("LP objective is unbounded below")
        ratios = np.where(positive, T[:rows, -1] / np.where(positive, coeffs, 1.0), np.inf)
        best = ratios.min()
        candidates = np.flatnonzero(ratios - best <= 1e-12 * max(1.0, abs(best)))
        row = int(min(candidates, key=lambda r: basis[r]))
        if T[row, -1] <= tol:
            degenerate_streak += 1
            if degenerate_streak > 3 * rows + 20:
                bland = True
        else:
            degenerate_streak = 0
        _pivot(T, basis, row, col)
    raise SolverLimit("LP simplex exceeded its iteration ceiling")


def _run_dual_simplex(T, basis, n_cols, tol):
    """Iterate the tableau to primal feasibility over its first ``len(basis)``
    rows, keeping the last row's reduced costs nonnegative (Lemke 1954); rows
    between are pivoted along. The row with the most negative rhs leaves and
    the least ratio enters, ties to the lowest column. After a degenerate
    streak the dual Bland rule takes over for good: the infeasible row with
    the lowest basis index leaves."""
    rows = len(basis)
    bland = False
    degenerate_streak = 0
    max_iter = 20_000 + 50 * (rows + n_cols)
    for _ in range(max_iter):
        rhs = T[:rows, -1]
        short = np.flatnonzero(rhs < -tol)
        if short.size == 0:
            return
        if bland:
            row = int(min(short, key=basis.__getitem__))
        else:
            row = int(short[np.argmin(rhs[short])])
        coeffs = T[row, :n_cols]
        negative = coeffs < -tol
        if not negative.any():
            raise Infeasible(f"a constraint row has rhs {rhs[row]:.3e} and no column that can raise it")
        ratios = np.where(negative, T[-1, :n_cols] / np.where(negative, -coeffs, 1.0), np.inf)
        best = ratios.min()
        col = int(np.flatnonzero(ratios - best <= 1e-12 * max(1.0, abs(best)))[0])
        if T[-1, col] <= tol:
            degenerate_streak += 1
            if degenerate_streak > 3 * rows + 20:
                bland = True
        else:
            degenerate_streak = 0
        _pivot(T, basis, row, col)
    raise SolverLimit("LP dual simplex exceeded its iteration ceiling")


def solve_lp(p: LinearProgram) -> LpSolution:
    """Dense simplex for small linear programs, started from a crash basis.

    Each equality row takes as basic its cheapest column (cost per unit of
    the row, ties to the lowest) that is zero in every other equality row and
    has the sign of the row's rhs (positive for a zero rhs); a row without
    one becomes two ``<=`` rows, and every ``<=`` row starts with its slack
    basic. Phase 1 is the dual simplex under the reduced costs shifted up to
    zero, phase 2 the primal simplex under the true ones. ``ub_duals`` are
    the ``<=`` rows' multipliers (all <= 0), read from their slack columns.

    Feasibility of the returned point holds within 1e-7 absolute on every
    constraint. Raises :class:`Infeasible` or :class:`Unbounded` accordingly.
    """
    c, a_eq, b_eq, a_ub, b_ub = p.objective, p.a_eq, p.b_eq, p.a_ub, p.b_ub
    n = c.size

    # Crash basis: each column that is nonzero in one equality row only, with
    # the sign of that row's rhs, prices the row at c / |a|; the cheapest wins.
    n_eq, n_ub = b_eq.size, b_ub.size
    own = np.where(b_eq[:, None] < 0, a_eq < 0, a_eq > 0) & (np.count_nonzero(a_eq, axis=0) == 1)
    cand, row = np.nonzero(own.T)
    order = np.lexsort((cand, c[cand] / np.abs(a_eq[row, cand]), row))  # by row, price, column
    first = order[np.diff(row[order], prepend=-1) != 0]
    crash_rows, crash = row[first], cand[first]
    split = np.ones(n_eq, dtype=bool)
    split[crash_rows] = False

    # Rows: the equality rows, the inequality rows, then -a x <= -b for each
    # equality row without a crash column, which itself becomes a x <= b.
    # Every row but a crash row has a slack.
    n_s = int(split.sum())
    rows = n_eq + n_ub + n_s
    slack_rows = np.concatenate([np.flatnonzero(split), np.arange(n_eq, rows)])
    cols = n + slack_rows.size
    T = np.zeros((rows + 2, cols + 1))  # plus the true and the shifted cost rows
    T[:n_eq, :n] = a_eq
    T[n_eq : n_eq + n_ub, :n] = a_ub
    T[n_eq + n_ub : rows, :n] = -a_eq[split]
    T[slack_rows, n + np.arange(slack_rows.size)] = 1.0
    T[:rows, -1] = np.concatenate([b_eq, b_ub, -b_eq[split]])
    scale = max(1.0, T[:rows].max(initial=0.0), -T[:rows].min(initial=0.0))
    tol = 1e-10 * scale
    T[rows, :n] = c
    # One block step makes the crash rows unit rows and clears their columns
    # elsewhere; the crash columns are zero in the other equality rows.
    pivots = np.ones(n_eq)
    pivots[crash_rows] = a_eq[crash_rows, crash]
    T[:n_eq] /= pivots[:, None]
    factors = np.zeros((rows + 2 - n_eq, n_eq))
    factors[:, crash_rows] = T[n_eq:, crash]
    T[n_eq:] -= factors @ T[:n_eq]
    basis = np.empty(rows, dtype=np.int64)
    basis[crash_rows] = crash
    basis[slack_rows] = np.arange(n, cols)
    basis = basis.tolist()

    T[-1, :cols] = np.maximum(T[rows, :cols], 0.0)  # shifted: dual feasible at the start
    _run_dual_simplex(T, basis, cols, tol)
    T = T[:-1]
    _run_simplex(T, basis, cols, tol)

    x_full = np.zeros(cols)
    x_full[basis] = T[:rows, -1]
    x = np.maximum(x_full[:n], 0.0)

    _check_lp_feasibility(p, x)
    ub_duals = np.minimum(-T[rows, n + n_s : n + n_s + n_ub], 0.0)  # after the split rows' slacks
    return LpSolution(x=x, objective=float(c @ x), ub_duals=ub_duals)


def _check_lp_feasibility(p: LinearProgram, x: np.ndarray, tol: float = 1e-7) -> None:
    resid = np.max(np.abs(p.a_eq @ x - p.b_eq), initial=0.0)
    if resid > tol:
        raise SolverError(f"LP equality residual {resid:.3e} exceeds {tol}")
    excess = np.max(p.a_ub @ x - p.b_ub, initial=0.0)
    if excess > tol:
        raise SolverError(f"LP inequality excess {excess:.3e} exceeds {tol}")
    if np.min(x, initial=0.0) < -tol:
        raise SolverError("LP solution has a negative variable")
