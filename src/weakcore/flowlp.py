"""Exact transportation, bounded transportation, and dense-simplex LP solvers.

All solvers are pure functions over float64 inputs and certify optimality
before returning: the network solvers check complementary slackness via the
final node potentials, the LP solver relies on a Bland-safeguarded simplex.
Every transportation problem here has many sources (points) and few sinks
(clusters), so one solver serves both network problems: successive shortest
paths over an exchange graph with one node per sink plus one hub node that
carries the sink bounds, started from the Voronoi assignment. Dijkstra ties
go to the lowest node index and each arc's source is the least
``(cost difference, source index)``, so results are deterministic.
The LP solver runs both simplex phases on one dense tableau over the
structural and slack columns. Each row starts with an implicit artificial
basic variable that has no column of its own, and the phase-2 cost row is
carried through the phase-1 pivots (Chvatal, *Linear Programming*, 1983).
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
    """min c.x subject to a_eq x = b_eq, a_ub x <= b_ub, x >= 0."""

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
                return None, None
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
    T -= np.outer(factors, T[row])
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


def solve_lp(p: LinearProgram) -> LpSolution:
    """Two-phase dense simplex for small linear programs, on one tableau.

    Feasibility of the returned point holds within 1e-7 absolute on every
    constraint. Raises :class:`Infeasible` or :class:`Unbounded` accordingly.
    """
    c = p.objective
    n = c.size
    n_eq = 0 if p.a_eq is None else p.b_eq.size
    n_ub = 0 if p.a_ub is None else p.b_ub.size
    rows, cols = n_eq + n_ub, n + n_ub

    # Rows: constraints (rhs made nonnegative), the phase-2 costs, the phase-1 costs.
    T = np.zeros((rows + 2, cols + 1))
    if p.a_eq is not None:
        T[:n_eq, :n] = p.a_eq
        T[:n_eq, -1] = p.b_eq
    if p.a_ub is not None:
        T[n_eq:rows, :n] = p.a_ub
        T[n_eq:rows, n:cols] = np.eye(n_ub)
        T[n_eq:rows, -1] = p.b_ub
    A = T[:rows]
    A[A[:, -1] < 0] *= -1
    scale = float(np.max(np.abs(A), initial=1.0))
    tol = 1e-10 * scale
    T[rows, :n] = c
    T[-1] = -A.sum(axis=0)

    # Phase 1: row r starts with an implicit artificial basic variable, marked cols + r.
    basis = list(range(cols, cols + rows))
    _run_simplex(T, basis, cols, tol)
    if -T[-1, -1] > 1e-7 * max(1.0, scale):
        raise Infeasible(f"phase-1 residual {-T[-1, -1]:.3e}")

    # Drive artificials out of the basis; drop redundant rows.
    keep_rows = []
    for r in range(rows):
        if basis[r] >= cols:
            nonzero = np.flatnonzero(np.abs(T[r, :cols]) > tol)
            if nonzero.size == 0:
                continue  # redundant constraint
            _pivot(T, basis, r, int(nonzero[0]))
        keep_rows.append(r)

    # Phase 2 on the kept rows under the carried phase-2 cost row.
    basis = [basis[r] for r in keep_rows]
    T = T[keep_rows + [rows]]
    _run_simplex(T, basis, cols, tol)

    x_full = np.zeros(cols)
    x_full[basis] = T[:-1, -1]
    x = np.maximum(x_full[:n], 0.0)

    _check_lp_feasibility(p, x)
    return LpSolution(x=x, objective=float(c @ x))


def _check_lp_feasibility(p: LinearProgram, x: np.ndarray, tol: float = 1e-7) -> None:
    if p.a_eq is not None:
        resid = np.max(np.abs(p.a_eq @ x - p.b_eq), initial=0.0)
        if resid > tol:
            raise SolverError(f"LP equality residual {resid:.3e} exceeds {tol}")
    if p.a_ub is not None:
        excess = np.max(p.a_ub @ x - p.b_ub, initial=0.0)
        if excess > tol:
            raise SolverError(f"LP inequality excess {excess:.3e} exceeds {tol}")
    if np.min(x, initial=0.0) < -tol:
        raise SolverError("LP solution has a negative variable")
