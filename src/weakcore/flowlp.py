"""Exact transportation and dense-simplex LP solvers.

All solvers are pure functions over float64 inputs. The transportation
solver certifies optimality before returning, by complementary slackness on
the final node potentials, and returns them; the LP solver checks
feasibility and returns the multipliers of its ``<=`` rows, whose Lagrangian
bound the fraction-bound LP in :mod:`weakcore.constraints` checks against
the objective.
Transportation has one entry point, :func:`solve_bounded_transportation`:
every sink receives between a lower and an upper bound, and a fixed demand
is the bound pair ``lower == upper``. Every transportation problem here has
many sources (points) and few sinks (clusters), so the solver is successive
shortest paths over an exchange graph with one node per sink plus one hub
node that carries the sink bounds, started from the Voronoi assignment.
Dijkstra ties go to the lowest node index and each arc's source is the least
``(cost difference, source index)``, so results are deterministic.
The LP solver takes the shape of its one caller, the fraction-bound LP: an
(n, k) cost matrix whose every column sits in one conservation row (a
generalized-upper-bounding row, Dantzig and Van Slyke 1967), plus a few
``<=`` rows that couple the rows. Each conservation row's cheapest column
and the ``<=`` slacks form a basis that is optimal for the costs, which for
the fraction LP is every point at its nearest center; the dual simplex
(Lemke 1954) on one dense tableau then repairs the ``<=`` rows it breaks.
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


class SolverLimit(Exception):
    """A configured size or iteration ceiling was exceeded."""


class SolverError(RuntimeError):
    """Internal failure: a solve finished without a valid optimality certificate."""


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
    """min sum c[r, i] x[r, i] over x >= 0 with row totals sum_i x[r, i] =
    b_eq[r] and a_ub x.ravel() <= b_ub. ``objective`` is the (n, k) matrix
    c, one row per conservation row; a left-out ``<=`` block is stored with
    zero rows."""

    objective: np.ndarray
    b_eq: np.ndarray
    a_ub: Optional[np.ndarray] = None
    b_ub: Optional[np.ndarray] = None

    def __post_init__(self):
        c = _float_array(self.objective, "objective", ndim=2)
        if c.size > MAX_LP_VARIABLES:
            raise SolverLimit(f"LP has {c.size} variables; the cap is {MAX_LP_VARIABLES}")
        if c.shape[1] == 0:
            raise ValidationError("the objective needs at least one column")
        b_eq = _float_array(self.b_eq, "row totals", ndim=1)
        if b_eq.size != c.shape[0] or np.any(b_eq < 0):
            raise ValidationError("need one nonnegative row total per objective row")
        if self.a_ub is None and self.b_ub is None:
            a_ub, b_ub = np.zeros((0, c.size)), np.zeros(0)
        else:
            a_ub = _float_array(self.a_ub, "inequality matrix", ndim=2)
            b_ub = _float_array(self.b_ub, "inequality rhs", ndim=1)
            if a_ub.shape != (b_ub.size, c.size):
                raise ValidationError("inequality dimensions inconsistent with objective")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)


@dataclass(frozen=True, eq=False)
class BoundedTransportSolution:
    """An optimal flow with the node potentials that certify it: every
    reduced cost ``cost - u - v`` is >= 0 and vanishes on the flow, and
    ``v_b - v_hub`` is >= 0 below sink b's upper bound and <= 0 above its
    lower one, so it prices the bound that sink sits on."""

    flow: np.ndarray
    objective: float
    sink_totals: np.ndarray
    source_potentials: np.ndarray
    sink_potentials: np.ndarray
    hub_potential: float


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
    hub arc can still carry more/less, which bounds ``v_b - v_hub`` below/above.

    ``u`` is the row minimum of ``cost - v``, so every reduced cost is >= 0 by
    construction, and a zero reduced cost on the flow support says that each
    source ships only to sinks of least ``cost - v``. That is the same test
    as taking ``u`` from the support and checking the reduced costs for sign.
    """
    red = cost - u[:, None] - v[None, :-1]
    cert_tol = 1e-9 * max(1.0, scale)
    support = flow > 0
    if support.any() and np.max(np.abs(np.where(support, red, 0.0))) > cert_tol:
        raise SolverError("complementary slackness violated on the flow support")
    gap = v[:-1] - v[-1]
    if np.any(gap[rises] < -cert_tol) or np.any(gap[falls] > cert_tol):
        raise SolverError("a hub arc with residual capacity has a negative reduced cost")


def solve_bounded_transportation(p: BoundedTransportationProblem) -> BoundedTransportSolution:
    """Exact transportation with per-sink [lower, upper] bounds on received
    weight; ``lower == upper`` ships a fixed demand to every sink.

    One k-sink solve with a hub node behind the sinks. A bound sum within
    tolerance of the supply total is rescaled onto it exactly. Zero-supply
    sources and zero-bound sinks carry no flow. Raises :class:`Infeasible`
    when the bound sums exclude the supply total.
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
    flow, u, v = _ksink_transport(p.cost, p.supplies, lower, upper)
    totals = flow.sum(axis=0)
    if np.any(totals < lo - tol) or np.any(totals > hi + tol):
        raise SolverError("bounded transportation produced out-of-bound sink totals")
    return BoundedTransportSolution(flow, float(np.sum(flow * p.cost)), totals, u, v[:-1], float(v[-1]))


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


def _run_dual_simplex(T, basis, n_cols, tol):
    """Iterate the tableau to primal feasibility over its first ``len(basis)``
    rows, keeping the last row's reduced costs nonnegative (Lemke 1954). The
    row with the most negative rhs leaves and the least ratio enters, ties to
    the lowest column. After a degenerate streak the dual Bland rule takes
    over for good: the infeasible row with the lowest basis index leaves."""
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
    """Dense dual simplex from the basis of each row's cheapest column.

    Every column sits in one conservation row, so each row's cheapest column
    (ties to the lowest) and every ``<=`` row's slack form a basis whose
    reduced costs ``c[r, i] - c[r, home(r)]`` are all >= 0: the start is dual
    feasible for any objective, and the dual simplex alone reaches the
    optimum. ``ub_duals`` are the ``<=`` rows' multipliers (all <= 0), read
    from their slack columns.

    Feasibility of the returned point holds within 1e-7 absolute on every
    constraint. Raises :class:`Infeasible` when no point meets the ``<=`` rows.
    """
    c, b_eq, a_ub, b_ub = p.objective, p.b_eq, p.a_ub, p.b_ub
    n, k = c.shape
    nk, n_ub = c.size, b_ub.size
    rows, cols = n + n_ub, nk + n_ub
    home = np.arange(n) * k + np.argmin(c, axis=1)
    # The conservation rows are unit rows; every other row, the cost row
    # included, is written with the home columns eliminated.
    a_home = a_ub[:, home]
    T = np.zeros((rows + 1, cols + 1))
    T[np.arange(n).repeat(k), np.arange(nk)] = 1.0
    T[:n, -1] = b_eq
    T[n:rows, :nk] = a_ub - a_home.repeat(k, axis=1)
    T[np.arange(n, rows), np.arange(nk, cols)] = 1.0
    T[n:rows, -1] = b_ub - a_home @ b_eq
    T[rows, :nk] = (c - c.min(axis=1, keepdims=True)).ravel()
    basis = home.tolist() + list(range(nk, cols))
    scale = max(1.0, *(np.abs(a).max(initial=0.0) for a in (b_eq, a_ub, b_ub)))
    _run_dual_simplex(T, basis, cols, 1e-10 * scale)

    x = np.zeros(cols)
    x[basis] = T[:rows, -1]
    x = np.maximum(x[:nk], 0.0).reshape(n, k)
    _check_lp_feasibility(p, x)
    ub_duals = np.minimum(-T[rows, nk:cols], 0.0)
    return LpSolution(x=x, objective=float(np.vdot(c, x)), ub_duals=ub_duals)


def _check_lp_feasibility(p: LinearProgram, x: np.ndarray, tol: float = 1e-7) -> None:
    resid = np.max(np.abs(x.sum(axis=1) - p.b_eq), initial=0.0)
    if resid > tol:
        raise SolverError(f"LP row-total residual {resid:.3e} exceeds {tol}")
    excess = np.max(p.a_ub @ x.ravel() - p.b_ub, initial=0.0)
    if excess > tol:
        raise SolverError(f"LP inequality excess {excess:.3e} exceeds {tol}")
