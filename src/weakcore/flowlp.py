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
node that carries the sink bounds. Each arc between two sinks lists its
sources once, sorted with numpy by ``(cost difference, source index)``, and
reads the list through a pointer; only sources that move during the solve
get per-sink masses and heap entries. It starts from the Voronoi
assignment, or from given sink prices (say a summary solve's) when those
start closer to balance: each source at its cheapest sink net of the
prices, each free sink on the bound its price's sign selects. Either start
keeps every reduced cost nonnegative, so the result is exact. Dijkstra ties
go to the lowest node index and each arc's source is the least ``(cost
difference, source index)``, so results are deterministic.
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
    lower one, so it prices the bound that sink sits on. ``augmentations``
    counts the shortest paths the solve took and ``warm_start`` says whether
    it started from the given prices."""

    flow: np.ndarray
    objective: float
    sink_totals: np.ndarray
    source_potentials: np.ndarray
    sink_potentials: np.ndarray
    hub_potential: float
    augmentations: int
    warm_start: bool

    @property
    def prices(self) -> np.ndarray:
        """Sink potentials relative to the hub: start prices for a solve of
        the same sinks on other sources."""
        return self.sink_potentials - self.hub_potential


@dataclass(frozen=True, eq=False)
class LpSolution:
    x: np.ndarray
    objective: float
    ub_duals: np.ndarray


# ---------------------------------------------------------------------------
# k-sink transportation: successive shortest paths between sinks
# ---------------------------------------------------------------------------


def _start_excess(total, through, supply_total):
    """How far a start is from balance: what the sinks hold beyond or short
    of what they pass on, plus what the hub receives beyond the supply."""
    return float(np.abs(total - through).sum()) + abs(float(through.sum()) - supply_total)


def _ksink_transport(cost, supply, lower, upper, prices=None):
    """Exact transportation for many sources and few sinks, each sink
    receiving between ``lower[b]`` and ``upper[b]`` of the supply.

    Returns (flow, u, v, augmentations, warm) where (u, v) are optimal node
    potentials, the last entry of ``v`` the hub's, and ``warm`` says which
    start was taken. Each sink passes what it receives on to one zero-cost
    hub node, index n, which absorbs the whole supply (Ahuja, Magnanti and
    Orlin, *Network Flows*, ch. 9); with ``lower == upper`` the hub has no
    arcs and this is plain transportation. Successive shortest paths move
    excess to nodes short of their balance, one augmentation per path. Arc
    a -> b between sinks moves some source x from a to b at reduced cost
    ``c[x,b] - c[x,a] - v_b + v_a``; a hub arc changes what a sink passes on
    at reduced cost ``v_tail - v_head``. Every start keeps all of these >= 0.

    Two starts. The Voronoi start puts every source at its nearest sink with
    all potentials zero, and every sink passes its total clipped to its
    bounds. The warm start takes ``prices``, sink potentials relative to the
    hub (say from a solve on a summary of the same sources): every source
    starts at ``argmin_b (c[x,b] - prices_b)``, the sinks start at those
    potentials, and a sink with ``prices_b > 0`` passes its lower bound, one
    with ``prices_b < 0`` its upper bound and one at zero its clipped total.
    A start's excess is ``sum_b |total_b - through_b| + |sum through - W|``;
    the warm start is taken only when its excess is strictly below the
    Voronoi start's, so a Voronoi profile keeps its zero-move solve.

    The key ``c[x,b] - c[x,a]`` does not depend on the potentials. Each arc
    lists the sources that start at its tail, sorted once by ``(key,
    source)`` with numpy, and reads it through a pointer; a source that
    arrives at a sink during the solve goes into a small heap per arc out of
    that sink. An entry is stale once its source holds nothing at the tail,
    and mass is kept per source only once the source has moved. Ties break
    deterministically: ``(key, source)`` picks the source of an arc, and
    Dijkstra settles the lowest node index among equal distances (the hub
    last).
    """
    m, n = cost.shape
    hub = n
    if not upper.any():  # the supply is within the balance tolerance of zero: ship nothing
        return np.zeros((m, n)), cost.min(axis=1, initial=0.0), np.zeros(n + 1), 0, False
    scale = max(1.0, float(np.max(np.abs(cost), initial=0.0)))
    W = float(supply.sum())
    eps = 1e-13 * max(1.0, W)
    live = np.flatnonzero(supply > 0)

    start = np.argmin(cost, axis=1)
    total = np.bincount(start[live], supply[live], minlength=n)
    through = np.clip(total, lower, upper)
    v, warm = [0.0] * (n + 1), False
    if prices is not None:
        w_start = np.argmin(cost - prices, axis=1)
        w_total = np.bincount(w_start[live], supply[live], minlength=n)
        w_through = np.where(prices > 0, lower, np.where(prices < 0, upper, np.clip(w_total, lower, upper)))
        if _start_excess(w_total, w_through, W) < _start_excess(total, through, W):
            start, total, through, warm = w_start, w_total, w_through, True
            v = prices.tolist() + [0.0]
    excess = (total - through).tolist() + [float(through.sum()) - W]
    through, lo, hi = through.tolist(), lower.tolist(), upper.tolist()

    arcs = [[None] * n for _ in range(n)]  # arc a -> b: (keys, sources) in (key, source) order
    ptr = [[0] * n for _ in range(n)]
    heads = [[None] * n for _ in range(n)]  # (key, source) at the pointer, or None
    arrived = [[[] for _ in range(n)] for _ in range(n)]
    for a in range(n):
        at_a = live[start[live] == a]
        for b in range(n):
            if b != a and at_a.size:
                keys = cost[at_a, b] - cost[at_a, a]
                order = np.argsort(keys, kind="stable")  # at_a ascends: ties go to the lower source
                keys, sources = arcs[a][b] = keys[order], at_a[order]
                heads[a][b] = (float(keys[0]), int(sources[0]))
    moved = {}  # source -> its mass at every sink, once it has moved

    def stale(x, a):
        row = moved.get(x)
        return row is not None and row[a] <= 0.0

    def top(a, b):
        """The cheapest live entry of arc a -> b, or None; a hub arc's source is None."""
        if b == hub:
            return (0.0, None) if through[a] < hi[a] else None
        if a == hub:
            return (0.0, None) if through[b] > lo[b] else None
        head = heads[a][b]
        while head is not None and stale(head[1], a):
            keys, sources = arcs[a][b]
            p = ptr[a][b] = ptr[a][b] + 1
            head = heads[a][b] = (float(keys[p]), int(sources[p])) if p < sources.size else None
        heap = arrived[a][b]
        while heap and stale(heap[0][1], a):
            heapq.heappop(heap)
        return heap[0] if heap and (head is None or heap[0] < head) else head

    def capacity(a, b, x):
        if x is not None:
            row = moved.get(x)
            return float(supply[x]) if row is None else row[a]
        return hi[a] - through[a] if b == hub else through[b] - lo[b]

    augmentations = 0
    while max(excess) > eps:
        augmentations += 1
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
                row = moved.get(x)
                if row is None:  # x leaves its start for the first time
                    row = moved[x] = [0.0] * n
                    row[a] = cap
                if row[b] == 0.0:  # x arrives at b: it can now leave b for any sink
                    cx = cost[x].tolist()
                    for c in range(n):
                        if c != b:
                            heapq.heappush(arrived[b][c], (cx[c] - cx[b], x))
                row[b] += delta
                row[a] -= delta
        excess[source] -= delta
        excess[target] += delta

    flow = np.where(start[:, None] == np.arange(n), supply[:, None], 0.0)
    if moved:
        flow[list(moved)] = list(moved.values())
    v = np.array(v)
    u = (cost - v[None, :n]).min(axis=1)
    through = np.array(through)
    _certify(cost, flow, u, v, through < upper, through > lower, scale)
    return flow, u, v, augmentations, warm


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


def solve_bounded_transportation(
    p: BoundedTransportationProblem, prices: Optional[np.ndarray] = None
) -> BoundedTransportSolution:
    """Exact transportation with per-sink [lower, upper] bounds on received
    weight; ``lower == upper`` ships a fixed demand to every sink.

    One k-sink solve with a hub node behind the sinks. A bound sum within
    tolerance of the supply total is rescaled onto it exactly. Zero-supply
    sources and zero-bound sinks carry no flow. ``prices``, one per sink
    and measured from the hub (a solution's :attr:`~BoundedTransportSolution.prices`),
    offer a warm start that the solver takes when it starts closer to
    balance than the Voronoi start; either way the solve is exact. Raises
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
    if prices is not None:
        prices = np.asarray(prices, dtype=np.float64)
        if prices.shape != lo.shape or not np.all(np.isfinite(prices)):
            raise ValidationError("start prices must be one finite number per sink")
    # A bound sum within tolerance of W pins every sink to that bound: put it on W exactly.
    lower = lo * (W / lo.sum()) if lo.sum() > 0 and W - lo.sum() <= tol else lo
    upper = hi * (W / hi.sum()) if hi.sum() > 0 and hi.sum() - W <= tol else hi
    flow, u, v, augmentations, warm = _ksink_transport(p.cost, p.supplies, lower, upper, prices)
    totals = flow.sum(axis=0)
    if np.any(totals < lo - tol) or np.any(totals > hi + tol):
        raise SolverError("bounded transportation produced out-of-bound sink totals")
    return BoundedTransportSolution(
        flow, float(np.sum(flow * p.cost)), totals, u, v[:-1], float(v[-1]), augmentations, warm
    )


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
