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
sources, sorted with numpy by ``(cost difference, source index)`` the
first time a search reads it, and reads the list through a pointer; only
sources that move during the solve get per-sink masses and heap entries.
When a search can only ever find one arc again, that arc's sources move
one per augmentation with no further search (a run), and the flow comes
back as its support rather than a dense matrix. It starts from the Voronoi
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

from .model import ValidationError, _float_array, _row_argmin

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
        cost = np.asarray(self.cost, dtype=np.float64)
        sup = np.asarray(self.supplies, dtype=np.float64)
        lo = np.asarray(self.sink_lower, dtype=np.float64)
        hi = np.asarray(self.sink_upper, dtype=np.float64)
        # One reduction per test when the problem is well formed (a NaN fails
        # every comparison); otherwise the checks run one by one for their message.
        if not (
            cost.ndim == 2
            and sup.ndim == lo.ndim == hi.ndim == 1
            and cost.shape == (sup.size, lo.size)
            and hi.size == lo.size
            and -math.inf < cost.min(initial=0.0)
            and cost.max(initial=0.0) < math.inf
            and 0.0 <= sup.min(initial=0.0)
            and sup.max(initial=0.0) < math.inf
            and 0.0 <= lo.min(initial=0.0)
            and (hi >= lo).all()
        ):
            _refuse(cost, sup, lo, hi)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "supplies", sup)
        object.__setattr__(self, "sink_lower", lo)
        object.__setattr__(self, "sink_upper", hi)


def _refuse(cost, sup, lo, hi):
    """Raise the first of a transportation problem's checks that fails."""
    _float_array(cost, "cost matrix", ndim=2)
    _float_array(sup, "supplies", ndim=1)
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
    """An optimal flow, as its support: ``masses[i] > 0`` goes from source
    ``rows[i]`` to sink ``cols[i]``, in row-major order. The node potentials
    certify it: every reduced cost ``cost - u - v`` is >= 0 and vanishes on
    the support, and ``v_b - v_hub`` is >= 0 below sink b's upper bound and
    <= 0 above its lower one, so it prices the bound that sink sits on.
    ``augmentations`` counts the augmenting paths the solve took,
    ``searches`` the shortest-path searches that found them (a run of
    sources along one arc needs one search), and ``warm_start`` says whether
    it started from the given prices."""

    rows: np.ndarray
    cols: np.ndarray
    masses: np.ndarray
    objective: float
    sink_totals: np.ndarray
    source_potentials: np.ndarray
    sink_potentials: np.ndarray
    hub_potential: float
    augmentations: int
    searches: int
    warm_start: bool

    @property
    def flow(self) -> np.ndarray:
        """The dense (sources, sinks) flow, built on each read."""
        flow = np.zeros((self.source_potentials.size, self.sink_potentials.size))
        flow[self.rows, self.cols] = self.masses
        return flow

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

    Returns ((rows, cols, masses), u, v, augmentations, searches, warm):
    the flow's support in row-major order, optimal node potentials (u, v),
    the last entry of ``v`` the hub's, the augmenting paths and the
    Dijkstra searches taken, and which start was used. Each sink passes what
    it receives on to one zero-cost hub node, index n, which absorbs the
    whole supply (Ahuja, Magnanti and Orlin, *Network Flows*, ch. 9); with
    ``lower == upper`` the hub has no arcs and this is plain transportation.
    Successive shortest paths move excess to nodes short of their balance,
    one augmentation per path. Arc a -> b between sinks moves some source x
    from a to b at reduced cost ``c[x,b] - c[x,a] - v_b + v_a``; a hub arc
    changes what a sink passes on at reduced cost ``v_tail - v_head``. Every
    start keeps all of these >= 0.

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

    Arcs are built on first use. The key ``c[x,b] - c[x,a]`` does not depend
    on the potentials, so the first time a search reads arc a -> b it sorts
    the sources that start at a by ``(key, source)`` with numpy, and from
    then on reads the list through a pointer; a start already in balance
    sorts nothing. A source that arrives at a sink during the solve goes
    into a small heap per arc out of that sink. An entry is stale once its
    source holds nothing at the tail, and mass is kept per source only once
    the source has moved.

    Runs. Say a search settles every excess node and finds one live arc in
    all, a -> b between sinks, which reaches its target b. While sources
    move from a to b, no arc out of an excess node gains an entry, so the
    next search would find a -> b's next source by the same arithmetic. So
    a -> b's sources move one per augmentation, in ``(key, source)`` order
    and with the potential update the search would make, until a's excess
    or b's shortfall is used up; only then does a search run again. A k=2
    fixed-profile solve takes at most one search, as the hub has no arcs
    when lower equals upper. The flow and potentials are those of one
    search per augmentation, bit for bit.

    Ties break deterministically: ``(key, source)`` picks the source of an
    arc, and Dijkstra settles the lowest node index among equal distances
    (the hub last).
    """
    m, n = cost.shape
    hub = n
    if not upper.any():  # the supply is within the balance tolerance of zero: ship nothing
        none = np.zeros(0, dtype=np.intp)
        return (none, none, np.zeros(0)), cost.min(axis=1, initial=0.0), np.zeros(n + 1), 0, 0, False
    scale = max(1.0, float(cost.max(initial=0.0)), -float(cost.min(initial=0.0)))  # the largest |cost|
    W = float(supply.sum())
    eps = 1e-13 * max(1.0, W)
    live = np.flatnonzero(supply > 0)

    start = _row_argmin(cost)[0]
    total = np.bincount(start[live], supply[live], minlength=n)
    through = np.clip(total, lower, upper)
    v, warm = [0.0] * (n + 1), False
    if prices is not None:
        w_start = _row_argmin(cost - prices)[0]
        w_total = np.bincount(w_start[live], supply[live], minlength=n)
        w_through = np.where(prices > 0, lower, np.where(prices < 0, upper, np.clip(w_total, lower, upper)))
        if _start_excess(w_total, w_through, W) < _start_excess(total, through, W):
            start, total, through, warm = w_start, w_total, w_through, True
            v = prices.tolist() + [0.0]
    excess = (total - through).tolist() + [float(through.sum()) - W]
    through, lo, hi = through.tolist(), lower.tolist(), upper.tolist()

    arcs = [[None] * n for _ in range(n)]  # arc a -> b: (keys, sources) in (key, source) order, once read
    ptr = [[0] * n for _ in range(n)]
    heads = [[None] * n for _ in range(n)]  # (key, source) at the pointer, or None
    arrived = [[[] for _ in range(n)] for _ in range(n)]
    moved = {}  # source -> its mass at every sink, once it has moved

    def read(a, b):
        """Sort arc a -> b, the live sources that start at a, by (key, source); its head."""
        at_a = live[start[live] == a]
        keys = cost[at_a, b] - cost[at_a, a]
        order = np.argsort(keys, kind="stable")  # at_a ascends: ties go to the lower source
        keys, sources = arcs[a][b] = keys[order], at_a[order]
        return (float(keys[0]), int(sources[0])) if sources.size else None

    def stale(x, a):
        row = moved.get(x)
        return row is not None and row[a] <= 0.0

    def top(a, b):
        """The cheapest live entry of arc a -> b, or None; a hub arc's source is None."""
        if b == hub:
            return (0.0, None) if through[a] < hi[a] else None
        if a == hub:
            return (0.0, None) if through[b] > lo[b] else None
        if arcs[a][b] is None:
            heads[a][b] = read(a, b)
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

    def shift(a, b, x, cap, delta):
        """Move ``delta`` of source x, which holds ``cap`` at a, to b."""
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

    augmentations = searches = 0
    while max(excess) > eps:
        augmentations += 1
        searches += 1
        dist = [0.0 if e > eps else math.inf for e in excess]
        pred = [None] * (n + 1)
        open_ = list(range(n + 1))
        offers = 0
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
                    offers += 1
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
                shift(a, b, x, cap, delta)
        excess[source] -= delta
        excess[target] += delta

        # A run: the search offered one arc, a -> b between sinks, after it
        # settled every excess node (while a keeps its excess, the excess set
        # is the one the search started from), so the next search would take
        # a -> b's next source with the same arithmetic: take it without one.
        a, b, x = path[0]
        if offers > 1 or x is None or n - len(open_) != sum(e > eps for e in excess):
            continue
        base = [0.0 if e > eps else math.inf for e in excess]  # b's entry: min(inf, d) is d
        while excess[a] > eps and excess[b] < -eps:
            entry = top(a, b)
            if entry is None:
                break  # the next search raises
            d = 0.0 + entry[0] - v[b] + v[a]  # dist[a] is 0
            v = [vj + min(dj, d) for vj, dj in zip(v, base)]
            augmentations += 1
            x = entry[1]
            cap = capacity(a, b, x)
            delta = min(excess[a], -excess[b], cap)
            shift(a, b, x, cap, delta)
            excess[a] -= delta
            excess[b] += delta

    rows, cols, masses = live, start[live], supply[live]
    if moved:  # the sources that never moved, then every moved source's positive masses
        sources = np.fromiter(moved, dtype=np.intp, count=len(moved))
        held = np.array(list(moved.values()))
        r, c = np.nonzero(held > 0)
        still = np.ones(m, dtype=bool)
        still[sources] = False
        still = still[live]
        rows = np.concatenate((rows[still], sources[r]))
        cols = np.concatenate((cols[still], c))
        masses = np.concatenate((masses[still], held[r, c]))
        order = np.argsort(rows * n + cols)
        rows, cols, masses = rows[order], cols[order], masses[order]
    v = np.array(v)
    u = cost[:, 0] - v[0]  # the row minimum of cost - v a column at a time; min(axis=1) is slow at small n
    for b in range(1, n):
        np.minimum(u, cost[:, b] - v[b], out=u)
    through = np.array(through)
    _certify(cost, rows, cols, u, v, through < upper, through > lower, scale)
    return (rows, cols, masses), u, v, augmentations, searches, warm


def _certify(cost, rows, cols, u, v, rises, falls, scale):
    """Check complementary slackness on the flow support ``(rows, cols)``;
    ``rises``/``falls`` mark the sinks whose hub arc can still carry
    more/less, which bounds ``v_b - v_hub`` below/above.

    ``u`` is the row minimum of ``cost - v``, so every reduced cost is >= 0 by
    construction, and a zero reduced cost on the flow support says that each
    source ships only to sinks of least ``cost - v``. That is the same test
    as taking ``u`` from the support and checking the reduced costs for sign.
    """
    red = cost[rows, cols] - u[rows] - v[cols]
    cert_tol = 1e-9 * max(1.0, scale)
    if red.size and np.abs(red).max() > cert_tol:
        raise SolverError("complementary slackness violated on the flow support")
    gap = v[:-1] - v[-1]
    if (gap[rises] < -cert_tol).any() or (gap[falls] > cert_tol).any():
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
    lo_sum, hi_sum = float(lo.sum()), float(hi.sum())
    tol = 1e-9 * max(1.0, W)
    if lo_sum > W + tol or W > hi_sum + tol:
        raise Infeasible(
            f"sink bounds exclude the supply: sum(l)={lo_sum:.12g}, "
            f"W={W:.12g}, sum(u)={hi_sum:.12g}"
        )
    if prices is not None:
        prices = np.asarray(prices, dtype=np.float64)
        if prices.shape != lo.shape or not np.isfinite(prices).all():
            raise ValidationError("start prices must be one finite number per sink")
    # A bound sum within tolerance of W pins every sink to that bound: put it on W exactly.
    lower = lo * (W / lo_sum) if lo_sum > 0 and W - lo_sum <= tol else lo
    upper = hi * (W / hi_sum) if hi_sum > 0 and hi_sum - W <= tol else hi
    (rows, cols, masses), u, v, augmentations, searches, warm = _ksink_transport(
        p.cost, p.supplies, lower, upper, prices
    )
    if lo.size != 1:  # numpy sums a dense flow's rows in order, as bincount does
        totals = np.bincount(cols, masses, minlength=lo.size)
    else:  # and a single column pairwise, zeros included
        column = np.zeros(p.supplies.size)
        column[rows] = masses
        totals = column.sum(keepdims=True)
    if (totals < lo - tol).any() or (totals > hi + tol).any():
        raise SolverError("bounded transportation produced out-of-bound sink totals")
    return BoundedTransportSolution(
        rows, cols, masses, float(masses @ p.cost[rows, cols]), totals, u, v[:-1], float(v[-1]),
        augmentations, searches, warm,
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
