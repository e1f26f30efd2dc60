"""Exact transportation, bounded transportation, and dense-simplex LP solvers.

All solvers are pure functions over float64 inputs and certify optimality
before returning: the network solvers check complementary slackness via the
final node potentials, the LP solver relies on a Bland-safeguarded simplex.
The network simplex keeps its basis tree between pivots and updates parents,
depths and potentials only on the subtree that each leaving arc cuts off, so
a pivot costs time in that subtree's size rather than in the whole tree's.
Problem sizes are desk scale by design; the LP is capped at
``MAX_LP_VARIABLES`` structural variables.
"""

from __future__ import annotations

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
# Transportation network simplex
# ---------------------------------------------------------------------------


def _greedy_start(cost, supply, demand, forbidden, priority_rows):
    """Least-cost greedy allocation; returns a spanning-tree basis.

    Priority rows are exhausted first (used for the dummy source of the
    bounded variant, whose arcs all cost zero and must not be crowded out).
    The allocation forms a forest; Kruskal-style zero cells complete it to a
    spanning tree that avoids forbidden cells.
    """
    m, n = cost.shape
    eps = 1e-13 * max(1.0, float(supply.sum()))
    rs = supply.tolist()
    rd = demand.tolist()
    flow = np.zeros((m, n))
    basis: list[tuple[int, int]] = []

    order = np.argsort(cost.ravel(), kind="stable")
    if forbidden is not None:
        order = order[~forbidden.ravel()[order]]
    rows, cols = np.divmod(order, n)
    first = np.isin(rows, priority_rows)
    greedy_rows = np.concatenate([rows[first], rows[~first]]).tolist()
    greedy_cols = np.concatenate([cols[first], cols[~first]]).tolist()

    for i, j in zip(greedy_rows, greedy_cols):
        if rs[i] <= eps or rd[j] <= eps:
            continue
        q = min(rs[i], rd[j])
        flow[i, j] = q
        basis.append((i, j))
        rs[i] -= q
        rd[j] -= q

    # Each allocation exhausts a row or a column, so the allocation is a
    # forest; complete it to a spanning tree with admissible zero cells.
    components = m + n - len(basis)
    if components > 1:
        parent = list(range(m + n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
            return True

        basis_set = set(basis)
        for i, j in basis:
            union(i, m + j)
        for i, j in zip(rows.tolist(), cols.tolist()):
            if (i, j) in basis_set:
                continue
            if union(i, m + j):
                basis.append((i, j))
                basis_set.add((i, j))
                components -= 1
                if components == 1:
                    break
    if components > 1:
        raise SolverError("could not build a spanning basis over admissible cells")
    return flow, basis


def _transport_simplex(cost, supply, demand, forbidden=None, priority_rows=()):
    """Network simplex on the (dense) transportation polytope.

    Returns (flow, u, v) where (u, v) are optimal node potentials. Dantzig
    pricing with a permanent switch to Bland's rule after a degenerate
    streak, which rules out cycling.

    Nodes 0..m-1 are sources and m..m+n-1 sinks; the basis tree is rooted at
    node 0 with potential 0. After each pivot only the subtree that the
    leaving arc cuts off is re-hung from the entering arc, and only its
    parents, depths and potentials are recomputed (Ahuja, Magnanti and
    Orlin, *Network Flows*, ch. 11). Each potential is still taken along its
    unique tree path from the root, so the result equals a full recompute.
    """
    m, n = cost.shape
    scale = max(1.0, float(np.max(np.abs(cost))))
    tol = 1e-11 * scale
    flow_eps = 1e-13 * max(1.0, float(supply.sum()))

    flow, basis = _greedy_start(cost, supply, demand, forbidden, priority_rows)
    adj: list[set[int]] = [set() for _ in range(m + n)]
    for i, j in basis:
        adj[i].add(m + j)
        adj[m + j].add(i)

    # Tree state lives in Python lists: numpy scalar indexing is what makes a
    # Python tree walk slow. u and v mirror pot for vectorised pricing.
    crow = cost.tolist()
    ccol = cost.T.tolist()
    pot = [0.0] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    u = np.zeros(m)
    v = np.zeros(n)

    def hang(top, up):
        """Hang the subtree at ``top`` below ``up`` (-1 for the root) and
        recompute parent, depth and potential inside it; returns its nodes."""
        parent[top] = up
        if up >= 0:
            depth[top] = depth[up] + 1
            pot[top] = crow[top][up - m] - pot[up] if top < m else crow[up][top - m] - pot[up]
        nodes = [top]
        leaves = []
        for node in nodes:
            up, d, p = parent[node], depth[node] + 1, pot[node]
            if node < m:  # source -> sink arcs (node, nxt-m)
                row = crow[node]
                for nxt in adj[node]:
                    if nxt != up:
                        parent[nxt] = node
                        depth[nxt] = d
                        pot[nxt] = row[nxt - m] - p
                        nodes.append(nxt)
            else:  # sink -> source arcs (nxt, node-m)
                col = ccol[node - m]
                for nxt in adj[node]:
                    if nxt != up:
                        parent[nxt] = node
                        depth[nxt] = d
                        pot[nxt] = col[nxt] - p
                        # Nothing hangs below a source with a single arc.
                        (nodes if len(adj[nxt]) > 1 else leaves).append(nxt)
        nodes += leaves
        ids = np.array(nodes)
        vals = np.array([pot[x] for x in nodes])
        src = ids < m
        u[ids[src]] = vals[src]
        v[ids[~src] - m] = vals[~src]
        return nodes

    if len(hang(0, -1)) != m + n:
        raise SolverError("basis tree is disconnected")

    def tree_path(a, b):
        """Tree path a -> LCA -> b and the index of the LCA within it."""
        pa, pb = [a], [b]
        x, y = a, b
        while depth[x] > depth[y]:
            x = parent[x]
            pa.append(x)
        while depth[y] > depth[x]:
            y = parent[y]
            pb.append(y)
        while x != y:
            x = parent[x]
            y = parent[y]
            pa.append(x)
            pb.append(y)
        return pa + pb[-2::-1], len(pa) - 1

    priced = cost if forbidden is None else np.where(forbidden, np.inf, cost)
    bland = False
    degenerate_streak = 0
    max_iter = 20_000 + 200 * (m + n)
    for _ in range(max_iter):
        red = priced - u[:, None] - v[None, :]
        if bland:
            hits = np.flatnonzero(red.ravel() < -tol)
            if hits.size == 0:
                break
            e = int(hits[0])
        else:
            e = int(np.argmin(red))
            if red.flat[e] >= -tol:
                break
        ei, ej = divmod(e, n)

        path, lca = tree_path(ei, m + ej)
        # Arcs along the path alternate -,+,-,... ; the entering arc is the +.
        minus, plus = [], []
        for pos in range(len(path) - 1):
            a, b = path[pos], path[pos + 1]
            cell = (a, b - m) if a < m else (b, a - m)
            (minus if pos % 2 == 0 else plus).append(cell)
        delta = min(flow[c] for c in minus)
        eligible = [c for c in minus if flow[c] <= delta * (1 + 1e-12) + flow_eps]
        leaving = min(eligible, key=lambda c: c[0] * n + c[1])

        for c in plus:
            flow[c] += delta
        for c in minus:
            flow[c] -= delta
        flow[ei, ej] += delta
        flow[leaving] = 0.0

        adj[leaving[0]].discard(m + leaving[1])
        adj[m + leaving[1]].discard(leaving[0])
        adj[ei].add(m + ej)
        adj[m + ej].add(ei)
        # The cut-off subtree holds ei when the leaving arc lies on the
        # ei -> LCA half of the path, and m+ej otherwise.
        if 2 * minus.index(leaving) < lca:
            hang(ei, m + ej)
        else:
            hang(m + ej, ei)

        if delta <= flow_eps:
            degenerate_streak += 1
            if degenerate_streak > 2 * (m + n):
                bland = True
        else:
            degenerate_streak = 0
    else:
        raise SolverLimit("transportation simplex exceeded its iteration ceiling")

    _certify(cost, flow, u, v, forbidden, scale)
    return flow, u, v


def _certify(cost, flow, u, v, forbidden, scale):
    red = cost - u[:, None] - v[None, :]
    if forbidden is not None:
        red = np.where(forbidden, np.inf, red)
    cert_tol = 1e-9 * max(1.0, scale)
    if red.min(initial=np.inf) < -cert_tol:
        raise SolverError(f"negative reduced cost after convergence: {red.min():.3e}")
    support = flow > 0
    if support.any() and np.max(np.abs(np.where(support, cost - u[:, None] - v[None, :], 0.0))) > cert_tol:
        raise SolverError("complementary slackness violated on the flow support")


def solve_transportation(p: TransportationProblem) -> TransportSolution:
    """Exact minimum-cost solution of a balanced transportation problem.

    The returned potentials certify optimality: every reduced cost is
    >= -1e-9 and reduced costs vanish on arcs carrying flow. Zero-supply
    sources and zero-demand sinks are dropped before solving and reinstated
    with zero flow and slack-feasible potentials.
    """
    sup, dem, cost = p.supplies, p.demands, p.cost
    m, n = cost.shape
    act_s = np.flatnonzero(sup > 0)
    act_d = np.flatnonzero(dem > 0)
    flow = np.zeros((m, n))
    u = np.zeros(m)
    v = np.zeros(n)
    if act_s.size == 0 or act_d.size == 0:
        # Nothing to ship; pick potentials with nonnegative reduced costs anyway.
        if m and n:
            v = cost.min(axis=0)
        return TransportSolution(flow, 0.0, u, v)
    sub_sup = sup[act_s].copy()
    sub_dem = dem[act_d].copy()
    sub_dem *= sub_sup.sum() / sub_dem.sum()  # exact rebalance within tolerance
    sub_flow, sub_u, sub_v = _transport_simplex(cost[np.ix_(act_s, act_d)], sub_sup, sub_dem)
    flow[np.ix_(act_s, act_d)] = sub_flow
    u[act_s] = sub_u
    v[act_d] = sub_v
    # Potentials for dropped nodes chosen so every reduced cost stays >= 0.
    inactive_s = np.flatnonzero(sup <= 0)
    if inactive_s.size:
        u[inactive_s] = (cost[inactive_s][:, act_d] - v[act_d][None, :]).min(axis=1)
    inactive_d = np.flatnonzero(dem <= 0)
    if inactive_d.size:
        v[inactive_d] = (cost[:, inactive_d] - u[:, None]).min(axis=0)
    objective = float(np.sum(flow * cost))
    return TransportSolution(flow=flow, objective=objective, source_potentials=u, sink_potentials=v)


def solve_bounded_transportation(p: BoundedTransportationProblem) -> BoundedTransportSolution:
    """Transportation with per-sink [lower, upper] bounds on received weight.

    Uses the standard lower-bound elimination: each sink splits into a
    mandatory part (demand = lower bound) and an optional part
    (capacity = upper - lower) fed by a zero-cost dummy source that is
    forbidden on mandatory parts. Raises :class:`Infeasible` when the bound
    sums exclude the supply total.
    """
    W = float(p.supplies.sum())
    lo = p.sink_lower
    hi = np.minimum(p.sink_upper, W)  # a sink can never receive more than everything
    cost = p.cost
    m, n = cost.shape
    tol = 1e-9 * max(1.0, W)
    if lo.sum() > W + tol or W > hi.sum() + tol:
        raise Infeasible(
            f"sink bounds exclude the supply: sum(l)={lo.sum():.12g}, "
            f"W={W:.12g}, sum(u)={hi.sum():.12g}"
        )

    if W - lo.sum() <= tol:
        # Bounds force every sink to exactly its lower bound.
        demands = lo * (W / lo.sum()) if lo.sum() > 0 else lo
        sol = solve_transportation(TransportationProblem(cost, p.supplies, demands))
        return BoundedTransportSolution(sol.flow, sol.objective, sol.flow.sum(axis=0))
    if hi.sum() - W <= tol:
        demands = hi * (W / hi.sum())
        sol = solve_transportation(TransportationProblem(cost, p.supplies, demands))
        return BoundedTransportSolution(sol.flow, sol.objective, sol.flow.sum(axis=0))

    mand = np.flatnonzero(lo > 0)
    opt = np.flatnonzero(hi - lo > 0)
    demands = np.concatenate([lo[mand], (hi - lo)[opt]])
    dummy_supply = float(hi.sum() - W)
    act_s = np.flatnonzero(p.supplies > 0)
    supplies = np.concatenate([p.supplies[act_s], [dummy_supply]])
    big_cost = np.zeros((act_s.size + 1, mand.size + opt.size))
    big_cost[:-1, : mand.size] = cost[np.ix_(act_s, mand)]
    big_cost[:-1, mand.size :] = cost[np.ix_(act_s, opt)]
    forbidden = np.zeros_like(big_cost, dtype=bool)
    forbidden[-1, : mand.size] = True

    demands = demands * (supplies.sum() / demands.sum())
    flow_big, _, _ = _transport_simplex(
        big_cost, supplies, demands, forbidden=forbidden, priority_rows=(act_s.size,)
    )

    flow = np.zeros((m, n))
    flow[np.ix_(act_s, mand)] += flow_big[:-1, : mand.size]
    flow[np.ix_(act_s, opt)] += flow_big[:-1, mand.size :]
    objective = float(np.sum(flow * cost))
    totals = flow.sum(axis=0)
    if np.any(totals < lo - tol) or np.any(totals > hi + tol):
        raise SolverError("bounded transportation produced out-of-bound sink totals")
    return BoundedTransportSolution(flow, objective, totals)


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
    """Iterate the tableau to optimality. The last row holds reduced costs,
    the last column the rhs. Dantzig pricing, permanent Bland fallback."""
    rows = T.shape[0] - 1
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
    """Two-phase dense simplex for small linear programs.

    Feasibility of the returned point holds within 1e-7 absolute on every
    constraint. Raises :class:`Infeasible` or :class:`Unbounded` accordingly.
    """
    c = p.objective
    n = c.size

    blocks = []
    rhs = []
    n_ub = 0 if p.a_ub is None else p.b_ub.size
    if p.a_eq is not None:
        blocks.append(np.hstack([p.a_eq, np.zeros((p.b_eq.size, n_ub))]))
        rhs.append(p.b_eq)
    if p.a_ub is not None:
        blocks.append(np.hstack([p.a_ub, np.eye(n_ub)]))
        rhs.append(p.b_ub)
    if not blocks:
        # Only x >= 0: the origin is optimal unless some cost is negative.
        if np.any(c < 0):
            raise Unbounded("no constraints bound a negative-cost variable")
        return LpSolution(np.zeros(n), 0.0)

    A = np.vstack(blocks)
    b = np.concatenate(rhs)
    neg = b < 0
    A[neg] *= -1
    b[neg] *= -1
    rows, cols = A.shape
    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(b))) if b.size else 1.0)
    tol = 1e-10 * scale

    # Phase 1: artificial basis.
    T = np.zeros((rows + 1, cols + rows + 1))
    T[:rows, :cols] = A
    T[:rows, cols : cols + rows] = np.eye(rows)
    T[:rows, -1] = b
    T[-1, :cols] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    basis = list(range(cols, cols + rows))
    _run_simplex(T, basis, cols, tol)
    if -T[-1, -1] > 1e-7 * max(1.0, scale):
        raise Infeasible(f"phase-1 residual {-T[-1, -1]:.3e}")

    # Drive artificials out of the basis; drop redundant rows.
    keep_rows = []
    for r in range(rows):
        if basis[r] < cols:
            keep_rows.append(r)
            continue
        pivot_col = None
        for j in range(cols):
            if abs(T[r, j]) > tol:
                pivot_col = j
                break
        if pivot_col is None:
            continue  # redundant constraint
        _pivot(T, basis, r, pivot_col)
        keep_rows.append(r)
    if len(keep_rows) < rows:
        T = np.vstack([T[keep_rows], T[-1:]])
        basis = [basis[r] for r in keep_rows]
        rows = len(keep_rows)

    # Phase 2 over structural + slack columns only.
    c_full = np.concatenate([c, np.zeros(n_ub)])
    T2 = np.zeros((rows + 1, cols + 1))
    T2[:rows, :cols] = T[:rows, :cols]
    T2[:rows, -1] = T[:rows, -1]
    cb = c_full[basis]
    T2[-1, :cols] = c_full - cb @ T2[:rows, :cols]
    T2[-1, -1] = -float(cb @ T2[:rows, -1])
    _run_simplex(T2, basis, cols, tol)

    x_full = np.zeros(cols)
    for r, col in enumerate(basis):
        x_full[col] = T2[r, -1]
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
