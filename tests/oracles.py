"""Independent brute-force oracles used to compute and freeze expected values.

These deliberately avoid the package's solvers: the LP oracle enumerates
basic solutions with plain linear algebra, the assignment oracles
enumerate integral splits directly, and the distance oracle reads one pair
at a time. The exceptions are earlier versions of package code, kept so
that the current ones can be checked against them bit for bit: the k-sink
transport solver, the mask-based ring decomposition and the
``Generator.choice``-based ring sampler.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from weakcore.flowlp import SolverError


def lp_vertex_enumeration(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None, tol=1e-9):
    """Optimum of min c.x st a_eq x = b_eq, a_ub x <= b_ub, x >= 0 by
    enumerating basic feasible solutions of the standard form; (None, None)
    when there is none, i.e. the constraints admit no point."""
    c = np.asarray(c, dtype=float)
    n = c.size
    blocks, rhs = [], []
    n_ub = 0
    if a_ub is not None:
        a_ub = np.asarray(a_ub, dtype=float)
        b_ub = np.asarray(b_ub, dtype=float)
        n_ub = b_ub.size
    if a_eq is not None:
        a_eq = np.asarray(a_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float)
        blocks.append(np.hstack([a_eq, np.zeros((b_eq.size, n_ub))]))
        rhs.append(b_eq)
    if a_ub is not None:
        blocks.append(np.hstack([a_ub, np.eye(n_ub)]))
        rhs.append(b_ub)
    A = np.vstack(blocks)
    b = np.concatenate(rhs)
    # Drop linearly dependent rows so square basis systems are solvable.
    keep = []
    for r in range(A.shape[0]):
        trial = keep + [r]
        if np.linalg.matrix_rank(np.hstack([A[trial], b[trial, None]])) == len(trial):
            keep.append(r)
    A = A[keep]
    b = b[keep]
    rows, cols = A.shape
    c_full = np.concatenate([c, np.zeros(n_ub)])

    best = None
    for basis in itertools.combinations(range(cols), rows):
        sub = A[:, basis]
        try:
            x_b = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x_b)) or np.max(np.abs(sub @ x_b - b)) > tol:
            continue
        if np.min(x_b) < -tol:
            continue
        x = np.zeros(cols)
        x[list(basis)] = np.maximum(x_b, 0.0)
        obj = float(c_full @ x)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, x[:n])
    if best is None:
        return None, None
    return best[1], best[0]


def nearest_facility_map(inst):
    """For every point of ``inst``, the lowest-id nearest facility, from the
    full point-by-facility distance matrix."""
    d = inst.space.pairwise(inst.points, inst.facilities)
    order = np.argsort(inst.facilities, kind="stable")
    d_sorted = d[:, order]
    fac_sorted = inst.facilities[order]
    return fac_sorted[np.argmin(d_sorted, axis=1)]


def ring_decomposition_masks(inst, table):
    """The rings of ``weakcore.coreset.ring_decomposition`` as (cluster,
    level, ids, weights, band) tuples, found the earlier way: ``np.argmin``,
    three boolean masks per cluster and one per level."""
    nearest = np.argmin(table, axis=1)
    rings = []
    for i in range(table.shape[1]):
        mask = nearest == i
        if not mask.any():
            continue
        costs = table[mask, i]
        weights = inst.weights[mask]
        members = inst.points[mask]
        avg = float(np.dot(weights, costs) / weights.sum())
        if avg <= 0.0:
            rings.append((i, 0, members, weights, (0.0, 0.0)))
            continue
        levels = np.zeros(costs.size, dtype=np.int64)
        above = costs > avg
        levels[above] = np.ceil(np.log2(costs[above] / avg)).astype(np.int64)
        levels[above] = np.maximum(levels[above], 1)
        for lvl in np.unique(levels):
            sel = levels == lvl
            band = (0.0, avg) if lvl == 0 else (2.0 ** (lvl - 1) * avg, 2.0**lvl * avg)
            rings.append((i, int(lvl), members[sel], weights[sel], band))
    return rings


def sample_ring_choice(ids, weights, s, rng):
    """``weakcore.coreset._sample_ring`` the earlier way: ``s`` draws by
    ``Generator.choice`` on ``rng``, counted with ``np.unique``; a ring of at
    most ``s`` members is returned whole."""
    if ids.size <= s:
        return ids, weights
    total = math.fsum(weights.tolist())
    draws = rng.choice(ids.size, size=s, p=weights / weights.sum())
    picked, counts = np.unique(draws, return_counts=True)
    values = counts * (total / s)
    values[np.argmax(values)] += total - math.fsum(values.tolist())
    return ids[picked], values


def min_cost_integral_splits(costs, lower, upper):
    """Optimal unit-weight assignment with per-sink count bounds, by
    enumerating every map from points to sinks. Exact for integral data."""
    costs = np.asarray(costs, dtype=float)
    n, k = costs.shape
    best = math.inf
    for combo in itertools.product(range(k), repeat=n):
        counts = [0] * k
        for s in combo:
            counts[s] += 1
        if any(counts[i] < lower[i] or counts[i] > upper[i] for i in range(k)):
            continue
        val = sum(costs[x, combo[x]] for x in range(n))
        best = min(best, val)
    return best


def min_cost_fixed_counts(costs, counts):
    """Optimal unit-weight assignment with exact per-sink counts."""
    return min_cost_integral_splits(costs, counts, counts)


def exhaustive_voronoi_opt(dist_pow, weights, k):
    """Best nearest-center cost over all k-subsets of columns of dist_pow."""
    n, f = dist_pow.shape
    best = math.inf
    best_tuple = None
    for combo in itertools.combinations(range(f), k):
        cost = float(weights @ dist_pow[:, combo].min(axis=1))
        if cost < best - 1e-15:
            best = cost
            best_tuple = combo
    return best_tuple, best


def distance(space, a: int, b: int) -> float:
    """One distance of a :class:`~weakcore.model.MetricSpace`, from its
    coordinates or its matrix; an index outside the space raises IndexError."""
    for idx in (a, b):
        if not 0 <= idx < space.size:
            raise IndexError(f"index {idx} out of range for space of size {space.size}")
    if space.coords is not None:
        return float(np.linalg.norm(space.coords[a] - space.coords[b]))
    return float(space.matrix[a, b])


def best_centers_for_assignment(B, sigma, candidates, z):
    """Cheapest center tuple for a FIXED assignment.

    The objective separates over clusters, so each cluster independently
    takes the candidate minimizing its weighted power distance (repeats
    allowed, as in the universality condition)."""
    candidates = np.asarray(candidates, dtype=np.int64)
    k = int(sigma.clusters.max()) + 1 if len(sigma) else 1
    chosen = []
    total = 0.0
    d = B.space.pairwise(sigma.points, candidates) ** z
    for i in range(k):
        mask = sigma.clusters == i
        if not mask.any():
            chosen.append(int(candidates[0]))
            continue
        per_candidate = sigma.masses[mask] @ d[mask]
        j = int(np.argmin(per_candidate))
        chosen.append(int(candidates[j]))
        total += float(per_candidate[j])
    return tuple(chosen), total


def _start_excess_reference(total, through, supply_total):
    """As ``weakcore.flowlp._start_excess``."""
    return float(np.abs(total - through).sum()) + abs(float(through.sum()) - supply_total)


def ksink_transport_one_source(cost, supply, lower, upper, prices=None):
    """The k-sink successive-shortest-path solver as it was before arcs were
    built on first use and runs of sources skipped their searches: every arc
    sorted up front, one Dijkstra search per source moved, a dense flow.
    Returns (flow, u, v, augmentations, warm) with no certificate; the
    package's solver must return the same five bit for bit."""
    m, n = cost.shape
    hub = n
    if not upper.any():  # the supply is within the balance tolerance of zero: ship nothing
        return np.zeros((m, n)), cost.min(axis=1, initial=0.0), np.zeros(n + 1), 0, False
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
        if _start_excess_reference(w_total, w_through, W) < _start_excess_reference(total, through, W):
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
    return flow, u, v, augmentations, warm
