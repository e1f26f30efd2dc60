"""Independent brute-force oracles used to compute and freeze expected values.

These deliberately avoid the package's solvers: the LP oracle enumerates
basic solutions with plain linear algebra, the assignment oracles
enumerate integral splits directly, and the distance oracle reads one pair
at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
