"""Enumeration meta-solver: score the k-tuples of candidate centers against
the summary, keep the cheapest, then re-solve the winner on the full data.
The enumeration kernel, :func:`best_tuple`, is shared with the oracle; it
skips every tuple whose Voronoi lower bound cannot beat the best cost."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .constraints import (
    ConstraintSpec,
    FractionBounds,
    _cost_matrix,
    check_feasibility,
    is_symmetric,
    optimal_feasible_cost,
)
from .coreset import WeakCoreset
from .flowlp import Infeasible, SolverError, SolverLimit
from .model import Assignment, ClusteringInstance, ClusterProfile, ValidationError, WeightedPoints

# Pruned enumeration holds a bound per tuple; beyond this many it refuses.
MAX_BOUND_TUPLES = 10_000_000
# D^z cells gathered per block of bounds (0.5 MB of float64), so that working
# memory does not grow with the tuple count.
_BOUND_CELLS = 1 << 16
# Relative slack on the stop rule: a bound may round a few ulps above the cost it bounds.
PRUNE_TOL = 1e-9


def count_center_tuples(j_size: int, k: int, ordered: bool, allow_repeats: bool) -> int:
    if allow_repeats:
        return j_size**k if ordered else math.comb(j_size + k - 1, k)
    if k > j_size:
        raise ValidationError(f"cannot choose {k} distinct centers from {j_size} candidates")
    return math.perm(j_size, k) if ordered else math.comb(j_size, k)


def enumerate_center_tuples(
    candidates, k: int, ordered: bool = False, allow_repeats: bool = False
) -> Iterator[tuple]:
    """Deterministic lexicographic stream of k-tuples over the candidate list."""
    pool = list(candidates)
    if not allow_repeats and k > len(pool):
        raise ValidationError(f"cannot choose {k} distinct centers from {len(pool)} candidates")
    if ordered:
        gen = itertools.product(pool, repeat=k) if allow_repeats else itertools.permutations(pool, k)
    else:
        gen = (
            itertools.combinations_with_replacement(pool, k)
            if allow_repeats
            else itertools.combinations(pool, k)
        )
    return iter(gen)


@dataclass(frozen=True, eq=False)
class SolveResult:
    centers: tuple
    cost_on_summary: float
    cost_on_full: float
    assignment_on_full: Assignment
    realized_profile: ClusterProfile
    tuples_evaluated: int
    wall_time: float
    center_coords: Optional[np.ndarray] = None


def check_tuple_ceiling(
    j_size: int, k: int, ordered: bool, allow_repeats: bool, ceiling: int
) -> int:
    """The number of center tuples; raises :class:`SolverLimit` above ``ceiling``."""
    total = count_center_tuples(j_size, k, ordered, allow_repeats)
    if total > ceiling:
        raise SolverLimit(f"{total} center tuples exceed the ceiling of {ceiling}")
    return total


def _position_blocks(
    j_size: int, k: int, ordered: bool, allow_repeats: bool, block: int = 4096
) -> Iterator[np.ndarray]:
    """:func:`enumerate_center_tuples` over ``range(j_size)`` as (rows, k)
    position arrays of at most ``block`` rows each, in rank order."""
    stream = enumerate_center_tuples(range(j_size), k, ordered, allow_repeats)
    row = np.dtype((np.intp, (k,)))
    while True:
        pos = np.fromiter(itertools.islice(stream, block), dtype=row)
        if not pos.size:
            return
        yield pos


def voronoi_bounds(
    B: WeightedPoints, pool: np.ndarray, k: int, z: int, ordered: bool, allow_repeats: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Every k-tuple of positions into ``pool``, in rank order, and its
    Voronoi cost on ``B``: ``sum_x v_x * min_{c in tuple} D(x, c)^z``.

    No constraint lowers a tuple's cost below this, so it bounds every
    family's exact cost from below. The bounds are one dot product per
    tuple over a |B| x |pool| ``D^z`` table, taken in blocks of about
    ``_BOUND_CELLS`` cells. Raises :class:`SolverLimit` before allocating
    when there are more than ``MAX_BOUND_TUPLES`` tuples."""
    total = check_tuple_ceiling(pool.size, k, ordered, allow_repeats, MAX_BOUND_TUPLES)
    dz = _cost_matrix(B, pool, z)
    positions = np.empty((total, k), dtype=np.min_scalar_type(max(pool.size - 1, 0)))
    bounds = np.empty(total)
    start = 0
    block = max(1, _BOUND_CELLS // max(B.size, 1))
    for pos in _position_blocks(pool.size, k, ordered, allow_repeats, block):
        nearest = dz[:, pos[:, 0]]
        for c in range(1, k):
            np.minimum(nearest, dz[:, pos[:, c]], out=nearest)
        stop = start + len(pos)
        positions[start:stop] = pos
        bounds[start:stop] = B.weights @ nearest
        start = stop
    return positions, bounds


def best_tuple(
    B: WeightedPoints,
    candidates,
    k: int,
    spec: ConstraintSpec,
    z: int,
    ordered: bool,
    allow_repeats: bool = False,
    cost_target: Optional[float] = None,
    *,
    prune: bool = True,
) -> tuple[float, tuple, Assignment, int]:
    """The enumeration kernel: the cheapest k-tuple of ``candidates`` under
    an exact constrained assignment on ``B``.

    The winner is the lowest (cost, rank), where rank is the tuple's place
    in :func:`enumerate_center_tuples` order, so ties break to the earliest
    tuple. With ``prune`` the tuples are visited in ascending (Voronoi
    bound, rank) order (:func:`voronoi_bounds`), and the walk stops at the
    first tuple whose bound exceeds the best exact cost by more than
    ``PRUNE_TOL`` relative (the bound is a numpy dot product, the cost an
    ``fsum``); no tuple left unvisited can win. Without ``prune`` every
    tuple is solved in rank order. With ``cost_target`` the walk stops at
    the first visited tuple whose cost is at or below it. Returns ``(cost,
    tuple, assignment, exact solves)``; raises :class:`Infeasible` when no
    tuple is feasible.
    """
    pool = np.asarray(candidates, dtype=np.int64)
    if prune:
        positions, bounds = voronoi_bounds(B, pool, k, z, ordered, allow_repeats)
        order = np.argsort(bounds, kind="stable")
        visits = ((int(r), pool[positions[r]], bounds[r]) for r in order)
    else:
        blocks = _position_blocks(pool.size, k, ordered, allow_repeats)
        rows = itertools.chain.from_iterable(blocks)
        visits = ((r, pool[pos], -math.inf) for r, pos in enumerate(rows))

    best = None
    stop_at = math.inf
    evaluated = 0
    for rank, centers, bound in visits:
        if bound > stop_at:
            break
        evaluated += 1
        try:
            cost, sigma, _ = optimal_feasible_cost(B, centers, spec, z)
        except Infeasible:
            continue
        if best is None or (cost, rank) < best[:2]:
            best = (cost, rank, centers, sigma)
            stop_at = cost + PRUNE_TOL * max(1.0, abs(cost))
            if cost_target is not None and cost <= cost_target:
                break
    if best is None:
        raise Infeasible("no candidate tuple admits a feasible assignment")
    cost, _, centers, sigma = best
    return cost, tuple(int(c) for c in centers), sigma, evaluated


def solve_constrained(
    coreset: WeakCoreset,
    inst: ClusteringInstance,
    spec: ConstraintSpec,
    z: Optional[int] = None,
    *,
    ordered: Optional[bool] = None,
    allow_repeats: bool = False,
    cost_target: Optional[float] = None,
) -> SolveResult:
    """Pick the cheapest feasible center tuple from J scored on (S, v), then
    re-solve it exactly on the full instance.

    Symmetric specs enumerate unordered combinations; per-cluster
    heterogeneous bounds force ordered tuples. Scoring is the pruned walk of
    :func:`best_tuple`, so ties break to the earliest tuple in enumeration
    order and ``cost_target`` stops at the first tuple, in Voronoi-bound
    order, whose summary cost reaches it.
    """
    z = inst.z if z is None else z
    if isinstance(spec, FractionBounds) and inst.labels is None:
        raise ValidationError("fraction-bound constraints require a labeled instance")
    if ordered is None:
        ordered = not is_symmetric(spec)

    start = time.perf_counter()
    candidate_ids, summary, full = coreset.bind(inst, z)
    cost_summary, winning, _, evaluated = best_tuple(
        summary, candidate_ids, inst.k, spec, z, ordered, allow_repeats, cost_target
    )

    cost_full, sigma, profile = optimal_feasible_cost(full, np.array(winning), spec, z)
    violations = check_feasibility(sigma, full, spec, k=inst.k)
    if violations:
        raise SolverError("final assignment violates the constraint spec: " + violations[0])

    coords = full.space.coords[list(winning)] if coreset.J_coords is not None else None
    return SolveResult(
        centers=tuple(int(c) for c in winning),
        cost_on_summary=float(cost_summary),
        cost_on_full=float(cost_full),
        assignment_on_full=sigma,
        realized_profile=profile,
        tuples_evaluated=evaluated,
        wall_time=time.perf_counter() - start,
        center_coords=coords,
    )

