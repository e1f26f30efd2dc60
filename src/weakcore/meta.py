"""Enumeration meta-solver: score the k-tuples of candidate centers against
the summary, keep the cheapest, then re-solve the winner on the full data.
The enumeration kernel, :func:`best_tuple`, is shared with the oracle and
is the one place a walk is set up: the spec picks ordered or unordered
tuples, one ceiling is checked, and one array holds every tuple's
positions. It visits tuples in ascending Voronoi lower bound and stops at
the first whose bound cannot beat the best cost; before solving a tuple it
prices it with the best tuple's multipliers (a Lagrangian bound, of which
the Voronoi bound is the case with every multiplier at zero) and skips it
when that bound cannot beat the best cost either."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .constraints import (
    TRANSPORT_COUNTERS,
    ConstraintSpec,
    FixedProfile,
    FractionBounds,
    Unconstrained,
    _cost_matrix,
    _lagrangian,
    check_feasibility,
    is_symmetric,
    optimal_feasible_cost,
)
from .coreset import WeakCoreset
from .flowlp import Infeasible, SolverError, SolverLimit
from .model import Assignment, ClusteringInstance, ClusterProfile, ValidationError, WeightedPoints

# Every walk holds each tuple's positions, and a pruned one its bound too;
# beyond this many tuples either refuses.
MAX_BOUND_TUPLES = 10_000_000
# D^z cells gathered per block of bounds (0.5 MB of float64), so that working
# memory does not grow with the tuple count.
_BOUND_CELLS = 1 << 16
# Relative slack on the stop rule: a bound may round a few ulps above the cost it bounds.
PRUNE_TOL = 1e-9
# A priced bound for a symmetric spec tries every order of the k slots while k! is at most this.
MAX_SLOT_ORDERS = 24


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
    stats: dict = field(default_factory=dict)


def _positions(j_size: int, k: int, ordered: bool, allow_repeats: bool, total: int) -> np.ndarray:
    """All ``total`` k-tuples of :func:`enumerate_center_tuples` over
    ``range(j_size)`` as one (total, k) position array, in rank order, in
    the smallest integer type that holds a position."""
    row = np.dtype((np.min_scalar_type(max(j_size - 1, 0)), (k,)))
    stream = enumerate_center_tuples(range(j_size), k, ordered, allow_repeats)
    return np.fromiter(stream, dtype=row, count=total)


def voronoi_bounds(B: WeightedPoints, positions: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The Voronoi cost on ``B`` of each row of ``positions``, a (tuples, k)
    array of columns of ``table``, B's ``D^z`` table to the candidates:
    ``sum_x v_x * min_{c in tuple} D(x, c)^z``.

    No constraint lowers a tuple's cost below this, so it bounds every
    family's exact cost from below. The bounds are one dot product per
    tuple, taken in blocks of about ``_BOUND_CELLS`` cells."""
    bounds = np.empty(len(positions))
    block = max(1, _BOUND_CELLS // max(B.size, 1))
    for start in range(0, len(positions), block):
        pos = positions[start : start + block]
        nearest = table[:, pos[:, 0]]
        for c in range(1, pos.shape[1]):
            np.minimum(nearest, table[:, pos[:, c]], out=nearest)
        bounds[start : start + len(pos)] = B.weights @ nearest
    return bounds


def _slot_orders(k: int, spec: ConstraintSpec) -> np.ndarray:
    """The slot orders a priced bound tries, as (orders, k) rows: every
    permutation when ``spec`` is symmetric (a tuple's cost then does not
    depend on its order) and k! <= ``MAX_SLOT_ORDERS``, else the identity."""
    if is_symmetric(spec) and math.factorial(k) <= MAX_SLOT_ORDERS:
        return np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    return np.arange(k)[None]


def best_tuple(
    B: WeightedPoints,
    candidates,
    k: int,
    spec: ConstraintSpec,
    z: int,
    *,
    allow_repeats: bool = False,
    cost_target: Optional[float] = None,
    prune: bool = True,
    max_tuples: int = MAX_BOUND_TUPLES,
    stats: Optional[dict] = None,
):
    """The enumeration kernel: the cheapest k-tuple of ``candidates`` under
    an exact constrained assignment on ``B``.

    The spec picks the tuples: ordered ones unless it treats every cluster
    index alike (:func:`~weakcore.constraints.is_symmetric`), when a tuple's
    cost does not depend on its order and unordered combinations suffice.
    More than ``min(max_tuples, MAX_BOUND_TUPLES)`` tuples raise
    :class:`SolverLimit` before any table is built. The winner is the
    lowest (cost, rank), where rank is the tuple's place in
    :func:`enumerate_center_tuples` order, so ties break to the earliest
    tuple. Every tuple's exact solve reads its columns of one |B| x
    |candidates| ``D^z`` table, built once. With ``prune`` the tuples are
    visited in ascending (Voronoi bound, rank) order
    (:func:`voronoi_bounds`, over the same table), and the walk stops at the
    first tuple whose bound exceeds the best exact cost by more than
    ``PRUNE_TOL`` relative (the bound is a numpy dot product, the cost an
    ``fsum``); no tuple left unvisited can win. Before solving a tuple, the
    pruned walk also bounds it with the best tuple's multipliers
    (:func:`weakcore.constraints._lagrangian`), taking the largest bound
    over :func:`_slot_orders`, and skips it when that bound exceeds the
    same threshold: it costs more than the best, so it cannot win. Without
    ``prune`` every tuple is solved in rank order. With ``cost_target`` the
    walk stops at the first solved tuple whose cost is at or below it.

    Returns ``(cost, tuple, support, exact solves, prices)``, the winner's
    support on ``B`` and multipliers as :func:`optimal_feasible_cost` gives
    them with ``return_prices``; no tuple's solve builds an assignment. Raises
    :class:`Infeasible` when no tuple is feasible. A ``stats`` dict gets
    the walk's counters: ``tuples_total`` (all tuples), ``tuples_solved``
    (exact solves), ``tuples_infeasible`` (solves that found no feasible
    assignment) and ``tuples_skipped_by_price``, and each transport solve's
    :data:`~weakcore.constraints.TRANSPORT_COUNTERS` added to it.
    """
    pool = np.asarray(candidates, dtype=np.int64)
    ordered = not is_symmetric(spec)
    total = count_center_tuples(pool.size, k, ordered, allow_repeats)
    ceiling = min(max_tuples, MAX_BOUND_TUPLES)
    if total > ceiling:
        raise SolverLimit(f"{total} center tuples exceed the ceiling of {ceiling}")
    dz = _cost_matrix(B, pool, z)
    positions = _positions(pool.size, k, ordered, allow_repeats, total)
    if prune:
        bounds = voronoi_bounds(B, positions, dz)
        order = np.argsort(bounds, kind="stable")
        columns, orders = np.ascontiguousarray(dz.T), _slot_orders(k, spec)
    else:
        order = range(total)

    best = None
    stop_at = math.inf
    slot_prices = offset = None  # the best tuple's prices per slot order, (orders, k, |B|)
    evaluated = infeasible = skipped = 0
    for rank in order:
        if prune and bounds[rank] > stop_at:
            break
        pos = positions[rank]
        if slot_prices is not None:
            priced = (columns[pos] - slot_prices).min(axis=1) @ B.weights
            if float(priced.max()) + offset > stop_at:
                skipped += 1
                continue
        evaluated += 1
        centers = pool[pos]
        try:
            cost, support, _, prices = optimal_feasible_cost(
                B, centers, spec, z, return_prices=True, table=dz[:, pos], stats=stats
            )
        except Infeasible:
            infeasible += 1
            continue
        if best is None or (cost, rank) < best[:2]:
            best = (cost, rank, centers, support, prices)
            stop_at = cost + PRUNE_TOL * max(1.0, abs(cost))
            if cost_target is not None and cost <= cost_target:
                break
            if prune and prices is not None:
                rows, offset = _lagrangian(B, spec, prices)
                slot_prices = rows.T[orders]
    if stats is not None:
        stats.update(
            tuples_total=total,
            tuples_solved=evaluated,
            tuples_infeasible=infeasible,
            tuples_skipped_by_price=skipped,
        )
    if best is None:
        raise Infeasible("no candidate tuple admits a feasible assignment")
    cost, _, centers, support, prices = best
    return cost, tuple(int(c) for c in centers), support, evaluated, prices


def solve_constrained(
    coreset: WeakCoreset,
    inst: ClusteringInstance,
    spec: ConstraintSpec,
    z: Optional[int] = None,
    *,
    allow_repeats: bool = False,
    cost_target: Optional[float] = None,
) -> SolveResult:
    """Pick the cheapest feasible center tuple from J scored on (S, v), then
    re-solve it exactly on the full instance.

    Scoring is the pruned walk of :func:`best_tuple` (ordered tuples unless
    the spec is symmetric), so ties break to the earliest tuple in enumeration
    order and ``cost_target`` stops at the first tuple, in Voronoi-bound
    order, whose summary cost reaches it. A fixed profile is checked against
    the full data before any tuple is scored. The winner's full-data
    assignment is checked for weight conservation and for the spec.
    ``stats`` holds the walk's counters (see :func:`best_tuple`) and the
    transport counters of every solve, the full-data one included;
    ``tuples_evaluated`` is its ``tuples_solved``.
    """
    z = inst.z if z is None else z
    if isinstance(spec, FractionBounds) and inst.labels is None:
        raise ValidationError("fraction-bound constraints require a labeled instance")

    start = time.perf_counter()
    candidate_ids, summary, full = coreset.bind(inst, z)
    if isinstance(spec, FixedProfile):
        bad = spec.profile.check_consistency(full)
        if bad:
            raise ValidationError("; ".join(bad))
    stats = dict.fromkeys(TRANSPORT_COUNTERS, 0)
    cost_summary, winning, _, evaluated, prices = best_tuple(
        summary, candidate_ids, inst.k, spec, z, allow_repeats=allow_repeats, cost_target=cost_target,
        stats=stats,
    )

    # The winner's summary prices warm-start its transport solves on the full data.
    cost_full, sigma, profile = optimal_feasible_cost(
        full, np.array(winning), spec, z, prices=prices, stats=stats
    )
    # Solves rescale each point's masses to its weight, so conservation is checked
    # once, here, on the answer; a Voronoi assignment carries the weights as they are.
    lost = [] if isinstance(spec, Unconstrained) else sigma.check_conservation(full)
    if lost:
        raise SolverError("final assignment violates weight conservation: " + lost[0])
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
        stats=stats,
    )

