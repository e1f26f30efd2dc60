"""Enumeration meta-solver: try every k-tuple of candidate centers against
the summary, keep the cheapest, then re-solve the winner on the full data.
The enumeration kernel, :func:`best_tuple`, is shared with the oracle."""

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
    check_feasibility,
    is_symmetric,
    optimal_feasible_cost,
)
from .coreset import WeakCoreset
from .flowlp import Infeasible, SolverError
from .model import Assignment, ClusteringInstance, ClusterProfile, ValidationError, WeightedPoints


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


def finalize_assignment(
    inst: ClusteringInstance, centers, spec: ConstraintSpec, z: Optional[int] = None
) -> tuple[Assignment, float]:
    """Exact optimal feasible assignment of the full instance to fixed centers."""
    z = inst.z if z is None else z
    cost, sigma, _ = optimal_feasible_cost(inst.weighted_points(), centers, spec, z)
    return sigma, cost


def best_tuple(
    B: WeightedPoints,
    candidates,
    k: int,
    spec: ConstraintSpec,
    z: int,
    ordered: bool,
    allow_repeats: bool = False,
    cost_target: Optional[float] = None,
) -> tuple[float, tuple, Assignment, int]:
    """The enumeration kernel: score every k-tuple of ``candidates`` with an
    exact constrained assignment on ``B`` and keep the cheapest.

    Tuples are visited in :func:`enumerate_center_tuples` order and a later
    tuple replaces the best only when strictly cheaper, so ties break to the
    earliest rank. With ``cost_target`` the walk stops at the first tuple
    whose cost is at or below it. Returns ``(cost, tuple, assignment,
    tuples evaluated)``; raises :class:`Infeasible` when no tuple is feasible.
    """
    best = None
    evaluated = 0
    for tup in enumerate_center_tuples(candidates, k, ordered, allow_repeats):
        evaluated += 1
        try:
            cost, sigma, _ = optimal_feasible_cost(B, np.asarray(tup, dtype=np.int64), spec, z)
        except Infeasible:
            continue
        if best is None or cost < best[0]:
            best = (cost, tup, sigma)
            if cost_target is not None and cost <= cost_target:
                break
    if best is None:
        raise Infeasible("no candidate tuple admits a feasible assignment")
    return (*best, evaluated)


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
    heterogeneous bounds force ordered tuples. Scoring is :func:`best_tuple`,
    so ties break to the earliest tuple in enumeration order and
    ``cost_target`` stops at the first tuple whose summary cost reaches it.
    """
    z = inst.z if z is None else z
    if coreset.z != z:
        raise ValidationError(f"coreset was built for z={coreset.z}, solve requested z={z}")
    if isinstance(spec, FractionBounds) and inst.labels is None:
        raise ValidationError("fraction-bound constraints require a labeled instance")
    if ordered is None:
        ordered = not is_symmetric(spec)

    start = time.perf_counter()
    candidate_ids, summary, full = coreset.bind(inst)
    cost_summary, winning, _, evaluated = best_tuple(
        summary, candidate_ids.tolist(), inst.k, spec, z, ordered, allow_repeats, cost_target
    )

    cost_full, sigma, profile = optimal_feasible_cost(
        full, np.asarray(winning, dtype=np.int64), spec, z
    )
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

