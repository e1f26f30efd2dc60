"""Brute-force ground truth and statistical verifiers for the coreset claims."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random import SeedSequence, default_rng

from .constraints import (
    ConstraintSpec,
    Unconstrained,
    _assignment,
    _cost_matrix,
    _voronoi,
    profile_cost,
)
# Not called here; kept importable because perfbench's tracer hooks oracle.optimal_feasible_cost
# and oracle.voronoi_profile.
from .constraints import optimal_feasible_cost, voronoi_profile  # noqa: F401
from .coreset import WeakCoreset
from .meta import best_tuple
from .model import Assignment, ClusteringInstance, ClusterProfile, ValidationError

DEFAULT_SOLVE_CEILING = 1_000_000
# verify_property_B builds its tables over at most this many cells (16 MB) at a time.
MAX_TABLE_CELLS = 1 << 21


def brute_force_opt(
    inst: ClusteringInstance,
    spec: ConstraintSpec,
    z: Optional[int] = None,
    *,
    allow_repeats: bool = False,
    max_solves: int = DEFAULT_SOLVE_CEILING,
) -> tuple[tuple, float, Assignment]:
    """Exact optimum over every admissible center tuple from F.

    Runs :func:`~weakcore.meta.best_tuple` over the sorted facilities with
    ``prune=False``, so every tuple the spec admits (ordered unless it is
    symmetric) is solved and ties break to the earliest tuple: this is the
    exhaustive reference the pruned walk is tested against. Raises
    :class:`SolverLimit` when the tuple count exceeds ``max_solves``.
    """
    z = inst.z if z is None else z
    B = inst.weighted_points()
    cost, tup, support, *_ = best_tuple(
        B, np.sort(inst.facilities), inst.k, spec, z,
        allow_repeats=allow_repeats, prune=False, max_tuples=max_solves,
    )
    return tup, float(cost), _assignment(B, *support)


@dataclass(frozen=True, eq=False)
class TrialRecord:
    centers: tuple
    profile: list
    profile_kind: str
    cost_full: float
    cost_summary: float
    ratio: float


@dataclass(frozen=True, eq=False)
class VerificationReport:
    property_name: str
    trials: int
    passes: int
    worst_ratio: float
    threshold: float
    window: tuple[float, float]
    passed: bool
    records: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def pass_fraction(self) -> float:
        return self.passes / self.trials if self.trials else 1.0


def _ratio(cost_full: float, cost_summary: float) -> float:
    if cost_summary == 0.0 and cost_full == 0.0:
        return 1.0
    if cost_summary == 0.0:
        return math.inf
    return cost_full / cost_summary


def _trial_batches(draws: list, rows: int, cells: int):
    """Runs of consecutive trials whose distinct centers, as the columns of
    one table of ``rows`` rows, fit in ``cells`` cells (one trial at least):
    (trial indices, sorted center ids) pairs."""
    batch, ids = [], set()
    for t, chosen in enumerate(draws):
        more = ids.union(chosen.tolist())
        if batch and len(more) * rows > cells:
            yield batch, np.array(sorted(ids), dtype=np.int64)
            batch, more = [], set(chosen.tolist())
        batch.append(t)
        ids = more
    if batch:
        yield batch, np.array(sorted(ids), dtype=np.int64)


def verify_property_B(
    inst: ClusteringInstance,
    coreset: WeakCoreset,
    trials: int,
    eps: float,
    z: Optional[int] = None,
    seed: int = 0,
    threshold: float = 0.95,
) -> VerificationReport:
    """Stress the summary: random center tuples from J and random profiles,
    comparing full-data and summary profile costs.

    Even trials use the Voronoi profile of the drawn centers; odd trials a
    random consistent profile (normalized exponential split of the total
    weight). Each trial draws from its own stream, and every trial's
    centers are drawn first. Then one full-data ``D^z`` table and one
    summary table over the distinct centers drawn serve every trial, each
    trial reading its own columns; one table serves both sides when the
    summary holds the full data's points. (Trials are taken in runs whose
    tables fit ``MAX_TABLE_CELLS`` cells; at desk scale that is one run.)
    Each trial solves the summary; a random-profile trial starts the full
    solve from the summary's sink prices. A Voronoi-profile trial needs no
    full solve: the Voronoi assignment is optimal over all assignments and
    meets its own profile, so its cost is the profile's full-data cost, and
    one nearest-center pass over its columns gives both the profile and the
    cost.
    When the summary is the full data itself (the identity coreset), one
    solve prices both sides. ``eps`` is the reporting window half-width: a
    trial passes when its ratio lies in [1 - eps, 1 + eps], and the report
    passes when at least ``threshold`` of the trials do. ``stats`` counts
    ``full_solves``, ``summary_solves``, ``voronoi_trials`` and ``tables``
    built. Raises :class:`ValidationError` unless eps is finite and >= 0
    and threshold lies in [0, 1].
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValidationError(f"epsilon must be a finite number >= 0, got {eps}")
    if not 0 <= threshold <= 1:
        raise ValidationError(f"threshold must lie in [0, 1], got {threshold}")
    z = inst.z if z is None else z
    candidate_ids, summary, full = coreset.bind(inst, z)
    W = full.total_weight
    k = inst.k
    if len(candidate_ids) < k:
        raise ValidationError(f"cannot choose {k} distinct centers from {len(candidate_ids)} candidates")
    same_points = np.array_equal(summary.indices, full.indices)
    summary_is_full = same_points and np.array_equal(summary.weights, full.weights)

    draws, shares = [], []  # each trial's centers, then (odd trials) its profile's shares
    for t in range(trials):
        rng = default_rng(SeedSequence(int(seed), spawn_key=(t,)))
        draws.append(np.sort(rng.choice(candidate_ids, size=k, replace=False)))
        shares.append(rng.exponential(1.0, size=k) if t % 2 else None)
    stats = dict(full_solves=0, summary_solves=0, voronoi_trials=0, tables=0)
    records = []
    passes = 0
    worst = 1.0
    for batch, ids in _trial_batches(draws, full.size, MAX_TABLE_CELLS):
        d_full = _cost_matrix(full, ids, z)
        d_summary = d_full if same_points else _cost_matrix(summary, ids, z)
        stats["tables"] += 1 if same_points else 2
        for t in batch:
            chosen, voronoi = draws[t], t % 2 == 0
            pos = np.searchsorted(ids, chosen)
            full_t, summary_t = d_full[:, pos], d_summary[:, pos]
            if voronoi:
                cost_full, _, totals, _ = _voronoi(full_t, full)
                gamma = ClusterProfile(totals)
            else:
                gamma = ClusterProfile(W * shares[t] / shares[t].sum())
            cost_summary, _, prices = profile_cost(
                summary, chosen, gamma, z, return_prices=True, table=summary_t
            )
            stats["summary_solves"] += 1
            if voronoi:
                stats["voronoi_trials"] += 1
            elif summary_is_full:
                cost_full = cost_summary
            else:
                cost_full, *_ = profile_cost(
                    full, chosen, gamma, z, prices=prices, return_prices=True, table=full_t
                )
                stats["full_solves"] += 1
            ratio = _ratio(cost_full, cost_summary)
            ok = (1.0 - eps) <= ratio <= (1.0 + eps)
            passes += ok
            if not math.isfinite(ratio) or abs(ratio - 1.0) > abs(worst - 1.0):
                worst = ratio
            records.append(
                TrialRecord(
                    centers=tuple(int(c) for c in chosen),
                    profile=[float(x) for x in np.asarray(gamma.values).ravel()],
                    profile_kind="voronoi" if voronoi else "random",
                    cost_full=float(cost_full),
                    cost_summary=float(cost_summary),
                    ratio=float(ratio),
                )
            )
    return VerificationReport(
        property_name="B",
        trials=trials,
        passes=int(passes),
        worst_ratio=float(worst),
        threshold=threshold,
        window=(1.0 - eps, 1.0 + eps),
        passed=(passes / trials >= threshold) if trials else True,
        records=records,
        stats=stats,
    )


def verify_property_A(
    inst: ClusteringInstance,
    coreset: WeakCoreset,
    spec: Optional[ConstraintSpec] = None,
    z: Optional[int] = None,
    *,
    max_solves: int = DEFAULT_SOLVE_CEILING,
) -> VerificationReport:
    """Compare the best tuple from J against the best tuple from F on the
    full data; report whether the ratio stays within alpha + epsilon.

    The J side is the pruned walk of :func:`~weakcore.meta.best_tuple`;
    each side walks the tuples the spec admits, and more than
    ``max_solves`` of them on either side raise :class:`SolverLimit`.
    When J is the sorted F, both walks have the same answer, so the
    brute-force answer is reused."""
    z = inst.z if z is None else z
    spec = spec if spec is not None else Unconstrained()

    candidate_ids, _, full = coreset.bind(inst, z)
    opt_tup, opt_cost, _ = brute_force_opt(inst, spec, z, max_solves=max_solves)
    if np.array_equal(candidate_ids, np.sort(inst.facilities)):
        cost_j, tup_j = opt_cost, opt_tup
    else:
        cost_j, tup_j, *_ = best_tuple(full, candidate_ids, inst.k, spec, z, max_tuples=max_solves)

    ratio = _ratio(cost_j, opt_cost)
    bound = coreset.alpha + coreset.epsilon
    record = TrialRecord(
        centers=tuple(int(c) for c in tup_j),
        profile=[],
        profile_kind="optimal-vs-brute",
        cost_full=float(cost_j),
        cost_summary=float(opt_cost),
        ratio=float(ratio),
    )
    return VerificationReport(
        property_name="A",
        trials=1,
        passes=int(ratio <= bound),
        worst_ratio=float(ratio),
        threshold=bound,
        window=(0.0, bound),
        passed=ratio <= bound,
        records=[record],
    )
