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
    _cost_matrix,
    is_symmetric,
    profile_cost,
    voronoi_profile,
)
# Not called here; kept importable because perfbench's tracer hooks oracle.optimal_feasible_cost.
from .constraints import optimal_feasible_cost  # noqa: F401
from .coreset import WeakCoreset
from .meta import best_tuple, check_tuple_ceiling
from .model import Assignment, ClusteringInstance, ClusterProfile, ValidationError

DEFAULT_SOLVE_CEILING = 1_000_000


def brute_force_opt(
    inst: ClusteringInstance,
    spec: ConstraintSpec,
    z: Optional[int] = None,
    *,
    ordered: Optional[bool] = None,
    allow_repeats: bool = False,
    max_solves: int = DEFAULT_SOLVE_CEILING,
) -> tuple[tuple, float, Assignment]:
    """Exact optimum over every admissible center tuple from F.

    Runs :func:`~weakcore.meta.best_tuple` over the sorted facilities with
    the meta-solver's enumeration-mode rule and ``prune=False``, so every
    tuple is solved and ties break to the earliest tuple: this is the
    exhaustive reference the pruned walk is tested against. Raises
    :class:`SolverLimit` when the tuple count exceeds ``max_solves``.
    """
    z = inst.z if z is None else z
    if ordered is None:
        ordered = not is_symmetric(spec)
    check_tuple_ceiling(inst.facilities.size, inst.k, ordered, allow_repeats, max_solves)
    cost, tup, sigma, _ = best_tuple(
        inst.weighted_points(), np.sort(inst.facilities), inst.k, spec, z, ordered,
        allow_repeats, prune=False,
    )
    return tup, float(cost), sigma


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

    @property
    def pass_fraction(self) -> float:
        return self.passes / self.trials if self.trials else 1.0


def _ratio(cost_full: float, cost_summary: float) -> float:
    if cost_summary == 0.0 and cost_full == 0.0:
        return 1.0
    if cost_summary == 0.0:
        return math.inf
    return cost_full / cost_summary


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
    weight). Each trial builds one full-data ``D^z`` table, which serves the
    Voronoi profile and the full solve, and one summary table. It solves the
    summary first and starts the full solve from its sink prices. When the
    summary is the full data itself (the identity coreset), one table and
    one solve price both sides. ``eps`` is the reporting window half-width:
    a trial passes when its ratio lies in [1 - eps, 1 + eps].
    """
    z = inst.z if z is None else z
    candidate_ids, summary, full = coreset.bind(inst, z)
    W = full.total_weight
    k = inst.k
    if len(candidate_ids) < k:
        raise ValidationError(f"cannot choose {k} distinct centers from {len(candidate_ids)} candidates")
    same_points = np.array_equal(summary.indices, full.indices)
    summary_is_full = same_points and np.array_equal(summary.weights, full.weights)

    records = []
    passes = 0
    worst = 1.0
    for t in range(trials):
        rng = default_rng(SeedSequence(int(seed), spawn_key=(t,)))
        chosen = np.sort(rng.choice(candidate_ids, size=k, replace=False))
        d_full = _cost_matrix(full, chosen, z)
        if t % 2 == 0:
            gamma = voronoi_profile(full, chosen, z, table=d_full)
        else:
            draws = rng.exponential(1.0, size=k)
            gamma = ClusterProfile(W * draws / draws.sum())
        cost_summary, _, prices = profile_cost(
            summary, chosen, gamma, z, return_prices=True, table=d_full if same_points else None
        )
        if summary_is_full:
            cost_full = cost_summary
        else:
            cost_full, _ = profile_cost(full, chosen, gamma, z, prices=prices, table=d_full)
        ratio = _ratio(cost_full, cost_summary)
        ok = (1.0 - eps) <= ratio <= (1.0 + eps)
        passes += ok
        if not math.isfinite(ratio) or abs(ratio - 1.0) > abs(worst - 1.0):
            worst = ratio
        records.append(
            TrialRecord(
                centers=tuple(int(c) for c in chosen),
                profile=[float(x) for x in np.asarray(gamma.values).ravel()],
                profile_kind="voronoi" if t % 2 == 0 else "random",
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

    The J side is the pruned walk of :func:`~weakcore.meta.best_tuple`.
    When J is the sorted F, both walks have the same answer, so the
    brute-force answer is reused."""
    z = inst.z if z is None else z
    spec = spec if spec is not None else Unconstrained()
    ordered = not is_symmetric(spec)

    candidate_ids, _, full = coreset.bind(inst, z)
    opt_tup, opt_cost, _ = brute_force_opt(inst, spec, z, ordered=ordered, max_solves=max_solves)
    if np.array_equal(candidate_ids, np.sort(inst.facilities)):
        cost_j, tup_j = opt_cost, opt_tup
    else:
        check_tuple_ceiling(len(candidate_ids), inst.k, ordered, False, max_solves)
        cost_j, tup_j, _, _ = best_tuple(full, candidate_ids, inst.k, spec, z, ordered)

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
