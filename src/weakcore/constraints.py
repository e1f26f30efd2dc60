"""Constraint families and cost functionals over weighted point sets.

The four families (unconstrained, fixed profile, balanced weight bounds,
per-label fraction bounds) all reduce to exact solves in
:mod:`weakcore.flowlp`: bounded transportation, with lower == upper for a
fixed profile, or a dense LP with one conservation row per point. Costs are
always reported as the exact sum over the returned assignment, so the
assignment and its cost never disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .flowlp import (
    BoundedTransportationProblem,
    LinearProgram,
    SolverError,
    solve_bounded_transportation,
    solve_lp,
)
from .model import (
    Assignment,
    ClusterProfile,
    ValidationError,
    WeightedPoints,
    _float_array,
    _index_array,
)

FEAS_TOL = 1e-7

# Not a second code path; kept because perfbench's tracer hooks constraints.solve_transportation.
solve_transportation = solve_bounded_transportation


@dataclass(frozen=True)
class Unconstrained:
    pass


@dataclass(frozen=True, eq=False)
class FixedProfile:
    profile: ClusterProfile


@dataclass(frozen=True, eq=False)
class Balanced:
    """Per-cluster lower and upper bounds on total assigned weight.

    Upper bounds may be ``inf`` (r-gathering style); they are capped at the
    total weight when solving.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise ValidationError("balanced bounds must be two vectors of length k")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValidationError("balanced bounds contain NaN")
        if np.any(lo < 0) or np.any(hi < lo):
            raise ValidationError("need 0 <= lower <= upper per cluster")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)


@dataclass(frozen=True, eq=False)
class FractionBounds:
    """Bounds on the fraction of each cluster's mass carried by each label.

    ``alpha``/``beta`` are either length-k vectors (the same pair applies to
    every label) or (k, m) matrices with one pair per (cluster, label).
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = _float_array(self.alpha, "alpha")
        b = _float_array(self.beta, "beta")
        if a.shape != b.shape or a.ndim not in (1, 2):
            raise ValidationError("alpha and beta must share a (k,) or (k, m) shape")
        if np.any(a < 0) or np.any(b > 1) or np.any(a > b):
            raise ValidationError("need 0 <= alpha <= beta <= 1 everywhere")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def per_label(self, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        if self.alpha.ndim == 1:
            if self.alpha.size != k:
                raise ValidationError(f"fraction bounds have length {self.alpha.size}, need k={k}")
            return (
                np.repeat(self.alpha[:, None], m, axis=1),
                np.repeat(self.beta[:, None], m, axis=1),
            )
        if self.alpha.shape[0] != k or self.alpha.shape[1] != m:
            raise ValidationError(
                f"fraction bound matrix has shape {self.alpha.shape}, need ({k}, {m})"
            )
        return self.alpha, self.beta


ConstraintSpec = Union[Unconstrained, FixedProfile, Balanced, FractionBounds]


def ldiversity_bounds(l: int, k: int, m: int, at_most: bool = False) -> FractionBounds:
    """l-diversity as fraction bounds.

    The default requires every cluster to carry at least a 1/l fraction of
    each label; ``at_most=True`` gives the conventional reading instead
    (at most 1/l of a cluster's mass per label).
    """
    if l < 1:
        raise ValidationError("l must be a positive integer")
    if at_most:
        alpha = np.zeros((k, m))
        beta = np.full((k, m), 1.0 / l)
    else:
        alpha = np.full((k, m), 1.0 / l)
        beta = np.ones((k, m))
    return FractionBounds(alpha, beta)


def is_symmetric(spec: ConstraintSpec) -> bool:
    """True when the spec treats all cluster indices identically, so center
    tuples can be enumerated as unordered combinations."""
    if isinstance(spec, Unconstrained):
        return True
    if isinstance(spec, Balanced):
        return bool(np.all(spec.lower == spec.lower[0]) and np.all(spec.upper == spec.upper[0]))
    if isinstance(spec, FractionBounds):
        a, b = np.atleast_2d(spec.alpha), np.atleast_2d(spec.beta)
        return bool(np.all(a == a[0]) and np.all(b == b[0]))
    return False


def _cost_matrix(B: WeightedPoints, centers, z: int) -> np.ndarray:
    centers = _index_array(centers)
    d = B.space.pairwise(B.indices, centers)
    return d if z == 1 else d**z


def _assignment_from_flow(B: WeightedPoints, flow: np.ndarray) -> Assignment:
    rows, cols = np.nonzero(flow > 0)
    masses = flow[rows, cols]
    # Renormalize per point so conservation is exact, absorbing solver noise.
    sums = np.bincount(rows, weights=masses, minlength=B.size)
    masses = masses * (B.weights[rows] / sums[rows])
    return Assignment(B.indices[rows], cols, masses)


def assignment_cost(B: WeightedPoints, sigma: Assignment, centers, z: int) -> float:
    """Exact cost of a fixed assignment to a center tuple: sum of mass * D^z."""
    centers = _index_array(centers)
    if centers.size < 1:
        raise ValidationError("need at least one center")
    bad = sigma.check_conservation(B)
    if bad:
        raise ValidationError("assignment violates weight conservation: " + "; ".join(bad[:3]))
    if np.any(sigma.clusters >= centers.size):
        raise ValidationError("assignment references a cluster index beyond the center tuple")
    if len(sigma) == 0:
        return 0.0
    d = B.space.distance_pairs(sigma.points, centers[sigma.clusters])
    return float(math.fsum((sigma.masses * d**z).tolist()))


def voronoi_assignment(B: WeightedPoints, centers, z: int) -> tuple[float, Assignment]:
    """Every point fully to its nearest center (ties to the lowest cluster index)."""
    d = _cost_matrix(B, centers, z)
    nearest = np.argmin(d, axis=1)
    cost = float(math.fsum((B.weights * d[np.arange(B.size), nearest]).tolist()))
    return cost, Assignment(B.indices, nearest, B.weights)


def voronoi_profile(B: WeightedPoints, centers, z: int) -> ClusterProfile:
    """Per-cluster weight totals induced by nearest-center assignment."""
    centers = _index_array(centers)
    _, sigma = voronoi_assignment(B, centers, z)
    return ClusterProfile(sigma.cluster_totals(centers.size))


def profile_cost(
    B: WeightedPoints, centers, profile: ClusterProfile, z: int
) -> tuple[float, Assignment]:
    """Minimum assignment cost consistent with a profile: one transportation
    solve per label class with every sink pinned to its target, the whole
    set being one class when the profile is unlabeled."""
    centers = _index_array(centers)
    if profile.k != centers.size:
        raise ValidationError(f"profile length {profile.k} != number of centers {centers.size}")
    bad = profile.check_consistency(B)
    if bad:
        raise ValidationError("; ".join(bad))
    classes = B.labels if profile.is_labeled else np.zeros(B.size, dtype=np.int64)
    gamma = profile.values.reshape(profile.k, profile.m)
    parts = []
    for j in range(profile.m):
        mask = classes == j
        sub = WeightedPoints(B.space, B.indices[mask], B.weights[mask])
        d, target = _cost_matrix(sub, centers, z), gamma[:, j]
        sol = solve_bounded_transportation(BoundedTransportationProblem(d, sub.weights, target, target))
        parts.append(_assignment_from_flow(sub, sol.flow))
    sigma = Assignment(
        np.concatenate([p.points for p in parts]),
        np.concatenate([p.clusters for p in parts]),
        np.concatenate([p.masses for p in parts]),
    )
    return assignment_cost(B, sigma, centers, z), sigma


def _realized_profile(sigma: Assignment, B: WeightedPoints, k: int, labeled: bool) -> ClusterProfile:
    if labeled:
        return ClusterProfile(sigma.label_cluster_mass(B, k))
    return ClusterProfile(sigma.cluster_totals(k))


def _fraction_lp(B: WeightedPoints, d: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """LP over sigma(x, i) >= 0 with per-point conservation and, per
    (cluster i, label j): alpha * mass(i) <= mass of label j in i <= beta * mass(i)."""
    n, k = d.shape
    m = alpha.shape[1]
    in_label = (B.labels == np.arange(m)[:, None]).astype(np.float64)  # (m, n)
    fractions = np.zeros((k, m, 2, n, k))  # [i, j, low/high, x, i]: only cluster i's own column
    i = np.arange(k)
    fractions[i, :, 0, :, i] = alpha[:, :, None] - in_label
    fractions[i, :, 1, :, i] = in_label - beta[:, :, None]
    lp = LinearProgram(
        objective=d,
        b_eq=B.weights,
        a_ub=fractions.reshape(2 * k * m, n * k),
        b_ub=np.zeros(2 * k * m),
    )
    sol = solve_lp(lp)
    # Certificate: the Lagrangian bound of the fraction-row multipliers y <= 0
    # (each point at its cheapest cluster under the priced costs) meets c.x.
    y = sol.ub_duals
    priced = d - (y @ lp.a_ub).reshape(n, k)
    bound = float(B.weights @ priced.min(axis=1) + lp.b_ub @ y)
    if sol.objective - bound > 1e-9 * max(1.0, abs(sol.objective)):
        raise SolverError(f"fraction LP duality gap {sol.objective - bound:.3e} at cost {sol.objective:.12g}")
    return sol.x


def optimal_feasible_cost(
    B: WeightedPoints, centers, spec: ConstraintSpec, z: int
) -> tuple[float, Assignment, ClusterProfile]:
    """Minimum cost over all assignments satisfying ``spec`` for fixed centers.

    Returns (cost, minimizing assignment, realized profile). Raises
    :class:`weakcore.flowlp.Infeasible` when the constraint set is empty.
    """
    centers = _index_array(centers)
    k = centers.size
    if isinstance(spec, Unconstrained):
        cost, sigma = voronoi_assignment(B, centers, z)
        return cost, sigma, _realized_profile(sigma, B, k, labeled=False)
    if isinstance(spec, FixedProfile):
        cost, sigma = profile_cost(B, centers, spec.profile, z)
        return cost, sigma, spec.profile
    if isinstance(spec, Balanced):
        if spec.lower.size != k:
            raise ValidationError(f"balanced bounds length {spec.lower.size} != k={k}")
        d = _cost_matrix(B, centers, z)
        sol = solve_bounded_transportation(
            BoundedTransportationProblem(d, B.weights, spec.lower, spec.upper)
        )
        sigma = _assignment_from_flow(B, sol.flow)
        return assignment_cost(B, sigma, centers, z), sigma, ClusterProfile(sol.sink_totals)
    if isinstance(spec, FractionBounds):
        if B.labels is None:
            raise ValidationError("fraction bounds require a labeled point set")
        alpha, beta = spec.per_label(k, B.n_labels)
        d = _cost_matrix(B, centers, z)
        flow = _fraction_lp(B, d, alpha, beta)
        sigma = _assignment_from_flow(B, flow)
        return (
            assignment_cost(B, sigma, centers, z),
            sigma,
            _realized_profile(sigma, B, k, labeled=True),
        )
    raise ValidationError(f"unknown constraint spec {type(spec).__name__}")


def check_feasibility(
    sigma: Assignment, B: WeightedPoints, spec: ConstraintSpec, k: Optional[int] = None
) -> list[str]:
    """Violations of ``spec`` by a given assignment, within 1e-7 absolute each.

    Every family is a box on a mass table: the cluster totals, or the
    (cluster, label) masses, lie between lower and upper bounds of the same
    shape (the profile on both sides, the balanced bounds, or the fraction
    bounds times each cluster's total). Raises :class:`ValidationError` when
    the spec is shaped for another k or another label count.
    """
    if k is None:
        k = int(sigma.clusters.max()) + 1 if len(sigma) else 1
    if isinstance(spec, Unconstrained):
        return []
    totals = sigma.cluster_totals(k)
    if isinstance(spec, FixedProfile):
        lo = hi = spec.profile.values
    elif isinstance(spec, Balanced):
        lo, hi = spec.lower, spec.upper
    elif isinstance(spec, FractionBounds):
        if B.labels is None:
            return ["fraction bounds require labels"]
        alpha, beta = spec.per_label(k, B.n_labels)
        lo, hi = alpha * totals[:, None], beta * totals[:, None]
    else:
        raise ValidationError(f"unknown constraint spec {type(spec).__name__}")
    mass = sigma.label_cluster_mass(B, k) if lo.ndim == 2 else totals
    if lo.shape != mass.shape:
        raise ValidationError(
            f"{type(spec).__name__} has shape {lo.shape}, the assignment's mass table {mass.shape}"
        )
    below, above = mass < lo - FEAS_TOL, mass > hi + FEAS_TOL
    return [
        f"cluster {', label '.join(map(str, cell))}: mass {mass[cell]:.9g} "
        + (f"below lower bound {lo[cell]:.9g}" if below[cell] else f"above upper bound {hi[cell]:.9g}")
        for cell in map(tuple, np.argwhere(below | above))
    ]
