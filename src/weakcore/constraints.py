"""Constraint families and cost functionals over weighted point sets.

The four families (unconstrained, fixed profile, balanced weight bounds,
per-label fraction bounds) all reduce to exact solves in
:mod:`weakcore.flowlp`: bounded transportation, with lower == upper for a
fixed profile, or a dense LP with one conservation row per point. Each
solve reads one D^z table of its points to the k centers, which a caller
that already holds it passes in, and returns its support, (row, cluster,
mass) triples, with its cost summed exactly from that table over them; only
plain calls wrap the support into an :class:`Assignment`, one per answer.
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
    _row_argmin,
)

FEAS_TOL = 1e-7

# What a ``stats`` dict gets from each transport solve: the solve, its
# augmenting paths, its shortest-path searches, and whether it took the warm start.
TRANSPORT_COUNTERS = ("transport_solves", "transport_augmentations", "transport_searches", "warm_starts")

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
    """True when the spec treats all cluster indices identically, so a
    tuple's cost does not depend on its order and center tuples can be
    enumerated as unordered combinations. A fixed profile is symmetric when
    its k rows are equal, plain or labeled."""
    if isinstance(spec, Unconstrained):
        return True
    if isinstance(spec, Balanced):
        return bool(np.all(spec.lower == spec.lower[0]) and np.all(spec.upper == spec.upper[0]))
    if isinstance(spec, FractionBounds):  # one row per cluster, a (k,) pair included
        a, b = (x.reshape(len(x), -1) for x in (spec.alpha, spec.beta))
        return bool(np.all(a == a[0]) and np.all(b == b[0]))
    if isinstance(spec, FixedProfile):
        values = spec.profile.values
        return bool(np.all(values == values[0]))
    return False


def _cost_matrix(B: WeightedPoints, centers, z: int) -> np.ndarray:
    centers = _index_array(centers)
    d = B.space.pairwise(B.indices, centers)
    return d if z == 1 else d**z


def _table(B: WeightedPoints, centers, z: int, table) -> np.ndarray:
    """B's D^z table to ``centers``: ``table`` when the caller holds it,
    else built from the space."""
    if table is None:
        return _cost_matrix(B, centers, z)
    if np.shape(table) != (B.size, _index_array(centers).size):
        raise ValidationError(f"cost table has shape {np.shape(table)}, need ({B.size}, {np.size(centers)})")
    return table


def _assign(d: np.ndarray, B: WeightedPoints, rows, cols, masses):
    """The support ``(rows, cols, masses)`` on (row of B, cluster) pairs,
    with each point's masses rescaled to its weight so conservation is
    exact (this absorbs solver noise), and its cost: (cost, support), the
    cost an fsum over the pairs read from the D^z table ``d``."""
    sums = np.bincount(rows, weights=masses, minlength=B.size)
    masses = masses * (B.weights[rows] / sums[rows])
    cost = math.fsum((masses * d[rows, cols]).tolist())
    return cost, (rows, cols, masses)


def _assignment(B: WeightedPoints, rows, cols, masses) -> Assignment:
    """The :class:`Assignment` of a solve's support on B."""
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


def _voronoi(d: np.ndarray, B: WeightedPoints):
    """Every point fully to its nearest center (ties to the lowest cluster
    index) on the D^z table ``d``: (cost, support, cluster totals, None)."""
    nearest, cost_rows = _row_argmin(d)
    cost = float(math.fsum((B.weights * cost_rows).tolist()))
    totals = np.bincount(nearest, weights=B.weights, minlength=d.shape[1])
    return cost, (np.arange(B.size), nearest, B.weights), totals, None


def voronoi_profile(B: WeightedPoints, centers, z: int, *, table=None) -> ClusterProfile:
    """Per-cluster weight totals of :func:`_voronoi`'s nearest-center
    assignment; ``table`` is as in :func:`optimal_feasible_cost`."""
    return ClusterProfile(_voronoi(_table(B, centers, z, table), B)[2])


def profile_cost(
    B: WeightedPoints,
    centers,
    profile: ClusterProfile,
    z: int,
    *,
    prices=None,
    return_prices: bool = False,
    table=None,
    stats: Optional[dict] = None,
):
    """Minimum assignment cost consistent with a profile: one transportation
    solve per label class with every sink pinned to its target, the whole
    set being one class when the profile is unlabeled.

    Returns (cost, assignment), or the solve's own (cost, support, sink prices)
    with ``return_prices``; all else is as in :func:`optimal_feasible_cost`."""
    cost, support, _, out = _solve(_table(B, centers, z, table), B, FixedProfile(profile), prices, stats)
    return (cost, support, out) if return_prices else (cost, _assignment(B, *support))


def _transport(d, B, classes, lower, upper, prices, stats):
    """One bounded transport per label class j of ``classes`` (all of ``B``
    when None) on its rows of the D^z table ``d``, between the columns
    ``lower[:, j]`` and ``upper[:, j]``, started from ``prices[j]``: (cost,
    support, sink totals per class, prices per class). Each solve adds
    its :data:`TRANSPORT_COUNTERS` to ``stats`` unless it is None."""
    shape = lower.shape[::-1]
    if prices is not None and np.shape(prices) != shape:
        raise ValidationError(f"start prices have shape {np.shape(prices)}, need {shape}")
    parts, totals, out = [], [], []
    for j in range(shape[0]):
        rows = None if classes is None else np.flatnonzero(classes == j)
        sol = solve_bounded_transportation(
            BoundedTransportationProblem(
                d if rows is None else d[rows],
                B.weights if rows is None else B.weights[rows],
                lower[:, j],
                upper[:, j],
            ),
            None if prices is None else prices[j],
        )
        parts.append((sol.rows if rows is None else rows[sol.rows], sol.cols, sol.masses))
        if stats is not None:
            for key, count in zip(TRANSPORT_COUNTERS, (1, sol.augmentations, sol.searches, sol.warm_start)):
                stats[key] = stats.get(key, 0) + int(count)
        totals.append(sol.sink_totals)
        out.append(sol.prices)
    support = parts[0] if len(parts) == 1 else [np.concatenate(p) for p in zip(*parts)]
    cost, support = _assign(d, B, *support)
    return cost, support, np.stack(totals, axis=1), np.stack(out)


def _fraction_lp(B: WeightedPoints, d: np.ndarray, alpha: np.ndarray, beta: np.ndarray):
    """In :func:`_solve`'s form, the LP over sigma(x, i) >= 0 with per-point conservation
    and, per (cluster i, label j): alpha * mass(i) <= mass of label j in i <= beta * mass(i)."""
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
    # The fraction rows' multipliers y <= 0 shift the cost of a label-j point
    # in cluster i by -P[j, i], P[j, i] = C_i + (y_hi - y_lo)[i, j] with
    # C_i = sum_j (y_lo * alpha - y_hi * beta)[i, j]; the rows' rhs is 0.
    # Certificate: that Lagrangian bound (:func:`_lagrangian`) meets c.x.
    y_lo, y_hi = np.moveaxis(sol.ub_duals.reshape(k, m, 2), 2, 0)
    shift = ((y_lo * alpha - y_hi * beta).sum(axis=1)[:, None] + y_hi - y_lo).T
    bound = float(B.weights @ (d - shift[B.labels]).min(axis=1))
    if sol.objective - bound > 1e-9 * max(1.0, abs(sol.objective)):
        raise SolverError(f"fraction LP duality gap {sol.objective - bound:.3e} at cost {sol.objective:.12g}")
    rows, cols = np.nonzero(sol.x > 0)
    cost, (rows, cols, masses) = _assign(d, B, rows, cols, sol.x[rows, cols])
    # The mass table in Assignment.label_cluster_mass's order.
    mass = np.bincount(cols * m + B.labels[rows], weights=masses, minlength=k * m).reshape(k, m)
    return cost, (rows, cols, masses), mass, shift


def _lagrangian(B: WeightedPoints, spec: ConstraintSpec, prices: np.ndarray):
    """The Lagrangian lower bound that a solve's (m, k) ``prices``, one row
    per label class (:func:`_solve`'s fourth item), put on the exact cost
    under ``spec`` of any k centers on B, as (per-point prices (|B|, k),
    offset c): for centers with D^z table d the bound is ``sum_x v_x min_i
    (d[x, i] - rows[x, i]) + c`` (weak duality; Geoffrion 1974).

    Fraction prices are the LP's shift and c = 0. Transport prices bound
    the sink totals T: any real P splits into P+ on ``T >= lower`` and P-
    on ``T <= min(upper, W)``, so c = sum P+ * lower - P- * min(upper, W)
    holds for every P, and a fixed profile is lower == upper.
    """
    k = prices.shape[1]
    rows = prices[B.labels] if len(prices) > 1 else np.broadcast_to(prices, (B.size, k))
    if isinstance(spec, FractionBounds):
        return rows, 0.0
    if isinstance(spec, Balanced):
        lower, upper = spec.lower[None], spec.upper[None]
    else:
        lower = upper = spec.profile.values.reshape(k, -1).T
    upper = np.minimum(upper, B.total_weight)
    return rows, float(np.sum(np.maximum(prices, 0.0) * lower + np.minimum(prices, 0.0) * upper))


def optimal_feasible_cost(
    B: WeightedPoints,
    centers,
    spec: ConstraintSpec,
    z: int,
    *,
    prices=None,
    return_prices: bool = False,
    table=None,
    stats: Optional[dict] = None,
):
    """Minimum cost over all assignments satisfying ``spec`` for fixed centers.

    Returns (cost, minimizing assignment, realized profile). With
    ``return_prices`` it builds neither and returns the solve's own form, (cost,
    support, mass table, prices): the support is (rows of ``B``, clusters,
    masses), the mass table the realized profile's values, and the prices the
    solve's multipliers as an (m, k) array, one row per label class (one row for
    ``Balanced``), or None when unconstrained. For the transport families they
    are the sink prices; for fraction bounds, the LP's Lagrangian shift. Either
    way they bound the cost of any other centers under ``spec`` on ``B``
    (:func:`_lagrangian`). Passing transport prices, say from the same centers
    on a summary of ``B``, warm-starts the transport solves (the LP takes none);
    the result is exact either way. ``table``, B's (|B|, k) ``D^z`` table to
    ``centers`` when the caller already holds it, spares building it again; the
    cost is read from it. A ``stats`` dict gets each transport solve's
    :data:`TRANSPORT_COUNTERS` added to it. Raises
    :class:`weakcore.flowlp.Infeasible` when the constraint set is empty.
    """
    solved = _solve(_table(B, centers, z, table), B, spec, prices, stats)
    cost, support, mass, _ = solved
    return solved if return_prices else (cost, _assignment(B, *support), ClusterProfile(mass))


def _solve(d: np.ndarray, B: WeightedPoints, spec: ConstraintSpec, prices=None, stats=None):
    """The one exact solve behind :func:`optimal_feasible_cost` and
    :func:`profile_cost`, on B's D^z table ``d`` to k centers: (cost, support,
    mass table, prices), the table being the realized profile's values. The
    cost is an fsum over the support's (point, cluster) pairs read from ``d``."""
    k = d.shape[1]
    if isinstance(spec, Unconstrained):
        return _voronoi(d, B)
    if isinstance(spec, FixedProfile):
        profile = spec.profile
        if profile.k != k:
            raise ValidationError(f"profile length {profile.k} != number of centers {k}")
        bad = profile.check_consistency(B)
        if bad:
            raise ValidationError("; ".join(bad))
        classes = B.labels if profile.is_labeled else None
        gamma = profile.values.reshape(k, profile.m)
        cost, support, _, out = _transport(d, B, classes, gamma, gamma, prices, stats)
        return cost, support, profile.values, out
    if isinstance(spec, Balanced):
        if spec.lower.size != k:
            raise ValidationError(f"balanced bounds length {spec.lower.size} != k={k}")
        lower, upper = spec.lower[:, None], spec.upper[:, None]
        cost, support, totals, out = _transport(d, B, None, lower, upper, prices, stats)
        return cost, support, totals[:, 0], out
    if isinstance(spec, FractionBounds):
        if B.labels is None:
            raise ValidationError("fraction bounds require a labeled point set")
        alpha, beta = spec.per_label(k, B.n_labels)
        return _fraction_lp(B, d, alpha, beta)
    raise ValidationError(f"unknown constraint spec {type(spec).__name__}")


def check_feasibility(
    sigma: Assignment, B: WeightedPoints, spec: ConstraintSpec, k: Optional[int] = None
) -> list[str]:
    """Violations of ``spec`` by a given assignment, within 1e-7 absolute each.

    Every family is a box on a mass table: the cluster totals, or the
    (cluster, label) masses, lie between lower and upper bounds of the same
    shape (the profile on both sides, the balanced bounds, or the fraction
    bounds times each cluster's total). Raises :class:`ValidationError` when
    the spec is shaped for another k or another label count. Without ``k``,
    k is the spec's own: its number of rows.
    """
    if isinstance(spec, Unconstrained):
        return []
    if isinstance(spec, FixedProfile):
        lo = hi = spec.profile.values
    elif isinstance(spec, Balanced):
        lo, hi = spec.lower, spec.upper
    elif isinstance(spec, FractionBounds):
        if B.labels is None:
            return ["fraction bounds require labels"]
        lo, hi = spec.per_label(len(spec.alpha) if k is None else k, B.n_labels)
    else:
        raise ValidationError(f"unknown constraint spec {type(spec).__name__}")
    k = len(lo) if k is None else k
    if np.any(sigma.clusters >= k):
        raise ValidationError(f"assignment references a cluster index beyond k={k}")
    totals = sigma.cluster_totals(k)
    if isinstance(spec, FractionBounds):  # fractions of each cluster's total
        lo, hi = lo * totals[:, None], hi * totals[:, None]
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
