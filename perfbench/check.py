"""Output check for one job, written in plain numpy so that it shares no code
with the solver it checks (no ``check_feasibility``, no ``assignment_cost``).

A job's answer is the full-data assignment (point, cluster, mass) plus the
chosen centers and the reported ``cost_on_full``. ``check_answer`` returns a
list of problems; an empty list means the answer passes.
"""

from __future__ import annotations

import math

import numpy as np

CONSERVATION_RTOL = 1e-9
SPEC_ATOL = 1e-7
COST_RTOL = 1e-9


def _distances(inst, points, center_ids, z):
    """D(point, center)^z for parallel arrays of point and center indices."""
    space = inst.space
    if space.coords is not None:
        d = np.linalg.norm(space.coords[points] - space.coords[center_ids], axis=1)
    else:
        d = space.matrix[points, center_ids]
    return d**z


def check_answer(inst, spec: dict, centers, cost: float, points, clusters, masses) -> list[str]:
    """Problems with a full-data answer: conservation, the spec within 1e-7,
    and the recomputed sum of mass * D^z against ``cost`` within 1e-9 relative."""
    k = inst.k
    centers = np.asarray(centers, dtype=np.int64)
    points = np.asarray(points, dtype=np.int64)
    clusters = np.asarray(clusters, dtype=np.int64)
    masses = np.asarray(masses, dtype=np.float64)
    if centers.shape != (k,):
        return [f"expected {k} centers, got {centers.tolist()}"]
    if not (points.shape == clusters.shape == masses.shape) or points.ndim != 1:
        return ["assignment arrays are not parallel vectors"]
    if not np.all(np.isfinite(masses)) or np.any(masses < 0):
        return ["assignment has a negative or non-finite mass"]
    if clusters.size and (clusters.min() < 0 or clusters.max() >= k):
        return ["assignment references a cluster outside the center tuple"]

    problems = []
    pos_of = np.full(inst.space.size, -1, dtype=np.int64)
    pos_of[inst.points] = np.arange(inst.n)
    pos = pos_of[points] if points.size else points
    if np.any(pos < 0):
        return ["assignment touches an index that is not a point of the instance"]
    got = np.bincount(pos, weights=masses, minlength=inst.n)
    bad = np.abs(got - inst.weights) > CONSERVATION_RTOL * np.abs(inst.weights)
    if bad.any():
        first = int(np.flatnonzero(bad)[0])
        problems.append(
            f"conservation fails at {int(bad.sum())} points, first point "
            f"{int(inst.points[first])}: {got[first]!r} != {inst.weights[first]!r}"
        )

    totals = np.bincount(clusters, weights=masses, minlength=k)
    kind = spec["type"]
    if kind == "balanced":
        lo, hi = np.asarray(spec["l"]), np.asarray(spec["u"])
        if np.any(totals < lo - SPEC_ATOL) or np.any(totals > hi + SPEC_ATOL):
            problems.append(f"cluster totals {totals.tolist()} leave [{lo.tolist()}, {hi.tolist()}]")
    elif kind == "profile":
        gamma = np.asarray(spec["gamma"])
        if np.any(np.abs(totals - gamma) > SPEC_ATOL):
            problems.append(f"cluster totals {totals.tolist()} != profile {gamma.tolist()}")
    elif kind == "fractions":
        alpha, beta = np.asarray(spec["alpha"]), np.asarray(spec["beta"])
        m = alpha.shape[1]
        labels = inst.labels[pos]
        t = np.zeros((k, m))
        np.add.at(t, (clusters, labels), masses)
        if np.any(t < alpha * totals[:, None] - SPEC_ATOL) or np.any(
            t > beta * totals[:, None] + SPEC_ATOL
        ):
            problems.append(f"label-cluster masses {t.tolist()} break the fraction bounds")
    elif kind != "unconstrained":
        problems.append(f"unknown spec type {kind!r}")

    d = _distances(inst, points, centers[clusters], inst.z)
    recomputed = math.fsum((masses * d).tolist())
    if not abs(recomputed - cost) <= COST_RTOL * abs(cost):
        problems.append(f"recomputed cost {recomputed!r} != reported cost_on_full {cost!r}")
    return problems


def check_reference(ref: dict | None, centers, cost: float) -> list[str]:
    """Centers must match the recorded answer exactly, cost within 1e-9 relative."""
    if ref is None:
        return ["no recorded reference answer for this case"]
    problems = []
    if [int(c) for c in centers] != ref["centers"]:
        problems.append(f"centers {list(centers)} != reference {ref['centers']}")
    if not abs(cost - ref["cost"]) <= COST_RTOL * abs(ref["cost"]):
        problems.append(f"cost {cost!r} != reference {ref['cost']!r}")
    return problems
