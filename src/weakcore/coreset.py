"""Weighted summaries via ring decomposition and their composition with the
candidate set into a universal weak coreset.

Each approximate cluster splits into an inner ring (cost at most the cluster
average) and geometrically growing bands. Small rings are taken whole;
large rings contribute a fixed number of weight-proportional draws, each
carrying ring weight / sample count, so ring weight is conserved exactly.

Every ring is a slice of one stable sort of the points by (cluster, level),
and only a sampled ring sets up a random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.random import SeedSequence, default_rng

from .candidates import (
    CandidateParams,
    _draw,
    build_candidates_euclidean_means,
    build_candidates_metric,
    dz_seed,
    resolve_eta,
)
from .model import REL_TOL, ClusteringInstance, ValidationError, WeightedPoints, _positions, _row_argmin


@dataclass(frozen=True, eq=False)
class Ring:
    """One distance-cost band of one cluster.

    ``indices`` are the members' point ids and ``weights`` their weights, in
    the same order, so sampling a ring looks nothing up. ``band`` is in D^z
    cost units: level 0 covers [0, band_hi], level j >= 1 covers
    (band_lo, band_hi].
    """

    cluster: int
    level: int
    indices: np.ndarray
    weights: np.ndarray
    band: tuple[float, float]

    @cached_property
    def weight(self) -> float:
        """The members' total weight, summed exactly."""
        return float(math.fsum(self.weights.tolist()))


@dataclass(frozen=True, eq=False)
class RingDecomposition:
    centers: np.ndarray
    rings: list[Ring]

    @property
    def ring_count(self) -> int:
        return len(self.rings)


@dataclass(frozen=True)
class SummaryParams:
    """Per-ring sampling controls.

    When ``sample_count`` is None the budget follows
    ceil(c0 * eps^(-2z) * (k ln|J| + ln(R / delta))) with R the realized ring
    count; an explicit value makes the budget independent of the data.
    """

    sample_count: Optional[int] = None
    c0: float = 4.0
    delta: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if self.sample_count is not None and self.sample_count < 1:
            raise ValidationError("sample_count must be positive")
        if not (math.isfinite(self.c0) and self.c0 > 0):
            raise ValidationError(f"c0 must be finite and positive, got {self.c0}")


def resolve_sample_count(
    params: SummaryParams, k: int, eps: float, z: int, j_size: int, ring_count: int
) -> int:
    if params.sample_count is not None:
        return params.sample_count
    j_size = max(j_size, 1)
    ring_count = max(ring_count, 1)
    raw = params.c0 * eps ** (-2 * z) * (k * math.log(j_size) + math.log(ring_count / params.delta))
    return max(1, math.ceil(raw))


def ring_decomposition(inst: ClusteringInstance, centers, table: np.ndarray) -> RingDecomposition:
    """Partition points around seed centers into geometric cost bands.

    ``table`` is the (n, len(centers)) D^z table of the instance's points to
    the centers, as :func:`dz_seed` returns it with its centers; no distance
    is computed here. Points go to their nearest center (ties to the lowest
    cluster index). With per-cluster average cost d_avg, level 0 holds costs
    <= d_avg and level j holds (2^(j-1) d_avg, 2^j d_avg]. A zero-average
    cluster is one [0, 0] ring.

    Rings come in (cluster, level) order, each holding its members in point
    order: they are slices of one stable sort of the points by that key.
    """
    centers = np.asarray(centers, dtype=np.int64)
    nearest = _row_argmin(table)[0]
    levels = np.zeros(inst.n, dtype=np.int64)
    avgs = {}
    for i in np.flatnonzero(np.bincount(nearest)).tolist():
        members = np.flatnonzero(nearest == i)
        costs = table[members, i]
        weights = inst.weights[members]
        avg = avgs[i] = float(np.dot(weights, costs) / weights.sum())
        if avg <= 0.0:
            continue
        above = costs > avg
        # The floor of 1 guards against log rounding right at a band edge.
        levels[members[above]] = np.maximum(np.ceil(np.log2(costs[above] / avg)).astype(np.int64), 1)
    width = int(levels.max(initial=0)) + 1
    key = nearest * width + levels
    # A small unsigned key lets numpy's stable sort run as a radix sort.
    order = np.argsort(key.astype(np.min_scalar_type(int(key.max(initial=0)))), kind="stable")
    key = key[order]
    cuts = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), inst.n]
    ids, weights = inst.points[order], inst.weights[order]
    rings: list[Ring] = []
    for lo, hi in zip(cuts, cuts[1:]):
        i, lvl = divmod(int(key[lo]), width)
        avg = avgs[i]
        if avg <= 0.0:
            band = (0.0, 0.0)
        else:
            band = (0.0, avg) if lvl == 0 else (2.0 ** (lvl - 1) * avg, 2.0**lvl * avg)
        rings.append(Ring(i, lvl, ids[lo:hi], weights[lo:hi], band))
    return RingDecomposition(centers=centers, rings=rings)


@dataclass(frozen=True, eq=False)
class SummaryResult:
    indices: np.ndarray
    weights: np.ndarray
    sample_count: int
    ring_count: int


def _sample_ring(ring: Ring, s: int, seed: int, tag: int):
    """A ring's members whole when it has at most ``s``, else ``s``
    weight-proportional draws on the ring's own stream, keyed by ``(1, tag,
    cluster, level)`` under ``seed`` and set up only here."""
    members, w = ring.indices, ring.weights
    if members.size <= s:
        return members, w
    rng = default_rng(SeedSequence(seed, spawn_key=(1, tag, ring.cluster, ring.level)))
    counts = np.bincount(_draw(rng, w / w.sum(), s))
    picked = np.flatnonzero(counts)
    values = counts[picked] * (ring.weight / s)
    # Absorb float residual so the ring weight is conserved exactly.
    values[np.argmax(values)] += ring.weight - math.fsum(values.tolist())
    return members[picked], values


def _label_classes(inst: ClusteringInstance):
    """(spawn-key tag, unlabeled sub-instance) per nonempty label class: tag 0
    for the whole of an unlabeled instance, tag j + 1 for label j."""
    if inst.labels is None:
        yield 0, inst
        return
    for j in range(inst.n_labels):
        mask = inst.labels == j
        if mask.any():
            yield j + 1, ClusteringInstance(
                inst.space, inst.points[mask], inst.weights[mask], inst.facilities, inst.k, inst.z
            )


def build_summary(inst: ClusteringInstance, J, eps: float, params: SummaryParams) -> SummaryResult:
    """The weighted summary S: per label class (the whole instance when it is
    unlabeled), per-ring weight-proportional sampling around an adaptive
    seed, take-all for small rings. Each class's weight is conserved.

    ``sample_count`` is the largest per-class budget, ``ring_count`` the sum."""
    j_size = J if isinstance(J, int) else len(J)
    if j_size < 1:
        raise ValidationError("candidate set J must be nonempty")
    parts_idx = []
    parts_w = []
    sample_count = ring_count = 0
    for tag, sub in _label_classes(inst):
        seed_centers, table = dz_seed(
            sub, sub.k, sub.z, SeedSequence(int(params.seed), spawn_key=(0, tag))
        )
        decomp = ring_decomposition(sub, seed_centers, table)
        del table  # freed before the next class's seeding allocates its own
        s = resolve_sample_count(params, sub.k, eps, sub.z, j_size, decomp.ring_count)
        for ring in decomp.rings:
            idx, w = _sample_ring(ring, s, int(params.seed), tag)
            parts_idx.append(idx)
            parts_w.append(w)
        sample_count = max(sample_count, s)
        ring_count += decomp.ring_count
    indices = np.concatenate(parts_idx)
    weights = np.concatenate(parts_w)
    order = np.argsort(indices, kind="stable")
    return SummaryResult(indices[order], weights[order], sample_count, ring_count)


# Not a second code path; kept because perfbench's tracer hooks coreset.build_summary_labeled.
build_summary_labeled = build_summary


@dataclass(frozen=True, eq=False)
class WeakCoreset:
    """The compressed instance: candidate centers J plus weighted summary (S, v).

    Metric modes store facility indices in ``J``; the Euclidean k-means mode
    stores synthetic coordinates in ``J_coords`` instead.
    """

    S: np.ndarray
    v: np.ndarray
    alpha: float
    z: int
    epsilon: float
    delta: float
    seed: int
    mode: str
    J: Optional[np.ndarray] = None
    J_coords: Optional[np.ndarray] = None
    info: dict = field(default_factory=dict)

    @property
    def j_size(self) -> int:
        return int(self.J.size) if self.J is not None else int(self.J_coords.shape[0])

    def summary_points(self, inst: ClusteringInstance) -> WeightedPoints:
        """(S, v) on the instance's space, carrying the instance's labels.

        Raises :class:`ValidationError` when S holds an id that is not one
        of the instance's points."""
        pos = _positions(inst.points, self.S)
        if np.any(pos < 0):
            outside = np.unique(self.S[pos < 0])[:5].tolist()
            raise ValidationError(f"coreset S holds ids that are not instance points: {outside}")
        labels = inst.labels[pos] if inst.labels is not None else None
        return WeightedPoints(inst.space, self.S, self.v, labels)

    def bind(
        self, inst: ClusteringInstance, z: int
    ) -> tuple[np.ndarray, WeightedPoints, WeightedPoints]:
        """(candidate ids, summary, full data) for scoring centers on ``inst``
        under the cost exponent ``z``.

        Both point sets live on the space the candidate ids index; in
        Euclidean mode that is the instance's space augmented once with
        ``J_coords``. Raises :class:`ValidationError` when ``z`` is not the
        coreset's z, when a summary weight v is not positive and finite,
        when S is not a subset of the instance's points, when the weight of
        S differs from the instance's (per label on a labeled instance) by
        more than ``REL_TOL`` relative, when J is not a subset of its
        facilities, or when ``J_coords`` has another dimension than its
        space."""
        if z != self.z:
            raise ValidationError(f"coreset was built for z={self.z}, scored with z={z}")
        bad = self.v[~(np.isfinite(self.v) & (self.v > 0))]
        if bad.size:
            raise ValidationError(
                f"coreset summary weights v must be positive and finite: {bad[:5].tolist()}"
            )
        summary = self.summary_points(inst)
        full = inst.weighted_points()
        got, want = _label_totals(summary, inst.n_labels), _label_totals(full, inst.n_labels)
        if np.any(np.abs(got - want) > REL_TOL * np.maximum(1.0, np.abs(want))):
            raise ValidationError(
                f"coreset summary weight totals {got.tolist()} do not match the instance's "
                f"{want.tolist()}"
            )
        if self.J is not None:
            outside = self.J[_positions(inst.facilities, self.J) < 0]
            if outside.size:
                raise ValidationError(
                    f"coreset J holds ids that are not instance facilities: "
                    f"{np.unique(outside)[:5].tolist()}"
                )
            return self.J, summary, full
        space, candidate_ids = inst.space.augmented_with(self.J_coords)
        return (
            candidate_ids,
            WeightedPoints(space, summary.indices, summary.weights, summary.labels),
            WeightedPoints(space, full.indices, full.weights, full.labels),
        )


def _label_totals(B: WeightedPoints, m: int) -> np.ndarray:
    """Weight per label, or the total weight as one entry when B has no labels."""
    labels = B.labels if B.labels is not None else np.zeros(B.size, dtype=np.int64)
    return np.bincount(labels, B.weights, minlength=m)


def universal_alpha(z: int, points_are_facilities: bool) -> float:
    base = 3.0 if z == 1 else 9.0
    if points_are_facilities:
        base = 2.0 if z == 1 else 4.0
    return base


def identity_weak_coreset(inst: ClusteringInstance) -> WeakCoreset:
    """The degenerate compression S=X, v=w, J=F; exact by construction."""
    return WeakCoreset(
        S=inst.points.copy(),
        v=inst.weights.copy(),
        alpha=universal_alpha(inst.z, inst.points_are_facilities()),
        z=inst.z,
        epsilon=0.0,
        delta=0.0,
        seed=0,
        mode="identity",
        J=np.sort(inst.facilities),
        info={"identity": True},
    )


def split_seed(seed: int) -> tuple[int, int]:
    """The candidate and summary seeds that one coreset seed stands for."""
    return tuple(int(SeedSequence(int(seed), spawn_key=(i,)).generate_state(1)[0]) for i in (0, 1))


def build_universal_weak_coreset(
    inst: ClusteringInstance,
    eps: float,
    delta: float,
    mode: str = "metric",
    seed: int = 0,
    candidate_params: Optional[CandidateParams] = None,
    summary_params: Optional[SummaryParams] = None,
) -> WeakCoreset:
    """Compose J and (S, v) into the full compression for one instance.

    ``mode`` is "metric" (alpha 3/9, improving to 2/4 when every point is
    also a facility) or "euclidean_kmeans" (alpha 1, z=2 only).
    """
    if mode not in ("metric", "euclidean_kmeans"):
        raise ValidationError(f"unknown coreset mode {mode!r}")
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"epsilon must be finite and positive, got {eps}")
    cand_seed, summ_seed = split_seed(seed)
    cparams = candidate_params if candidate_params is not None else CandidateParams(seed=cand_seed)
    sparams = summary_params if summary_params is not None else SummaryParams(
        seed=summ_seed, delta=delta
    )

    if mode == "metric":
        j_ids = build_candidates_metric(inst, eps, cparams)
        j_coords = None
        alpha = universal_alpha(inst.z, inst.points_are_facilities())
        j_size = int(j_ids.size)
    else:
        j_ids = None
        j_coords = build_candidates_euclidean_means(inst, eps, cparams)
        alpha = 1.0
        j_size = int(j_coords.shape[0])

    summary = build_summary(inst, j_size, eps, sparams)

    info = {
        "eta": resolve_eta(cparams, inst.k, eps),
        "mix": cparams.mix,
        "c0": sparams.c0,
        "ring_sample_count": summary.sample_count,
        "ring_count": summary.ring_count,
        "candidate_seed": cparams.seed,
        "summary_seed": sparams.seed,
    }
    return WeakCoreset(
        S=summary.indices,
        v=summary.weights,
        alpha=alpha,
        z=inst.z,
        epsilon=eps,
        delta=delta,
        seed=seed,
        mode=mode,
        J=j_ids,
        J_coords=j_coords,
        info=info,
    )
