"""Candidate-center set construction via adaptive power-distance sampling.

The metric-mode set J mixes uniform and D^z draws around an adaptive seed
and maps each drawn point to its nearest facility; only drawn points are
looked up, never all n. The Euclidean k-means mode instead emits means of
small multisets drawn from a sampled base, as synthetic center coordinates.

Every weighted draw is an inverse-CDF draw (:func:`_draw`): the indices
``Generator.choice`` would return for the same stream, without its
validation of ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np
from numpy.random import SeedSequence, default_rng

from .model import ClusteringInstance, ValidationError


@dataclass(frozen=True)
class CandidateParams:
    """Tunables for candidate construction; None fields resolve to defaults."""

    eta: Optional[int] = None
    mix: float = 0.5
    seed: int = 0
    euclidean_subset_size: Optional[int] = None
    euclidean_base_size: Optional[int] = None
    max_euclidean_candidates: int = 2000

    def __post_init__(self):
        if not 0.0 <= self.mix <= 1.0:
            raise ValidationError("mix must lie in [0, 1]")
        if self.eta is not None and self.eta < 1:
            raise ValidationError("eta must be positive")
        for name in ("euclidean_subset_size", "euclidean_base_size"):
            size = getattr(self, name)
            if size is not None and size < 1:
                raise ValidationError(f"{name} must be None or at least 1, got {size}")
        cap = self.max_euclidean_candidates
        if cap < 1:
            raise ValidationError(f"max_euclidean_candidates must be at least 1, got {cap}")


def default_eta(k: int, eps: float) -> int:
    return math.ceil((k / eps) ** 2 * math.log(2 + k / eps))


def default_subset_size(eps: float) -> int:
    return math.ceil(2.0 / eps)


def resolve_eta(params: CandidateParams, k: int, eps: float) -> int:
    eta = params.eta if params.eta is not None else default_eta(k, eps)
    return max(eta, k)


# A seeding round that has failed this many redraws checks once whether any
# redraw can succeed at all.
_REDRAWS_BEFORE_CHECK = 8


def _draw(rng: np.random.Generator, p: np.ndarray, size=None):
    """Indices drawn with probabilities ``p``: ``rng.choice(p.size, size, p=p)``
    bit for bit, and the same values taken from the stream, without
    ``choice``'s O(n) validation of ``p``. Callers build ``p`` from positive
    weights with a positive total, so ``p`` is nonnegative and sums to 1
    within rounding; an index with ``p == 0`` is never drawn."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _rng_from(seed) -> np.random.Generator:
    if isinstance(seed, SeedSequence):
        return default_rng(seed)
    return default_rng(SeedSequence(int(seed)))


def _nearest_facilities(inst: ClusteringInstance, positions) -> np.ndarray:
    """The lowest-id nearest facility of each point at the given positions."""
    fac = np.sort(inst.facilities)
    d = inst.space.pairwise(inst.points[positions], fac)
    return fac[np.argmin(d, axis=1)]


def dz_seed(inst: ClusteringInstance, t: int, z: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive seeding: draw points with probability proportional to weight
    times current power distance, mapping each draw to a fresh nearest facility.

    Returns the t chosen facilities and the (n, t) D^z table whose column i
    holds every point's distance to the i-th choice, raised to z. The table
    is filled one column per choice, as the seeding needs it, and the
    seeding's candidate draws and rings read it rather than computing a
    distance again.

    Deterministic given the seed. After 100 duplicate redraws the
    farthest-point facility (max-min distance to the chosen set, ties to the
    lowest index) is taken instead. A round whose first
    ``_REDRAWS_BEFORE_CHECK`` redraws all repeat a facility checks once
    whether every point it can draw maps to a chosen facility, and if so
    takes the fallback at once. That picks what the full 100 redraws pick:
    each such point's D^z is already its nearest facility's, which no later
    pick lowers, so every later round draws with the same weights and fails
    too, and the stream serves this seeding alone.
    """
    if t > inst.facilities.size:
        raise ValidationError(f"cannot seed {t} centers from {inst.facilities.size} facilities")
    rng = _rng_from(seed)
    w = inst.weights
    chosen: list[int] = []
    chosen_set: set[int] = set()
    # Row i is column i of the returned table, so each row is written contiguously.
    table = np.empty((t, inst.n))
    mind: Optional[np.ndarray] = None

    while len(chosen) < t:
        mass = w if mind is None else w * mind
        total = mass.sum()
        if not total > 0:
            mass, total = w, w.sum()
        probs = mass / total
        picked = None
        for attempt in range(100):
            if attempt == _REDRAWS_BEFORE_CHECK and np.isin(
                _nearest_facilities(inst, np.flatnonzero(mass > 0)), chosen
            ).all():
                break  # no point the round can draw maps to a new facility
            x_pos = int(_draw(rng, probs))
            f = int(_nearest_facilities(inst, [x_pos])[0])
            if f not in chosen_set:
                picked = f
                break
        if picked is None:
            remaining = inst.facilities[~np.isin(inst.facilities, chosen)]
            if chosen:
                d = inst.space.pairwise(remaining, np.asarray(chosen, dtype=np.int64))
                far = d.min(axis=1)
                best = far.max()
                picked = int(remaining[far >= best].min())
            else:
                picked = int(remaining.min())
        column = table[len(chosen)]
        column[:] = inst.space.pairwise(inst.points, [picked])[:, 0] ** z
        mind = column if mind is None else np.minimum(mind, column)
        chosen.append(picked)
        chosen_set.add(picked)
    return np.asarray(chosen, dtype=np.int64), table.T


def _mixed_point_draws(
    inst: ClusteringInstance,
    count: int,
    mix: float,
    table: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Positions of ``count`` points, each drawn uniformly-by-weight with
    probability ``mix`` and by weighted power distance to the nearest seed
    center otherwise, read from the seeding's D^z ``table``.

    The row minimum of D^z values is the D^z of the row's minimum distance
    bit for bit, since rounding is monotone."""
    w = inst.weights
    uniform_p = w / w.sum()
    mass = w * table.min(axis=1)
    total = mass.sum()
    dz_p = mass / total if total > 0 else uniform_p
    flips = rng.random(count) < mix
    n_uni = int(flips.sum())
    draws = np.empty(count, dtype=np.int64)
    draws[flips] = _draw(rng, uniform_p, n_uni)
    draws[~flips] = _draw(rng, dz_p, count - n_uni)
    return draws


def build_candidates_metric(
    inst: ClusteringInstance, eps: float, params: CandidateParams
) -> np.ndarray:
    """The candidate set J: seed facilities plus nearest facilities of eta
    sampled points. Sorted, deduplicated; |J| <= eta + k."""
    eta = resolve_eta(params, inst.k, eps)
    seed_centers, table = dz_seed(
        inst, inst.k, inst.z, SeedSequence(int(params.seed), spawn_key=(0,))
    )
    rng = default_rng(SeedSequence(int(params.seed), spawn_key=(1,)))
    draws = _mixed_point_draws(inst, eta, params.mix, table, rng)
    j = np.union1d(seed_centers, _nearest_facilities(inst, draws))
    assert j.size <= eta + inst.k
    return j


def _unrank_multiset(rank: int, n_items: int, size: int) -> list[int]:
    """rank -> the rank-th multiset (nondecreasing index tuple), lexicographic."""
    out = []
    lo = 0
    remaining = size
    r = rank
    while remaining > 0:
        for item in range(lo, n_items):
            block = math.comb(n_items - item + remaining - 2, remaining - 1)
            if r < block:
                out.append(item)
                lo = item
                remaining -= 1
                break
            r -= block
        else:
            raise ValueError("rank out of range")
    return out


def build_candidates_euclidean_means(
    inst: ClusteringInstance, eps: float, params: CandidateParams
) -> np.ndarray:
    """Candidate centers for Euclidean k-means: means of every multiset of a
    sampled base, as synthetic coordinates.

    The multiset count grows like (base + subset)^subset; above
    ``max_euclidean_candidates`` a uniform sample of multiset ranks is taken.
    """
    if not inst.space.is_euclidean:
        raise ValidationError("Euclidean candidate mode needs a Euclidean space")
    if inst.z != 2:
        raise ValidationError("Euclidean mean candidates apply to k-means (z=2) only")
    subset = params.euclidean_subset_size or default_subset_size(eps)
    base_size = params.euclidean_base_size or max(2 * subset, math.ceil(inst.k / eps))
    _, table = dz_seed(inst, inst.k, inst.z, SeedSequence(int(params.seed), spawn_key=(0,)))
    rng = default_rng(SeedSequence(int(params.seed), spawn_key=(2,)))
    base_pos = _mixed_point_draws(inst, base_size, params.mix, table, rng)
    base = inst.space.coords[inst.points[base_pos]]

    count = math.comb(base_size + subset - 1, subset)
    cap = params.max_euclidean_candidates
    if count <= cap:
        tuples = combinations_with_replacement(range(base_size), subset)
        means = np.array([base[list(tup)].mean(axis=0) for tup in tuples])
    elif count < 2**62:
        ranks: set[int] = set()
        while len(ranks) < cap:
            need = cap - len(ranks)
            ranks.update(int(r) for r in rng.integers(0, count, size=need))
        means = np.array(
            [base[_unrank_multiset(r, base_size, subset)].mean(axis=0) for r in sorted(ranks)]
        )
    else:
        # Astronomically many multisets; sorted i.i.d. draws approximate uniformity.
        means = np.array(
            [base[np.sort(rng.integers(0, base_size, size=subset))].mean(axis=0) for _ in range(cap)]
        )
    return np.unique(means, axis=0)
