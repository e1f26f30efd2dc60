"""Clustering instances: metric spaces, weighted point sets, profiles, assignments.

Points and facilities index into one shared :class:`MetricSpace`, so the
special case where centers may open at input points is expressed by the
facility list containing the point indices. All types are immutable after
construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

REL_TOL = 1e-9
SYMMETRY_TOL = 1e-12
TRIANGLE_TOL = 1e-9
TRIANGLE_SAMPLES = 1000


class ValidationError(ValueError):
    """An instance, profile, assignment, or input file violates its invariants."""


def _float_array(values, name: str, ndim: int | None = None) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def _index_array(values) -> np.ndarray:
    return np.atleast_1d(np.asarray(values, dtype=np.int64))


def _positions(index: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key within ``index``, or -1 for a key it lacks."""
    if index.size == 0:
        return np.full(keys.size, -1, dtype=np.int64)
    order = np.argsort(index, kind="stable")
    pos = order[np.searchsorted(index, keys, sorter=order).clip(max=index.size - 1)]
    return np.where(index[pos] == keys, pos, -1)


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """Distance oracle over a shared index set covering points and facilities.

    Exactly one of ``coords`` (Euclidean kind, one row per index) or
    ``matrix`` (explicit kind, full symmetric matrix) is set. Use the
    :meth:`euclidean` / :meth:`explicit` constructors rather than the raw
    dataclass.
    """

    coords: Optional[np.ndarray] = None
    matrix: Optional[np.ndarray] = None

    @staticmethod
    def euclidean(coords) -> "MetricSpace":
        arr = _float_array(coords, "coordinates", ndim=2)
        if arr.shape[1] < 1:
            raise ValidationError("coordinates need at least one dimension")
        arr = arr.copy()
        arr.setflags(write=False)
        return MetricSpace(coords=arr)

    @staticmethod
    def explicit(matrix, triangle_check: str = "sampled") -> "MetricSpace":
        """Build an explicit metric from a symmetric nonnegative matrix.

        ``triangle_check`` is one of ``"sampled"`` (probabilistic, warns on
        violation), ``"full"`` (exhaustive O(n^3), raises), or ``"off"``.
        Symmetry and zero diagonal are always enforced.
        """
        m = _float_array(matrix, "distance matrix", ndim=2)
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"distance matrix must be square, got {m.shape}")
        if np.any(m < 0):
            raise ValidationError("distance matrix has negative entries")
        if np.any(np.abs(np.diagonal(m)) > 0):
            raise ValidationError("distance matrix diagonal must be zero")
        if np.max(np.abs(m - m.T), initial=0.0) > SYMMETRY_TOL:
            raise ValidationError("distance matrix is not symmetric within 1e-12")
        m = m.copy()
        m.setflags(write=False)
        space = MetricSpace(matrix=m)
        if triangle_check == "sampled":
            bad = space._sample_triangle_violations()
            if bad:
                warnings.warn(
                    f"explicit metric: {bad} of {TRIANGLE_SAMPLES} sampled triples "
                    "violate the triangle inequality",
                    stacklevel=2,
                )
        elif triangle_check == "full":
            if not space._triangle_holds_everywhere():
                raise ValidationError("distance matrix violates the triangle inequality")
        elif triangle_check != "off":
            raise ValidationError(f"unknown triangle_check mode {triangle_check!r}")
        return space

    @property
    def is_euclidean(self) -> bool:
        return self.coords is not None

    @property
    def size(self) -> int:
        if self.coords is not None:
            return self.coords.shape[0]
        return self.matrix.shape[0]

    def _check_index(self, idx: int) -> None:
        if not 0 <= idx < self.size:
            raise IndexError(f"index {idx} out of range for space of size {self.size}")

    def distance(self, a: int, b: int) -> float:
        self._check_index(a)
        self._check_index(b)
        if self.coords is not None:
            return float(np.linalg.norm(self.coords[a] - self.coords[b]))
        return float(self.matrix[a, b])

    def pairwise(self, rows, cols) -> np.ndarray:
        """All distances between two index arrays, shape (len(rows), len(cols))."""
        rows = _index_array(rows)
        cols = _index_array(cols)
        if self.coords is not None:
            diff = self.coords[rows][:, None, :] - self.coords[cols][None, :, :]
            return np.linalg.norm(diff, axis=2)
        return self.matrix[np.ix_(rows, cols)]

    def distance_pairs(self, a, b) -> np.ndarray:
        """Elementwise distances d(a[i], b[i])."""
        a = _index_array(a)
        b = _index_array(b)
        if self.coords is not None:
            return np.linalg.norm(self.coords[a] - self.coords[b], axis=1)
        return self.matrix[a, b]

    def augmented_with(self, coords) -> tuple["MetricSpace", np.ndarray]:
        """Append synthetic Euclidean locations; returns (new space, their indices)."""
        if self.coords is None:
            raise ValidationError("only Euclidean spaces can be augmented with coordinates")
        extra = _float_array(coords, "synthetic coordinates", ndim=2)
        if extra.shape[1] != self.coords.shape[1]:
            raise ValidationError(
                f"synthetic coordinates have dimension {extra.shape[1]}, "
                f"the space has {self.coords.shape[1]}"
            )
        merged = np.vstack([self.coords, extra])
        new_ids = np.arange(self.size, self.size + extra.shape[0], dtype=np.int64)
        return MetricSpace.euclidean(merged), new_ids

    def _sample_triangle_violations(self, samples: int = TRIANGLE_SAMPLES) -> int:
        n = self.size
        if n < 3:
            return 0
        rng = np.random.default_rng(0)
        a = rng.integers(0, n, samples)
        b = rng.integers(0, n, samples)
        c = rng.integers(0, n, samples)
        lhs = self.matrix[a, c]
        rhs = self.matrix[a, b] + self.matrix[b, c]
        return int(np.sum(lhs > rhs + TRIANGLE_TOL))

    def _triangle_holds_everywhere(self) -> bool:
        m = self.matrix
        # d(a,c) <= min_b d(a,b) + d(b,c), via broadcasting over the midpoint.
        through = (m[:, :, None] + m[None, :, :]).min(axis=1)
        return bool(np.all(m <= through + TRIANGLE_TOL))


@dataclass(frozen=True, eq=False)
class WeightedPoints:
    """A weighted subset of a metric space, optionally labeled.

    This is the ``B`` argument of every cost functional: either the full
    instance (X, w) or a coreset summary (S, v).
    """

    space: MetricSpace
    indices: np.ndarray
    weights: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "indices", _index_array(self.indices))
        object.__setattr__(self, "weights", _float_array(self.weights, "weights", ndim=1))
        if self.labels is not None:
            object.__setattr__(self, "labels", _index_array(self.labels))
            if self.labels.shape != self.indices.shape:
                raise ValidationError("labels must align with point indices")
        if self.indices.shape != self.weights.shape:
            raise ValidationError("weights must align with point indices")

    @property
    def size(self) -> int:
        return int(self.indices.size)

    @property
    def total_weight(self) -> float:
        return float(math.fsum(self.weights.tolist()))

    @property
    def n_labels(self) -> int:
        if self.labels is None:
            return 1
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def label_weight(self, label: int) -> float:
        if self.labels is None:
            raise ValidationError("point set carries no labels")
        return float(math.fsum(self.weights[self.labels == label].tolist()))


@dataclass(frozen=True, eq=False)
class ClusteringInstance:
    """A constrained-clustering instance (X, F, w, k) with power z and optional labels."""

    space: MetricSpace
    points: np.ndarray
    weights: np.ndarray
    facilities: np.ndarray
    k: int
    z: int = 1
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "points", _index_array(self.points))
        object.__setattr__(self, "weights", _float_array(self.weights, "weights", ndim=1))
        object.__setattr__(self, "facilities", _index_array(self.facilities))
        if self.labels is not None:
            object.__setattr__(self, "labels", _index_array(self.labels))

    @property
    def n(self) -> int:
        return int(self.points.size)

    @property
    def n_labels(self) -> int:
        if self.labels is None:
            return 1
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def total_weight(self) -> float:
        return float(math.fsum(self.weights.tolist()))

    def weighted_points(self) -> WeightedPoints:
        return WeightedPoints(self.space, self.points, self.weights, self.labels)

    def points_are_facilities(self) -> bool:
        """True when every point index is also a facility index (the X subset of F regime)."""
        return bool(np.isin(self.points, self.facilities).all())

    def with_z(self, z: int) -> "ClusteringInstance":
        return ClusteringInstance(
            self.space, self.points, self.weights, self.facilities, self.k, z, self.labels
        )


def validate_instance(inst: ClusteringInstance) -> list[str]:
    """Collect invariant violations; an empty list means the instance is valid."""
    report: list[str] = []
    size = inst.space.size
    if inst.points.size == 0:
        report.append("instance has no points")
    if inst.weights.shape != inst.points.shape:
        report.append("weights do not align with points")
    elif np.any(inst.weights <= 0):
        report.append("nonpositive point weight")
    if inst.facilities.size == 0:
        report.append("instance has no facilities")
    if inst.k < 1:
        report.append("k must be positive")
    elif inst.k > inst.facilities.size:
        report.append(f"k={inst.k} exceeds facility count {inst.facilities.size}")
    if inst.z not in (1, 2):
        report.append(f"z must be 1 or 2, got {inst.z}")
    for name, arr in (("point", inst.points), ("facility", inst.facilities)):
        if arr.size and (arr.min() < 0 or arr.max() >= size):
            report.append(f"{name} index out of range for metric space of size {size}")
    if len(np.unique(inst.points)) != inst.points.size:
        report.append("duplicate point indices")
    if len(np.unique(inst.facilities)) != inst.facilities.size:
        report.append("duplicate facility indices")
    if inst.labels is not None:
        if inst.labels.shape != inst.points.shape:
            report.append("labels do not align with points")
        elif inst.labels.size and inst.labels.min() < 0:
            report.append("negative label")
    return report


@dataclass(frozen=True, eq=False)
class ClusterProfile:
    """Per-cluster weight targets: shape (k,) plain, or (k, m) labeled with
    entry [i, j] the weight of label j routed to cluster i."""

    values: np.ndarray

    def __post_init__(self):
        arr = _float_array(self.values, "profile values")
        if arr.ndim not in (1, 2):
            raise ValidationError("profile must be a vector (plain) or k x m matrix (labeled)")
        if np.any(arr < 0):
            raise ValidationError("profile entries must be nonnegative")
        object.__setattr__(self, "values", arr)

    @property
    def is_labeled(self) -> bool:
        return self.values.ndim == 2

    @property
    def k(self) -> int:
        return int(self.values.shape[0])

    @property
    def m(self) -> int:
        return int(self.values.shape[1]) if self.is_labeled else 1

    def check_consistency(self, B: WeightedPoints) -> list[str]:
        """Profile totals must match the point-set weight (per label when labeled)."""
        report = []
        if self.is_labeled:
            if B.labels is None:
                return ["labeled profile against an unlabeled point set"]
            if self.m < B.n_labels:
                return [f"profile has {self.m} label columns, instance has {B.n_labels} labels"]
            for j in range(self.m):
                target = B.label_weight(j) if j < B.n_labels else 0.0
                got = float(math.fsum(self.values[:, j].tolist()))
                if abs(got - target) > REL_TOL * max(1.0, abs(target)):
                    report.append(
                        f"label {j}: profile total {got:.12g} != label weight {target:.12g}"
                    )
        else:
            target = B.total_weight
            got = float(math.fsum(self.values.tolist()))
            if abs(got - target) > REL_TOL * max(1.0, abs(target)):
                report.append(f"profile total {got:.12g} != total weight {target:.12g}")
        return report


@dataclass(frozen=True, eq=False)
class Assignment:
    """Sparse fractional assignment: parallel arrays of (point index, cluster, mass)."""

    points: np.ndarray
    clusters: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _index_array(self.points))
        object.__setattr__(self, "clusters", _index_array(self.clusters))
        object.__setattr__(self, "masses", _float_array(self.masses, "masses", ndim=1))
        if not (self.points.shape == self.clusters.shape == self.masses.shape):
            raise ValidationError("assignment arrays must be parallel")
        if np.any(self.masses < 0):
            raise ValidationError("assignment has a negative mass")

    def __len__(self) -> int:
        return int(self.points.size)

    def entries(self) -> Iterator[tuple[int, int, float]]:
        for p, c, m in zip(self.points.tolist(), self.clusters.tolist(), self.masses.tolist()):
            yield p, c, m

    def cluster_totals(self, k: int) -> np.ndarray:
        return np.bincount(self.clusters, weights=self.masses, minlength=k)[:k]

    def label_cluster_mass(self, B: WeightedPoints, k: int) -> np.ndarray:
        """Mass matrix t[i, j] = weight of label j assigned to cluster i."""
        if B.labels is None:
            raise ValidationError("point set carries no labels")
        pos = _positions(B.indices, self.points)
        if np.any(pos < 0):
            outside = np.unique(self.points[pos < 0])[:5].tolist()
            raise ValidationError(f"assignment touches points outside the set: {outside}")
        if np.any(self.clusters >= k):
            raise ValidationError(f"assignment references a cluster index beyond k={k}")
        m = B.n_labels
        cells = self.clusters * m + B.labels[pos]
        out = np.bincount(cells, weights=self.masses, minlength=k * m)
        return out.astype(np.float64, copy=False).reshape(k, m)

    def check_conservation(self, B: WeightedPoints, rel_tol: float = REL_TOL) -> list[str]:
        pos = _positions(B.indices, self.points)
        inside = pos >= 0
        got = np.bincount(pos[inside], weights=self.masses[inside], minlength=B.size)
        w = B.weights
        bad = np.abs(got - w) > rel_tol * np.maximum(np.abs(w), 1e-300)
        report = [
            f"point {p}: assigned mass {g:.12g} != weight {x:.12g}"
            for p, g, x in zip(B.indices[bad].tolist(), got[bad].tolist(), w[bad].tolist())
        ]
        if not inside.all():
            extra = np.unique(self.points[~inside])[:5].tolist()
            report.append(f"assignment touches points outside the set: {extra}")
        return report
