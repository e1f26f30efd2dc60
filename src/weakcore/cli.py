"""Command-line surface: JSON file formats, synthetic instance generators,
and the generate / coreset / solve / oracle / verify commands.

Instance files are columnar: ``"points"`` holds a ``"weight"`` column, a
``"label"`` column on labeled instances, and either ``"coords"`` (Euclidean:
n * ``dim`` numbers, flat and row-major) or ``"index"`` (explicit: ids into
the row-major ``"distance_matrix"``). Each of these is written as a binary
column, ``{"dtype": ..., "base64": ...}``: the base64 text of its
little-endian bytes, ``"<f8"`` (float64) for ``weight``, ``coords`` and
``distance_matrix`` and ``"<i8"`` (int64) for ``label`` and ``index``, which
loads without a Python number per value. Facilities are rows, each a
``{"point": i}`` reference or a location of its own. Files whose columns are
text lists, and row-shaped files (one dict per point), still load, through
the same checks. Coreset and result files are row-shaped; their rows reach
the writer as :class:`Rows`, one array or list per field. Every file is the
text of ``json.dumps(sort_keys=True, indent=2)``: the stdlib writes it, and
:func:`dump_json` splices in the lists of scalars and the rows, rendered a
column at a time, each distinct value of an array column once.

Exit codes: 0 success (or verification pass), 1 verification FAIL,
2 infeasible, 3 validation, input or usage error, 4 resource ceiling exceeded
(a solver limit or out of memory), 5 solver error (a solve ended without a
valid optimality certificate), 6 internal error (any other exception).
Each error, and each warning (say, an explicit metric that breaks the
triangle inequality), is one stderr line.
"""

from __future__ import annotations

import argparse
import base64
import itertools
import json
import math
import os
import sys
import time
import uuid
import warnings
from contextlib import contextmanager
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

import numpy as np
from numpy.random import SeedSequence, default_rng

from .constraints import (
    Balanced,
    ConstraintSpec,
    FixedProfile,
    FractionBounds,
    Unconstrained,
    ldiversity_bounds,
)
from .coreset import SummaryParams, WeakCoreset, build_universal_weak_coreset, split_seed
from .candidates import CandidateParams
from .flowlp import Infeasible, SolverError, SolverLimit
from .meta import SolveResult, solve_constrained
from .model import ClusteringInstance, ClusterProfile, MetricSpace, ValidationError, validate_instance
from .model import _positions
from .oracle import DEFAULT_SOLVE_CEILING, brute_force_opt, verify_property_A, verify_property_B

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3
EXIT_CEILING = 4
EXIT_SOLVER = 5
EXIT_INTERNAL = 6

MAX_INSTANCE_BYTES = 100 * 1024 * 1024


# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------


class Rows:
    """A list of dicts held as its columns: ``Rows(point=[0, 1], mass=[1.0,
    0.5])`` is written as ``[{"mass": 1.0, "point": 0}, {"mass": 0.5, "point":
    1}]`` without building a dict per row. A column is a list, or an int64
    or float64 array, which is written as the list of its values."""

    def __init__(self, **columns):
        if len(set(map(len, columns.values()))) > 1:
            raise ValueError("row columns differ in length")
        self.columns = dict(sorted(columns.items()))

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def dicts(self) -> list:
        keys = list(self.columns)
        values = [col.tolist() if isinstance(col, np.ndarray) else col for col in self.columns.values()]
        return [dict(zip(keys, row)) for row in zip(*values)]


def _json_default(obj):
    """numpy values the json module does not take, and :class:`Rows` as its
    list of dicts; ``np.float64`` is a ``float`` and never reaches here."""
    if isinstance(obj, Rows):
        return obj.dicts()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_INDENT = "  "


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


_SCALAR_TEXT = {
    str: _quote,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _scalar_texts(values, types: set) -> Optional[list]:
    """The JSON text of each value when ``types``, the set of the values'
    types, holds only str, int, float, bool or None; otherwise None. A column
    of one type converts in one ``map``."""
    if types == {float} and math.isfinite(sum(values)):
        return list(map(float.__repr__, values))
    if not types <= _SCALAR_TEXT.keys():
        return None
    if len(types) == 1:
        return list(map(_SCALAR_TEXT[next(iter(types))], values))
    return [_SCALAR_TEXT[type(v)](v) for v in values]


def _array_texts(col: np.ndarray) -> list:
    """The JSON text of each value of an int64 or float64 array, each
    distinct value rendered once. Floats are told apart by their bits, so
    ``-0.0`` and ``0.0`` keep their own text."""
    key = col.view(np.int64)
    if col.dtype == np.int64:
        render = int.__repr__
    else:
        render = float.__repr__ if np.isfinite(col).all() else _float_text
    if (key[1:] > key[:-1]).all():  # strictly increasing, as point ids are: no value repeats
        return list(map(render, col.tolist()))
    distinct, rows = np.unique(key, return_inverse=True)
    return np.array(list(map(render, distinct.view(col.dtype).tolist())), dtype=object)[rows].tolist()


def _column_block(columns: dict, level: int) -> Optional[str]:
    """The text of the list at depth ``level`` whose rows ``columns`` (str key
    -> one column of n values, keys in sorted order) hold, each row a dict.

    An int64 or float64 array column renders each distinct value once (see
    :func:`_array_texts`); a list column converts in one ``map``. One join
    interleaves the columns with the fixed text around them. None when a
    column holds anything but str, int, float, bool or None."""
    texts_of = []
    for col in columns.values():
        if isinstance(col, np.ndarray) and col.dtype in (np.int64, np.float64):
            texts = _array_texts(col)
        else:
            texts = _scalar_texts(col, set(map(type, col)))
        if texts is None:
            return None
        texts_of.append(texts)
    row_pad, key_pad = "\n" + _INDENT * (level + 1), "\n" + _INDENT * (level + 2)
    literals = [("," if i else "{") + key_pad + _quote(key) + ": " for i, key in enumerate(columns)]
    close = "\n" + _INDENT * (level + 1) + "}"
    n, stride = len(texts_of[0]), 2 * len(texts_of) + 1
    out = [close + "," + row_pad] * (n * stride)
    for i, (literal, texts) in enumerate(zip(literals, texts_of)):
        out[2 * i :: stride] = [literal] * n
        out[2 * i + 1 :: stride] = texts
    out[0] = "[" + row_pad + out[0]
    out[-1] = close + "\n" + _INDENT * level + "]"
    return "".join(out)


def _block(o, level: int) -> Optional[str]:
    """The text of ``o`` at depth ``level`` when it is a non-empty list or
    tuple of scalars, or non-empty :class:`Rows` of scalar columns; else None."""
    if isinstance(o, Rows):
        return _column_block(o.columns, level) if len(o) else None
    texts = _scalar_texts(o, set(map(type, o))) if o else None
    if texts is None:
        return None
    pad = "\n" + _INDENT * (level + 1)
    texts[0] = "[" + pad + texts[0]
    texts[-1] += "\n" + _INDENT * level + "]"
    return ("," + pad).join(texts)


def _held(o, level: int, token: str, blocks: list):
    """``o`` with each list :func:`_block` renders replaced by the string
    ``token`` + its index in ``blocks``, where its text is appended."""
    if isinstance(o, dict):
        return {key: _held(value, level + 1, token, blocks) for key, value in o.items()}
    if not isinstance(o, (list, tuple, Rows)):
        return o
    block = _block(o, level)
    if block is None:
        return o if isinstance(o, Rows) else [_held(v, level + 1, token, blocks) for v in o]
    blocks.append(block)
    return token + str(len(blocks) - 1)


def dump_json(payload: dict, path: Optional[str]) -> str:
    """Write ``payload`` to ``path`` (if given) and return the text: exactly
    ``json.dumps(payload, sort_keys=True, indent=2, default=_json_default)``
    plus a newline. The stdlib writes that text with each list of scalars and
    each :class:`Rows` held out as a placeholder string; their text, rendered
    a column at a time at C speed instead of through the stdlib's pure-Python
    indenting encoder, is spliced in where the placeholders' quoted text
    stands. A token that occurs anywhere else in the text is drawn again."""
    while True:
        token, blocks = uuid.uuid4().hex, []
        held = _held(payload, 0, token, blocks)
        parts = json.dumps(held, sort_keys=True, indent=2, default=_json_default).split('"' + token)
        if len(parts) == len(blocks) + 1:
            break
    out = [parts[0]]
    for part in parts[1:]:
        index, _, rest = part.partition('"')
        out += (blocks[int(index)], rest)
    out.append("\n")
    text = "".join(out)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


@contextmanager
def _malformed(kind: str):
    """Report a field of the wrong type or shape as an input error naming the file kind."""
    try:
        yield
    except ValidationError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {kind} file: {type(exc).__name__}: {exc}") from exc


def _integer(value, name: str) -> int:
    """``value`` as an int; a bool or a number that is not integral is malformed."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _integer_array(values, name: str) -> np.ndarray:
    """A list of JSON integers as an int64 array, each through ``_integer``
    unless all are plain ints; a decoded binary column passes as it is."""
    if isinstance(values, np.ndarray):
        return values
    if not set(map(type, values)) <= {int}:
        values = [_integer(v, name) for v in values]
    return np.array(values, dtype=np.int64)


def _numbers(values, name: str) -> None:
    """JSON numbers only: a string such as ``"2.5"``, a boolean or null among
    the values is malformed."""
    odd = set(map(type, values)) - {int, float}
    if odd:
        raise ValueError(f"{name} must be a number, got {', '.join(sorted(t.__name__ for t in odd))}")


def _number_array(values, name: str) -> np.ndarray:
    """A list of JSON numbers, or a list of such lists, as a float array; a
    decoded binary column passes as it is."""
    if isinstance(values, np.ndarray):
        return values
    nested = isinstance(values, list) and values and isinstance(values[0], list)
    _numbers(itertools.chain.from_iterable(values) if nested else values, name)
    return np.array(values, dtype=np.float64)


COLUMN_DTYPES = {"coords": "<f8", "distance_matrix": "<f8", "weight": "<f8", "label": "<i8", "index": "<i8"}


def _binary_column(values: np.ndarray, name: str) -> dict:
    """Column ``name`` as one base64 string of its bytes in the column's
    little-endian dtype, ``COLUMN_DTYPES[name]``."""
    dtype = COLUMN_DTYPES[name]
    raw = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return {"dtype": dtype, "base64": base64.b64encode(raw).decode("ascii")}


def _read_column(values, name: str):
    """Column ``name`` as it is read: a binary column decodes to an array of
    its dtype in ``COLUMN_DTYPES``, and anything else passes as it is, to be
    checked with its fellow numbers."""
    if not isinstance(values, dict):
        return values
    if values.keys() != {"dtype", "base64"}:
        raise ValidationError(
            f"binary {name} column needs the keys base64 and dtype, got {', '.join(sorted(values))}"
        )
    dtype = COLUMN_DTYPES[name]
    if values["dtype"] != dtype:
        raise ValidationError(f"binary {name} column has dtype {values['dtype']!r}, not {dtype!r}")
    if not isinstance(values["base64"], str):
        raise ValidationError(f"binary {name} column's base64 is not a string")
    try:
        raw = base64.b64decode(values["base64"], validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ValidationError(f"binary {name} column is not base64: {exc}") from exc
    if len(raw) % 8:
        raise ValidationError(f"binary {name} column holds {len(raw)} bytes, not a multiple of 8")
    return np.frombuffer(raw, dtype=dtype)


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def instance_to_payload(inst: ClusteringInstance) -> dict:
    """The columnar instance file: each point field is one column, Euclidean
    coordinates flat and row-major with ``dim`` numbers per point; facilities
    stay rows, each a point reference or its own location, in their order.
    Every point column and an explicit ``distance_matrix`` are binary columns."""
    points = {"weight": _binary_column(inst.weights, "weight")}
    if inst.labels is not None:
        points["label"] = _binary_column(inst.labels, "label")
    if inst.space.is_euclidean:
        points["coords"] = _binary_column(inst.space.coords[inst.points], "coords")
    else:
        points["index"] = _binary_column(inst.points, "index")
    facilities = []
    point_pos = _positions(inst.points, inst.facilities).tolist()
    for idx, pos in zip(inst.facilities.tolist(), point_pos):
        if pos >= 0:
            facilities.append({"point": pos})
        elif inst.space.is_euclidean:
            facilities.append({"coords": inst.space.coords[idx].tolist()})
        else:
            facilities.append({"index": idx})
    payload = {
        "metric": "euclidean" if inst.space.is_euclidean else "explicit",
        "points": points,
        "facilities": facilities,
        "k": inst.k,
        "z": inst.z,
    }
    if inst.space.is_euclidean:
        payload["dim"] = int(inst.space.coords.shape[1])
    else:
        payload["distance_matrix"] = _binary_column(inst.space.matrix, "distance_matrix")
    return payload


def _point_columns(rows: list, ids: str) -> dict:
    """Row-shaped points, one dict per point, as columns. A point without a
    weight weighs 1, and a field that only some points carry is left out,
    except a label: labels are all or nothing."""
    cols = {"weight": [p.get("weight", 1.0) for p in rows]}
    for key in (ids, "label"):
        values = [p[key] for p in rows if key in p]
        if len(values) == len(rows):
            cols[key] = values
        elif values and key == "label":
            raise ValidationError(
                f"{len(values)} of {len(rows)} points have a label: label every point or none"
            )
    return cols


def _flat_rows(rows: list, dim: int, name: str) -> list:
    """Coordinate rows of width ``dim``, flattened row-major."""
    odd = set(map(len, rows)) - {dim}
    if odd:
        raise ValidationError(f"{name} coords of width {min(odd)} disagree with dim {dim}")
    return list(itertools.chain.from_iterable(rows))


@_malformed("instance")
def instance_from_payload(payload: dict, triangle_check: str = "sampled") -> ClusteringInstance:
    """An instance from a columnar payload, each column binary or a text
    list, or from a row-shaped one (a list with one dict per point), whose
    rows become the same columns first. Binary columns are decoded before
    any length is checked; only text lists go through the per-value number
    checks. The payload is left as it is."""
    kind = payload.get("metric")
    raw_points = payload.get("points", [])
    raw_fac = payload.get("facilities", [])
    if not raw_points or not raw_fac:
        raise ValidationError("instance file needs nonempty points and facilities")
    if kind not in ("euclidean", "explicit"):
        raise ValidationError(f"unknown metric kind {kind!r}")
    euclidean = kind == "euclidean"
    ids, need = ("coords", "coords") if euclidean else ("index", "an index")
    rows = isinstance(raw_points, list)
    cols = _point_columns(raw_points, ids) if rows else raw_points
    if ids not in cols:
        raise ValidationError(f"{kind} points need {need}")
    unknown = cols.keys() - {"weight", "label", ids}
    if unknown:
        raise ValidationError(f"unknown point columns: {', '.join(sorted(unknown))}")
    cols = {key: _read_column(values, key) for key, values in cols.items()}

    dim, flat = 1, cols[ids]
    if euclidean:
        # A row file may leave dim to its points' coords.
        dim = _integer(len(flat[0]) if rows and "dim" not in payload else payload.get("dim"), "dim")
        if dim < 1:
            raise ValidationError(f"dim must be positive, got {dim}")
        if rows:
            flat = _flat_rows(flat, dim, "point")
    n, rest = divmod(len(flat), dim)
    if rest:
        raise ValidationError(f"coords holds {len(flat)} numbers, not a multiple of dim {dim}")
    sizes = {key: len(cols[key]) for key in ("weight", "label") if key in cols}
    if set(sizes.values()) - {n}:
        listed = ", ".join(f"{key} {size}" for key, size in sizes.items())
        raise ValidationError(f"point columns differ in length: {ids} holds {n} points, {listed}")
    weights = _number_array(cols.get("weight", np.ones(n)), "weight")
    labels = cols.get("label")

    point_ids = range(n) if euclidean else _integer_array(flat, "point index")
    fac_ids, own = [], []
    for f in raw_fac:
        if "point" in f:
            ref = _integer(f["point"], "facility point")
            if not 0 <= ref < n:
                raise ValidationError(f"facility references unknown point {ref}")
            fac_ids.append(point_ids[ref])
        elif ids not in f:
            raise ValidationError(f"{kind} facilities need {need} or a point reference")
        elif euclidean:
            fac_ids.append(n + len(own))
            own.append(f[ids])
        else:
            fac_ids.append(_integer(f[ids], "facility index"))
    if euclidean:
        own = _number_array(_flat_rows(own, dim, "facility"), "coordinate")
        coords = np.concatenate([_number_array(flat, "coordinate"), own])
        space = MetricSpace.euclidean(coords.reshape(-1, dim))
    else:
        matrix_flat = _read_column(payload.get("distance_matrix"), "distance_matrix")
        if matrix_flat is None:
            raise ValidationError("explicit instances need a distance_matrix")
        size = int(round(len(matrix_flat) ** 0.5))
        if size * size != len(matrix_flat):
            raise ValidationError("distance_matrix length is not a perfect square")
        space = MetricSpace.explicit(
            _number_array(matrix_flat, "distance").reshape(size, size), triangle_check=triangle_check
        )

    inst = ClusteringInstance(
        space=space,
        points=np.arange(n, dtype=np.int64) if euclidean else point_ids,
        weights=weights,
        facilities=np.array(fac_ids, dtype=np.int64),
        k=_integer(payload.get("k", 1), "k"),
        z=_integer(payload.get("z", 1), "z"),
        labels=None if labels is None else _integer_array(labels, "label"),
    )
    return _require_valid(inst)


def _require_valid(inst: ClusteringInstance) -> ClusteringInstance:
    report = validate_instance(inst)
    if report:
        raise ValidationError("invalid instance: " + "; ".join(report))
    return inst


def load_instance(path: str, triangle_check: str = "sampled", z: Optional[int] = None):
    if os.path.getsize(path) > MAX_INSTANCE_BYTES:
        raise ValidationError(f"{path} exceeds the 100 MB instance-file cap")
    inst = instance_from_payload(load_json(path), triangle_check)
    if z is not None and z != inst.z:
        inst = inst.with_z(z)
    return inst


# ---------------------------------------------------------------------------
# Coreset files
# ---------------------------------------------------------------------------


def coreset_to_payload(cs: WeakCoreset) -> dict:
    payload = {
        "J": cs.J.tolist() if cs.J is not None else cs.J_coords.tolist(),
        "S": Rows(point=cs.S, weight=cs.v),
        "alpha": float(cs.alpha),
        "z": int(cs.z),
        "epsilon": float(cs.epsilon),
        "delta": float(cs.delta),
        "seed": int(cs.seed),
        "mode": cs.mode,
        "params": cs.info,
    }
    return payload


@_malformed("coreset")
def coreset_from_payload(payload: dict) -> WeakCoreset:
    required = ("J", "S", "alpha", "z", "epsilon", "delta", "seed")
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValidationError(f"coreset file lacks {', '.join(missing)}")
    j_raw = payload["J"]
    if j_raw and isinstance(j_raw[0], list):
        j_ids, j_coords = None, _number_array(j_raw, "J coordinate")
    else:
        j_ids, j_coords = _integer_array(j_raw, "J id"), None
    v = [e["weight"] for e in payload["S"]]
    _numbers(v, "S weight")
    _numbers([payload[key] for key in ("alpha", "epsilon", "delta")], "alpha, epsilon and delta")
    return WeakCoreset(
        S=_integer_array([e["point"] for e in payload["S"]], "S point"),
        v=np.array(v, dtype=np.float64),
        alpha=float(payload["alpha"]),
        z=_integer(payload["z"], "z"),
        epsilon=float(payload["epsilon"]),
        delta=float(payload["delta"]),
        seed=_integer(payload["seed"], "seed"),
        mode=payload.get("mode", "metric"),
        J=j_ids,
        J_coords=j_coords,
        info=payload.get("params", {}),
    )


# ---------------------------------------------------------------------------
# Constraint files
# ---------------------------------------------------------------------------


@_malformed("constraint")
def constraint_from_payload(payload: dict, inst: ClusteringInstance) -> ConstraintSpec:
    kind = payload.get("type")
    k = inst.k
    if kind == "unconstrained":
        return Unconstrained()
    if kind == "profile":
        gamma = payload.get("gamma")
        if gamma is None:
            raise ValidationError("profile constraint needs a gamma array")
        return FixedProfile(ClusterProfile(_number_array(gamma, "gamma")))
    if kind == "balanced":
        lo = payload.get("l")
        hi = payload.get("u")
        if lo is None or hi is None:
            raise ValidationError("balanced constraint needs l and u arrays")
        _numbers([h for h in hi if h is not None], "u")
        hi = [np.inf if h is None else h for h in hi]
        return Balanced(_number_array(lo, "l"), np.array(hi, dtype=np.float64))
    if kind == "fractions":
        alpha = payload.get("alpha")
        beta = payload.get("beta")
        if alpha is None or beta is None:
            raise ValidationError("fraction constraint needs alpha and beta")
        return FractionBounds(_number_array(alpha, "alpha"), _number_array(beta, "beta"))
    if kind == "ldiversity":
        l = payload.get("l")
        if l is None:
            raise ValidationError("ldiversity constraint needs l")
        direction = payload.get("direction", "at_least")
        if direction not in ("at_least", "at_most"):
            raise ValidationError("ldiversity direction must be at_least or at_most")
        if inst.labels is None:
            raise ValidationError("ldiversity requires a labeled instance")
        return ldiversity_bounds(_integer(l, "l"), k, inst.n_labels, at_most=direction == "at_most")
    raise ValidationError(f"unknown constraint type {kind!r}")


def load_constraint(path: str, inst: ClusteringInstance) -> ConstraintSpec:
    return constraint_from_payload(load_json(path), inst)


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------


def make_line_instance(
    n: int = 5, k: int = 2, z: int = 1, m: int = 1, seed: int = 0
) -> ClusteringInstance:
    """Points on a line in two groups (three fifths near 0, the rest from 9);
    n=5 gives the canonical positions 0,1,2,9,10 with facilities at every point."""
    left = max(1, (3 * n + 4) // 5)
    right = n - left
    positions = list(range(left)) + [9 + i for i in range(right)]
    coords = np.array([[float(p)] for p in positions])
    labels = None
    if m > 1:
        labels = np.array([(i * m) // n for i in range(n)], dtype=np.int64)
    return ClusteringInstance(
        space=MetricSpace.euclidean(coords),
        points=np.arange(n, dtype=np.int64),
        weights=np.ones(n),
        facilities=np.arange(n, dtype=np.int64),
        k=k,
        z=z,
        labels=labels,
    )


def make_planar_blobs(
    n: int, n_facilities: int, k: int, z: int = 1, m: int = 1, seed: int = 0, spread: float = 1.0
) -> ClusteringInstance:
    """k Gaussian blobs in the plane; facilities drawn from the same mixture."""
    rng = default_rng(SeedSequence(int(seed)))
    blob_centers = rng.uniform(0.0, 10.0, size=(k, 2))
    assign = rng.integers(0, k, size=n)
    pts = blob_centers[assign] + rng.normal(0.0, spread, size=(n, 2))
    fassign = rng.integers(0, k, size=n_facilities)
    fac = blob_centers[fassign] + rng.normal(0.0, spread, size=(n_facilities, 2))
    coords = np.vstack([pts, fac])
    labels = np.array([i % m for i in range(n)], dtype=np.int64) if m > 1 else None
    return ClusteringInstance(
        space=MetricSpace.euclidean(coords),
        points=np.arange(n, dtype=np.int64),
        weights=np.ones(n),
        facilities=np.arange(n, n + n_facilities, dtype=np.int64),
        k=k,
        z=z,
        labels=labels,
    )


def make_random_metric(
    n: int, n_facilities: int, k: int, z: int = 1, m: int = 1, seed: int = 0
) -> ClusteringInstance:
    """Random symmetric matrix closed under shortest paths, so the triangle
    inequality holds exactly."""
    rng = default_rng(SeedSequence(int(seed)))
    size = n + n_facilities
    raw = rng.uniform(1.0, 10.0, size=(size, size))
    mat = np.triu(raw, 1)
    mat = mat + mat.T
    np.fill_diagonal(mat, 0.0)
    through = np.empty_like(mat)
    for mid in range(size):  # Floyd-Warshall closure, in place: row and column mid stay fixed
        np.add(mat[:, mid, None], mat[mid], out=through)
        np.minimum(mat, through, out=mat)
    labels = np.array([i % m for i in range(n)], dtype=np.int64) if m > 1 else None
    return ClusteringInstance(
        space=MetricSpace.explicit(mat, triangle_check="off"),
        points=np.arange(n, dtype=np.int64),
        weights=np.ones(n),
        facilities=np.arange(n, size, dtype=np.int64),
        k=k,
        z=z,
        labels=labels,
    )


GENERATORS = {
    "line": make_line_instance,
    "planar-blobs": make_planar_blobs,
    "random-metric": make_random_metric,
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _require_positive(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise ValidationError(f"--{name} must be positive, got {value}")


def cmd_generate(args) -> int:
    _require_positive(args, "n", "facilities", "k", "m")
    if args.kind == "line":
        inst = make_line_instance(n=args.n, k=args.k, z=args.z or 1, m=args.m, seed=args.seed)
    elif args.kind == "planar-blobs":
        inst = make_planar_blobs(
            args.n, args.facilities, args.k, z=args.z or 1, m=args.m, seed=args.seed
        )
    else:
        inst = make_random_metric(
            args.n, args.facilities, args.k, z=args.z or 1, m=args.m, seed=args.seed
        )
    dump_json(instance_to_payload(_require_valid(inst)), args.out)
    print(f"wrote {args.kind} instance: n={inst.n} |F|={inst.facilities.size} k={inst.k} -> {args.out}")
    return EXIT_OK


def cmd_coreset(args) -> int:
    inst = load_instance(args.instance, triangle_check=args.triangle_check, z=args.z)
    cand_seed, summ_seed = split_seed(args.seed)
    cparams = CandidateParams(
        eta=args.eta,
        mix=args.mix,
        seed=cand_seed,
        euclidean_subset_size=args.subset_size,
        euclidean_base_size=args.base_size,
        max_euclidean_candidates=args.max_candidates,
    )
    sparams = SummaryParams(
        sample_count=args.sample_count,
        c0=args.c0,
        delta=args.delta,
        seed=summ_seed,
    )
    started = time.perf_counter()
    cs = build_universal_weak_coreset(
        inst,
        args.epsilon,
        args.delta,
        mode=args.mode,
        seed=args.seed,
        candidate_params=cparams,
        summary_params=sparams,
    )
    elapsed = time.perf_counter() - started
    dump_json(coreset_to_payload(cs), args.out)
    print(
        f"|J|={cs.j_size} |S|={cs.S.size} alpha={cs.alpha:g} "
        f"built in {elapsed:.2f}s -> {args.out}"
    )
    return EXIT_OK


def solve_result_payload(res: SolveResult) -> dict:
    sigma = res.assignment_on_full
    payload = {
        "centers": res.centers if res.center_coords is None else res.center_coords.tolist(),
        "cost_on_summary": res.cost_on_summary,
        "cost_on_full": res.cost_on_full,
        "realized_profile": res.realized_profile.values.tolist(),
        "tuples_evaluated": res.tuples_evaluated,
        "assignment": Rows(point=sigma.points, cluster=sigma.clusters, mass=sigma.masses),
    }
    return payload


def cmd_solve(args) -> int:
    inst = load_instance(args.instance, triangle_check=args.triangle_check, z=args.z)
    cs = coreset_from_payload(load_json(args.coreset))
    spec = load_constraint(args.constraint, inst)
    res = solve_constrained(
        cs,
        inst,
        spec,
        allow_repeats=args.allow_repeats,
        cost_target=args.cost_target,
    )
    payload = solve_result_payload(res)
    dump_json(payload, args.out)
    if args.csv:
        # .tolist(): numpy 2 gives "np.float64(1.0)" as the repr of a float64.
        cols = {key: col.tolist() for key, col in payload["assignment"].columns.items()}
        lines = map("{},{},{!r}\n".format, cols["point"], cols["cluster"], cols["mass"])
        with open(args.csv, "w") as fh:
            fh.write("point,cluster,mass\n" + "".join(lines))
    centers = res.centers if res.center_coords is None else res.center_coords.tolist()
    print(f"{'centers':>18}: {centers}")
    print(f"{'cost on summary':>18}: {res.cost_on_summary:.9g}")
    print(f"{'cost on full':>18}: {res.cost_on_full:.9g}")
    print(f"{'tuples evaluated':>18}: {res.tuples_evaluated}")
    print(f"{'tuples skipped':>18}: {res.stats['tuples_skipped_by_price']}")
    print(f"{'wall time':>18}: {res.wall_time:.3f}s")
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = load_instance(args.instance, triangle_check=args.triangle_check, z=args.z)
    spec = load_constraint(args.constraint, inst)
    centers, cost, sigma = brute_force_opt(inst, spec, max_solves=args.max_solves)
    payload = {
        "centers": list(centers),
        "cost": cost,
        "cluster_totals": sigma.cluster_totals(inst.k).tolist(),
        "assignment_entries": len(sigma),
    }
    dump_json(payload, args.out)
    print(f"optimal centers {list(centers)} with cost {cost:.9g}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _require_positive(args, "trials")
    inst = load_instance(args.instance, triangle_check=args.triangle_check, z=args.z)
    cs = coreset_from_payload(load_json(args.coreset))
    payload = {}
    all_passed = True
    if args.which in ("B", "both"):
        rep = verify_property_B(
            inst, cs, trials=args.trials, eps=args.epsilon, seed=args.seed, threshold=args.threshold
        )
        payload["B"] = {
            "trials": rep.trials,
            "passes": rep.passes,
            "pass_fraction": rep.pass_fraction,
            "worst_ratio": rep.worst_ratio,
            "window": list(rep.window),
            "passed": rep.passed,
            "records": [
                {
                    "centers": list(r.centers),
                    "profile": r.profile,
                    "kind": r.profile_kind,
                    "cost_full": r.cost_full,
                    "cost_summary": r.cost_summary,
                    "ratio": r.ratio,
                }
                for r in rep.records
            ],
        }
        all_passed &= rep.passed
        print(
            f"property B: {rep.passes}/{rep.trials} ratios in "
            f"[{rep.window[0]:g}, {rep.window[1]:g}], worst {rep.worst_ratio:.4g} "
            f"-> {'PASS' if rep.passed else 'FAIL'}"
        )
    if args.which in ("A", "both"):
        rep = verify_property_A(inst, cs, max_solves=args.max_solves)
        payload["A"] = {
            "ratio": rep.worst_ratio,
            "bound": rep.threshold,
            "passed": rep.passed,
            "centers": list(rep.records[0].centers),
        }
        all_passed &= rep.passed
        print(
            f"property A: ratio {rep.worst_ratio:.4g} vs bound {rep.threshold:g} "
            f"-> {'PASS' if rep.passed else 'FAIL'}"
        )
    dump_json(payload, args.out)
    return EXIT_OK if all_passed else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="master random seed")
    sub.add_argument("--z", type=int, choices=(1, 2), default=None, help="override the power z")
    sub.add_argument(
        "--triangle-check",
        choices=("sampled", "full", "off"),
        default="sampled",
        help="triangle-inequality check for explicit matrices",
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the input-error code: argparse's 2 means infeasible here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` returns a
    fresh namespace on every call, so one parser serves every ``main``.
    Subcommand ``<name>`` runs ``cmd_<name>``."""
    parser = _Parser(
        prog="weakcore",
        description="Universal weak coresets for constrained k-median / k-means.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic instance file")
    g.add_argument("--kind", choices=sorted(GENERATORS), required=True)
    g.add_argument("--n", type=int, default=5)
    g.add_argument("--facilities", type=int, default=5)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--m", type=int, default=1, help="number of labels (1 = unlabeled)")
    g.add_argument("--out", required=True)
    _common(g)

    c = sub.add_parser("coreset", help="build a universal weak coreset")
    c.add_argument("--instance", required=True)
    c.add_argument("--epsilon", type=float, required=True)
    c.add_argument("--delta", type=float, default=0.05)
    c.add_argument("--mode", choices=("metric", "euclidean_kmeans"), default="metric")
    c.add_argument("--eta", type=int, default=None, help="candidate sample count")
    c.add_argument("--mix", type=float, default=0.5, help="uniform draw probability")
    c.add_argument("--c0", type=float, default=4.0, help="ring sample-count constant")
    c.add_argument("--sample-count", type=int, default=None, help="explicit per-ring samples")
    c.add_argument("--subset-size", type=int, default=None, help="Euclidean multiset size")
    c.add_argument("--base-size", type=int, default=None, help="Euclidean base sample size")
    c.add_argument("--max-candidates", type=int, default=2000)
    c.add_argument("--out", required=True)
    _common(c)

    s = sub.add_parser("solve", help="solve a constrained instance via a coreset")
    s.add_argument("--instance", required=True)
    s.add_argument("--coreset", required=True)
    s.add_argument("--constraint", required=True)
    s.add_argument("--allow-repeats", action="store_true")
    s.add_argument("--cost-target", type=float, default=None)
    s.add_argument("--csv", default=None, help="also write the assignment as CSV")
    s.add_argument("--out", required=True)
    _common(s)

    o = sub.add_parser("oracle", help="exact brute-force optimum")
    o.add_argument("--instance", required=True)
    o.add_argument("--constraint", required=True)
    o.add_argument("--max-solves", type=int, default=DEFAULT_SOLVE_CEILING)
    o.add_argument("--out", required=True)
    _common(o)

    v = sub.add_parser("verify", help="statistical verification of coreset properties")
    v.add_argument("--instance", required=True)
    v.add_argument("--coreset", required=True)
    v.add_argument("--which", choices=("A", "B", "both"), default="B")
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--epsilon", type=float, default=0.25, help="reporting window half-width")
    v.add_argument("--threshold", type=float, default=0.95, help="required pass fraction")
    v.add_argument("--max-solves", type=int, default=DEFAULT_SOLVE_CEILING)
    v.add_argument("--out", required=True)
    _common(v)
    return parser


def _warning_line(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            # By name at call time, so a wrapper set on a module attribute
            # after the parser was built still sees the call.
            return globals()[f"cmd_{args.command}"](args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SolverLimit, MemoryError) as exc:  # numpy's allocation failure is a MemoryError
        print(f"resource ceiling: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CEILING
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # a bug, not a verdict: never the exit 1 of a verify FAIL
        print(f"internal error: {type(exc).__name__}: {exc}".splitlines()[0], file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
