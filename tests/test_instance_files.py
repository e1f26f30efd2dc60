"""Instance files: the columnar layout, the row layout it replaced, and the
checks both layouts go through; and damaged instance, coreset and
constraint files, which must end in a one-line error."""

import base64
import contextlib
import copy
import io
import json
import math
import os
import tempfile
import time
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row_layout, text_layout
from weakcore.candidates import CandidateParams
from weakcore.cli import (
    EXIT_VALIDATION,
    coreset_to_payload,
    dump_json,
    instance_from_payload,
    instance_to_payload,
    load_instance,
    main,
    make_line_instance,
    make_planar_blobs,
    make_random_metric,
)
from weakcore.coreset import SummaryParams, build_universal_weak_coreset
from weakcore.model import ClusteringInstance, MetricSpace


def run(args):
    return main([str(a) for a in args])


def _mixed_facilities():
    """A labeled Euclidean instance whose facilities mix point references and
    locations of their own, in no particular order, and whose points are
    neither the first space ids nor sorted."""
    rng = np.random.default_rng(3)
    coords = rng.normal(size=(11, 2))
    return ClusteringInstance(
        space=MetricSpace.euclidean(coords),
        points=np.array([10, 3, 4, 6, 0, 7, 8, 1]),
        weights=rng.uniform(0.5, 3.0, size=8),
        facilities=np.array([9, 4, 2, 0, 5, 6]),
        k=2,
        z=2,
        labels=np.array([0, 1, 1, 0, 2, 2, 0, 1]),
    )


INSTANCES = {
    "line": make_line_instance,
    "blobs-labeled": lambda: make_planar_blobs(30, 5, 3, m=3, seed=4),
    "blobs-unlabeled": lambda: make_planar_blobs(30, 5, 2, z=2, seed=5),
    "random-metric": lambda: make_random_metric(12, 4, 2, m=2, seed=6),
    "mixed-facilities": _mixed_facilities,
}


def _write_twins(tmp_path, inst):
    """The instance as a columnar file with binary float columns, and as its
    text-column and row-layout twins."""
    payload = instance_to_payload(inst)
    columns, text, rows = tmp_path / "columns.json", tmp_path / "text.json", tmp_path / "rows.json"
    dump_json(payload, str(columns))
    text.write_text(json.dumps(text_layout(payload)))
    rows.write_text(json.dumps(row_layout(payload)))
    return columns, text, rows


def _arrays(inst):
    arrays = {
        "points": inst.points,
        "weights": inst.weights,
        "labels": inst.labels,
        "facilities": inst.facilities,
    }
    if inst.space.is_euclidean:
        arrays["coords"] = inst.space.coords
    else:
        arrays["matrix"] = inst.space.matrix
    return arrays


@pytest.mark.parametrize("make", INSTANCES.values(), ids=INSTANCES.keys())
def test_row_and_columnar_files_load_alike(tmp_path, make):
    inst = make()
    columns, text, rows = _write_twins(tmp_path, inst)
    a, b = load_instance(str(columns)), load_instance(str(rows))
    for twin in (b, load_instance(str(text))):
        for name, value in _arrays(a).items():
            other = _arrays(twin)[name]
            assert (value is None) == (other is None), name
            assert value is None or np.array_equal(value, other), name
    assert (a.k, a.z) == (b.k, b.z) == (inst.k, inst.z)
    # Both loads hold the instance itself: its weights, labels and locations.
    assert np.array_equal(a.weights, inst.weights)
    assert (a.labels is None) == (inst.labels is None)
    assert inst.labels is None or np.array_equal(a.labels, inst.labels)
    if inst.space.is_euclidean:
        for ids in ("points", "facilities"):
            assert np.array_equal(a.space.coords[getattr(a, ids)], inst.space.coords[getattr(inst, ids)])
    else:
        assert np.array_equal(a.points, inst.points) and np.array_equal(a.facilities, inst.facilities)
        assert np.array_equal(a.space.matrix, inst.space.matrix)
    assert dump_json(instance_to_payload(b), None) == columns.read_text()


def test_row_file_may_leave_dim_to_its_coords(tmp_path):
    inst = make_planar_blobs(20, 4, 2, m=2, seed=9)
    columns, _, rows = _write_twins(tmp_path, inst)
    payload = json.loads(rows.read_text())
    del payload["dim"]
    rows.write_text(json.dumps(payload))
    assert dump_json(instance_to_payload(load_instance(str(rows))), None) == columns.read_text()


@pytest.mark.parametrize("name", ["blobs-labeled", "random-metric", "mixed-facilities"])
def test_row_and_columnar_files_give_the_same_out_files(tmp_path, name):
    """Binary columns, text columns and rows: one instance, one set of bytes."""
    columns, text, rows = _write_twins(tmp_path, INSTANCES[name]())
    con = tmp_path / "con.json"
    con.write_text(json.dumps({"type": "unconstrained"}))
    out = {}
    for inst in (columns, text, rows):
        cs, res = tmp_path / f"cs-{inst.stem}.json", tmp_path / f"res-{inst.stem}.json"
        assert run(["coreset", "--instance", inst, "--epsilon", 0.5, "--seed", 3, "--out", cs]) == 0
        assert run(["solve", "--instance", inst, "--coreset", cs, "--constraint", con, "--out", res]) == 0
        out[inst.stem] = (cs.read_bytes(), res.read_bytes())
    assert out["columns"] == out["text"] == out["rows"]


_DROP = object()


def _edit(path, value):
    """An edit that puts ``value`` at the key ``path``, or deletes the key
    when ``value`` is ``_DROP``."""
    def edit(payload):
        node = reduce(getitem, path[:-1], payload)
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value(node[path[-1]]) if callable(value) else value
        return payload
    return edit


# (layout, edit, message) on a 40-point labeled planar-blobs file in 2-d.
SHAPE_ERRORS = {
    **{
        f"{layout}-dim-{name}": (layout, _edit(["dim"], value), needle)
        for layout in ("binary", "columns", "rows")
        for name, value, needle in [
            ("a-string", "two", "dim must be an integer, got 'two'"),
            ("fractional", 2.5, "dim must be an integer, got 2.5"),
            ("a-bool", True, "dim must be an integer, got True"),
            ("zero", 0, "dim must be positive, got 0"),
            ("negative", -2, "dim must be positive, got -2"),
        ]
    },
    **{
        f"{layout}-dim-{name}": (layout, _edit(["dim"], value), needle)
        for layout in ("binary", "columns")
        for name, value, needle in [
            ("missing", _DROP, "dim must be an integer, got None"),
            ("wider-than-coords", 3, "coords holds 80 numbers, not a multiple of dim 3"),
        ]
    },
    "rows-dim-wider-than-coords": ("rows", _edit(["dim"], 3), "point coords of width 2 disagree with dim 3"),
    "columns-coords-truncated": ("columns", _edit(["points", "coords"], lambda c: c[:-1]),
                                 "coords holds 79 numbers, not a multiple of dim 2"),
    "columns-coords-short-by-a-point": ("columns", _edit(["points", "coords"], lambda c: c[:-2]),
                                        "point columns differ in length: coords holds 39 points, weight 40, label 40"),
    "columns-weight-short": ("columns", _edit(["points", "weight"], lambda w: w[:-1]),
                             "point columns differ in length: coords holds 40 points, weight 39, label 40"),
    "columns-label-long": ("columns", _edit(["points", "label"], lambda l: l + [0]),
                           "point columns differ in length: coords holds 40 points, weight 40, label 41"),
    "columns-unknown-column": ("columns", _edit(["points", "labels"], [0] * 40), "unknown point columns: labels"),
    "rows-point-without-coords": ("rows", _edit(["points", 3, "coords"], _DROP), "euclidean points need coords"),
    "rows-coords-of-two-widths": ("rows", _edit(["points", 3, "coords"], [1.0]),
                                  "point coords of width 1 disagree with dim 2"),
    **{
        f"{layout}-facility-coords-wider-than-dim": (
            layout, _edit(["facilities", 0, "coords"], lambda c: c + [0.0]),
            "facility coords of width 3 disagree with dim 2",
        )
        for layout in ("binary", "columns", "rows")
    },
}


def _assert_coreset_rejects(tmp_path, capsys, payload, needle):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(payload))
    capsys.readouterr()
    code = run(["coreset", "--instance", inst, "--epsilon", 0.5, "--out", tmp_path / "cs.json"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and needle in err[0], err
    assert not (tmp_path / "cs.json").exists()


@pytest.mark.parametrize("layout, edit, needle", SHAPE_ERRORS.values(), ids=SHAPE_ERRORS.keys())
def test_dim_and_column_shape_exit_code(tmp_path, capsys, layout, edit, needle):
    """``dim`` used to go unread: ``"dim": 3`` over 2-d coords or ``"dim":
    "two"`` built a coreset with exit 0. Columnar coords are read through it."""
    payload = instance_to_payload(make_planar_blobs(40, 5, 2, m=2, seed=1))
    assert payload["facilities"][0] == {"coords": payload["facilities"][0]["coords"]}
    layouts = {"binary": lambda p: p, "columns": text_layout, "rows": row_layout}
    _assert_coreset_rejects(tmp_path, capsys, edit(layouts[layout](payload)), needle)


def _recode(column, change):
    """An edit of the binary column at ``column`` (a key path): ``change``
    maps the column's decoded array, of the column's own dtype, to a new
    array, or to raw bytes."""
    def edit(payload):
        node = reduce(getitem, column[:-1], payload)
        dtype = node[column[-1]]["dtype"]
        values = np.frombuffer(base64.b64decode(node[column[-1]]["base64"]), dtype=dtype).copy()
        new = change(values)
        raw = new if isinstance(new, bytes) else np.asarray(new, dtype=dtype).tobytes()
        node[column[-1]] = {"dtype": dtype, "base64": base64.b64encode(raw).decode("ascii")}
        return payload
    return edit


def _set_value(i, value):
    def change(values):
        values[i] = value
        return values
    return change


COORDS, WEIGHT, LABEL, INDEX = (["points", key] for key in ("coords", "weight", "label", "index"))
# (kind, edit, message): kind "blobs" is a 40-point labeled planar-blobs file
# in 2-d (80 coordinates, 640 bytes), "metric" a random metric on 9 ids.
BINARY_ERRORS = {
    "dtype-float32": ("blobs", _edit(COORDS + ["dtype"], "<f4"),
                      "binary coords column has dtype '<f4', not '<f8'"),
    "dtype-big-endian": ("blobs", _edit(COORDS + ["dtype"], ">f8"),
                         "binary coords column has dtype '>f8', not '<f8'"),
    "extra-key": ("blobs", _edit(COORDS + ["shape"], [40, 2]),
                  "binary coords column needs the keys base64 and dtype, got base64, dtype, shape"),
    "dtype-missing": ("blobs", _edit(COORDS + ["dtype"], _DROP),
                      "binary coords column needs the keys base64 and dtype, got base64"),
    "base64-missing": ("blobs", _edit(COORDS + ["base64"], _DROP),
                       "binary coords column needs the keys base64 and dtype, got dtype"),
    "base64-a-number": ("blobs", _edit(COORDS + ["base64"], 5), "binary coords column's base64 is not a string"),
    "bad-character": ("blobs", _edit(COORDS + ["base64"], lambda b: b[:8] + "!" + b[8:]),
                      "binary coords column is not base64"),
    "not-ascii": ("blobs", _edit(COORDS + ["base64"], lambda b: "é" + b[1:]), "binary coords column is not base64"),
    "bad-padding": ("blobs", _edit(COORDS + ["base64"], lambda b: b.rstrip("=")),
                    "binary coords column is not base64"),
    "bytes-not-a-multiple-of-8": ("blobs", _recode(COORDS, lambda v: v.tobytes()[:-4]),
                                  "binary coords column holds 636 bytes, not a multiple of 8"),
    "count-not-a-multiple-of-dim": ("blobs", _recode(COORDS, lambda v: v[:-1]),
                                    "coords holds 79 numbers, not a multiple of dim 2"),
    "count-short-by-a-point": ("blobs", _recode(COORDS, lambda v: v[:-2]),
                               "point columns differ in length: coords holds 39 points, weight 40, label 40"),
    "nan": ("blobs", _recode(COORDS, _set_value(5, math.nan)), "coordinates contains non-finite entries"),
    "inf": ("blobs", _recode(COORDS, _set_value(0, math.inf)), "coordinates contains non-finite entries"),
    "minus-inf": ("blobs", _recode(COORDS, _set_value(79, -math.inf)), "coordinates contains non-finite entries"),
    "matrix-dtype": ("metric", _edit(["distance_matrix", "dtype"], "<i8"),
                     "binary distance_matrix column has dtype '<i8', not '<f8'"),
    "matrix-not-square": ("metric", _recode(["distance_matrix"], lambda v: v[:-1]),
                          "distance_matrix length is not a perfect square"),
    "matrix-nan": ("metric", _recode(["distance_matrix"], _set_value(1, math.nan)),
                   "distance matrix contains non-finite entries"),
    "matrix-inf": ("metric", _recode(["distance_matrix"], _set_value(10, math.inf)),
                   "distance matrix contains non-finite entries"),
    "weight-dtype-int": ("blobs", _edit(WEIGHT + ["dtype"], "<i8"),
                         "binary weight column has dtype '<i8', not '<f8'"),
    "weight-short-by-a-point": ("blobs", _recode(WEIGHT, lambda v: v[:-1]),
                                "point columns differ in length: coords holds 40 points, weight 39, label 40"),
    "weight-nan": ("blobs", _recode(WEIGHT, _set_value(7, math.nan)), "weights contains non-finite entries"),
    "weight-inf": ("blobs", _recode(WEIGHT, _set_value(7, math.inf)), "weights contains non-finite entries"),
    "weight-zero": ("blobs", _recode(WEIGHT, _set_value(0, 0.0)), "nonpositive point weight"),
    "weight-negative": ("blobs", _recode(WEIGHT, _set_value(39, -1.0)), "nonpositive point weight"),
    "label-dtype-float": ("blobs", _edit(LABEL + ["dtype"], "<f8"),
                          "binary label column has dtype '<f8', not '<i8'"),
    "label-bytes-not-a-multiple-of-8": ("blobs", _recode(LABEL, lambda v: v.tobytes()[:-1]),
                                        "binary label column holds 319 bytes, not a multiple of 8"),
    "label-long": ("blobs", _recode(LABEL, lambda v: np.append(v, 0)),
                   "point columns differ in length: coords holds 40 points, weight 40, label 41"),
    "label-negative": ("blobs", _recode(LABEL, _set_value(3, -1)), "negative label"),
    "index-dtype-float": ("metric", _edit(INDEX + ["dtype"], "<f8"),
                          "binary index column has dtype '<f8', not '<i8'"),
    "index-out-of-range": ("metric", _recode(INDEX, _set_value(2, 9)),
                           "point index out of range for metric space of size 9"),
    "index-repeated": ("metric", _recode(INDEX, _set_value(2, 0)), "duplicate point indices"),
}


@pytest.mark.parametrize("kind, edit, needle", BINARY_ERRORS.values(), ids=BINARY_ERRORS.keys())
def test_binary_column_exit_code(tmp_path, capsys, kind, edit, needle):
    """A binary column is refused with one line unless it is exactly
    ``{"dtype": ..., "base64": ...}`` with its column's dtype (``"<f8"`` for
    coords, distance_matrix and weight, ``"<i8"`` for label and index),
    holding whole values, as many as the file needs, each passing the
    checks a text column's values pass."""
    make = {"blobs": lambda: make_planar_blobs(40, 5, 2, m=2, seed=1),
            "metric": lambda: make_random_metric(6, 3, 2, seed=1)}
    _assert_coreset_rejects(tmp_path, capsys, edit(instance_to_payload(make[kind]())), needle)


def test_binary_column_leaves_the_payload_alone():
    """Loading decodes the binary columns without writing into the payload."""
    for inst in (make_planar_blobs(20, 4, 2, m=2, seed=9), make_random_metric(6, 3, 2, seed=1)):
        payload = instance_to_payload(inst)
        before = copy.deepcopy(payload)
        instance_from_payload(payload)
        assert payload == before


def test_generate_writes_binary_columns(tmp_path):
    """``generate`` writes every point column and distance_matrix as a
    binary column: weight, coords and distance_matrix as float64, label and
    index as int64. Each decodes to the array the instance loads with."""
    for kind in ("planar-blobs", "random-metric"):
        out = tmp_path / f"{kind}.json"
        assert run(["generate", "--kind", kind, "--n", 12, "--facilities", 4, "--m", 3, "--out", out]) == 0
        payload, inst = json.loads(out.read_text()), load_instance(str(out))
        text = text_layout(payload)
        expected = {("points", "weight"): ("<f8", inst.weights), ("points", "label"): ("<i8", inst.labels)}
        if kind == "planar-blobs":
            expected["points", "coords"] = ("<f8", inst.space.coords[inst.points])
        else:
            expected["points", "index"] = ("<i8", inst.points)
            expected["distance_matrix",] = ("<f8", inst.space.matrix)
        assert payload["points"].keys() == {path[1] for path in expected if path[0] == "points"}
        for path, (dtype, values) in expected.items():
            column, decoded = reduce(getitem, path, payload), reduce(getitem, path, text)
            assert column.keys() == {"dtype", "base64"} and column["dtype"] == dtype, path
            assert set(map(type, decoded)) == {float if dtype == "<f8" else int}, path
            assert np.array_equal(np.array(decoded), values.ravel()), path


@pytest.mark.parametrize("layout", ["binary", "columns", "rows"])
def test_label_not_below_n_exit_code(tmp_path, capsys, layout):
    """A label must be below the point count n. One label of 10^12 on a
    40-point file used to send ``coreset`` through a loop over every label
    value below it (10^6 took 2.2 s); every command now refuses the file
    at load, in well under a second. A label of n - 1 loads."""
    payload = instance_to_payload(make_planar_blobs(40, 5, 2, m=2, seed=1))
    for label, accepted in [(39, True), (40, False), (10**12, False)]:
        edit = {"binary": _recode(LABEL, _set_value(5, label)),
                "columns": lambda p: _edit(LABEL + [5], label)(text_layout(p)),
                "rows": lambda p: _edit(["points", 5, "label"], label)(row_layout(p))}[layout]
        edited = edit(copy.deepcopy(payload))
        if accepted:
            assert instance_from_payload(edited).n_labels == label + 1
            continue
        started = time.perf_counter()
        _assert_coreset_rejects(tmp_path, capsys, edited, f"label {label} is not below the point count 40")
        con = tmp_path / "con.json"
        con.write_text(json.dumps({"type": "unconstrained"}))
        assert run(["oracle", "--instance", tmp_path / "inst.json", "--constraint", con,
                    "--out", tmp_path / "o.json"]) == EXIT_VALIDATION
        assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("m, edit, needle", [
    (1, _edit(["points", 5, "label"], 1), "1 of 40 points have a label"),
    (2, _edit(["points", 5, "label"], _DROP), "39 of 40 points have a label"),
], ids=["one-label-on-an-unlabeled-file", "one-label-missing"])
def test_partial_labels_exit_code(tmp_path, capsys, m, edit, needle):
    """Labels are all or nothing: one ``"label": 1`` on an unlabeled 40-point
    file used to give the other points label 0 and a 2-label instance."""
    payload = row_layout(instance_to_payload(make_planar_blobs(40, 5, 2, m=m, seed=1)))
    _assert_coreset_rejects(tmp_path, capsys, edit(payload), needle + ": label every point or none")


FUZZ_BASES = {
    f"{name}-{layout}": to_layout(instance_to_payload(make()))
    for name, make in [
        ("line-labeled", lambda: make_line_instance(n=6, m=2)),
        ("blobs", lambda: make_planar_blobs(10, 4, 2, seed=2)),
        ("metric-labeled", lambda: make_random_metric(6, 3, 2, m=2, seed=2)),
    ]
    for layout, to_layout in [("binary", lambda p: p), ("columns", text_layout), ("rows", row_layout)]
}


def _nodes(tree, path=()):
    """The path and value of every node below ``tree``, in a fixed order."""
    if isinstance(tree, dict):
        items = sorted(tree.items())
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


MUTATIONS = {
    "drop": lambda value: True,
    "retype": lambda value: True,
    "truncate": lambda value: isinstance(value, (list, str)) and len(value) > 0,
    "number-to-other": lambda value: type(value) in (int, float),
    "binary": lambda value: isinstance(value, dict) and value.keys() == {"dtype", "base64"},
}


def _mutated_binary(draw, column):
    """A binary column with its base64 text altered at one place, its dtype
    swapped, or one key dropped or added."""
    column = dict(column)
    how = draw(st.sampled_from(["alter", "dtype", "drop", "add"]))
    if how == "alter":
        text = column["base64"]
        i = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(["", "A", "=", "==", "!", "é", " ", "AAAA"]))
        column["base64"] = text[:i] + piece + text[i + 1 :]
    elif how == "dtype":
        dtypes = ["<f8", "<i8", "<f4", ">f8", ">i8", "f8", "float64", 8, None]
        column["dtype"] = draw(st.sampled_from([d for d in dtypes if d != column.get("dtype")]))
    elif how == "drop":
        del column[draw(st.sampled_from(sorted(column)))]
    else:
        column[draw(st.sampled_from(["shape", "order", "dtype2"]))] = draw(st.sampled_from([[2], "C", None]))
    return column


def _mutated(draw, payload):
    """A copy of ``payload`` with one key dropped, one value of another type,
    one list or string truncated, one number replaced by a string, a bool or
    null, or one binary column mutated by :func:`_mutated_binary`."""
    payload = copy.deepcopy(payload)
    nodes = list(_nodes(payload))
    how = draw(st.sampled_from([h for h in sorted(MUTATIONS) if any(MUTATIONS[h](v) for _, v in nodes)]))
    path, value = draw(st.sampled_from([n for n in nodes if MUTATIONS[how](n[1])]))
    parent = reduce(getitem, path[:-1], payload)
    if how == "drop":
        del parent[path[-1]]
    elif how == "truncate":
        parent[path[-1]] = value[: draw(st.integers(0, len(value) - 1))]
    elif how == "number-to-other":
        parent[path[-1]] = draw(st.sampled_from(["2.5", "x", True, False, None]))
    elif how == "binary":
        parent[path[-1]] = _mutated_binary(draw, value)
    else:
        others = [[], {}, "x", 1.5, -1, 0, [1.0, 2.0], {"coords": [0.0]}, None]
        parent[path[-1]] = draw(st.sampled_from([o for o in others if type(o) is not type(value)]))
    return payload


def test_fuzz_bases_hold_every_binary_column():
    """The ``binary`` mutation reaches every kind of binary column: each is
    in some binary-layout fuzz base, and none is left in a text or row base."""
    reached = {
        (name.rsplit("-", 1)[1], path[-1])
        for name, base in FUZZ_BASES.items()
        for path, value in _nodes(base)
        if MUTATIONS["binary"](value)
    }
    assert reached == {("binary", key) for key in ("coords", "distance_matrix", "weight", "label", "index")}


@st.composite
def mutated_instance(draw):
    """A valid instance file, in any of the three layouts, with one mutation of :func:`_mutated`."""
    return _mutated(draw, draw(st.sampled_from(list(FUZZ_BASES.values()))))


@given(mutated_instance())
@settings(max_examples=300, deadline=None)
def test_mutated_instance_files_exit_cleanly(payload):
    """``coreset`` on a damaged instance file ends in a verdict or an input
    error with at most one stderr line: never an internal error (6) or a
    traceback."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "inst.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["coreset", "--instance", path, "--epsilon", "0.5", "--sample-count", "3",
                         "--out", os.path.join(d, "cs.json")])
    assert code in {0, 2, 3, 4, 5}, err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()


FUZZ_INSTANCE = make_planar_blobs(12, 4, 2, z=2, m=2, seed=3)
FUZZ_CORESETS = [
    json.loads(dump_json(coreset_to_payload(build_universal_weak_coreset(
        FUZZ_INSTANCE, 0.5, 0.05, mode=mode, seed=1,
        candidate_params=CandidateParams(seed=1, max_euclidean_candidates=6),
        summary_params=SummaryParams(sample_count=3, seed=1),
    )), None))
    for mode in ("metric", "euclidean_kmeans")
]
FUZZ_CONSTRAINTS = [
    {"type": "unconstrained"},
    {"type": "balanced", "l": [3, 3], "u": [9, None]},
    {"type": "profile", "gamma": [5, 7]},
    {"type": "profile", "gamma": [[2, 3], [4, 3]]},
    {"type": "fractions", "alpha": [[0.2, 0.2], [0.2, 0.2]], "beta": [[0.8, 0.8], [0.8, 0.8]]},
    {"type": "ldiversity", "l": 2, "direction": "at_most"},
]


@st.composite
def mutated_coreset_or_constraint(draw):
    """A valid coreset file and a valid constraint file for ``FUZZ_INSTANCE``,
    one of them with one mutation of :func:`_mutated`: (which, coreset,
    constraint)."""
    which = draw(st.sampled_from(["coreset", "constraint"]))
    cs = draw(st.sampled_from(FUZZ_CORESETS))
    con = draw(st.sampled_from(FUZZ_CONSTRAINTS))
    if which == "coreset":
        cs = _mutated(draw, cs)
    else:
        con = _mutated(draw, con)
    return which, cs, con


@given(mutated_coreset_or_constraint())
@settings(max_examples=300, deadline=None)
def test_mutated_coreset_and_constraint_files_exit_cleanly(case):
    """``solve`` on a damaged coreset or constraint file, and ``verify
    --which both`` on a damaged coreset file, end in a verdict (1 is
    verify's FAIL) or an input error with at most one stderr line: never an
    internal error (6) or a traceback."""
    which, cs, con = case
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name + ".json") for name in ("inst", "cs", "con")}
        for name, payload in (("inst", instance_to_payload(FUZZ_INSTANCE)), ("cs", cs), ("con", con)):
            with open(paths[name], "w") as fh:
                json.dump(payload, fh)
        runs = [["solve", "--instance", paths["inst"], "--coreset", paths["cs"], "--constraint", paths["con"],
                 "--out", os.path.join(d, "res.json")]]
        if which == "coreset":
            runs.append(["verify", "--instance", paths["inst"], "--coreset", paths["cs"], "--which", "both",
                         "--trials", "3", "--out", os.path.join(d, "ver.json")])
        for args in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(args)
            assert code in {0, 1, 2, 3, 4, 5}, (args[0], err.getvalue())
            assert len(err.getvalue().splitlines()) <= 1, (args[0], err.getvalue())
