import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakcore.cli as cli
from weakcore.cli import (
    EXIT_CEILING,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    _json_default,
    coreset_from_payload,
    coreset_to_payload,
    constraint_from_payload,
    dump_json,
    instance_from_payload,
    instance_to_payload,
    load_json,
    main,
    make_line_instance,
    make_random_metric,
)
import weakcore.constraints as constraints
from weakcore.constraints import Balanced, FixedProfile, FractionBounds, Unconstrained
from weakcore.coreset import identity_weak_coreset
from weakcore.flowlp import SolverError
from weakcore.model import MetricSpace


def run(args):
    return main([str(a) for a in args])


def test_instance_round_trip_euclidean(tmp_path, line_instance):
    payload = instance_to_payload(line_instance)
    again = instance_from_payload(payload)
    assert again.points.tolist() == line_instance.points.tolist()
    assert again.facilities.tolist() == line_instance.facilities.tolist()
    assert np.allclose(again.space.coords, line_instance.space.coords)
    text1 = dump_json(payload, None)
    text2 = dump_json(instance_to_payload(again), None)
    assert text1 == text2


def test_instance_round_trip_explicit():
    inst = make_random_metric(5, 3, 2, seed=3)
    payload = instance_to_payload(inst)
    again = instance_from_payload(payload)
    assert np.allclose(again.space.matrix, inst.space.matrix)
    assert dump_json(instance_to_payload(again), None) == dump_json(payload, None)


def test_coreset_round_trip(line_instance):
    cs = identity_weak_coreset(line_instance)
    payload = coreset_to_payload(cs)
    text1 = dump_json(payload, None)
    again = coreset_from_payload(json.loads(text1))
    text2 = dump_json(coreset_to_payload(again), None)
    assert text1 == text2


def test_constraint_parsing(line_instance):
    assert isinstance(
        constraint_from_payload({"type": "unconstrained"}, line_instance), Unconstrained
    )
    spec = constraint_from_payload({"type": "balanced", "l": [2, 2], "u": [3, None]}, line_instance)
    assert isinstance(spec, Balanced) and spec.upper[1] == np.inf
    spec = constraint_from_payload({"type": "profile", "gamma": [3, 2]}, line_instance)
    assert isinstance(spec, FixedProfile)
    spec = constraint_from_payload(
        {"type": "profile", "gamma": [[1, 2], [2, 0]]}, make_line_instance(m=2)
    )
    assert isinstance(spec, FixedProfile) and spec.profile.is_labeled
    labeled = make_line_instance(m=2)
    spec = constraint_from_payload(
        {"type": "fractions", "alpha": [0.1, 0.1], "beta": [0.9, 0.9]}, labeled
    )
    assert isinstance(spec, FractionBounds)
    spec = constraint_from_payload({"type": "ldiversity", "l": 2}, labeled)
    assert isinstance(spec, FractionBounds) and np.all(spec.alpha == 0.5)
    spec = constraint_from_payload(
        {"type": "ldiversity", "l": 2, "direction": "at_most"}, labeled
    )
    assert np.all(spec.beta == 0.5)


def test_constraint_parse_errors(line_instance):
    with pytest.raises(Exception):
        constraint_from_payload({"type": "nope"}, line_instance)
    with pytest.raises(Exception):
        constraint_from_payload({"type": "ldiversity", "l": 2}, line_instance)  # no labels


def test_generate_line_canonical(tmp_path):
    out = tmp_path / "inst.json"
    assert run(["generate", "--kind", "line", "--n", 5, "--k", 2, "--out", out]) == EXIT_OK
    payload = load_json(str(out))
    xs = [p["coords"][0] for p in payload["points"]]
    assert xs == [0.0, 1.0, 2.0, 9.0, 10.0]


def test_generate_random_metric_triangle_exhaustive(tmp_path):
    out = tmp_path / "m.json"
    assert (
        run(["generate", "--kind", "random-metric", "--n", 20, "--facilities", 10,
             "--k", 2, "--seed", 5, "--out", out])
        == EXIT_OK
    )
    payload = load_json(str(out))
    size = 30
    mat = np.array(payload["distance_matrix"]).reshape(size, size)
    MetricSpace.explicit(mat, triangle_check="full")  # raises on violation


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        run(["generate", "--kind", "planar-blobs", "--n", 30, "--facilities", 6,
             "--k", 2, "--seed", 11, "--out", out])
    assert a.read_bytes() == b.read_bytes()


def full_pipeline(tmp_path, constraint, seed=3, kind="line", n=5, fac=5, k=2, m=1):
    inst = tmp_path / "inst.json"
    cs = tmp_path / "cs.json"
    con = tmp_path / "con.json"
    res = tmp_path / "res.json"
    args = ["generate", "--kind", kind, "--n", n, "--k", k, "--m", m, "--out", inst]
    if kind != "line":
        args += ["--facilities", fac]
    assert run(args) == EXIT_OK
    assert run(["coreset", "--instance", inst, "--epsilon", 0.25, "--seed", seed,
                "--out", cs]) == EXIT_OK
    con.write_text(json.dumps(constraint))
    code = run(["solve", "--instance", inst, "--coreset", cs, "--constraint", con,
                "--out", res])
    return code, res


def test_solve_balanced_pipeline(tmp_path):
    code, res = full_pipeline(tmp_path, {"type": "balanced", "l": [2, 2], "u": [3, 3]})
    assert code == EXIT_OK
    payload = load_json(str(res))
    assert payload["cost_on_full"] == pytest.approx(3.0)


def test_solve_heterogeneous_pipeline(tmp_path):
    code, res = full_pipeline(tmp_path, {"type": "balanced", "l": [4, 1], "u": [5, 5]})
    assert code == EXIT_OK
    assert load_json(str(res))["cost_on_full"] == pytest.approx(10.0)


def test_solve_infeasible_exit_code(tmp_path):
    code, _ = full_pipeline(tmp_path, {"type": "balanced", "l": [4, 4], "u": [5, 5]})
    assert code == EXIT_INFEASIBLE


def test_oracle_command(tmp_path):
    inst = tmp_path / "inst.json"
    con = tmp_path / "con.json"
    out = tmp_path / "orc.json"
    run(["generate", "--kind", "line", "--n", 5, "--k", 2, "--out", inst])
    con.write_text(json.dumps({"type": "unconstrained"}))
    assert run(["oracle", "--instance", inst, "--constraint", con, "--out", out]) == EXIT_OK
    assert load_json(str(out))["cost"] == pytest.approx(3.0)


def test_oracle_ceiling_exit_code(tmp_path):
    inst = tmp_path / "inst.json"
    con = tmp_path / "con.json"
    out = tmp_path / "orc.json"
    run(["generate", "--kind", "planar-blobs", "--n", 10, "--facilities", 10,
         "--k", 3, "--out", inst])
    con.write_text(json.dumps({"type": "unconstrained"}))
    code = run(["oracle", "--instance", inst, "--constraint", con,
                "--max-solves", 5, "--out", out])
    assert code == EXIT_CEILING


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "o.json"
    con = tmp_path / "c.json"
    con.write_text(json.dumps({"type": "unconstrained"}))
    assert run(["oracle", "--instance", bad, "--constraint", con, "--out", out]) == EXIT_VALIDATION


def test_verify_command_and_determinism(tmp_path):
    inst = tmp_path / "inst.json"
    cs = tmp_path / "cs.json"
    run(["generate", "--kind", "planar-blobs", "--n", 40, "--facilities", 8,
         "--k", 2, "--seed", 2, "--out", inst])
    run(["coreset", "--instance", inst, "--epsilon", 0.25, "--seed", 6, "--out", cs])
    reports = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        code = run(["verify", "--instance", inst, "--coreset", cs, "--which", "both",
                    "--trials", 10, "--epsilon", 0.25, "--seed", 17, "--out", out])
        assert code == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_solve_csv_export(tmp_path):
    inst = tmp_path / "inst.json"
    cs = tmp_path / "cs.json"
    con = tmp_path / "con.json"
    res = tmp_path / "res.json"
    csv = tmp_path / "assign.csv"
    run(["generate", "--kind", "line", "--n", 5, "--k", 2, "--out", inst])
    run(["coreset", "--instance", inst, "--epsilon", 0.25, "--out", cs])
    con.write_text(json.dumps({"type": "unconstrained"}))
    assert run(["solve", "--instance", inst, "--coreset", cs, "--constraint", con,
                "--out", res, "--csv", csv]) == EXIT_OK
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "point,cluster,mass"
    assert len(lines) == 6  # header + five points


def test_euclidean_kmeans_coreset_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    cs = tmp_path / "cs.json"
    con = tmp_path / "con.json"
    res = tmp_path / "res.json"
    run(["generate", "--kind", "planar-blobs", "--n", 30, "--facilities", 5,
         "--k", 2, "--z", 2, "--seed", 8, "--out", inst])
    assert run(["coreset", "--instance", inst, "--epsilon", 0.5, "--mode", "euclidean_kmeans",
                "--subset-size", 2, "--base-size", 8, "--seed", 8, "--out", cs]) == EXIT_OK
    payload = load_json(str(cs))
    assert isinstance(payload["J"][0], list)  # synthetic coordinates
    assert payload["alpha"] == 1.0
    con.write_text(json.dumps({"type": "unconstrained"}))
    assert run(["solve", "--instance", inst, "--coreset", cs, "--constraint", con,
                "--out", res]) == EXIT_OK
    centers = load_json(str(res))["centers"]
    assert len(centers) == 2 and len(centers[0]) == 2  # coordinate pairs


def test_coreset_z_mismatch_exit_code(tmp_path):
    inst = tmp_path / "inst.json"
    cs = tmp_path / "cs.json"
    con = tmp_path / "con.json"
    res = tmp_path / "res.json"
    run(["generate", "--kind", "line", "--n", 5, "--k", 2, "--out", inst])
    run(["coreset", "--instance", inst, "--epsilon", 0.25, "--out", cs])
    con.write_text(json.dumps({"type": "unconstrained"}))
    code = run(["solve", "--instance", inst, "--coreset", cs, "--constraint", con,
                "--z", 2, "--out", res])
    assert code == EXIT_VALIDATION


def test_dump_json_numpy_matches_python():
    with_numpy = {
        "int": np.int64(3),
        "small_int": np.int32(-7),
        "float": np.float64(0.1),
        "float32": np.float32(0.5),
        "bool": np.bool_(True),
        "vector": np.arange(3),
        "matrix": np.array([[1.5, 2.0], [np.inf, -0.0]]),
        "tuple": (np.int64(1), 2.5, (np.float64(1 / 3),)),
        "nested": [{"x": np.float64(2 / 3), "flags": np.array([True, False])}],
    }
    plain = {
        "int": 3,
        "small_int": -7,
        "float": 0.1,
        "float32": 0.5,
        "bool": True,
        "vector": [0, 1, 2],
        "matrix": [[1.5, 2.0], [float("inf"), -0.0]],
        "tuple": [1, 2.5, [1 / 3]],
        "nested": [{"x": 2 / 3, "flags": [True, False]}],
    }
    assert dump_json(with_numpy, None) == dump_json(plain, None)
    with pytest.raises(TypeError):
        dump_json({"set": {1, 2}}, None)


def _stdlib_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"


KEYS = st.text(max_size=4) | st.sampled_from(["%", "%s", "%%d", '"', "\\", "é", "\u2028", "日本"])
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 1e308])
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text(max_size=4) | KEYS
NUMPY = (
    st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.integers(-(2**31), 2**31 - 1).map(np.int32)
    | FLOATS.map(np.float64)
    | st.floats(width=32).map(np.float32)
    | st.booleans().map(np.bool_)
    | st.lists(FLOATS, max_size=4).map(np.array)
    | st.lists(st.integers(-5, 5), max_size=3).map(lambda row: np.array([row, row[::-1]]))
)
ONE_TYPE = st.sampled_from(
    [st.integers(), FLOATS, st.floats(-1e6, 1e6), st.text(max_size=3), st.booleans(), st.none()]
)


@st.composite
def uniform_rows(draw, children):
    """Lists of dicts with one key set. Each key holds scalars of one type or
    of mixed types, lists or tuples of them of one length or of several
    lengths, or anything."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 5))
    columns = []
    for _ in keys:
        scalar = draw(st.sampled_from([draw(ONE_TYPE), SCALARS]))
        width = draw(st.integers(0, 3))
        value = draw(st.sampled_from([
            scalar,
            st.lists(scalar, min_size=width, max_size=width),
            st.lists(scalar, min_size=width, max_size=width).map(tuple),
            st.lists(scalar, max_size=3),
            children,
        ]))
        columns.append(draw(st.lists(value, min_size=n, max_size=n)))
    return [dict(zip(keys, row)) for row in zip(*columns)]


JSON_TREES = st.recursive(
    SCALARS | NUMPY | ONE_TYPE.flatmap(lambda values: st.lists(values, max_size=6)),
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(KEYS, children, max_size=4)
        | st.dictionaries(st.integers() | st.floats(allow_nan=False) | st.booleans(), children,
                          max_size=3)
        | uniform_rows(children)
    ),
    max_leaves=30,
)


@given(st.dictionaries(KEYS, JSON_TREES, max_size=4))
@settings(max_examples=300, deadline=None)
def test_dump_json_matches_stdlib(payload):
    assert dump_json(payload, None) == _stdlib_text(payload)


@pytest.mark.parametrize("payload", [
    {"rows": [{"a": 1, "b": [1.5, 2.5]}, {"a": 2, "c": [1.5, 2.5]}]},  # one key differs
    {"rows": [{"a": 1}, {"a": 2, "b": 3}]},  # key counts differ
    {"rows": [{"a": [1, 2]}, {"a": [3]}]},  # list lengths differ
    {"rows": [{"a": []}, {"a": []}]},
    {"rows": [{"a": {"b": 1}}, {"a": {"b": 2}}]},
    {"rows": [{"a": np.float32(0.5)}, {"a": np.int64(2)}]},
    {"rows": [{1: "x"}, {1: "y"}]},
    {"rows": [{"%s": 1.0, "%": math.nan}, {"%s": math.inf, "%": -0.0}]},
    {"rows": [{"a": 1e308}, {"a": 1e308}]},  # finite, but the sum overflows
    {"nan": [math.nan, -math.inf, 1.0], "tuple": ((1, 2), ("x", None)), "empty": [[], {}, ()]},
])
def test_dump_json_matches_stdlib_on_row_edges(payload):
    assert dump_json(payload, None) == _stdlib_text(payload)


def _coreset_files(tmp_path, m=1, mode="metric"):
    inst = tmp_path / "inst.json"
    cs = tmp_path / "cs.json"
    z = 2 if mode == "euclidean_kmeans" else 1
    run(["generate", "--kind", "planar-blobs", "--n", 10, "--facilities", 4,
         "--k", 2, "--m", m, "--z", z, "--out", inst])
    run(["coreset", "--instance", inst, "--epsilon", 0.25, "--mode", mode, "--out", cs])
    return inst, cs


def _assert_rejected(tmp_path, capsys, inst, cs, needle):
    """``solve`` and ``verify`` both exit 3 with one ``error:`` line holding ``needle``."""
    con = tmp_path / "con.json"
    out = tmp_path / "out.json"
    con.write_text(json.dumps({"type": "unconstrained"}))
    capsys.readouterr()
    for args in (["solve", "--constraint", con], ["verify", "--which", "both", "--trials", 4]):
        code = run([args[0], "--instance", inst, "--coreset", cs, *args[1:], "--out", out])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0], err


def test_verify_z_mismatch_exit_code(tmp_path, capsys):
    """``verify --z 2`` on a coreset built for z=1 exits 3 with one line."""
    inst, cs = _coreset_files(tmp_path)
    capsys.readouterr()
    for which in ("A", "B"):
        code = run(["verify", "--instance", inst, "--coreset", cs, "--which", which,
                    "--trials", 4, "--z", 2, "--out", tmp_path / "out.json"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "z=1" in err[0], err


@pytest.mark.parametrize("bad_id", [12, 99], ids=["facility", "beyond-space"])
@pytest.mark.parametrize("m", [1, 2], ids=["unlabeled", "labeled"])
def test_summary_outside_instance_exit_code(tmp_path, capsys, m, bad_id):
    """S must consist of the instance's points: a facility id (12) or an id
    beyond the space (99) in S is an input error, not a traceback."""
    inst, cs = _coreset_files(tmp_path, m)
    payload = load_json(str(cs))
    payload["S"][0]["point"] = bad_id
    cs.write_text(json.dumps(payload))
    _assert_rejected(tmp_path, capsys, inst, cs, str(bad_id))


def test_candidates_outside_facilities_exit_code(tmp_path, capsys):
    """J must consist of the instance's facilities; points 0, 1, 2 are not."""
    inst, cs = _coreset_files(tmp_path)
    payload = load_json(str(cs))
    payload["J"] = [0, 1, 2]
    cs.write_text(json.dumps(payload))
    _assert_rejected(tmp_path, capsys, inst, cs, "not instance facilities: [0, 1, 2]")


def test_fewer_candidates_than_k_exit_code(tmp_path, capsys):
    """A J with fewer ids than k exits 3 with one line, from ``solve`` and
    from ``verify --which B``, which draws k distinct centers from J."""
    inst, cs = _coreset_files(tmp_path)
    payload = load_json(str(cs))
    payload["J"] = payload["J"][:1]
    cs.write_text(json.dumps(payload))
    needle = "cannot choose 2 distinct centers from 1 candidates"
    _assert_rejected(tmp_path, capsys, inst, cs, needle)
    code = run(["verify", "--instance", inst, "--coreset", cs, "--which", "B", "--trials", 4,
                "--out", tmp_path / "out.json"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {needle}"]


def test_candidate_coords_of_another_dimension_exit_code(tmp_path, capsys):
    inst, cs = _coreset_files(tmp_path, mode="euclidean_kmeans")
    payload = load_json(str(cs))
    payload["J"] = [row + [0.0] for row in payload["J"]]
    cs.write_text(json.dumps(payload))
    _assert_rejected(tmp_path, capsys, inst, cs, "dimension 3, the space has 2")


@pytest.mark.parametrize("key", ["J", "S", "alpha", "z", "epsilon", "delta", "seed"])
def test_coreset_missing_key_exit_code(tmp_path, capsys, key):
    inst, cs = _coreset_files(tmp_path)
    payload = load_json(str(cs))
    del payload[key]
    cs.write_text(json.dumps(payload))
    _assert_rejected(tmp_path, capsys, inst, cs, f"lacks {key}")


MALFORMED_CORESET = {
    "S-entry-without-point": lambda p: p["S"][0].pop("point"),
    "S-entry-without-weight": lambda p: p["S"][0].pop("weight"),
    "J-entry-not-an-id": lambda p: p["J"].__setitem__(0, "x"),
    "z-not-an-int": lambda p: p.__setitem__("z", "a"),
    "S-not-a-list": lambda p: p.__setitem__("S", 5),
}


@pytest.mark.parametrize("edit", MALFORMED_CORESET.values(), ids=MALFORMED_CORESET.keys())
def test_coreset_malformed_value_exit_code(tmp_path, capsys, edit):
    """A key that is present but holds the wrong kind of value is an input
    error, not a traceback."""
    inst, cs = _coreset_files(tmp_path)
    payload = load_json(str(cs))
    edit(payload)
    cs.write_text(json.dumps(payload))
    _assert_rejected(tmp_path, capsys, inst, cs, "malformed coreset file")


@pytest.mark.parametrize("weight", [0.0, -1.0])
def test_coreset_nonpositive_weight_exit_code(tmp_path, capsys, weight):
    """A summary weight must be positive: a zero weight used to solve with
    exit 0, and a negative one failed with a message about solver supplies."""
    inst, cs = _coreset_files(tmp_path)
    payload = load_json(str(cs))
    payload["S"][0]["weight"] = weight
    cs.write_text(json.dumps(payload))
    _assert_rejected(tmp_path, capsys, inst, cs, "coreset summary weights v must be positive")


@pytest.mark.parametrize("ref", [-1, 99])
def test_explicit_facility_point_out_of_range_exit_code(tmp_path, capsys, ref):
    """A facility's point reference must name one of the instance's points:
    -1 used to pick the last point silently, 99 raised an IndexError."""
    inst = tmp_path / "inst.json"
    con = tmp_path / "con.json"
    run(["generate", "--kind", "random-metric", "--n", 6, "--facilities", 3, "--k", 2, "--out", inst])
    payload = load_json(str(inst))
    payload["facilities"][0] = {"point": ref}
    inst.write_text(json.dumps(payload))
    con.write_text(json.dumps({"type": "unconstrained"}))
    capsys.readouterr()
    assert run(["oracle", "--instance", inst, "--constraint", con, "--out", tmp_path / "o.json"]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: facility references unknown point {ref}"]


def _set(path, value):
    """An edit that puts ``value`` at the key ``path`` of a payload."""
    def edit(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return payload
    return edit


MALFORMED_INPUT = {
    "points-plain-ints": ("instance", _set(["points"], [1, 2, 3, 4, 5])),
    "coordinate-a-string": ("instance", _set(["points", 0, "coords", 0], "a")),
    "weight-a-string": ("instance", _set(["points", 0, "weight"], "heavy")),
    "k-a-string": ("instance", _set(["k"], "two")),
    "balanced-l-a-string": ("constraint", _set(["l"], "ab")),
    "constraint-a-list": ("constraint", lambda payload: [payload]),
}


@pytest.mark.parametrize("kind, edit", MALFORMED_INPUT.values(), ids=MALFORMED_INPUT.keys())
def test_malformed_instance_or_constraint_exit_code(tmp_path, capsys, kind, edit):
    """A field of the wrong type in an instance or constraint file is an
    input error with a one-line message, not a traceback."""
    code, _ = full_pipeline(tmp_path, {"type": "balanced", "l": [2, 2], "u": [3, 3]})
    assert code == EXIT_OK
    path = tmp_path / ("inst.json" if kind == "instance" else "con.json")
    path.write_text(json.dumps(edit(load_json(str(path)))))
    capsys.readouterr()
    code = run(["solve", "--instance", tmp_path / "inst.json", "--coreset", tmp_path / "cs.json",
                "--constraint", tmp_path / "con.json", "--out", tmp_path / "res.json"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: malformed {kind} file:"), err


def _replace(payload):
    """An edit that replaces the whole payload."""
    return lambda _: payload


NON_INTEGER = {
    "k-fractional": ("line", "inst", _set(["k"], 2.5), "k must be an integer"),
    "k-a-bool": ("line", "inst", _set(["k"], True), "k must be an integer"),
    "label-fractional": ("line", "inst", _set(["points", 0, "label"], 0.7), "label must be"),
    "weight-a-bool": ("line", "inst", _set(["points", 0, "weight"], True), "weight must be a number"),
    "coordinate-a-bool": ("line", "inst", _set(["points", 0, "coords", 0], False), "coordinate must"),
    "facility-point-fractional": ("line", "inst", _set(["facilities", 0, "point"], 1.5), "facility point"),
    "point-index-fractional": ("random-metric", "inst", _set(["points", 0, "index"], 0.5), "point index"),
    "facility-index-a-bool": ("random-metric", "inst", _set(["facilities", 0, "index"], True), "facility index"),
    "coreset-z-fractional": ("line", "cs", _set(["z"], 1.5), "z must be an integer"),
    "coreset-seed-fractional": ("line", "cs", _set(["seed"], 3.5), "seed must be an integer"),
    "J-id-fractional": ("line", "cs", _set(["J", 0], 1.5), "J id must be an integer"),
    "S-point-fractional": ("line", "cs", _set(["S", 0, "point"], 1.5), "S point must be an integer"),
    "S-weight-a-bool": ("line", "cs", _set(["S", 0, "weight"], True), "S weight must be a number"),
    "ldiversity-l-fractional": ("line", "con", _replace({"type": "ldiversity", "l": 1.5}), "l must be"),
    "ldiversity-l-a-bool": ("line", "con", _replace({"type": "ldiversity", "l": True}), "l must be"),
}


@pytest.mark.parametrize("kind, name, edit, needle", NON_INTEGER.values(), ids=NON_INTEGER.keys())
def test_non_integer_field_exit_code(tmp_path, capsys, kind, name, edit, needle):
    """Integer fields take neither booleans nor fractions, and numbers are not
    booleans: ``k: 2.5`` used to solve as k=2, and ``weight: true`` as 1.0."""
    code, _ = full_pipeline(tmp_path, {"type": "balanced", "l": [0, 0], "u": [9, 9]},
                            kind=kind, n=6, fac=4, m=2)
    assert code == EXIT_OK
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(edit(load_json(str(path)))))
    capsys.readouterr()
    code = run(["solve", "--instance", tmp_path / "inst.json", "--coreset", tmp_path / "cs.json",
                "--constraint", tmp_path / "con.json", "--out", tmp_path / "res.json"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed") and needle in err[0], err


NUMERIC_STRING = {
    "weight": ("line", "inst", _set(["points", 0, "weight"], "2.5"), "weight must be a number"),
    "coordinate": ("line", "inst", _set(["points", 0, "coords", 0], "0.5"), "coordinate must be"),
    "facility-coordinate": ("planar-blobs", "inst", _set(["facilities", 0, "coords", 1], "1"),
                            "coordinate must be"),
    "distance": ("random-metric", "inst", _set(["distance_matrix", 1], "1.0"), "distance must be"),
    "S-weight": ("line", "cs", _set(["S", 0, "weight"], "1.0"), "S weight must be a number"),
    "coreset-alpha": ("line", "cs", _set(["alpha"], "3"), "alpha, epsilon and delta must be"),
    "coreset-epsilon": ("line", "cs", _set(["epsilon"], "0.25"), "alpha, epsilon and delta must be"),
    "coreset-delta": ("line", "cs", _set(["delta"], "0.1"), "alpha, epsilon and delta must be"),
    "balanced-l": ("line", "con", _set(["l", 0], "0"), "l must be a number"),
    "balanced-u": ("line", "con", _set(["u", 1], "9"), "u must be a number"),
    "profile-gamma": ("line", "con", _replace({"type": "profile", "gamma": ["3", 3]}), "gamma must be"),
    "fractions-alpha": ("line", "con", _replace({"type": "fractions", "alpha": [[0, "0"], [0, 0]],
                                                 "beta": [[1, 1], [1, 1]]}), "alpha must be"),
    "fractions-beta": ("line", "con", _replace({"type": "fractions", "alpha": [0, 0], "beta": [1, "1"]}),
                       "beta must be"),
}


@pytest.mark.parametrize("kind, name, edit, needle", NUMERIC_STRING.values(), ids=NUMERIC_STRING.keys())
def test_numeric_string_exit_code(tmp_path, capsys, kind, name, edit, needle):
    """Float fields hold JSON numbers: ``"weight": "2.5"`` used to solve as 2.5."""
    code, _ = full_pipeline(tmp_path, {"type": "balanced", "l": [0, 0], "u": [9, 9]},
                            kind=kind, n=6, fac=4, m=2)
    assert code == EXIT_OK
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(edit(load_json(str(path)))))
    capsys.readouterr()
    code = run(["solve", "--instance", tmp_path / "inst.json", "--coreset", tmp_path / "cs.json",
                "--constraint", tmp_path / "con.json", "--out", tmp_path / "res.json"])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed") and needle in err[0], err


def test_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    """A solve without a valid certificate exits 5 with one line, not a
    traceback with exit 1, which ``verify`` uses for FAIL."""
    def uncertified(problem):
        raise SolverError("complementary slackness violated on the flow support")

    monkeypatch.setattr(constraints, "solve_bounded_transportation", uncertified)
    capsys.readouterr()
    code, _ = full_pipeline(tmp_path, {"type": "balanced", "l": [2, 2], "u": [3, 3]})
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["solver error: complementary slackness violated on the flow support"]


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 2.98 GiB for an array"),
     "resource ceiling: Unable to allocate 2.98 GiB for an array"),
    (MemoryError(), "resource ceiling: out of memory"),
])
def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch, error, line):
    """Running out of memory (numpy raises a MemoryError subclass) exits 4
    with one line, not a traceback with exit 1."""
    def exhausted(*args, **kwargs):
        raise error

    inst = tmp_path / "inst.json"
    run(["generate", "--kind", "line", "--n", 5, "--k", 2, "--out", inst])
    monkeypatch.setattr(cli, "build_universal_weak_coreset", exhausted)
    capsys.readouterr()
    code = run(["coreset", "--instance", inst, "--epsilon", 0.25, "--out", tmp_path / "cs.json"])
    assert code == EXIT_CEILING
    assert capsys.readouterr().err.strip().splitlines() == [line]


def test_out_files_are_stdlib_json_bytes(tmp_path):
    """Every command's --out file is the stdlib's sort_keys, indent=2 text of
    its own content; a float's repr round-trips, so these are its bytes."""
    d = tmp_path
    (d / "con.json").write_text(json.dumps({"type": "ldiversity", "l": 2}))
    (d / "free.json").write_text(json.dumps({"type": "unconstrained"}))
    commands = [
        ["generate", "--kind", "planar-blobs", "--n", 40, "--facilities", 6, "--k", 2, "--m", 2,
         "--seed", 4, "--out", d / "blobs.json"],
        ["generate", "--kind", "random-metric", "--n", 12, "--facilities", 4, "--k", 2,
         "--seed", 4, "--out", d / "metric.json"],
        ["coreset", "--instance", d / "blobs.json", "--epsilon", 0.5, "--seed", 7,
         "--out", d / "cs.json"],
        ["coreset", "--instance", d / "metric.json", "--epsilon", 0.5, "--seed", 7,
         "--out", d / "cs_metric.json"],
        ["coreset", "--instance", d / "blobs.json", "--epsilon", 0.5, "--mode", "euclidean_kmeans",
         "--z", 2, "--subset-size", 2, "--base-size", 8, "--seed", 7, "--out", d / "cs_means.json"],
        ["solve", "--instance", d / "blobs.json", "--coreset", d / "cs.json",
         "--constraint", d / "con.json", "--out", d / "res.json"],
        ["solve", "--instance", d / "blobs.json", "--coreset", d / "cs_means.json", "--z", 2,
         "--constraint", d / "free.json", "--out", d / "res_means.json"],
        ["oracle", "--instance", d / "metric.json", "--constraint", d / "free.json",
         "--out", d / "opt.json"],
        ["verify", "--instance", d / "metric.json", "--coreset", d / "cs_metric.json",
         "--which", "both", "--trials", 6, "--seed", 3, "--out", d / "report.json"],
    ]
    for args in commands:
        assert run(args) in (EXIT_OK, 1), args
        text = args[-1].read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", args[0]


def _shift_between_labels(payload):
    """Move half a unit of summary weight from a label-0 point to a label-1 point
    (planar-blobs labels alternate with the point id), keeping the total."""
    even = next(e for e in payload["S"] if e["point"] % 2 == 0)
    odd = next(e for e in payload["S"] if e["point"] % 2 == 1)
    even["weight"] -= 0.5
    odd["weight"] += 0.5


SUMMARY_WEIGHT_EDITS = {
    "tripled-unlabeled": (1, lambda p: [e.__setitem__("weight", 3 * e["weight"]) for e in p["S"]]),
    "tripled-labeled": (2, lambda p: [e.__setitem__("weight", 3 * e["weight"]) for e in p["S"]]),
    "moved-between-labels": (2, _shift_between_labels),
}


@pytest.mark.parametrize("m, edit", SUMMARY_WEIGHT_EDITS.values(), ids=SUMMARY_WEIGHT_EDITS.keys())
def test_summary_weight_totals_exit_code(tmp_path, capsys, m, edit):
    """The summary must carry the instance's weight, per label when labeled:
    a coreset with every weight tripled used to solve with exit 0."""
    inst, cs = _coreset_files(tmp_path, m)
    payload = load_json(str(cs))
    edit(payload)
    cs.write_text(json.dumps(payload))
    _assert_rejected(tmp_path, capsys, inst, cs, "coreset summary weight totals")


USAGE_ERRORS = {
    "missing-out": ["generate", "--kind", "line"],
    "ordered-and-unordered": ["solve", "--instance", "i.json", "--coreset", "c.json",
                              "--constraint", "x.json", "--out", "o.json", "--ordered", "--unordered"],
    "unknown-command": ["frobnicate"],
    **{
        f"coreset-{flag[2:]}-{value}": ["coreset", "--instance", "i.json", "--out", "o.json",
                                        "--epsilon", "0.5", flag, value]
        for flag, value in [("--epsilon", "0"), ("--epsilon", "-1"), ("--epsilon", "nan"),
                            ("--epsilon", "inf"), ("--c0", "nan")]
    },
    **{
        f"generate-{flag[2:]}-{value}": ["generate", "--kind", "planar-blobs", "--out", "o.json",
                                         flag, value]
        for flag, value in [("--n", "-1"), ("--n", "0"), ("--facilities", "0"), ("--k", "9"),
                            ("--m", "0")]
    },
    **{
        f"verify-trials-{value}": ["verify", "--instance", "i.json", "--coreset", "c.json",
                                   "--out", "o.json", "--trials", value]
        for value in ("0", "-3")
    },
}


@pytest.mark.parametrize("args", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exit_code(tmp_path, capsys, args):
    """A usage error or an out-of-range number is an input error (3) with an
    ``error:`` line and no output file: argparse's own code 2 would read as
    "infeasible", both ordering flags together used to mean ordered, and an
    epsilon of 0 used to end in a traceback, an infinite one in a non-JSON
    coreset file, ``generate --n 0`` in a file the loader refuses and
    ``verify --trials 0`` in a pass with nothing checked."""
    assert run(["generate", "--kind", "planar-blobs", "--n", 10, "--facilities", 4, "--m", 2,
                "--out", tmp_path / "i.json"]) == EXIT_OK
    assert run(["coreset", "--instance", tmp_path / "i.json", "--epsilon", 0.5,
                "--out", tmp_path / "c.json"]) == EXIT_OK
    capsys.readouterr()
    try:
        code = run([tmp_path / a if a.endswith(".json") else a for a in args])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
