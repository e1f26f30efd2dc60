"""Tests of the benchmark's own machinery: the output check, failure counting
and tracing. Run with ``python3 -m pytest -q perfbench/test_bench.py``."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import weakcore.meta  # noqa: E402
from check import check_answer, check_reference  # noqa: E402
from workloads import WORKLOADS, EnumBalanced  # noqa: E402


class SmallBalanced(EnumBalanced):
    """A desk-size version of enum-balanced so a job takes milliseconds."""

    name = "small-balanced"
    per_variant = 2
    sizes = {"n": 60, "F": 5, "k": 3, "z": 1, "m": 1}
    sample_count = 5


class Corrupting(SmallBalanced):
    """Sends half of the first entry's mass to the next cluster instead."""

    def answer(self, ctx, case, raw):
        ans = super().answer(ctx, case, raw)
        half = ans.masses[0] / 2
        return dataclasses.replace(
            ans,
            points=np.append(ans.points, ans.points[0]),
            clusters=np.append(ans.clusters, (ans.clusters[0] + 1) % ctx[case.key][0].k),
            masses=np.concatenate([[half], ans.masses[1:], [half]]),
        )


@pytest.fixture(scope="module")
def small_job(tmp_path_factory):
    wl = SmallBalanced()
    cases = wl.sequence(0)
    ctx = wl.setup(cases, tmp_path_factory.mktemp("work"))
    case = cases[0]
    ans = wl.answer(ctx, case, wl.run(ctx, case))
    inst, spec, _ = ctx[case.key]
    return wl, ctx, case, ans, inst, spec


def test_correct_answer_passes(small_job):
    _, _, _, ans, inst, spec = small_job
    assert check_answer(inst, spec, ans.centers, ans.cost, ans.points, ans.clusters, ans.masses) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p, c, m, k: (p, c, m * 1.001),  # conservation
        lambda p, c, m, k: (p, np.where(c == 0, 1 % k, c), m),  # balance bounds and cost
        lambda p, c, m, k: (p[1:], c[1:], m[1:]),  # a point left unassigned
    ],
)
def test_corrupted_assignment_is_flagged(small_job, corrupt):
    _, _, _, ans, inst, spec = small_job
    p, c, m = corrupt(ans.points, ans.clusters, ans.masses, inst.k)
    assert check_answer(inst, spec, ans.centers, ans.cost, p, c, m)


def test_wrong_cost_and_reference_are_flagged(small_job):
    _, _, _, ans, inst, spec = small_job
    assert check_answer(inst, spec, ans.centers, ans.cost * (1 + 1e-8), ans.points, ans.clusters, ans.masses)
    ref = {"centers": [int(c) for c in ans.centers], "cost": ans.cost}
    assert check_reference(ref, ans.centers, ans.cost) == []
    assert check_reference(ref, ans.centers[::-1], ans.cost)
    assert check_reference(ref, ans.centers, ans.cost * (1 + 1e-8))
    assert check_reference(None, ans.centers, ans.cost)


def test_corrupted_job_counts_as_failed(small_job):
    wl, ctx, case, ans, _, _ = small_job
    refs = {case.key: {"centers": [int(c) for c in ans.centers], "cost": ans.cost}}
    good = run.run_job(wl, ctx, case, 0, refs)
    bad = run.run_job(Corrupting(), ctx, case, 1, refs)
    assert good["problems"] == []
    assert bad["problems"]
    metrics, _ = run.latency_metrics([good, bad])
    assert metrics["job_p50_s"] == good["time_s"]


def test_tracing_restores_names_and_reports_absent(small_job):
    wl, ctx, case, _, inst, _ = small_job
    original = weakcore.meta.solve_constrained
    original_pairwise = weakcore.model.MetricSpace.__dict__["pairwise"]
    missing = tracing.Hook("weakcore.constraints:no_such_solver", "flowlp.lp")
    hooks = tuple(h for h in tracing.HOOKS if h.span != "flowlp.lp") + (missing,)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, hooks):
        assert weakcore.meta.solve_constrained is not original
        with tracer.job_span(0, inst.n):
            wl.run(ctx, case)
    assert weakcore.meta.solve_constrained is original
    assert weakcore.model.MetricSpace.__dict__["pairwise"] is original_pairwise
    assert tracer.absent == {missing.target}
    metrics = tracing.layer_metrics(tracing.job_spans(tracer), tracer, [0])
    assert metrics["flowlp.lp_calls"] is None
    assert metrics["flowlp.bounded_calls"] >= 1
    assert metrics["meta.tuples"] >= 1
    assert metrics["meta.enumerate_s"] + metrics["meta.resolve_s"] == pytest.approx(metrics["meta.solve_s"])


def test_sequences_are_seeded_and_fully_referenced():
    refs = json.loads(run.REFERENCE.read_text())
    for name, wl in WORKLOADS.items():
        assert wl.sequence(7) == wl.sequence(7)
        pool = [c for cases in wl.case_pool().values() for c in cases]
        assert set(refs[name]) == {c.key for c in pool}, name
    assert WORKLOADS["resolve-large"].sequence(1)[:2] != WORKLOADS["resolve-large"].sequence(2)[:2]


def test_benchmark_json_names_what_the_run_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    layer = [(n, u) for n, u, _, _ in tracing.LAYER_METRICS] + [("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layer
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
