"""Benchmark of the weakcore pipeline: coreset, enumeration over J, full-data re-solve.

    python3 perfbench/run.py --workload enum-balanced --seed 1 --seconds 25 --trace 0

Runs one workload closed-loop (one job at a time, in this process) for
``--seconds`` seconds and checks every job's answer. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. Every metric is also
printed on its own ``metric`` line with its unit. The full record of a run
(environment, input sizes, every job) goes to ``perfbench/out/``; a traced
run also writes its spans there.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
MIN_JOBS = TAIL_BEYOND + 2  # enough jobs for a tail percentile with ten beyond it
PROBE_CASES = 6  # cases in one traced pass: every fair-lp variant once
E2E_UNITS = {"job_p50_s": "s", "job_tail_s": "s", "jobs_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def import_package() -> float:
    """Import numpy and the package from ``src/``; returns the seconds it took."""
    started = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import weakcore
    import weakcore.cli  # noqa: F401

    if src.resolve() not in Path(weakcore.__file__).resolve().parents:
        raise ImportError(f"weakcore was imported from {weakcore.__file__}, not from {src}")
    return time.perf_counter() - started


def git_sha():
    """The checked-out commit, read from ``.git`` without starting git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def answer_problems(ctx, case, ans) -> list[str]:
    """Problems with a job's answer, before comparing it with the reference."""
    from check import check_answer  # numpy loads only after the BLAS caps are set

    inst, spec, _ = ctx[case.key]
    return ans.problems + check_answer(inst, spec, ans.centers, ans.cost, ans.points, ans.clusters, ans.masses)


def run_job(wl, ctx, case, job_id, refs, tracer=None) -> dict:
    """Run and check one job. A job fails if it raises or its answer fails a check."""
    from check import check_reference

    inst = ctx[case.key][0]
    rec = {"job": job_id, "case": case.key}
    started = time.perf_counter()
    try:
        if tracer is None:
            raw = wl.run(ctx, case)
        else:
            with tracer.job_span(job_id, inst.n):
                raw = wl.run(ctx, case)
        rec["time_s"] = time.perf_counter() - started
        ans = wl.answer(ctx, case, raw)
    except Exception as exc:  # the job failed; record it and keep running
        rec.setdefault("time_s", time.perf_counter() - started)
        rec["problems"] = [f"{type(exc).__name__}: {exc}"]
        return rec
    rec.update(centers=list(ans.centers), cost=ans.cost, J=ans.j_size, S=ans.s_size, tuples=ans.tuples)
    rec["problems"] = answer_problems(ctx, case, ans) + check_reference(refs.get(case.key), ans.centers, ans.cost)
    return rec


def run_until(wl, ctx, cases, refs, deadline, min_jobs):
    """Run jobs over ``cases`` in turn until ``deadline`` and at least ``min_jobs``."""
    records = []
    while len(records) < min_jobs or time.perf_counter() < deadline:
        records.append(run_job(wl, ctx, cases[len(records) % len(cases)], len(records), refs))
    return records


def latency_metrics(records) -> tuple[dict, str]:
    times = sorted(r["time_s"] for r in records if not r["problems"])
    if not times:
        return {"job_p50_s": 0.0, "job_tail_s": 0.0, "jobs_per_s": 0.0}, "no job passed"
    n = len(times)
    tail_index = max(n - TAIL_BEYOND - 1, 0)
    pct = 100.0 * (tail_index + 1) / n
    note = f"p{pct:.0f} of {n} jobs, {n - tail_index - 1} beyond it"
    return {
        "job_p50_s": statistics.median(times),
        "job_tail_s": times[tail_index],
        "jobs_per_s": n / sum(times),
    }, note


def input_sizes(wl, records) -> dict:
    sizes = dict(wl.sizes)
    for key in ("J", "S", "tuples"):
        vals = [r[key] for r in records if key in r]
        sizes[key] = [min(vals), max(vals)] if vals else None
    return sizes


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_untraced(wl, ctx, cases, refs, seconds, setup_s):
    """End-to-end metrics over jobs run for ``seconds``."""
    records = run_until(wl, ctx, cases, refs, time.perf_counter() + seconds, MIN_JOBS)
    metrics, tail_note = latency_metrics(records)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, metrics, dict(E2E_UNITS), {"job_tail_s": tail_note}, []


def measure_traced(wl, ctx, cases, refs, seconds, trace_path):
    """Per-layer metrics from whole passes over the probe cases. Untraced and
    traced passes alternate, so the overhead compares like with like; the run
    lasts ``seconds`` and at least two traced passes. Spans go to ``trace_path``."""
    import tracing

    probe = cases[:PROBE_CASES]
    tracer = tracing.Tracer()
    plain, traced = [], []

    def one_pass(tr):
        first = len(plain) + len(traced)
        return [run_job(wl, ctx, case, first + i, refs, tr) for i, case in enumerate(probe)]

    deadline = time.perf_counter() + seconds
    while len(traced) < 2 * len(probe) or time.perf_counter() < deadline:
        plain.extend(one_pass(None))
        with tracing.installed(tracer):
            traced.extend(one_pass(tracer))
    groups = tracing.job_spans(tracer)
    metrics = tracing.layer_metrics(groups, tracer, [r["job"] for r in traced if not r["problems"]])
    units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    base, _ = latency_metrics(plain)
    with_trace, _ = latency_metrics(traced)
    metrics["trace.overhead_s"] = with_trace["job_p50_s"] - base["job_p50_s"]
    units["trace.overhead_s"] = "s"
    notes = {
        "trace.overhead_s": f"traced job p50 {with_trace['job_p50_s']:.6f} s vs untraced "
        f"{base['job_p50_s']:.6f} s, {len(traced)} and {len(plain)} jobs on the same {len(probe)} cases"
    }
    absent = sorted(tracer.absent)
    if absent:
        notes["absent"] = "names not found, metrics reported as null: " + ", ".join(absent)
    with gzip.open(trace_path, "wt", compresslevel=1) as fh:
        json.dump({"workload": wl.name, "absent": absent, "spans": tracer.spans}, fh)
    return plain + traced, metrics, units, notes, tracing.repeat_mismatches(groups, tracer, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = os.cpu_count() or 1
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc)
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import weakcore from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text()).get(wl.name, {}) if REFERENCE.exists() else {}
    tag = f"{wl.name}_seed{args.seed}"

    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cases = wl.sequence(args.seed)
        setup_times = []
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            started = time.perf_counter()
            ctx = wl.setup(cases, workdir)
            setup_times.append(time.perf_counter() - started)
        if args.trace == 0:
            setup_s = import_s + statistics.median(setup_times)
            measured, metrics, units, notes, repeat_problems = measure_untraced(
                wl, ctx, cases, refs, args.seconds, setup_s
            )
        else:
            measured, metrics, units, notes, repeat_problems = measure_traced(
                wl, ctx, cases, refs, args.seconds, OUT / f"trace_{tag}.json.gz"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in measured if r["problems"])
    env = environment(args)
    env["sizes"] = input_sizes(wl, measured)
    print("env " + json.dumps(env, sort_keys=True))
    for r in measured:
        if r["problems"]:
            print(f"failed job {r['job']} case {r['case']}: {'; '.join(r['problems'][:3])}")
    for msg in repeat_problems:
        print(f"repeat check: {msg}")
    print(f"metric fail_frac {failed / max(len(measured), 1)!r} ratio ({failed} of {len(measured)} jobs)")
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"metric {name} {value!r} {units[name]}{note}")
    if "absent" in notes:
        print(notes["absent"])

    result = {
        "correct": failed == 0 and not repeat_problems,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {"env": env, "result": result, "notes": notes, "repeat_problems": repeat_problems, "jobs": measured}
    (OUT / f"result_{tag}_trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
