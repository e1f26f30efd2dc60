"""In-memory span tracing of the package's layers, from outside the package.

``installed(tracer)`` replaces public names in the module that looks them up
(for example ``weakcore.constraints.solve_lp``, the name the constraint
layer calls) with a wrapper that records a span, and restores every name on
exit. A name that no longer exists is skipped and reported as absent; the
metrics that need it then read ``None`` instead of failing the run.

A span is ``[name, start, end, parent index, job id, attrs]``. Its layer is
the part of the name before the first dot. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self.installed_spans: set[str] = set()
        self._stack: list[int] = []
        self.job: Optional[int] = None
        self.n: Optional[int] = None

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list, end: float, attrs: Optional[dict]) -> None:
        span[2] = end
        span[5] = attrs
        self._stack.pop()

    @contextmanager
    def job_span(self, job: int, n: int):
        """Root span of one job; ``n`` tells full-data solves from summary ones."""
        self.job, self.n = job, n
        span = self.open("job")
        try:
            yield
        finally:
            self.close(span, time.perf_counter(), None)
            self.job = self.n = None


# ---------------------------------------------------------------------------
# What is wrapped. Each measure maps (args, result, tracer) to span attrs.
# ---------------------------------------------------------------------------


def _rows_of_points(args, result, tracer):
    rows = int(args[0].size)
    return {"rows": rows, "full": rows == tracer.n}


def _rows_of_cost(args, result, tracer):
    rows, cols = args[0].cost.shape
    return {"rows": int(rows), "cells": int(rows * cols), "full": rows == tracer.n}


def _rows_of_lp(args, result, tracer):
    p = args[0]
    rows = 0 if p.b_eq is None else int(p.b_eq.size)
    nv = int(p.objective.size)
    return {"rows": rows, "cells": nv, "vars": nv, "full": rows == tracer.n}


def _pairwise_cells(args, result, tracer):
    return {"cells": int(np.size(args[1]) * np.size(args[2]))}


def _j_size(args, result, tracer):
    return {"j": int(np.shape(result)[0])}


def _s_size(args, result, tracer):
    return {"s": int(result.S.size)}


def _ring_count(args, result, tracer):
    return {"rings": int(result.ring_count)}


def _trials(args, result, tracer):
    return {"trials": int(result.trials)}


@dataclass(frozen=True)
class Hook:
    target: str  # "module:attr" or "module:Class.attr"
    span: str
    site: str = ""
    measure: Optional[Callable] = None


HOOKS = (
    Hook("weakcore.meta:solve_constrained", "meta.solve"),
    Hook("weakcore.cli:solve_constrained", "meta.solve"),
    Hook("weakcore.meta:optimal_feasible_cost", "constraints.ofc", "meta", _rows_of_points),
    Hook("weakcore.oracle:optimal_feasible_cost", "constraints.ofc", "oracle", _rows_of_points),
    Hook("weakcore.oracle:profile_cost", "constraints.profile_cost", "oracle", _rows_of_points),
    Hook("weakcore.oracle:voronoi_profile", "constraints.voronoi_profile", "oracle", _rows_of_points),
    Hook("weakcore.constraints:assignment_cost", "constraints.assignment_cost"),
    Hook("weakcore.constraints:solve_transportation", "flowlp.transport", "", _rows_of_cost),
    Hook("weakcore.constraints:solve_bounded_transportation", "flowlp.bounded", "", _rows_of_cost),
    Hook("weakcore.constraints:solve_lp", "flowlp.lp", "", _rows_of_lp),
    Hook("weakcore.model:MetricSpace.pairwise", "model.pairwise", "", _pairwise_cells),
    Hook("weakcore.model:MetricSpace.distance_pairs", "model.distance_pairs"),
    Hook("weakcore.model:Assignment.check_conservation", "model.check_conservation"),
    Hook("weakcore.model:Assignment.label_cluster_mass", "model.label_cluster_mass"),
    Hook("weakcore.coreset:build_candidates_metric", "candidates.build", "", _j_size),
    Hook("weakcore.coreset:build_candidates_euclidean_means", "candidates.build", "", _j_size),
    Hook("weakcore.coreset:dz_seed", "candidates.dz_seed"),
    Hook("weakcore.candidates:dz_seed", "candidates.dz_seed"),
    Hook("weakcore.coreset:build_universal_weak_coreset", "coreset.build", "", _s_size),
    Hook("weakcore.cli:build_universal_weak_coreset", "coreset.build", "", _s_size),
    Hook("weakcore.coreset:build_summary", "coreset.summary"),
    Hook("weakcore.coreset:build_summary_labeled", "coreset.summary"),
    Hook("weakcore.coreset:ring_decomposition", "coreset.ring_decomposition", "", _ring_count),
    Hook("weakcore.coreset:WeakCoreset.summary_points", "coreset.summary_points"),
    Hook("weakcore.oracle:verify_property_B", "oracle.verify_B", "", _trials),
    Hook("weakcore.cli:load_instance", "cli.load_instance"),
    Hook("weakcore.cli:dump_json", "cli.dump_json"),
    Hook("weakcore.cli:cmd_coreset", "cli.coreset_cmd"),
    Hook("weakcore.cli:cmd_solve", "cli.solve_cmd"),
)


def _resolve(target: str):
    """(owner, attr) for a hook target, or None when the name is gone."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _wrap(tracer: Tracer, hook: Hook, fn):
    name, site, measure = hook.span, hook.site, hook.measure

    def attrs(args, result, exc):
        out = {}
        if measure is not None:
            try:
                out = measure(args, result, tracer)
            except (AttributeError, TypeError, IndexError, ValueError):
                out = {}  # a changed signature loses the attrs, not the run
        if site:
            out["site"] = site
        if exc is not None:
            out["error"] = type(exc).__name__
        return out

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = time.perf_counter()
            tracer.close(span, end, attrs(args, None, exc))
            raise
        end = time.perf_counter()
        tracer.close(span, end, attrs(args, result, None))
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, hooks=HOOKS):
    """Wrap every hook target for the duration of the block."""
    patched = []
    try:
        for hook in hooks:
            found = _resolve(hook.target)
            if found is None:
                tracer.absent.add(hook.target)
                continue
            owner, attr = found
            raw = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, _wrap(tracer, hook, getattr(owner, attr)))
            patched.append((owner, attr, raw))
            tracer.installed_spans.add(hook.span)
        yield tracer
    finally:
        for owner, attr, raw in reversed(patched):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------


class Spans:
    """Sums over the spans of a set of jobs."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self._self = [s[2] - s[1] - c for s, c in zip(spans, child)]

    def _select(self, name: str, pred):
        for s in self.spans:
            if s[0] != name and not (name.endswith(".") and s[0].startswith(name)):
                continue
            # A span directly inside a span of the same name is not counted twice.
            if s[3] >= 0 and self.spans[s[3]][0] == s[0]:
                continue
            if pred is None or pred(s[5] or {}):
                yield s

    def count(self, name: str, pred=None) -> int:
        return sum(1 for _ in self._select(name, pred))

    def total(self, name: str, pred=None) -> float:
        return sum(s[2] - s[1] for s in self._select(name, pred))

    def attr_sum(self, name: str, key: str, pred=None) -> float:
        return sum(s[5].get(key, 0) for s in self._select(name, pred))

    def self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for s, t in zip(self.spans, self._self) if s[0].startswith(prefix))


def full(a):
    return a.get("full", False)


def summary(a):
    return not a.get("full", False)


def at(site, pred=None):
    return lambda a: a.get("site") == site and (pred is None or pred(a))


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, span names it needs, value from (Spans, jobs)); extensive
# quantities are per job, rates and fractions are ratios of totals.
LAYER_METRICS = (
    ("meta.solve_s", "s", ("meta.solve",), lambda a, j: a.total("meta.solve") / j),
    ("meta.enumerate_s", "s", ("meta.solve", "constraints.ofc"),
     lambda a, j: (a.total("meta.solve") - a.total("constraints.ofc", at("meta", full))) / j),
    ("meta.resolve_s", "s", ("constraints.ofc",),
     lambda a, j: a.total("constraints.ofc", at("meta", full)) / j),
    ("meta.tuples", "count", ("constraints.ofc",),
     lambda a, j: a.count("constraints.ofc", at("meta", summary)) / j),
    ("meta.tuples_per_s", "1/s", ("meta.solve", "constraints.ofc"),
     lambda a, j: _ratio(a.count("constraints.ofc", at("meta", summary)),
                         a.total("meta.solve") - a.total("constraints.ofc", at("meta", full)))),
    ("meta.feasible_frac", "ratio", ("constraints.ofc",),
     lambda a, j: _ratio(a.count("constraints.ofc", at("meta", lambda x: summary(x) and "error" not in x)),
                         a.count("constraints.ofc", at("meta", summary)))),
    ("meta.self_s", "s", ("meta.solve",), lambda a, j: a.self_time("meta") / j),
    ("constraints.ofc_calls", "count", ("constraints.ofc",), lambda a, j: a.count("constraints.ofc") / j),
    ("constraints.self_s", "s", ("constraints.ofc",), lambda a, j: a.self_time("constraints") / j),
    ("constraints.assignment_cost_calls", "count", ("constraints.assignment_cost",),
     lambda a, j: a.count("constraints.assignment_cost") / j),
    ("constraints.assignment_cost_s", "s", ("constraints.assignment_cost",),
     lambda a, j: a.total("constraints.assignment_cost") / j),
    ("flowlp.bounded_calls", "count", ("flowlp.bounded",), lambda a, j: a.count("flowlp.bounded") / j),
    ("flowlp.transport_calls", "count", ("flowlp.transport",), lambda a, j: a.count("flowlp.transport") / j),
    ("flowlp.lp_calls", "count", ("flowlp.lp",), lambda a, j: a.count("flowlp.lp") / j),
    ("flowlp.bounded_summary_s", "s", ("flowlp.bounded",), lambda a, j: a.total("flowlp.bounded", summary) / j),
    ("flowlp.bounded_full_s", "s", ("flowlp.bounded",), lambda a, j: a.total("flowlp.bounded", full) / j),
    ("flowlp.transport_summary_s", "s", ("flowlp.transport",),
     lambda a, j: a.total("flowlp.transport", summary) / j),
    ("flowlp.transport_full_s", "s", ("flowlp.transport",), lambda a, j: a.total("flowlp.transport", full) / j),
    ("flowlp.lp_summary_s", "s", ("flowlp.lp",), lambda a, j: a.total("flowlp.lp", summary) / j),
    ("flowlp.lp_full_s", "s", ("flowlp.lp",), lambda a, j: a.total("flowlp.lp", full) / j),
    ("flowlp.cells", "count", ("flowlp.transport", "flowlp.bounded", "flowlp.lp"),
     lambda a, j: a.attr_sum("flowlp.", "cells") / j),
    ("flowlp.lp_vars", "count", ("flowlp.lp",), lambda a, j: a.attr_sum("flowlp.lp", "vars") / j),
    ("flowlp.infeasible", "count", ("flowlp.transport", "flowlp.bounded", "flowlp.lp"),
     lambda a, j: a.count("flowlp.", lambda x: x.get("error") == "Infeasible") / j),
    ("flowlp.self_s", "s", ("flowlp.transport", "flowlp.bounded", "flowlp.lp"),
     lambda a, j: a.self_time("flowlp") / j),
    ("model.pairwise_calls", "count", ("model.pairwise",), lambda a, j: a.count("model.pairwise") / j),
    ("model.pairwise_cells", "count", ("model.pairwise",), lambda a, j: a.attr_sum("model.pairwise", "cells") / j),
    ("model.pairwise_s", "s", ("model.pairwise",), lambda a, j: a.total("model.pairwise") / j),
    ("model.check_conservation_s", "s", ("model.check_conservation",),
     lambda a, j: a.total("model.check_conservation") / j),
    ("model.label_cluster_mass_s", "s", ("model.label_cluster_mass",),
     lambda a, j: a.total("model.label_cluster_mass") / j),
    ("model.self_s", "s", ("model.pairwise",), lambda a, j: a.self_time("model") / j),
    ("candidates.build_s", "s", ("candidates.build",), lambda a, j: a.total("candidates.build") / j),
    ("candidates.dz_seed_calls", "count", ("candidates.dz_seed",), lambda a, j: a.count("candidates.dz_seed") / j),
    ("candidates.dz_seed_s", "s", ("candidates.dz_seed",), lambda a, j: a.total("candidates.dz_seed") / j),
    ("candidates.j_size", "count", ("candidates.build",), lambda a, j: a.attr_sum("candidates.build", "j") / j),
    ("candidates.self_s", "s", ("candidates.build",), lambda a, j: a.self_time("candidates") / j),
    ("coreset.build_s", "s", ("coreset.build",), lambda a, j: a.total("coreset.build") / j),
    ("coreset.summary_s", "s", ("coreset.summary",), lambda a, j: a.total("coreset.summary") / j),
    ("coreset.ring_decomposition_s", "s", ("coreset.ring_decomposition",),
     lambda a, j: a.total("coreset.ring_decomposition") / j),
    ("coreset.summary_points_s", "s", ("coreset.summary_points",), lambda a, j: a.total("coreset.summary_points") / j),
    ("coreset.s_size", "count", ("coreset.build",), lambda a, j: a.attr_sum("coreset.build", "s") / j),
    ("coreset.ring_count", "count", ("coreset.ring_decomposition",),
     lambda a, j: a.attr_sum("coreset.ring_decomposition", "rings") / j),
    ("coreset.self_s", "s", ("coreset.build",), lambda a, j: a.self_time("coreset") / j),
    ("oracle.verify_B_s", "s", ("oracle.verify_B",), lambda a, j: a.total("oracle.verify_B") / j),
    ("oracle.trials_per_s", "1/s", ("oracle.verify_B",),
     lambda a, j: _ratio(a.attr_sum("oracle.verify_B", "trials"), a.total("oracle.verify_B"))),
    ("oracle.self_s", "s", ("oracle.verify_B",), lambda a, j: a.self_time("oracle") / j),
    ("cli.load_instance_s", "s", ("cli.load_instance",), lambda a, j: a.total("cli.load_instance") / j),
    ("cli.dump_json_s", "s", ("cli.dump_json",), lambda a, j: a.total("cli.dump_json") / j),
    ("cli.coreset_cmd_s", "s", ("cli.coreset_cmd",), lambda a, j: a.total("cli.coreset_cmd") / j),
    ("cli.solve_cmd_s", "s", ("cli.solve_cmd",), lambda a, j: a.total("cli.solve_cmd") / j),
    ("cli.self_s", "s", ("cli.coreset_cmd", "cli.solve_cmd"), lambda a, j: a.self_time("cli") / j),
)

# Counts that must repeat exactly whenever the same case runs again.
REPEAT_COUNTS = ("meta.tuples", "coreset.s_size", "flowlp.cells")


def job_spans(tracer: Tracer) -> dict[int, list[list]]:
    """Spans grouped by job, parent indices pointing into the job's own list."""
    groups: dict[int, list[list]] = {}
    local: list[int] = []
    for s in tracer.spans:
        group = groups.setdefault(s[4], [])
        local.append(len(group))
        group.append([s[0], s[1], s[2], local[s[3]] if s[3] >= 0 else -1, s[4], s[5]])
    return groups


def layer_metrics(groups: dict, tracer: Tracer, jobs: list[int], only=None) -> dict[str, Optional[float]]:
    """Per-layer metrics (or just those named in ``only``) over the given jobs;
    ``None`` where a name the metric needs is absent."""
    flat: list[list] = []
    for job in jobs:
        off = len(flat)
        flat.extend([s[0], s[1], s[2], s[3] + off if s[3] >= 0 else -1, s[4], s[5]] for s in groups[job])
    spans = Spans(flat)
    out = {}
    for name, _unit, needs, value in LAYER_METRICS:
        if only is not None and name not in only:
            continue
        if any(n not in tracer.installed_spans for n in needs):
            out[name] = None
        else:
            out[name] = float(value(spans, max(len(jobs), 1)))
    return out


def repeat_mismatches(groups: dict, tracer: Tracer, records: list[dict]) -> list[str]:
    """Cases whose repeat counts differ between two runs of the same case."""
    first: dict[str, dict] = {}
    problems = []
    for rec in records:
        if rec["problems"]:
            continue
        counts = layer_metrics(groups, tracer, [rec["job"]], only=REPEAT_COUNTS)
        seen = first.setdefault(rec["case"], counts)
        if counts != seen:
            problems.append(f"case {rec['case']}: counts {counts} != earlier {seen}")
    return problems
