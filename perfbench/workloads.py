"""The benchmark's workloads: case pools, set-up and one job each.

Every workload draws its cases from a fixed pool whose answers are recorded
in ``reference.json``. ``--seed`` fixes the order in which a run visits the
pool (and so which cases a run that ends early reaches); runs cycle through
the pool's variants in turn, so every run has the same mix of constraint
families and instance kinds.

A job calls the package only through module attributes looked up at call
time (``meta.solve_constrained``, ``cli.main``, ...), so that a traced run
can wrap those names.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import weakcore.cli as cli
import weakcore.coreset as coreset
import weakcore.meta as meta
import weakcore.oracle as oracle
from weakcore.constraints import Balanced, FixedProfile, FractionBounds, Unconstrained, ldiversity_bounds
from weakcore.model import ClusteringInstance, ClusterProfile

EPS = 0.5
DELTA = 0.05


@dataclass(frozen=True)
class Case:
    variant: str
    inst_seed: int
    cs_seed: int

    @property
    def key(self) -> str:
        return f"{self.variant}/{self.inst_seed}/{self.cs_seed}"


@dataclass
class Answer:
    """What a job returns to the output check."""

    centers: tuple
    cost: float
    points: np.ndarray
    clusters: np.ndarray
    masses: np.ndarray
    j_size: int
    s_size: int
    tuples: int
    problems: list = field(default_factory=list)


class JobError(RuntimeError):
    """A job finished without an answer (for example a nonzero CLI exit)."""


def segregated_labels(inst: ClusteringInstance) -> ClusteringInstance:
    """Two labels of equal mass, split by position: the lower half along the
    first coordinate (Euclidean) or along d(x, p0) - d(x, p1) (explicit)."""
    pts = inst.points
    if inst.space.coords is not None:
        key = inst.space.coords[pts, 0]
    else:
        key = inst.space.matrix[pts, pts[0]] - inst.space.matrix[pts, pts[1]]
    labels = np.zeros(inst.n, dtype=np.int64)
    labels[np.argsort(key, kind="stable")[inst.n // 2 :]] = 1
    return ClusteringInstance(inst.space, pts, inst.weights, inst.facilities, inst.k, inst.z, labels)


def spec_objects(spec: dict, k: int, m: int):
    """The package's constraint object for one of the benchmark's spec dicts."""
    kind = spec["type"]
    if kind == "unconstrained":
        return Unconstrained()
    if kind == "balanced":
        return Balanced(np.asarray(spec["l"]), np.asarray(spec["u"]))
    if kind == "profile":
        return FixedProfile(ClusterProfile(np.asarray(spec["gamma"])))
    if "l_div" in spec:
        return ldiversity_bounds(spec["l_div"], k, m, at_most=spec["at_most"])
    return FractionBounds(np.asarray(spec["alpha"]), np.asarray(spec["beta"]))


def ldiversity(l: int, k: int, m: int, at_most: bool) -> dict:
    """l-diversity written out as fraction bounds by the benchmark itself."""
    if at_most:
        alpha, beta = np.zeros((k, m)), np.full((k, m), 1.0 / l)
    else:
        alpha, beta = np.full((k, m), 1.0 / l), np.ones((k, m))
    return {"type": "fractions", "alpha": alpha.tolist(), "beta": beta.tolist(), "l_div": l, "at_most": at_most}


class Workload:
    """A pool of cases, per-variant, plus how to set up and run one job."""

    name = ""
    sizes: dict = {}
    variants: tuple = ()
    per_variant = 0
    variants_per_run = None  # None: every variant in every run

    def case_pool(self) -> dict[str, list[Case]]:
        return {
            v: [Case(v, 1000 * (vi + 1) + i, i) for i in range(self.per_variant)]
            for vi, v in enumerate(self.variants)
        }

    def sequence(self, seed: int) -> list[Case]:
        """One cycle through the pool in the order ``seed`` gives."""
        rng = np.random.default_rng(seed)
        pool = self.case_pool()
        variants = list(pool)
        if self.variants_per_run is not None:
            picked = rng.choice(len(variants), size=self.variants_per_run, replace=False)
            variants = [variants[i] for i in sorted(picked)]
        orders = {v: [pool[v][i] for i in rng.permutation(len(pool[v]))] for v in variants}
        length = max(len(o) for o in orders.values())
        return [orders[v][i % len(orders[v])] for i in range(length) for v in variants]

    def make_instance(self, case: Case) -> ClusteringInstance:
        raise NotImplementedError

    def make_spec(self, case: Case, inst: ClusteringInstance) -> dict:
        raise NotImplementedError

    def setup(self, cases: list[Case], workdir: Path) -> dict:
        """Generate every instance the cases need; returns the run context."""
        ctx = {}
        for case in cases:
            inst = self.make_instance(case)
            spec = self.make_spec(case, inst)
            ctx[case.key] = (inst, spec, spec_objects(spec, inst.k, inst.n_labels))
        return ctx

    def run(self, ctx: dict, case: Case):
        raise NotImplementedError

    def answer(self, ctx: dict, case: Case, raw) -> Answer:
        raise NotImplementedError


class LibraryWorkload(Workload):
    """Jobs through the library: build the coreset, solve (which re-solves the
    winner on the full data), and optionally verify property B."""

    sample_count = 10
    verify_trials = 0

    def run(self, ctx, case):
        inst, _, spec = ctx[case.key]
        cs = coreset.build_universal_weak_coreset(
            inst,
            EPS,
            DELTA,
            seed=case.cs_seed,
            summary_params=coreset.SummaryParams(
                sample_count=self.sample_count, delta=DELTA, seed=case.cs_seed
            ),
        )
        res = meta.solve_constrained(cs, inst, spec)
        rep = None
        if self.verify_trials:
            rep = oracle.verify_property_B(inst, cs, trials=self.verify_trials, eps=0.25, seed=case.cs_seed)
        return cs, res, rep

    def answer(self, ctx, case, raw):
        cs, res, rep = raw
        a = res.assignment_on_full
        ans = Answer(
            centers=tuple(res.centers),
            cost=float(res.cost_on_full),
            points=a.points,
            clusters=a.clusters,
            masses=a.masses,
            j_size=int(cs.j_size),
            s_size=int(cs.S.size),
            tuples=int(res.tuples_evaluated),
        )
        if rep is not None:
            ratios = [r.ratio for r in rep.records]
            if rep.trials != self.verify_trials or len(ratios) != self.verify_trials:
                ans.problems.append(f"verify ran {len(ratios)} of {self.verify_trials} trials")
            if not all(math.isfinite(r) and r > 0 for r in ratios):
                ans.problems.append(f"verify reported a non-finite or nonpositive ratio: {ratios}")
        return ans


class EnumBalanced(LibraryWorkload):
    name = "enum-balanced"
    variants = ("balanced",)
    per_variant = 96
    sizes = {"n": 500, "F": 8, "k": 3, "z": 1, "m": 1}
    sample_count = 12

    def make_instance(self, case):
        s = self.sizes
        return cli.make_planar_blobs(s["n"], s["F"], s["k"], z=s["z"], seed=case.inst_seed)

    def make_spec(self, case, inst):
        W = float(inst.weights.sum())
        return {"type": "balanced", "l": [0.25 * W] * inst.k, "u": [0.45 * W] * inst.k}


class ResolveLarge(LibraryWorkload):
    name = "resolve-large"
    variants = ("balanced", "profile")
    per_variant = 24  # about one run's worth: per-case times vary 5x, so every run sees them all
    sizes = {"n": 600, "F": 5, "k": 2, "z": 1, "m": 1}
    sample_count = 10
    verify_trials = 10

    def make_instance(self, case):
        s = self.sizes
        return cli.make_planar_blobs(s["n"], s["F"], s["k"], z=s["z"], seed=case.inst_seed)

    def make_spec(self, case, inst):
        W = float(inst.weights.sum())
        if case.variant == "balanced":
            return {"type": "balanced", "l": [0.35 * W] * inst.k, "u": [0.65 * W] * inst.k}
        return {"type": "profile", "gamma": [0.4 * W, 0.6 * W]}


class FairLp(LibraryWorkload):
    name = "fair-lp"
    variants = (
        "blobs-fractions",
        "metric-ldiv-at-least",
        "blobs-ldiv-at-most",
        "metric-fractions",
        "blobs-ldiv-at-least",
        "metric-ldiv-at-most",
    )
    per_variant = 18
    sizes = {"n": 160, "F": 6, "k": 3, "z": 1, "m": 2}
    sample_count = 8

    def make_instance(self, case):
        s = self.sizes
        make = cli.make_planar_blobs if case.variant.startswith("blobs") else cli.make_random_metric
        return segregated_labels(make(s["n"], s["F"], s["k"], z=s["z"], m=s["m"], seed=case.inst_seed))

    def make_spec(self, case, inst):
        k, m = inst.k, inst.n_labels
        if case.variant.endswith("fractions"):
            return {"type": "fractions", "alpha": [[0.3] * m] * k, "beta": [[0.7] * m] * k}
        return ldiversity(2, k, m, at_most=case.variant.endswith("at-most"))


class CompressLarge(Workload):
    """Jobs through ``weakcore.cli.main``: ``coreset`` then ``solve`` with an
    unconstrained spec, on instance files written at set-up."""

    name = "compress-large"
    variants = tuple(f"file{i}" for i in range(8))
    per_variant = 6
    variants_per_run = 2
    sizes = {"n": 20000, "F": 25, "k": 3, "z": 2, "m": 2}
    sample_count = 10

    def case_pool(self):
        # One instance file per variant; its cases differ in the coreset seed.
        return {
            v: [Case(v, 1000 * (vi + 1), i) for i in range(self.per_variant)]
            for vi, v in enumerate(self.variants)
        }

    def make_instance(self, case):
        s = self.sizes
        return cli.make_planar_blobs(s["n"], s["F"], s["k"], z=s["z"], m=s["m"], seed=case.inst_seed)

    def make_spec(self, case, inst):
        return {"type": "unconstrained"}

    def setup(self, cases, workdir):
        ctx = {"workdir": workdir, "constraint": str(workdir / "constraint.json")}
        with open(ctx["constraint"], "w") as fh:
            json.dump({"type": "unconstrained"}, fh)
        files = {}
        for case in cases:
            if case.variant not in files:
                inst = self.make_instance(case)
                path = str(workdir / f"instance-{case.variant}.json")
                cli.dump_json(cli.instance_to_payload(inst), path)
                files[case.variant] = (inst, path)
            inst, path = files[case.variant]
            ctx[case.key] = (inst, self.make_spec(case, inst), path)
        return ctx

    def run(self, ctx, case):
        _, _, path = ctx[case.key]
        cs_path = str(ctx["workdir"] / "coreset.json")
        out_path = str(ctx["workdir"] / "result.json")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(
                ["coreset", "--instance", path, "--epsilon", str(EPS), "--delta", str(DELTA),
                 "--sample-count", str(self.sample_count), "--seed", str(case.cs_seed), "--out", cs_path]
            )
            if rc != 0:
                raise JobError(f"coreset exited {rc}")
            rc = cli.main(
                ["solve", "--instance", path, "--coreset", cs_path, "--constraint", ctx["constraint"],
                 "--out", out_path]
            )
            if rc != 0:
                raise JobError(f"solve exited {rc}")
        return cs_path, out_path

    def answer(self, ctx, case, raw):
        cs_path, out_path = raw
        with open(cs_path) as fh:
            cs = json.load(fh)
        with open(out_path) as fh:
            res = json.load(fh)
        entries = res["assignment"]
        return Answer(
            centers=tuple(res["centers"]),
            cost=float(res["cost_on_full"]),
            points=np.array([e["point"] for e in entries], dtype=np.int64),
            clusters=np.array([e["cluster"] for e in entries], dtype=np.int64),
            masses=np.array([e["mass"] for e in entries], dtype=np.float64),
            j_size=len(cs["J"]),
            s_size=len(cs["S"]),
            tuples=int(res["tuples_evaluated"]),
        )


WORKLOADS = {w.name: w for w in (EnumBalanced(), ResolveLarge(), FairLp(), CompressLarge())}
