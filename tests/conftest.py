import base64
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from weakcore.cli import make_line_instance, make_planar_blobs, make_random_metric
from weakcore.constraints import Balanced, FixedProfile, FractionBounds, Unconstrained
from weakcore.model import Assignment, ClusterProfile, MetricSpace


def text_column(column):
    """A binary column, ``{"dtype": ..., "base64": ...}``, as its list of
    numbers (Python floats for ``<f8``, ints for ``<i8``); any other value as
    it is."""
    if not isinstance(column, dict):
        return column
    return np.frombuffer(base64.b64decode(column["base64"]), dtype=column["dtype"]).tolist()


def text_layout(payload: dict) -> dict:
    """A columnar instance payload with its binary columns (every point
    column and ``distance_matrix``) decoded to lists of numbers, as text
    files hold them. The payload itself is left as it is."""
    out = {**payload, "points": {key: text_column(col) for key, col in payload["points"].items()}}
    if "distance_matrix" in out:
        out["distance_matrix"] = text_column(out["distance_matrix"])
    return out


def row_layout(payload: dict) -> dict:
    """A columnar instance payload in the row layout: one dict per point, with
    its weight, its label when the instance is labeled, and its coords (a
    list of ``dim`` numbers) or its index."""
    payload = text_layout(payload)
    cols = payload["points"]
    if "coords" in cols:
        dim = payload["dim"]
        flat = cols["coords"]
        ids = {"coords": [flat[i : i + dim] for i in range(0, len(flat), dim)]}
    else:
        ids = {"index": cols["index"]}
    fields = {**ids, **{key: cols[key] for key in ("weight", "label") if key in cols}}
    rows = [dict(zip(fields, values)) for values in zip(*fields.values())]
    return {**payload, "points": rows}


@pytest.fixture
def line_instance():
    """The canonical five-point line: positions 0,1,2,9,10, facilities at each."""
    return make_line_instance()


@pytest.fixture
def labeled_line_instance():
    """Same line with labels (0,0,0,1,1)."""
    return make_line_instance(m=2)


@pytest.fixture
def small_metric_instance():
    return make_random_metric(n=7, n_facilities=4, k=2, seed=13)


def random_small_instance(seed, n_max=10, f_max=6, k_max=2, m=1, z=1, euclidean=None):
    """A random desk-scale instance for oracle comparisons."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_max + 1))
    f = int(rng.integers(2, f_max + 1))
    k = int(rng.integers(1, min(k_max, f) + 1))
    use_euclid = bool(rng.integers(0, 2)) if euclidean is None else euclidean
    if use_euclid:
        inst = make_planar_blobs(n, f, k, z=z, m=m, seed=int(rng.integers(0, 2**31)))
    else:
        inst = make_random_metric(n, f, k, z=z, m=m, seed=int(rng.integers(0, 2**31)))
    if m > 1:
        # Shuffle labels so classes are not spatially aligned.
        labels = rng.integers(0, m, size=n)
        labels[: m] = np.arange(m)  # every label nonempty
        inst = type(inst)(
            inst.space, inst.points, inst.weights, inst.facilities, k, z, np.sort(labels)
        )
    return inst


def one_spec_per_family(B, k, rng):
    """A feasible spec of each family for k centers on B: unconstrained,
    balanced, a fixed profile (and a labeled one), and fraction bounds
    when B is labeled."""
    W = B.total_weight
    shares = rng.exponential(1.0, size=k)
    shares /= shares.sum()
    specs = [
        Unconstrained(),
        Balanced(np.full(k, 0.5 * W / k), np.full(k, 1.5 * W / k)),
        FixedProfile(ClusterProfile(W * shares)),
    ]
    if B.labels is not None:
        label_weights = [B.label_weight(j) for j in range(B.n_labels)]
        specs.append(FixedProfile(ClusterProfile(np.outer(shares, label_weights))))
        specs.append(FractionBounds(np.full(k, 0.1), np.full(k, 0.9)))
    return specs


def count_tables(monkeypatch):
    """The (rows, columns) of every distance table built from a space from
    now on, in call order: every D^z table comes from MetricSpace.pairwise."""
    calls = []
    pairwise = MetricSpace.pairwise

    def spy(self, rows, cols):
        calls.append((np.size(rows), np.size(cols)))
        return pairwise(self, rows, cols)

    monkeypatch.setattr(MetricSpace, "pairwise", spy)
    return calls


def count_assignments(monkeypatch):
    """The length of every Assignment built from now on, in call order."""
    built = []
    post_init = Assignment.__post_init__

    def spy(self):
        post_init(self)
        built.append(len(self))

    monkeypatch.setattr(Assignment, "__post_init__", spy)
    return built
