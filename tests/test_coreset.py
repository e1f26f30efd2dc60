import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence, default_rng

from conftest import count_tables
from oracles import ring_decomposition_masks, sample_ring_choice
from weakcore.candidates import CandidateParams, dz_seed
from weakcore.cli import make_line_instance, make_planar_blobs
from weakcore.constraints import profile_cost, voronoi_profile
from weakcore.coreset import (
    SummaryParams,
    WeakCoreset,
    _sample_ring,
    build_summary,
    build_universal_weak_coreset,
    identity_weak_coreset,
    resolve_sample_count,
    ring_decomposition,
)
from weakcore.model import ClusteringInstance, ClusterProfile, MetricSpace


def test_rings_coincident_points_single_zero_ring():
    space = MetricSpace.euclidean([[0.0], [0.0], [0.0], [5.0]])
    inst = ClusteringInstance(space, [0, 1, 2], np.ones(3), [3], k=1)
    decomp = ring_decomposition(inst, [0], space.pairwise(inst.points, [0]))
    assert decomp.ring_count == 1
    ring = decomp.rings[0]
    assert ring.band == (0.0, 0.0)
    assert ring.weight == 3.0


def test_rings_line_bands_match_definition(line_instance):
    table = line_instance.space.pairwise(line_instance.points, [1, 4])
    decomp = ring_decomposition(line_instance, [1, 4], table)
    cluster0 = [r for r in decomp.rings if r.cluster == 0]
    # Cluster {0,1,2} around position 1: costs (1,0,1), average 2/3.
    inner = [r for r in cluster0 if r.level == 0]
    assert len(inner) == 1 and inner[0].band == (0.0, pytest.approx(2 / 3))
    assert sorted(i for r in cluster0 for i in r.indices.tolist()) == [0, 1, 2]
    lvl1 = [r for r in cluster0 if r.level == 1]
    assert len(lvl1) == 1 and sorted(lvl1[0].indices.tolist()) == [0, 2]


def test_rings_every_cost_inside_its_band():
    inst = make_planar_blobs(80, 8, 3, seed=21)
    B = inst.weighted_points()
    centers = inst.facilities[:3]
    d = B.space.pairwise(B.indices, centers) ** inst.z
    decomp = ring_decomposition(inst, centers, d)
    pos = {int(p): i for i, p in enumerate(B.indices)}
    covered = 0
    for ring in decomp.rings:
        for p in ring.indices.tolist():
            cost = d[pos[p], ring.cluster]
            lo, hi = ring.band
            if ring.level == 0:
                assert 0.0 <= cost <= hi + 1e-12
            else:
                assert lo - 1e-12 < cost <= hi + 1e-12
            covered += 1
    assert covered == inst.n


def test_ring_count_bounded_by_cost_spread():
    inst = make_planar_blobs(100, 6, 2, seed=5)
    centers = inst.facilities[:2]
    B = inst.weighted_points()
    d = B.space.pairwise(B.indices, centers) ** inst.z
    decomp = ring_decomposition(inst, centers, d)
    nearest = np.argmin(d, axis=1)
    for i in range(2):
        mask = nearest == i
        if not mask.any():
            continue
        costs = d[mask, i]
        avg = float(B.weights[mask] @ costs / B.weights[mask].sum())
        if avg <= 0:
            continue
        ratio = max(costs.max() / avg, 1.0)
        assert len([r for r in decomp.rings if r.cluster == i]) <= 2 + math.ceil(math.log2(max(ratio, 2.0)))


def test_summary_take_all_is_identity(line_instance):
    res = build_summary(line_instance, 5, 0.5, SummaryParams(sample_count=10, seed=0))
    assert res.indices.tolist() == line_instance.points.tolist()
    assert np.allclose(res.weights, line_instance.weights)


def test_summary_weight_conservation_exact():
    rng = np.random.default_rng(8)
    inst = make_planar_blobs(150, 10, 3, seed=8)
    inst = ClusteringInstance(
        inst.space, inst.points, rng.uniform(0.5, 4.0, inst.n), inst.facilities, 3, 1
    )
    res = build_summary(inst, 40, 0.2, SummaryParams(sample_count=6, seed=1))
    assert res.indices.size < inst.n
    assert math.fsum(res.weights.tolist()) == pytest.approx(
        math.fsum(inst.weights.tolist()), rel=1e-12
    )
    assert np.all(res.weights > 0)
    assert set(res.indices.tolist()) <= set(inst.points.tolist())


def test_summary_deterministic():
    inst = make_planar_blobs(120, 10, 3, seed=3)
    a = build_summary(inst, 40, 0.2, SummaryParams(sample_count=5, seed=9))
    b = build_summary(inst, 40, 0.2, SummaryParams(sample_count=5, seed=9))
    assert a.indices.tolist() == b.indices.tolist()
    assert a.weights.tolist() == b.weights.tolist()


def test_resolve_sample_count_formula():
    params = SummaryParams(c0=4.0, delta=0.05)
    # ceil(4 * eps^-2 (k ln|J| + ln(R/delta)))
    got = resolve_sample_count(params, k=3, eps=0.2, z=1, j_size=50, ring_count=10)
    expect = math.ceil(4 * 0.2**-2 * (3 * math.log(50) + math.log(10 / 0.05)))
    assert got == expect
    assert resolve_sample_count(SummaryParams(sample_count=7), 3, 0.2, 1, 50, 10) == 7


def test_summary_labeled_per_label_conservation():
    inst = make_planar_blobs(100, 8, 2, m=2, seed=12)
    res = build_summary(inst, 30, 0.25, SummaryParams(sample_count=4, seed=2))
    pos = {int(p): i for i, p in enumerate(inst.points)}
    for j in range(inst.n_labels):
        target = float(inst.weights[inst.labels == j].sum())
        got = math.fsum(
            w for p, w in zip(res.indices.tolist(), res.weights.tolist())
            if inst.labels[pos[p]] == j
        )
        assert got == pytest.approx(target, rel=1e-12)


def test_summary_of_labeled_instance_conserves_labels_and_binds():
    """One summary builder serves labeled instances: each label's weight is
    conserved, so the coreset binds to the instance."""
    base = make_planar_blobs(90, 8, 3, m=3, seed=14)
    weights = np.random.default_rng(14).uniform(0.5, 4.0, base.n)
    inst = ClusteringInstance(
        base.space, base.points, weights, base.facilities, 3, 1, base.labels
    )
    res = build_summary(inst, 20, 0.25, SummaryParams(sample_count=4, seed=6))
    assert res.indices.size < inst.n
    pos = np.searchsorted(inst.points, res.indices)
    got = np.bincount(inst.labels[pos], res.weights, minlength=3)
    want = np.bincount(inst.labels, inst.weights, minlength=3)
    assert got == pytest.approx(want, rel=1e-12)
    cs = WeakCoreset(
        S=res.indices, v=res.weights, alpha=3.0, z=1, epsilon=0.25, delta=0.05, seed=6,
        mode="metric", J=np.sort(inst.facilities),
    )
    _, summary, _ = cs.bind(inst, 1)
    assert summary.labels.tolist() == inst.labels[pos].tolist()


@pytest.mark.parametrize(
    "z,subset,expected_alpha",
    [(1, False, 3.0), (2, False, 9.0), (1, True, 2.0), (2, True, 4.0)],
)
def test_alpha_assignment(z, subset, expected_alpha):
    if subset:
        inst = make_line_instance(z=z)  # facilities are exactly the points
    else:
        inst = make_planar_blobs(30, 5, 2, z=z, seed=1)
    cs = build_universal_weak_coreset(inst, 0.25, 0.05, seed=3)
    assert cs.alpha == expected_alpha


def test_alpha_euclidean_mode():
    inst = make_planar_blobs(40, 5, 2, z=2, seed=2)
    cs = build_universal_weak_coreset(
        inst,
        0.5,
        0.05,
        mode="euclidean_kmeans",
        seed=4,
        candidate_params=CandidateParams(euclidean_base_size=10, max_euclidean_candidates=200),
    )
    assert cs.alpha == 1.0
    assert cs.J is None and cs.J_coords is not None


def test_coreset_determinism_and_metadata():
    inst = make_planar_blobs(90, 9, 2, seed=17)
    a = build_universal_weak_coreset(inst, 0.25, 0.1, seed=123)
    b = build_universal_weak_coreset(inst, 0.25, 0.1, seed=123)
    assert a.J.tolist() == b.J.tolist()
    assert a.S.tolist() == b.S.tolist()
    assert a.v.tolist() == b.v.tolist()
    assert a.info == b.info
    assert a.j_size <= a.info["eta"] + inst.k


def test_identity_coreset_round_trip(line_instance):
    cs = identity_weak_coreset(line_instance)
    assert cs.S.tolist() == line_instance.points.tolist()
    assert cs.J.tolist() == sorted(line_instance.facilities.tolist())
    assert cs.alpha == 2.0  # X subset of F on the line


def test_summary_empirical_cost_preservation():
    """Compressed summaries preserve profile costs within (1 +/- 0.25) for
    nearly every random (C, Gamma) pair; the take-all identity case is exact."""
    inst = make_planar_blobs(200, 25, 3, seed=33)
    cs = build_universal_weak_coreset(
        inst, 0.2, 0.05, seed=71, summary_params=SummaryParams(sample_count=12, seed=71)
    )
    assert cs.S.size < inst.n  # real compression
    B = inst.weighted_points()
    S = cs.summary_points(inst)
    rng = np.random.default_rng(99)
    W = B.total_weight
    good = 0
    trials = 120
    for t in range(trials):
        centers = np.sort(rng.choice(cs.J, size=3, replace=False))
        if t % 2 == 0:
            gamma = voronoi_profile(B, centers, 1)
        else:
            draws = rng.exponential(1.0, size=3)
            gamma = ClusterProfile(W * draws / draws.sum())
        full, _ = profile_cost(B, centers, gamma, 1)
        summ, _ = profile_cost(S, centers, gamma, 1)
        ratio = 1.0 if full == summ == 0 else full / summ
        good += 0.75 <= ratio <= 1.25
    assert good / trials >= 0.95


@pytest.mark.parametrize("z", [1, 2])
def test_stage_1_computes_one_distance_column_per_seed_center(monkeypatch, z):
    """A labeled build computes each point's distance to each seed center
    once: every table over all of a seeding's points is one column, built by
    dz_seed for the center it just chose. The candidate draws and the rings
    read dz_seed's table, which equals pairwise(points, centers) ** z bit for
    bit, so no (n, k) table is built again."""
    inst = make_planar_blobs(301, 8, 3, z=z, m=2, seed=12)
    sizes = {inst.n: 1, 151: 1, 150: 1}  # the whole instance and its two label classes
    tables = count_tables(monkeypatch)
    build_universal_weak_coreset(inst, 0.5, 0.05, seed=4, summary_params=SummaryParams(sample_count=5))
    seeding = [t for t in tables if t[0] in sizes]
    assert seeding == [(inst.n, 1)] * 3 + [(151, 1)] * 3 + [(150, 1)] * 3
    monkeypatch.undo()
    centers, table = dz_seed(inst, 3, z, seed=4)
    assert table.shape == (inst.n, 3)
    assert np.array_equal(table, inst.space.pairwise(inst.points, centers) ** z)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_rings_match_masks(inst, table):
    """ring_decomposition cuts the rings of the mask-based reference, bit for
    bit and in the same order."""
    got = ring_decomposition(inst, np.arange(table.shape[1]), table).rings
    want = ring_decomposition_masks(inst, table)
    assert [(r.cluster, r.level) for r in got] == [w[:2] for w in want]
    for ring, (_, _, ids, weights, band) in zip(got, want):
        assert _same_array(ring.indices, ids) and _same_array(ring.weights, weights)
        assert ring.band == band
    return got


def _table_instance(weights):
    """An instance of len(weights) points whose rings are cut from a table
    given directly; the space only has to hold the ids."""
    n = len(weights)
    space = MetricSpace.euclidean(np.zeros((n + 1, 1)))
    return ClusteringInstance(space, np.arange(n), np.asarray(weights, dtype=float), [n], k=1)


def test_rings_match_masks_at_band_edges():
    """Costs exactly at 2^j * avg (the weights make avg exactly 1) stay in
    level j, each such level a one-point ring; costs one ulp above an edge
    move up a level."""
    inst = _table_instance([11.0, 1.0, 1.0, 1.0, 1.0])
    rings = _assert_rings_match_masks(inst, np.array([[0.0], [1.0], [2.0], [4.0], [8.0]]))
    assert [r.band[1] for r in rings] == [1.0, 2.0, 4.0, 8.0]
    assert [r.indices.tolist() for r in rings] == [[0, 1], [2], [3], [4]]
    above = np.nextafter(np.array([[0.0], [1.0], [2.0], [4.0], [8.0]]), np.inf)
    _assert_rings_match_masks(inst, above)


def test_rings_match_masks_with_zero_average_and_idle_centers():
    """A cluster whose points all sit on its center is one [0, 0] ring; a
    center nearest to no point gives no ring; ties go to the lower column."""
    inst = _table_instance(np.ones(7))
    table = np.array(
        [
            [0.0, 5.0, 9.0, 3.0],
            [0.0, 5.0, 9.0, 3.0],
            [4.0, 1.0, 9.0, 3.0],
            [4.0, 2.0, 9.0, 2.0],  # tie between columns 1 and 3
            [4.0, 9.0, 9.0, 1.0],
            [4.0, 8.0, 9.0, 0.5],
            [0.0, 0.0, 9.0, 0.0],  # three-way tie at zero
        ]
    )
    rings = _assert_rings_match_masks(inst, table)
    assert rings[0].band == (0.0, 0.0) and rings[0].indices.tolist() == [0, 1, 6]
    assert 2 not in {r.cluster for r in rings}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["ties", "spread", "zeros"]),
)
def test_rings_match_masks_on_drawn_tables(n, k, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "ties":
        table = rng.integers(0, 4, size=(n, k)).astype(float)
    elif kind == "spread":
        table = rng.exponential(size=(n, k)) ** rng.integers(1, 6)
    else:
        table = rng.integers(0, 2, size=(n, k)) * rng.random((n, k))
    if rng.integers(2):
        table = np.asfortranarray(table)
    _assert_rings_match_masks(_table_instance(rng.uniform(0.1, 3.0, n)), table)


@pytest.mark.parametrize("seed", range(4))
def test_sample_ring_matches_the_choice_reference(seed):
    """Sampled rings draw what Generator.choice draws on the ring's stream;
    rings of at most s members (one-point rings among them) are taken whole
    and set up no stream."""
    rng = np.random.default_rng(seed)
    inst = make_planar_blobs(90, 8, 3, seed=seed)
    inst = ClusteringInstance(inst.space, inst.points, rng.uniform(0.5, 4.0, inst.n), inst.facilities, 3)
    centers, table = dz_seed(inst, 3, 1, seed=seed)
    rings = ring_decomposition(inst, centers, table).rings
    for ring in rings:
        for s in sorted({1, 3, ring.indices.size - 1, ring.indices.size, ring.indices.size + 2} - {0}):
            key = SeedSequence(seed, spawn_key=(1, 2, ring.cluster, ring.level))
            ids, values = _sample_ring(ring, s, seed, 2)
            want_ids, want_values = sample_ring_choice(ring.indices, ring.weights, s, default_rng(key))
            assert _same_array(ids, want_ids) and _same_array(values, want_values)
