"""Acceptance suite: one test per numbered criterion.

Each test prints a `criterion N: PASS/FAIL (elapsed)` line; run with
`pytest tests/test_acceptance.py -v -s` to see them. Criteria 1-8 are
self-contained. Criterion 9 compares against reference populations of
the UNSW-NB15 capture and needs a locally supplied copy: concatenate
the four flow CSVs into one file with a header row naming at least
srcip, sport, dstip, dsport, stime, dur, sbytes, dbytes, spkts, dpkts
and label, then point FLOWGRAPH_UNSW_CSV at it. The clustering
population comparison on top of that re-clusters every snapshot seven
times and takes hours; it only runs when FLOWGRAPH_UNSW_FULL=1.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from flowgraph.behavior_graph import build_graph
from flowgraph.density_cluster import (
    KIND_ATTACK,
    KIND_CLUSTER,
    MIN_PTS,
    ClusterParams,
    DistanceRows,
    cluster_points,
    cluster_snapshot,
    dbscan,
    hdbscan,
)
from flowgraph.density_cluster.hdbscan import minimum_spanning_tree
from flowgraph.flow_model import EntityId, parse_flows
from flowgraph.report import clustering_effects_table, population_series
from flowgraph.spectral_gcn import (
    VARIANT_CHEBYSHEV,
    VARIANT_RENORMALIZED,
    TrainConfig,
    chebyshev_basis,
    evaluate,
    init_model,
    normalized_laplacian,
    renormalize_adjacency,
    train,
    union_matrices,
)
from flowgraph.synth import SynthConfig, generate
from flowgraph.temporal import dissect
from oracles import (
    FlowRecord,
    chebyshev_eig_oracle,
    dbscan_oracle,
    edges_of,
    from_records,
    gradient_check,
    graph_from,
    majority_label,
    mst_weight_oracle,
    optics_oracle,
    padded,
)


@contextmanager
def criterion(name: str, bound_seconds: float | None):
    """Times the body and prints exactly one PASS/FAIL line."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {name}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    if bound_seconds is not None and elapsed >= bound_seconds:
        print(f"criterion {name}: FAIL (runtime {elapsed:.2f}s, "
              f"bound {bound_seconds:g}s)")
        raise AssertionError(
            f"criterion {name}: runtime {elapsed:.2f}s exceeded "
            f"{bound_seconds:g}s bound")
    if bound_seconds is None:
        print(f"criterion {name}: PASS ({elapsed:.2f}s)")
    else:
        print(f"criterion {name}: PASS ({elapsed:.2f}s, bound {bound_seconds:g}s)")


def flow(src, dst, label, t=0.0):
    return FlowRecord(src=src, dst=dst, start_time=t, duration=1.0,
                      bytes_src_to_dst=100, bytes_dst_to_src=100,
                      packets_total=2, label=label)


def random_adjacency(rng, n, p=0.3):
    """Edge-list adjacency of a random symmetric 0/1 matrix, checked against it."""
    a = (rng.uniform(size=(n, n)) < p).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    g = graph_from(np.zeros((n, 8)), [0] * n, edges_of(a))
    op, _, _ = union_matrices([g])
    assert np.array_equal(op @ np.eye(n), a)
    return op


def random_point_set(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 101))
    points = rng.random((n, 8))
    eps = float(rng.uniform(0.2, 0.9))
    return points, eps


def test_criterion_1_labeling_rule():
    with criterion("1", 1.0):
        # strict majority of attack flows, draws count as normal
        assert majority_label(2, 3) == 1
        assert majority_label(3, 4) == 1
        assert majority_label(2, 4) == 0
        assert majority_label(1, 2) == 0
        assert majority_label(0, 3) == 0

        s0 = EntityId("10.0.0.1", 1000)   # normal sender
        s1 = EntityId("10.0.0.9", 4000)   # attack sender
        b = EntityId("10.0.0.2", 1001)    # normal-majority receiver
        c = EntityId("10.0.0.3", 1002)    # draw receiver
        d = EntityId("10.0.0.4", 1003)    # attack-majority receiver
        flows = [
            flow(s0, b, 0), flow(s0, b, 0),
            flow(s0, d, 0), flow(s1, d, 1), flow(s1, d, 1),
            flow(s1, c, 1), flow(s0, c, 0),
        ]
        graph = build_graph(from_records(flows))
        labels = dict(zip(graph.nodes, graph.labels.tolist()))
        assert labels == {s0: 0, s1: 1, b: 0, c: 0, d: 1}


def test_criterion_2_dbscan_oracle_equivalence():
    with criterion("2", 30.0):
        for seed in range(100):
            points, eps = random_point_set(seed)
            result = dbscan(points, eps)
            expected_labels, expected_count = dbscan_oracle(points, eps, MIN_PTS)
            assert np.array_equal(result.assignment, expected_labels), f"seed {seed}"
            assert result.cluster_count == expected_count, f"seed {seed}"


def test_criterion_3_optics_matches_dbscan_on_cores():
    with criterion("3", 60.0):
        for seed in range(100):
            # at MIN_PTS = 2 every clustered point is core, so the
            # assignments match outright
            points, eps = random_point_set(seed)
            base = dbscan(points, eps)
            labels, count = optics_oracle(points, eps, MIN_PTS).extract_at_eps(eps)
            setting = cluster_points(points, ClusterParams("optics", eps))
            for result in (base, setting):
                assert np.array_equal(result.assignment, labels), f"seed {seed}"
                assert result.cluster_count == count, f"seed {seed}"


def test_criterion_4_hdbscan_blobs_and_mst():
    with criterion("4", 60.0):
        spread, separation = 0.02, 1.0  # 50x the intra-blob spread
        recovered = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            centers = np.array([[0.0, 0.0], [separation, 0.0], [0.0, separation]])
            points = padded(np.vstack([c + rng.normal(0.0, spread, size=(10, 2))
                                       for c in centers]))
            result = hdbscan(points)
            blobs = [set(range(10 * b, 10 * b + 10)) for b in range(3)]
            found = {}
            for b, members in enumerate(blobs):
                ids = {int(result.assignment[i]) for i in members}
                if len(ids) == 1 and ids != {-1}:
                    found[b] = ids.pop()
            if len(found) == 3 and len(set(found.values())) == 3:
                recovered += 1
        assert recovered >= 95, f"blob partition recovered in {recovered}/100 runs"

        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(5, 51))
            points = padded(rng.random((n, 4)))
            edges = minimum_spanning_tree(DistanceRows(points))
            total = sum(w for _, _, w in edges)
            assert abs(total - mst_weight_oracle(points, 2)) <= 1e-9


def test_criterion_5_population_accounting():
    with criterion("5", 10.0):
        table = generate(SynthConfig(duration=3000.0, n_normal_entities=20,
                                     n_attack_entities=2,
                                     flows_per_entity_rate=0.02))
        graphs = [build_graph(flows, snapshot=s)
                  for s, flows in dissect(table, 600.0).items()]
        runs = []
        for params in (ClusterParams(algorithm="dbscan", eps=0.5),
                       ClusterParams(algorithm="hdbscan")):
            clustered = [cluster_snapshot(g, params)[1] for g in graphs]
            rows = population_series(graphs, clustered)
            for row, graph, cg in zip(rows, graphs, clustered):
                assert row.clustered_normal_count <= row.normal_count
                attack_supers = sum(1 for s in cg.nodes if s.kind == KIND_ATTACK)
                assert attack_supers == row.attack_count
            eps = params.eps if params.algorithm != "hdbscan" else None
            runs.append((params.algorithm, eps, clustered))
        for row in clustering_effects_table(runs):
            population = row.clustered_normal_total + row.attack_total
            expected = round(100.0 * row.clustered_normal_total / population, 2)
            assert row.share_percent == expected


def test_criterion_6_gradient_checks():
    with criterion("6", 10.0):
        rng = np.random.default_rng(6)
        g_renorm = graph_from(rng.uniform(size=(4, 8)), [0, 0, 1, 1],
                              [(0, 1, 1), (2, 3, 2)])
        model = init_model(TrainConfig(variant=VARIANT_RENORMALIZED, seed=3))
        err = gradient_check(model, g_renorm, class_weights=(1.0, 2.0))
        assert err < 1e-5, f"renormalized max relative error {err:.2e}"

        g_cheb = graph_from(rng.uniform(size=(5, 8)), [0, 0, 1, 1, 0],
                            [(0, 1, 1), (1, 2, 1), (3, 4, 3)])
        model = init_model(TrainConfig(variant=VARIANT_CHEBYSHEV, k=3, seed=4))
        err = gradient_check(model, g_cheb)
        assert err < 1e-5, f"chebyshev max relative error {err:.2e}"


def test_criterion_7_spectral_identities():
    with criterion("7", 10.0):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 21))
            laplacian = normalized_laplacian(random_adjacency(rng, n))
            lam_max = float(np.linalg.eigvalsh(laplacian @ np.eye(n))[-1])
            scale = 2.0 / lam_max if lam_max > 0 else 0.0
            l_tilde = laplacian.with_vals(scale * laplacian.vals - laplacian.diagonal)
            x = rng.normal(size=(n, 3))
            for j, term in enumerate(chebyshev_basis(l_tilde, x, 5)):
                oracle = chebyshev_eig_oracle(l_tilde @ np.eye(n), x, j)
                assert np.abs(term - oracle).max() < 1e-8

        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(1, 25))
            a_hat = renormalize_adjacency(random_adjacency(rng, n))
            eigs = np.linalg.eigvalsh(a_hat @ np.eye(n))
            assert eigs.min() >= -1.0 - 1e-9
            assert eigs.max() <= 1.0 + 1e-9


def test_criterion_8_end_to_end_classification():
    with criterion("8", 300.0):
        table = generate(SynthConfig())
        assert 45_000 <= len(table) <= 65_000
        buckets = dissect(table, 600.0)
        assert len(buckets) == 144
        graphs = [build_graph(flows, snapshot=s) for s, flows in buckets.items()]
        params = ClusterParams(algorithm="dbscan", eps=0.2)
        clustered = sorted((cluster_snapshot(g, params)[1] for g in graphs),
                           key=lambda g: g.snapshot.index)
        cut = int(len(clustered) * 0.7)
        train_graphs = [g for g in clustered[:cut] if g.n_nodes]
        test_graphs = [g for g in clustered[cut:] if g.n_nodes]
        model, losses = train(train_graphs, TrainConfig())
        assert losses[-1] < losses[0]
        metrics = evaluate(model, test_graphs)
        assert metrics.balanced_accuracy >= 0.90, \
            f"balanced accuracy {metrics.balanced_accuracy:.3f}"


# --- criterion 9: reference populations of the UNSW-NB15 capture ---

UNSW_CSV = os.environ.get("FLOWGRAPH_UNSW_CSV", "")
UNSW_SNAPSHOTS = 147
UNSW_NORMAL_TOTAL = 2_583_605
UNSW_ATTACK_TOTAL = 80_174
UNSW_CLUSTERED_NORMAL = {
    ("optics", 0.2): 369_931,
    ("optics", 0.5): 447_026,
    ("optics", 0.8): 479_938,
    ("dbscan", 0.2): 141_935,
    ("dbscan", 0.5): 137_903,
    ("dbscan", 0.8): 127_346,
    ("hdbscan", None): 176_645,
}

needs_unsw = pytest.mark.skipif(
    not UNSW_CSV,
    reason="set FLOWGRAPH_UNSW_CSV to the combined UNSW-NB15 flow CSV")
needs_unsw_full = pytest.mark.skipif(
    not UNSW_CSV or os.environ.get("FLOWGRAPH_UNSW_FULL") != "1",
    reason="set FLOWGRAPH_UNSW_CSV and FLOWGRAPH_UNSW_FULL=1 "
           "(re-clusters every snapshot seven times; takes hours)")

_unsw_cache: dict[str, list] = {}


def unsw_graphs():
    if "graphs" not in _unsw_cache:
        result = parse_flows(UNSW_CSV, on_malformed="skip")
        buckets = dissect(result.records, 600.0)
        _unsw_cache["graphs"] = [build_graph(flows, snapshot=s)
                                 for s, flows in buckets.items()]
    return _unsw_cache["graphs"]


@needs_unsw
def test_criterion_9_snapshot_populations():
    with criterion("9 (populations)", None):
        graphs = unsw_graphs()
        assert len(graphs) == UNSW_SNAPSHOTS
        labels = [g.labels for g in graphs]
        assert sum(int((y == 0).sum()) for y in labels) == UNSW_NORMAL_TOTAL
        assert sum(int((y == 1).sum()) for y in labels) == UNSW_ATTACK_TOTAL


@needs_unsw_full
def test_criterion_9_clustering_populations():
    with criterion("9 (clustering table)", None):
        graphs = unsw_graphs()
        for (algorithm, eps), expected in UNSW_CLUSTERED_NORMAL.items():
            params = ClusterParams(algorithm=algorithm, eps=eps or 0.5)
            total = 0
            for g in graphs:
                _, cg = cluster_snapshot(g, params)
                total += sum(1 for s in cg.nodes if s.kind == KIND_CLUSTER)
            assert abs(total - expected) <= 0.02 * expected, \
                f"{algorithm} eps={eps}: {total} vs reference {expected}"
