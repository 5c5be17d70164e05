from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowgraph
from flowgraph import density_cluster
from flowgraph.behavior_graph import (SnapshotGraph, build_graph, minmax_scale, read_graph_text,
                                      write_graph_text)
from flowgraph.density_cluster import (
    KIND_ATTACK,
    KIND_CLUSTER,
    NOISE,
    ClusterParams,
    ClusterResult,
    SuperNode,
    aggregate,
    cluster_snapshot,
    read_clustered_text,
    write_assignment_csv,
    write_clustered_text,
)
from flowgraph.errors import AssignmentMismatch, MalformedArtefact
from flowgraph.flow_model import EntityId
from flowgraph.synth import SynthConfig, generate
from oracles import aggregate_edges_oracle, corrupted_snapshot_texts, graph_from, with_node_field


def feats(x: float):
    return [x] * 8


def test_cluster_of_normals_has_zero_fraction():
    graph = graph_from([feats(1.0), feats(3.0)], [0, 0], [(0, 1, 4)])
    result = ClusterResult(assignment=np.array([0, 0]), cluster_count=1)
    clustered = aggregate(graph, result)
    assert clustered.n_nodes == 1
    super_node = clustered.nodes[0]
    assert super_node.kind == KIND_CLUSTER
    assert clustered.labels.tolist() == [0]
    # intra-cluster edge becomes a self-loop with the summed weight
    assert clustered.edges.tolist() == [[0, 0, 4]]


def test_three_normals_one_attack():
    graph = graph_from(
        [feats(1.0), feats(2.0), feats(3.0), feats(9.0)],
        [0, 0, 0, 1],
        [(0, 3, 1), (1, 3, 1), (2, 3, 1)],
    )
    result = ClusterResult(assignment=np.array([0, 0, 0]), cluster_count=1)
    clustered = aggregate(graph, result)
    assert clustered.n_nodes == 2
    kinds = [s.kind for s in clustered.nodes]
    assert kinds == [KIND_CLUSTER, KIND_ATTACK]
    assert clustered.edges.tolist() == [[0, 1, 3]]
    assert clustered.labels.tolist() == [0, 1]


def test_raw_average_then_renormalized():
    graph = graph_from([feats(1.0), feats(3.0), feats(8.0), feats(0.0)], [0, 0, 1, 1])
    result = ClusterResult(assignment=np.array([0, 0]), cluster_count=1)
    # cluster feature = mean of raw member vectors, attacks keep their own;
    # with three super-nodes the scaled cluster row (0.25) shows the mean
    raw = np.array([(graph.features[0] + graph.features[1]) / 2,
                    graph.features[2], graph.features[3]])
    assert np.array_equal(raw, [feats(2.0), feats(8.0), feats(0.0)])

    scaled = aggregate(graph, result)
    expected = minmax_scale(raw)
    assert np.array_equal(expected[0], feats(0.25))
    assert len(scaled.nodes) == 3
    assert np.array_equal(scaled.features, expected)


def test_all_noise_leaves_only_attack_singletons():
    graph = graph_from(
        [feats(1.0), feats(5.0), feats(2.0)],
        [0, 1, 0],
        [(0, 1, 2), (2, 1, 1), (0, 2, 3)],
    )
    result = ClusterResult(assignment=np.array([NOISE, NOISE]), cluster_count=0)
    clustered = aggregate(graph, result)
    assert [s.kind for s in clustered.nodes] == [KIND_ATTACK]
    assert clustered.nodes[0].members == [graph.nodes[1]]
    assert clustered.edges.tolist() == []


def test_behaviour_and_clustered_graphs_are_one_type(tmp_path):
    # a clustered graph differs from the graph it aggregates only in what its nodes are
    assert [f.name for f in dataclasses.fields(SnapshotGraph)] == [
        "snapshot", "nodes", "labels", "features", "edges"]
    assert not hasattr(flowgraph, "ClusteredGraph")
    assert not hasattr(density_cluster, "ClusteredGraph")
    graph = build_graph(generate(SynthConfig(seed=0, duration=600.0, n_normal_entities=10)))
    normal = int((graph.labels == 0).sum())
    assert normal > 0 and graph.labels.any()
    clustered = aggregate(graph, ClusterResult(np.zeros(normal, dtype=np.int64), 1))
    write_graph_text(tmp_path / "graph.txt", graph)
    write_clustered_text(tmp_path / "clustered.txt", clustered)
    made = [graph, read_graph_text(tmp_path / "graph.txt"),
            clustered, read_clustered_text(tmp_path / "clustered.txt")]
    assert [type(g) for g in made] == [SnapshotGraph] * 4
    assert {type(node) for g in made[:2] for node in g.nodes} == {EntityId}
    assert {type(node) for g in made[2:] for node in g.nodes} == {SuperNode}


def test_assignment_mismatch():
    graph = graph_from([feats(1.0)] * 3, [0, 0, 1])
    # a point too few, ids outside [NOISE, cluster_count), a cluster with no member
    for assignment, count, match in (([0], 1, "covers 1 points"),
                                     ([0, 3], 1, "cluster id 3 is outside"),
                                     ([0, -2], 1, "cluster id -2 is outside"),
                                     ([0, 0], 2, "cluster 1 has no member"),
                                     ([1, NOISE], 2, "cluster 0 has no member")):
        with pytest.raises(AssignmentMismatch, match=match):
            aggregate(graph, ClusterResult(np.array(assignment), count))
    # a negative cluster count, on a graph with normal nodes and on one with none
    for graph, assignment in ((graph, [NOISE, NOISE]), (graph_from([feats(1.0)] * 2, [1, 1]), [])):
        with pytest.raises(AssignmentMismatch, match="cluster count -1 is negative"):
            aggregate(graph, ClusterResult(np.array(assignment, dtype=np.int64), -1))


def test_attack_population_invariant():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(5, 40))
        labels = rng.integers(0, 2, size=n).tolist()
        features = rng.uniform(0, 1, size=(n, 8)).tolist()
        graph = graph_from(features, labels)
        params = ClusterParams(algorithm="dbscan", eps=0.4)
        _, clustered = cluster_snapshot(graph, params)
        n_attack_in = sum(labels)
        singles = [s for s in clustered.nodes if s.kind == KIND_ATTACK]
        assert len(singles) == n_attack_in
        # monotonic reduction of the normal population
        n_clusters = sum(1 for s in clustered.nodes if s.kind == KIND_CLUSTER)
        assert n_clusters <= n - n_attack_in


def test_cluster_snapshot_pairs_assignment_with_graph():
    graph = graph_from(
        [feats(0.0), feats(0.05), feats(0.9), feats(0.5)],
        [0, 0, 0, 1],
        [(0, 1, 1)],
    )
    params = ClusterParams(algorithm="dbscan", eps=0.2)
    result, clustered = cluster_snapshot(graph, params)
    assert len(result.assignment) == 3  # only the normal nodes
    n_clusters = sum(1 for s in clustered.nodes if s.kind == KIND_CLUSTER)
    assert n_clusters == result.cluster_count


def test_assignment_csv(tmp_path):
    path = tmp_path / "assign.csv"
    write_assignment_csv(path, ClusterResult(
        assignment=np.array([0, NOISE, 1]), cluster_count=2))
    assert path.read_text() == "node_index,cluster_id\n0,0\n1,-1\n2,1\n"


def test_clustered_text_round_trip(tmp_path):
    graph = graph_from(
        np.random.default_rng(3).uniform(0, 1, size=(5, 8)).tolist(),
        [0, 0, 0, 1, 1],
        [(0, 1, 2), (1, 3, 1), (4, 2, 5), (3, 4, 1)],
    )
    result = ClusterResult(assignment=np.array([0, 0, NOISE]), cluster_count=1)
    clustered = aggregate(graph, result)
    path = tmp_path / "clustered.txt"
    write_clustered_text(path, clustered)
    back = read_clustered_text(path)
    assert back.snapshot == clustered.snapshot
    assert back.edges.tolist() == clustered.edges.tolist()
    assert [s.kind for s in back.nodes] == [s.kind for s in clustered.nodes]
    assert [s.members for s in back.nodes] == [s.members for s in clustered.nodes]
    assert np.array_equal(back.labels, clustered.labels) and back.labels.dtype == np.int64
    assert np.array_equal(back.features, clustered.features)

    text = path.read_text()
    assert text.splitlines()[3].split()[1:4] == ["cluster", "0", "0.0"]
    assert text.splitlines()[4].split()[1:4] == ["singleton-attack", "1", "1.0"]
    # node row 0 is a cluster: only 'cluster 0 0.0' reads, as every clustered node is normal
    bad_values = [with_node_field(text, field, value) for field, value in (
        (1, "noise"), (1, "singleton-attack"), (2, "1"), (2, "2"), (2, "-1"),
        (3, "0.3"), (3, "1.0"), (3, "2.0"), (3, "-0.25"), (3, "nan"), (4, "nan"), (11, "inf"),
        # the class fields read exactly as written; f1-f8 are unsigned ASCII with no '_'
        (2, "+0"), (3, "0_0.0"), (3, "0.00"), (3, "\u0660.0"), (4, "1_0.0"), (5, "\u0662.0"),
        (4, "+1.0"), (5, "-0.0"), (11, "-1.0"))]
    bad_values.append(text.replace("cluster 0 0.0", "cluster 1 0.3", 1))
    bad_values.append(text.replace("singleton-attack 1 1.0", "singleton-attack 1 0.5", 1))
    bad_values.append(text.replace("singleton-attack 1 1.0", "singleton-attack 0 0.0", 1))
    for bad in corrupted_snapshot_texts(text, clustered.n_nodes) + bad_values:
        path.write_text(bad)
        with pytest.raises(MalformedArtefact, match="clustered.txt"):
            read_clustered_text(path)


def snapshot_case(labels, clusters, edges):
    """(graph, cluster result) with node i labelled labels[i] and the normal nodes in `clusters`.

    Cluster ids are renumbered 0, 1, ... in order of first appearance,
    so every cluster has a member; NOISE stays noise.
    """
    ids: dict[int, int] = {}
    for c in clusters:
        if c != NOISE:
            ids.setdefault(c, len(ids))
    graph = graph_from(np.zeros((len(labels), 8)), labels, edges)
    return graph, ClusterResult(assignment=np.array([ids.get(c, NOISE) for c in clusters],
                                                    dtype=np.int64), cluster_count=len(ids))


@st.composite
def clustered_snapshots(draw):
    labels = draw(st.lists(st.sampled_from([0, 0, 1]), max_size=12))
    clusters = draw(st.lists(st.integers(NOISE, 3), min_size=labels.count(0),
                             max_size=labels.count(0)))
    nodes = st.integers(0, max(len(labels) - 1, 0))
    pairs = draw(st.lists(st.tuples(nodes, nodes), unique=True, max_size=30)) if labels else []
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(pairs), max_size=len(pairs)))
    return snapshot_case(labels, clusters, [(s, d, w) for (s, d), w in zip(pairs, weights)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(clustered_snapshots())
@example(snapshot_case([], [], []))  # empty graph
@example(snapshot_case([0, 0, 1], [NOISE, NOISE], [(0, 1, 2), (1, 2, 3), (2, 2, 4)]))  # all noise
@example(snapshot_case([0, 0, 0, 1], [0, NOISE, 0],  # self-loops, reciprocal and noise edges
                       [(0, 0, 1), (0, 2, 2), (2, 0, 3), (3, 0, 4), (0, 3, 5), (1, 3, 6),
                        (3, 3, 7), (2, 1, 8)]))
def test_aggregate_edges_match_the_dict_merge(case):
    graph, result = case
    edges = aggregate(graph, result).edges
    assert edges.dtype == np.int64 and edges.shape == (len(edges), 3)
    assert edges.tolist() == aggregate_edges_oracle(graph, result.assignment.tolist(),
                                                    result.cluster_count)
