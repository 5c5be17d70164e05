"""Property tests: random flow sets through clustering, aggregation and the text codecs.

Random flows over a small entity pool, all in one snapshot, go through
`build_graph` and `cluster_snapshot` with each of the paper's seven
cluster settings. Every normal node must land in exactly one cluster or
be noise; attack entities and their unscaled feature rows must reach
the aggregated graph unchanged and in node order; and graph and
clustered files must read back exactly what was written.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowgraph.behavior_graph import build_graph, minmax_scale, read_graph_text, write_graph_text
from flowgraph.density_cluster import (NOISE, ClusterParams, cluster_snapshot,
                                      read_clustered_text, write_clustered_text)
from flowgraph.density_cluster.aggregate import KIND_ATTACK, KIND_CLUSTER
from flowgraph.flow_model import EntityId
from flowgraph.temporal import SnapshotIndex
from oracles import FlowRecord, from_records

# bounded so that tier-1 stays fast and runs the same examples every time
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

ENTITIES = [EntityId(f"10.0.0.{i + 1}", 1000 + i % 3) for i in range(22)] + [
    EntityId("::1", 22), EntityId("192.168.1.7", 65535)]
SETTINGS = [ClusterParams(a, eps) for a in ("dbscan", "optics") for eps in (0.2, 0.5, 0.8)]
SETTINGS.append(ClusterParams("hdbscan"))

# few distinct volumes make near rows, so that clusters form as well as noise
volumes = st.sampled_from([0, 300, 1500, 1 << 40])
flow_records = st.builds(
    FlowRecord,
    src=st.sampled_from(ENTITIES),
    dst=st.sampled_from(ENTITIES),
    start_time=st.just(0.0),
    duration=st.one_of(st.just(1.0), st.floats(0.0, 1e4, allow_nan=False)),
    bytes_src_to_dst=volumes,
    bytes_dst_to_src=volumes,
    packets_total=st.sampled_from([1, 10, 1 << 20]),
    label=st.sampled_from([0, 0, 0, 1]),
)
graphs = st.lists(flow_records, max_size=60).map(
    lambda flows: build_graph(from_records(flows),
                              snapshot=SnapshotIndex.for_width(2, 600.0)))


@PROPERTY
@given(graphs, st.sampled_from(SETTINGS))
def test_normals_partition_and_attacks_pass_through(graph, params):
    raw = graph.features.copy()
    result, clustered = cluster_snapshot(graph, params)
    normal = [e for e, label in zip(graph.nodes, graph.labels.tolist()) if label == 0]
    attack = np.flatnonzero(graph.labels == 1)
    count = result.cluster_count

    # every normal node is in exactly one cluster or is noise
    assert len(result.assignment) == len(normal)
    assert set(result.assignment.tolist()) <= {NOISE, *range(count)}
    members = [[e for e, c in zip(normal, result.assignment.tolist()) if c == cid]
               for cid in range(count)]
    assert [s.kind for s in clustered.nodes] == [KIND_CLUSTER] * count + [KIND_ATTACK] * len(attack)
    assert [s.members for s in clustered.nodes[:count]] == members
    assert all(members)

    # attack entities and their unscaled rows reach aggregation unchanged, in order
    assert np.array_equal(graph.features, raw)
    assert [s.members for s in clustered.nodes[count:]] == [[graph.nodes[i]] for i in attack]
    assert clustered.labels.tolist() == [0] * count + [1] * len(attack)
    position = {e: i for i, e in enumerate(graph.nodes)}
    means = [raw[[position[e] for e in m]].mean(axis=0) for m in members]
    assert np.array_equal(clustered.features, minmax_scale(np.vstack(means + [raw[attack]])))


@PROPERTY
@given(graphs, st.sampled_from(SETTINGS))
def test_graph_and_clustered_files_round_trip(tmp_path_factory, graph, params):
    work = tmp_path_factory.mktemp("files")
    _, clustered = cluster_snapshot(graph, params)
    write_graph_text(work / "graph.txt", graph)
    write_clustered_text(work / "clustered.txt", clustered)
    for written, back in ((graph, read_graph_text(work / "graph.txt")),
                          (clustered, read_clustered_text(work / "clustered.txt"))):
        assert back.snapshot == written.snapshot
        assert back.edges.tolist() == written.edges.tolist()
        assert back.labels.dtype == np.int64 and np.array_equal(back.labels, written.labels)
        assert back.features.dtype == np.float64
        assert back.features.shape == written.features.shape
        assert np.array_equal(back.features, written.features)
    assert read_graph_text(work / "graph.txt").nodes == graph.nodes
    assert read_clustered_text(work / "clustered.txt").nodes == clustered.nodes
