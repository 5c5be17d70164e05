from __future__ import annotations

import numpy as np
import pytest

from flowgraph.behavior_graph import (
    N_FEATURES,
    build_graph,
    minmax_scale,
    normalize_features,
    read_graph_text,
    write_graph_text,
)
from flowgraph.errors import MalformedArtefact
from flowgraph.flow_model import EntityId
from flowgraph.temporal import SnapshotIndex
from oracles import (FlowRecord, corrupted_snapshot_texts, extract_features, flow_tallies,
                     from_records, majority_label, with_node_field)

A = EntityId("10.0.0.1", 1000)
B = EntityId("10.0.0.2", 2000)
C = EntityId("10.0.0.3", 3000)
D = EntityId("10.0.0.4", 4000)


def flow(src, dst, label=0, fwd=100, bwd=200, packets=10, duration=1.0, start=0.0):
    return FlowRecord(src=src, dst=dst, start_time=start, duration=duration,
                      bytes_src_to_dst=fwd, bytes_dst_to_src=bwd,
                      packets_total=packets, label=label)


def test_majority_label_rule():
    assert majority_label(2, 3) == 1   # attack majority
    assert majority_label(1, 2) == 0   # draw -> normal
    assert majority_label(0, 3) == 0   # normal majority
    assert majority_label(3, 3) == 1
    assert majority_label(1, 3) == 0


def test_parallel_flows_collapse_to_one_edge():
    g = build_graph(from_records([flow(A, B), flow(A, B)]))
    assert g.n_nodes == 2
    assert g.edges.tolist() == [[0, 1, 2]]


def test_directed_cycle():
    g = build_graph(from_records([flow(A, B), flow(B, C), flow(C, A)]))
    assert g.n_nodes == 3
    assert g.edges.tolist() == [[0, 1, 1], [1, 2, 1], [2, 0, 1]]


def test_node_labels_from_incident_flows():
    # D sees labels {1,1,0} -> attack; C sees {1,0} -> draw -> normal
    flows = [flow(A, D, label=1), flow(B, D, label=1), flow(D, C, label=0),
             flow(C, A, label=1)]
    g = build_graph(from_records(flows))
    labels = dict(zip(g.entities, g.labels.tolist()))
    assert labels[D] == 1
    assert labels[C] == 0
    # A sees {1,1}: strict attack majority
    assert labels[A] == 1
    assert labels[B] == 1


def test_all_normal_flows_stay_normal():
    g = build_graph(from_records([flow(A, B), flow(B, C), flow(A, C)]))
    assert g.labels.tolist() == [0, 0, 0]


def test_features_single_outgoing_flow():
    f = extract_features(A, [flow(A, B, fwd=100, bwd=200, packets=10, duration=1.0)])
    assert np.array_equal(f, [0, 1, 1, 100, 200, 10, 1.0, 1])


def test_features_two_flows_same_peer():
    flows = [flow(A, B), flow(A, B)]
    f = extract_features(A, flows)
    assert (f[1], f[2], f[7]) == (1, 2, 1)


def test_features_incoming_only():
    f = extract_features(B, [flow(A, B)])
    assert (f[0], f[1], f[7]) == (1, 0, 0)
    # bytes swap roles on the receiving side
    assert (f[3], f[4]) == (200, 100)


def test_self_loop_counts_twice():
    flows = [flow(A, A, label=1), flow(A, A, label=0), flow(A, A, label=0)]
    g = build_graph(from_records(flows))
    assert g.n_nodes == 1
    assert g.edges.tolist() == [[0, 0, 3]]
    # each self-loop flow is seen from both endpoint roles
    tallies = flow_tallies(A, flows)
    assert tallies == (2, 6)
    assert g.labels[0] == majority_label(*tallies) == 0
    assert g.features[0, 2] == 6


def test_build_graph_matches_extract_features():
    rng = np.random.default_rng(11)
    entities = [EntityId(f"10.1.{i // 200}.{i % 200 + 1}", 1000 + i) for i in range(12)]
    for _ in range(10):
        flows = []
        for _ in range(60):
            i, j = rng.integers(0, len(entities), size=2)
            flows.append(flow(entities[i], entities[j],
                              label=int(rng.integers(0, 2)),
                              fwd=int(rng.integers(0, 5000)),
                              bwd=int(rng.integers(0, 5000)),
                              packets=int(rng.integers(1, 50)),
                              duration=float(rng.uniform(0, 10))))
        g = build_graph(from_records(flows))
        assert sum(w for _, _, w in g.edges) == len(flows)
        assert g.n_nodes <= 2 * len(flows)
        for e, label, row in zip(g.entities, g.labels, g.features):
            assert np.allclose(row, extract_features(e, flows))
            assert label == majority_label(*flow_tallies(e, flows))


def test_features_are_label_free():
    rng = np.random.default_rng(4)
    entities = [EntityId(f"10.2.0.{i + 1}", 2000 + i) for i in range(8)]
    flows = []
    for _ in range(40):
        i, j = rng.integers(0, len(entities), size=2)
        flows.append(flow(entities[i], entities[j], label=int(rng.integers(0, 2))))
    flipped = [FlowRecord(src=f.src, dst=f.dst, start_time=f.start_time,
                          duration=f.duration, bytes_src_to_dst=f.bytes_src_to_dst,
                          bytes_dst_to_src=f.bytes_dst_to_src,
                          packets_total=f.packets_total, label=1 - f.label)
               for f in flows]
    g1 = build_graph(from_records(flows))
    g2 = build_graph(from_records(flipped))
    assert g1.entities == g2.entities
    assert np.array_equal(g1.features, g2.features)


def test_empty_input_yields_empty_graph():
    g = build_graph(from_records([]))
    assert g.n_nodes == 0 and g.edges.tolist() == [] and g.entities == []
    assert g.labels.shape == (0,) and g.labels.dtype == np.int64
    assert g.features.shape == (0, N_FEATURES)


def test_minmax_scaling():
    single = minmax_scale(np.array([[3.0, 7.0, 0.0]]))
    assert np.array_equal(single, [[0.0, 0.0, 0.0]])
    two = minmax_scale(np.array([[1.0], [3.0]]))
    assert np.array_equal(two, [[0.0], [1.0]])
    three = minmax_scale(np.array([[1.0], [2.0], [3.0]]))
    assert np.array_equal(three, [[0.0], [0.5], [1.0]])


def test_normalize_features_graph():
    g = build_graph(from_records([flow(A, B), flow(A, C), flow(A, B)]))
    scaled = normalize_features(g)
    m = scaled.features
    assert m.min() >= 0.0 and m.max() <= 1.0
    # original graph untouched
    assert g.features.max() > 1.0


def test_graph_text_round_trip(tmp_path):
    flows = [flow(A, B, label=1), flow(B, C), flow(C, A), flow(A, B)]
    g = build_graph(from_records(flows), snapshot=SnapshotIndex.for_width(3, 600.0))
    path = tmp_path / "snap.txt"
    write_graph_text(path, g)
    back = read_graph_text(path)
    assert back.snapshot == g.snapshot
    assert back.edges.tolist() == g.edges.tolist()
    assert back.entities == g.entities
    assert np.array_equal(back.labels, g.labels) and back.labels.dtype == np.int64
    assert np.array_equal(back.features, g.features) and back.features.dtype == np.float64

    text = path.read_text()
    bad_labels = [with_node_field(text, 3, label) for label in ("2", "-1")]
    # f1, f2 and f7 of node 0 not finite
    bad_features = [with_node_field(text, field, value)
                    for field, value in ((4, "nan"), (5, "-inf"), (10, "inf"))]
    for bad in corrupted_snapshot_texts(text, g.n_nodes) + bad_labels + bad_features:
        path.write_text(bad)
        with pytest.raises(MalformedArtefact, match="snap.txt"):
            read_graph_text(path)


def test_extract_features_requires_incident_flow():
    with pytest.raises(ValueError):
        extract_features(D, [flow(A, B)])
