"""Per-snapshot behavioural entity graph.

Nodes are (IP, port) entities seen as a flow endpoint within one
snapshot; a directed edge aggregates all flows between one (src, dst)
pair, weighted by flow count. Each node carries a majority-vote
behaviour label (attack iff attack flows strictly outnumber normal
flows over both incoming and outgoing connections; draws are normal)
and an 8-dimensional label-free behaviour vector:

    f1  in-degree (distinct predecessor entities)
    f2  out-degree (distinct successor entities)
    f3  total incident flow count
    f4  total bytes sent
    f5  total bytes received
    f6  total packets over incident flows
    f7  mean flow duration over incident flows
    f8  distinct destination ports contacted

A flow counts once per endpoint role, so a self-loop flow (src entity
== dst entity) contributes twice to that node's tallies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .flow_model import EntityId, FlowRecord
from .temporal import SnapshotIndex

N_FEATURES = 8

# column layout of the node table in the text export
_NODE_COLUMNS = "node_index ip port label f1 f2 f3 f4 f5 f6 f7 f8"
_EDGE_COLUMNS = "src_index dst_index weight"


@dataclass
class BehaviorNode:
    id: EntityId
    label: int
    features: np.ndarray
    attack_flow_count: int
    total_flow_count: int


@dataclass
class SnapshotGraph:
    snapshot: SnapshotIndex
    nodes: list[BehaviorNode]
    edges: list[tuple[int, int, int]]  # (src index, dst index, flow count)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_labels(self) -> np.ndarray:
        return np.array([n.label for n in self.nodes], dtype=np.int64)


def majority_label(attack_flows: int, total_flows: int) -> int:
    """1 iff attack flows form a strict majority; draws are normal."""
    return 1 if 2 * attack_flows > total_flows else 0


def build_graph(flows: list[FlowRecord],
                snapshot: SnapshotIndex | None = None) -> SnapshotGraph:
    """Build the behavioural graph for one snapshot's flows.

    Nodes appear in first-appearance order (src before dst per flow);
    edges in first-appearance order of their (src, dst) pair.
    """
    if snapshot is None:
        snapshot = SnapshotIndex(index=0, window_start=0.0, window_end=0.0)

    index_of: dict[EntityId, int] = {}
    in_peers: list[set[int]] = []
    out_peers: list[set[int]] = []
    dst_ports: list[set[int]] = []
    sums: list[np.ndarray] = []  # per node: flows, bytes sent, bytes recv, packets, duration
    edge_index: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int, int]] = []

    def node_for(eid: EntityId) -> int:
        i = index_of.get(eid)
        if i is None:
            i = len(index_of)
            index_of[eid] = i
            in_peers.append(set())
            out_peers.append(set())
            dst_ports.append(set())
            sums.append(np.zeros(5))
        return i

    for flow in flows:
        si = node_for(flow.src)
        di = node_for(flow.dst)

        out_peers[si].add(di)
        dst_ports[si].add(flow.dst.port)
        sums[si] += (1, flow.bytes_src_to_dst, flow.bytes_dst_to_src,
                     flow.packets_total, flow.duration)

        in_peers[di].add(si)
        sums[di] += (1, flow.bytes_dst_to_src, flow.bytes_src_to_dst,
                     flow.packets_total, flow.duration)

        key = (si, di)
        at = edge_index.get(key)
        if at is None:
            edge_index[key] = len(edges)
            edges.append((si, di, 1))
        else:
            s, d, w = edges[at]
            edges[at] = (s, d, w + 1)

    nodes = []
    for eid, i in index_of.items():
        n_flows, sent, received, packets, dur_sum = sums[i]
        features = np.array([
            len(in_peers[i]),
            len(out_peers[i]),
            n_flows,
            sent,
            received,
            packets,
            dur_sum / n_flows,
            len(dst_ports[i]),
        ], dtype=np.float64)
        nodes.append(BehaviorNode(id=eid, label=0, features=features,
                                  attack_flow_count=0, total_flow_count=0))

    graph = SnapshotGraph(snapshot=snapshot, nodes=nodes, edges=edges)
    label_nodes(graph, flows)
    return graph


def label_nodes(graph: SnapshotGraph, flows: list[FlowRecord]) -> None:
    """Recompute every node's majority-vote label from the flow list."""
    index_of = {node.id: i for i, node in enumerate(graph.nodes)}
    attack = [0] * len(graph.nodes)
    total = [0] * len(graph.nodes)
    for flow in flows:
        for eid in (flow.src, flow.dst):
            i = index_of[eid]
            total[i] += 1
            attack[i] += flow.label
    for i, node in enumerate(graph.nodes):
        node.attack_flow_count = attack[i]
        node.total_flow_count = total[i]
        node.label = majority_label(attack[i], total[i])


def feature_matrix(graph: SnapshotGraph) -> np.ndarray:
    if not graph.nodes:
        return np.zeros((0, N_FEATURES))
    return np.stack([node.features for node in graph.nodes])


def minmax_scale(features: np.ndarray) -> np.ndarray:
    """Min-max scale each column to [0, 1]; constant columns map to 0."""
    if features.shape[0] == 0:
        return features.copy()
    lo = features.min(axis=0)
    hi = features.max(axis=0)
    span = hi - lo
    span[span == 0] = 1.0
    scaled = (features - lo) / span
    return scaled


def normalize_features(graph: SnapshotGraph) -> SnapshotGraph:
    """Copy of the graph with features min-max scaled per dimension."""
    scaled = minmax_scale(feature_matrix(graph))
    nodes = [replace(node, features=scaled[i]) for i, node in enumerate(graph.nodes)]
    return SnapshotGraph(snapshot=graph.snapshot, nodes=nodes, edges=list(graph.edges))


def write_graph_text(path, graph: SnapshotGraph) -> None:
    """Write the node-table + edge-list text export.

    Note the attack/total flow tallies are not serialized; nodes read
    back carry counts consistent with their label but not the originals.
    """
    with open(path, "w", encoding="utf-8") as fh:
        s = graph.snapshot
        fh.write(f"# snapshot {s.index} {s.window_start!r} {s.window_end!r}\n")
        fh.write(f"# nodes {len(graph.nodes)}\n")
        fh.write(f"# {_NODE_COLUMNS}\n")
        for i, node in enumerate(graph.nodes):
            feats = " ".join(repr(float(v)) for v in node.features)
            fh.write(f"{i} {node.id.ip} {node.id.port} {node.label} {feats}\n")
        fh.write(f"# edges {len(graph.edges)}\n")
        fh.write(f"# {_EDGE_COLUMNS}\n")
        for src, dst, weight in graph.edges:
            fh.write(f"{src} {dst} {weight}\n")


def read_graph_text(path) -> SnapshotGraph:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    head = lines[0].split()
    snapshot = SnapshotIndex(index=int(head[2]),
                             window_start=float(head[3]),
                             window_end=float(head[4]))
    n_nodes = int(lines[1].split()[2])
    nodes = []
    at = 3
    for line in lines[at:at + n_nodes]:
        parts = line.split()
        label = int(parts[3])
        features = np.array([float(v) for v in parts[4:4 + N_FEATURES]])
        nodes.append(BehaviorNode(
            id=EntityId(parts[1], int(parts[2])),
            label=label,
            features=features,
            attack_flow_count=label,
            total_flow_count=1,
        ))
    at += n_nodes
    n_edges = int(lines[at].split()[2])
    at += 2
    edges = []
    for line in lines[at:at + n_edges]:
        s, d, w = line.split()
        edges.append((int(s), int(d), int(w)))
    return SnapshotGraph(snapshot=snapshot, nodes=nodes, edges=edges)
