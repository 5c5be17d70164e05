"""Aggregation of a clustered snapshot into a super-node graph.

Each cluster of normal entities collapses into one super-node whose
behaviour vector is the arithmetic mean of the members' raw vectors
(the super-node feature matrix is then re-normalized per snapshot);
every attack entity survives untouched as a singleton super-node, so
the attack population is invariant under aggregation. Noise-assigned
normal entities are discarded along with their incident edges. Edges
between super-nodes carry the sum of the member-to-member weights;
edges internal to one cluster become a self-loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..behavior_graph import (N_FEATURES, SnapshotGraph, minmax_scale, normalize_features,
                              read_features, read_snapshot_text, write_snapshot_text)
from ..errors import AssignmentMismatch
from ..flow_model import EntityId, entity
from ..temporal import SnapshotIndex
from . import NOISE, ClusterParams, ClusterResult, cluster_points

KIND_CLUSTER = "cluster"
KIND_ATTACK = "singleton-attack"

_NODE_COLUMNS = "node_index kind hard_label behaviour_fraction f1 f2 f3 f4 f5 f6 f7 f8 members"


@dataclass
class SuperNode:
    kind: str  # KIND_CLUSTER or KIND_ATTACK
    members: list[EntityId]
    features: np.ndarray
    behaviour_fraction: float  # mean of member labels
    hard_label: int  # 1 iff behaviour_fraction > 0.5 (draws are normal)


@dataclass
class ClusteredGraph:
    snapshot: SnapshotIndex
    nodes: list[SuperNode]
    edges: list[tuple[int, int, float]]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_labels(self) -> np.ndarray:
        return np.array([node.hard_label for node in self.nodes], dtype=np.int64)


def _hard_label(fraction: float) -> int:
    return 1 if fraction > 0.5 else 0


def aggregate(graph: SnapshotGraph, result: ClusterResult) -> ClusteredGraph:
    """Collapse clustered normal nodes; keep attack nodes as singletons.

    `result.assignment` must cover exactly the normal nodes of `graph`
    in node order. Cluster features are averaged from the input graph's
    feature vectors as given (pass the raw graph for raw averaging) and
    the stacked super-node matrix is then min-max re-normalized.
    """
    normal_positions = [i for i, node in enumerate(graph.nodes) if node.label == 0]
    if len(result.assignment) != len(normal_positions):
        raise AssignmentMismatch(
            f"assignment covers {len(result.assignment)} points but the "
            f"graph has {len(normal_positions)} normal nodes")

    member_positions: list[list[int]] = [[] for _ in range(result.cluster_count)]
    super_of: dict[int, int] = {}
    for pos, cid in zip(normal_positions, result.assignment):
        if cid != NOISE:
            super_of[pos] = int(cid)
            member_positions[int(cid)].append(pos)

    nodes: list[SuperNode] = []
    for positions in member_positions:
        feats = np.stack([graph.nodes[i].features for i in positions]).mean(axis=0)
        fraction = float(np.mean([graph.nodes[i].label for i in positions]))
        nodes.append(SuperNode(
            kind=KIND_CLUSTER,
            members=[graph.nodes[i].id for i in positions],
            features=feats,
            behaviour_fraction=fraction,
            hard_label=_hard_label(fraction),
        ))
    for pos, node in enumerate(graph.nodes):
        if node.label == 1:
            super_of[pos] = len(nodes)
            nodes.append(SuperNode(
                kind=KIND_ATTACK,
                members=[node.id],
                features=node.features.copy(),
                behaviour_fraction=1.0,
                hard_label=1,
            ))

    if nodes:
        scaled = minmax_scale(np.stack([s.features for s in nodes]))
        for supernode, row in zip(nodes, scaled):
            supernode.features = row

    weight: dict[tuple[int, int], float] = {}
    for src, dst, w in graph.edges:
        s = super_of.get(src)
        d = super_of.get(dst)
        if s is None or d is None:
            continue  # at least one endpoint was noise
        weight[(s, d)] = weight.get((s, d), 0.0) + w
    edges = [(s, d, w) for (s, d), w in weight.items()]
    return ClusteredGraph(snapshot=graph.snapshot, nodes=nodes, edges=edges)


def cluster_snapshot(graph: SnapshotGraph,
                     params: ClusterParams) -> tuple[ClusterResult, ClusteredGraph]:
    """Normalize, cluster the normal nodes, aggregate. One snapshot.

    Distances are computed on per-snapshot min-max normalized features;
    aggregation averages the raw features and re-normalizes the
    super-node matrix (see `aggregate`).
    """
    normalized = normalize_features(graph)
    normal = [node.features for node in normalized.nodes if node.label == 0]
    points = np.stack(normal) if normal else np.zeros((0, N_FEATURES))
    result = cluster_points(points, params)
    return result, aggregate(graph, result)


def write_assignment_csv(path, result: ClusterResult) -> None:
    """CSV export: node_index,cluster_id with -1 for noise."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_index,cluster_id\n")
        for i, cid in enumerate(result.assignment):
            fh.write(f"{i},{int(cid)}\n")


def write_clustered_text(path, graph: ClusteredGraph) -> None:
    """Text export mirroring the snapshot-graph format plus members."""
    rows = [f"{node.kind} {node.hard_label} {node.behaviour_fraction!r} "
            + " ".join(repr(float(v)) for v in node.features) + " "
            + ";".join(f"{m.ip}|{m.port}" for m in node.members)
            for node in graph.nodes]
    write_snapshot_text(path, graph.snapshot, "supernodes", _NODE_COLUMNS, rows, graph.edges)


def _super_node(row: list[str]) -> SuperNode:
    kind, hard_label, fraction = row[1], int(row[2]), float(row[3])
    if kind not in (KIND_CLUSTER, KIND_ATTACK):
        raise ValueError(f"unknown super-node kind {kind!r}")
    if hard_label not in (0, 1):
        raise ValueError(f"hard_label must be 0 or 1, got {hard_label}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"behaviour_fraction must be in [0, 1], got {row[3]}")
    members = [entity(ip, port) for ip, port in
               (chunk.rsplit("|", 1) for chunk in row[4 + N_FEATURES].split(";"))]
    return SuperNode(kind=kind, members=members,
                     features=read_features(row[4:4 + N_FEATURES]),
                     behaviour_fraction=fraction, hard_label=hard_label)


def read_clustered_text(path) -> ClusteredGraph:
    snapshot, nodes, edges = read_snapshot_text(path, "supernodes", _NODE_COLUMNS,
                                                _super_node, float)
    return ClusteredGraph(snapshot=snapshot, nodes=nodes, edges=edges)
