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

from ..behavior_graph import (SnapshotGraph, first_appearance, minmax_scale,
                              normalize_features, read_snapshot_text, write_snapshot_text)
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
    behaviour_fraction: float  # mean of member labels


@dataclass
class ClusteredGraph:
    """Super-node i is `nodes[i]`, with hard label `labels[i]` and features `features[i]`."""

    snapshot: SnapshotIndex
    nodes: list[SuperNode]
    labels: np.ndarray  # int64 hard labels: 1 iff behaviour_fraction > 0.5
    features: np.ndarray  # float64, shape (n_nodes, N_FEATURES)
    edges: np.ndarray  # int64, shape (n_edges, 3): src index, dst index, summed flow count

    @property
    def n_nodes(self) -> int:
        return len(self.labels)


def _hard_label(fraction: float) -> int:
    return 1 if fraction > 0.5 else 0


def aggregate(graph: SnapshotGraph, result: ClusterResult) -> ClusteredGraph:
    """Collapse clustered normal nodes; keep attack nodes as singletons.

    `result.assignment` must cover exactly the normal nodes of `graph`
    in node order. Cluster features are averaged from the input graph's
    feature vectors as given (pass the raw graph for raw averaging) and
    the stacked super-node matrix is then min-max re-normalized. Edges
    with a noise endpoint are dropped; edges onto one super-node pair
    merge, in the order of the pair's first edge, summing their weights.
    """
    normal = np.flatnonzero(graph.labels == 0)
    attack = np.flatnonzero(graph.labels == 1)
    if len(result.assignment) != len(normal):
        raise AssignmentMismatch(
            f"assignment covers {len(result.assignment)} points but the "
            f"graph has {len(normal)} normal nodes")

    # super-node of each graph node: its cluster, the attack singletons
    # after the clusters, NOISE for discarded normal nodes
    super_of = np.full(graph.n_nodes, NOISE, dtype=np.int64)
    super_of[normal] = result.assignment
    super_of[attack] = result.cluster_count + np.arange(len(attack))
    member_positions = [np.flatnonzero(super_of == cid) for cid in range(result.cluster_count)]

    nodes = [SuperNode(kind=KIND_CLUSTER, members=[graph.entities[i] for i in p.tolist()],
                       behaviour_fraction=float(graph.labels[p].mean()))
             for p in member_positions]
    nodes += [SuperNode(kind=KIND_ATTACK, members=[graph.entities[i]], behaviour_fraction=1.0)
              for i in attack.tolist()]
    labels = np.array([_hard_label(s.behaviour_fraction) for s in nodes], dtype=np.int64)
    features = minmax_scale(np.vstack(
        [graph.features[p].mean(axis=0) for p in member_positions] + [graph.features[attack]]))

    src, dst = super_of[graph.edges[:, 0]], super_of[graph.edges[:, 1]]
    kept = (src != NOISE) & (dst != NOISE)
    n = len(nodes)
    pairs, pair_of_edge = first_appearance(src[kept] * n + dst[kept])
    weight = np.bincount(pair_of_edge, weights=graph.edges[kept, 2]).astype(np.int64)
    edges = np.stack([pairs // n, pairs % n, weight], axis=1)
    return ClusteredGraph(snapshot=graph.snapshot, nodes=nodes, labels=labels,
                          features=features, edges=edges)


def cluster_snapshot(graph: SnapshotGraph,
                     params: ClusterParams) -> tuple[ClusterResult, ClusteredGraph]:
    """Normalize, cluster the normal nodes, aggregate. One snapshot.

    Distances are computed on per-snapshot min-max normalized features;
    aggregation averages the raw features and re-normalizes the
    super-node matrix (see `aggregate`).
    """
    points = normalize_features(graph).features[graph.labels == 0]
    result = cluster_points(points, params)
    return result, aggregate(graph, result)


def write_assignment_csv(path, result: ClusterResult) -> None:
    """CSV export: node_index,cluster_id with -1 for noise."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_index,cluster_id\n")
        for i, cid in enumerate(result.assignment):
            fh.write(f"{i},{int(cid)}\n")


def write_clustered_text(path, graph: ClusteredGraph) -> None:
    """Text export mirroring the snapshot-graph format plus members; weights print as `3.0`."""
    rows = [f"{node.kind} {label} {node.behaviour_fraction!r} " + " ".join(map(repr, row))
            + " " + ";".join(f"{m.ip}|{m.port}" for m in node.members)
            for node, label, row in zip(graph.nodes, graph.labels.tolist(),
                                        graph.features.tolist())]
    write_snapshot_text(path, graph.snapshot, "supernodes", _NODE_COLUMNS, rows, graph.edges,
                        float)


def _super_node(row: list[str]) -> tuple[SuperNode, int]:
    kind, hard_label, fraction = row[1], int(row[2]), float(row[3])
    if kind not in (KIND_CLUSTER, KIND_ATTACK):
        raise ValueError(f"unknown super-node kind {kind!r}")
    if hard_label not in (0, 1):
        raise ValueError(f"hard_label must be 0 or 1, got {hard_label}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"behaviour_fraction must be in [0, 1], got {row[3]}")
    members = [entity(ip, port) for ip, port in
               (chunk.rsplit("|", 1) for chunk in row[-1].split(";"))]
    return SuperNode(kind=kind, members=members, behaviour_fraction=fraction), hard_label


def read_clustered_text(path) -> ClusteredGraph:
    return ClusteredGraph(*read_snapshot_text(path, "supernodes", _NODE_COLUMNS,
                                              _super_node, float))
