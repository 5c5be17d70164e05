"""Aggregation of a clustered snapshot into a super-node graph.

The super-node graph is a `SnapshotGraph` whose nodes are `SuperNode`s
and whose labels are hard labels. Each cluster of normal entities
collapses into one super-node whose behaviour vector is the arithmetic
mean of the members' raw vectors (the super-node feature matrix is then
re-normalized per snapshot); every attack entity survives untouched as
a singleton super-node, so the attack population is invariant under
aggregation. Noise-assigned normal entities are discarded along with
their incident edges. Edges between super-nodes carry the sum of the
member-to-member weights; edges internal to one cluster become a
self-loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..behavior_graph import (SnapshotGraph, first_appearance, minmax_scale,
                              normalize_features, read_snapshot_text, write_snapshot_text)
from ..errors import AssignmentMismatch
from ..flow_model import EntityId, entity
from . import NOISE, ClusterParams, ClusterResult, cluster_points

KIND_CLUSTER = "cluster"
KIND_ATTACK = "singleton-attack"

_NODE_COLUMNS = "node_index kind hard_label behaviour_fraction f1 f2 f3 f4 f5 f6 f7 f8 members"
_CLASSES = {(KIND_CLUSTER, "0", "0.0"), (KIND_ATTACK, "1", "1.0")}  # kind, hard label, fraction


@dataclass
class SuperNode:
    kind: str  # KIND_CLUSTER (hard label 0) or KIND_ATTACK (hard label 1)
    members: list[EntityId]


def aggregate(graph: SnapshotGraph, result: ClusterResult) -> SnapshotGraph:
    """Collapse clustered normal nodes; keep attack nodes as singletons.

    `result.assignment` must cover exactly the normal nodes of `graph`
    in node order, with ids in [NOISE, cluster_count), cluster_count
    >= 0 and a member in every cluster; `AssignmentMismatch` otherwise.
    Cluster features are averaged from the input graph's feature
    vectors as given (pass the raw graph for raw averaging) and the
    stacked super-node matrix is then min-max re-normalized. Edges with
    a noise endpoint are dropped; edges onto one super-node pair merge,
    in the order of the pair's first edge, summing their weights.
    """
    normal = np.flatnonzero(graph.labels == 0)
    attack = np.flatnonzero(graph.labels == 1)
    if len(result.assignment) != len(normal):
        raise AssignmentMismatch(
            f"assignment covers {len(result.assignment)} points but the "
            f"graph has {len(normal)} normal nodes")
    if result.cluster_count < 0:
        raise AssignmentMismatch(f"cluster count {result.cluster_count} is negative")
    outside = (result.assignment < NOISE) | (result.assignment >= result.cluster_count)
    if outside.any():
        raise AssignmentMismatch(f"cluster id {int(result.assignment[outside][0])} is outside "
                                 f"[{NOISE}, {result.cluster_count})")

    # super-node of each graph node: its cluster, the attack singletons
    # after the clusters, NOISE for discarded normal nodes
    super_of = np.full(graph.n_nodes, NOISE, dtype=np.int64)
    super_of[normal] = result.assignment
    super_of[attack] = result.cluster_count + np.arange(len(attack))
    member_positions = [np.flatnonzero(super_of == cid) for cid in range(result.cluster_count)]
    empty = [cid for cid, p in enumerate(member_positions) if not len(p)]
    if empty:
        raise AssignmentMismatch(f"cluster {empty[0]} has no member")

    nodes = [SuperNode(kind=KIND_CLUSTER, members=[graph.nodes[i] for i in p.tolist()])
             for p in member_positions]
    nodes += [SuperNode(kind=KIND_ATTACK, members=[graph.nodes[i]]) for i in attack.tolist()]
    labels = np.repeat([0, 1], [result.cluster_count, len(attack)])
    features = minmax_scale(np.vstack(
        [graph.features[p].mean(axis=0) for p in member_positions] + [graph.features[attack]]))

    src, dst = super_of[graph.edges[:, 0]], super_of[graph.edges[:, 1]]
    kept = (src != NOISE) & (dst != NOISE)
    n = len(nodes)
    pairs, pair_of_edge = first_appearance(src[kept] * n + dst[kept])
    weight = np.bincount(pair_of_edge, weights=graph.edges[kept, 2]).astype(np.int64)
    edges = np.stack([pairs // n, pairs % n, weight], axis=1)
    return SnapshotGraph(snapshot=graph.snapshot, nodes=nodes, labels=labels,
                         features=features, edges=edges)


def cluster_snapshot(graph: SnapshotGraph,
                     params: ClusterParams) -> tuple[ClusterResult, SnapshotGraph]:
    """Normalize, cluster the normal nodes, aggregate. One snapshot.

    Distances are computed on per-snapshot min-max normalized features;
    aggregation averages the raw features and re-normalizes the
    super-node matrix (see `aggregate`).
    """
    points = normalize_features(graph).features[graph.labels == 0]
    result = cluster_points(points, params)
    return result, aggregate(graph, result)


def write_assignment_csv(path, result: ClusterResult) -> None:
    """CSV export: node_index,cluster_id with -1 for noise.

    `node_index` i is the i-th normal (label 0) node in graph row order,
    the i-th point `cluster_snapshot` clusters, not graph row i.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node_index,cluster_id\n")
        for i, cid in enumerate(result.assignment):
            fh.write(f"{i},{int(cid)}\n")


def write_clustered_text(path, graph: SnapshotGraph) -> None:
    """Text export mirroring the snapshot-graph format plus members; weights print as `3.0`.

    Only normal nodes are clustered, so behaviour_fraction is the hard label as a float.
    """
    rows = [f"{node.kind} {label} {float(label)!r} " + " ".join(map(repr, row))
            + " " + ";".join(f"{m.ip}|{m.port}" for m in node.members)
            for node, label, row in zip(graph.nodes, graph.labels.tolist(),
                                        graph.features.tolist())]
    write_snapshot_text(path, graph.snapshot, "supernodes", _NODE_COLUMNS, rows, graph.edges,
                        ".0")


def _super_nodes(cols: list[tuple[str, ...]]) -> tuple[list[SuperNode], np.ndarray]:
    if not _CLASSES.issuperset(zip(cols[1], cols[2], cols[3])):
        raise ValueError(f"kind, hard_label and behaviour_fraction must read '{KIND_CLUSTER} 0 "
                         f"0.0' or '{KIND_ATTACK} 1 1.0', got "
                         f"'{cols[1][0]} {cols[2][0]} {cols[3][0]}'")
    nodes = [SuperNode(kind=kind, members=[entity(ip, port) for ip, port in
                                           (chunk.rsplit("|", 1) for chunk in text.split(";"))])
             for kind, text in zip(cols[1], cols[-1])]
    return nodes, np.array(cols[2], dtype=np.int64)


def read_clustered_text(path) -> SnapshotGraph:
    return read_snapshot_text(path, "supernodes", _NODE_COLUMNS, _super_nodes, ".0")
