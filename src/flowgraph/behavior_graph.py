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

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MalformedArtefact
from .flow_model import EntityId, FlowTable, entity
from .temporal import SnapshotIndex

N_FEATURES = 8

# column layouts of the node table and the edge list in the text export
_NODE_COLUMNS = "node_index ip port label f1 f2 f3 f4 f5 f6 f7 f8"
_EDGE_COLUMNS = "src_index dst_index weight"
_MAX_WEIGHT = np.iinfo(np.int64).max


@dataclass
class SnapshotGraph:
    """Node i is `entities[i]`, with label `labels[i]` and behaviour vector `features[i]`."""

    snapshot: SnapshotIndex
    entities: list[EntityId]
    labels: np.ndarray  # int64, one per node
    features: np.ndarray  # float64, shape (n_nodes, N_FEATURES)
    edges: np.ndarray  # int64, shape (n_edges, 3): src index, dst index, flow count

    @property
    def n_nodes(self) -> int:
        return len(self.labels)


def first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys in order of first appearance, each key's rank in that order)."""
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse]


def build_graph(flows: FlowTable, snapshot: SnapshotIndex | None = None) -> SnapshotGraph:
    """Build the behavioural graph for one snapshot's flows.

    Nodes appear in first-appearance order (src before dst per flow);
    edges in first-appearance order of their (src, dst) pair.
    """
    if snapshot is None:
        snapshot = SnapshotIndex(index=0, window_start=0.0, window_end=0.0)

    # endpoint roles interleaved as src0, dst0, src1, dst1, ...: a flow
    # counts once per role, and bincount adds each node's terms in flow order
    codes, role_node = first_appearance(np.stack([flows.src, flows.dst], axis=1).ravel())
    n = len(codes)
    src, dst = role_node[0::2], role_node[1::2]

    def per_node(from_src, from_dst) -> np.ndarray:
        weights = np.stack([from_src, from_dst], axis=1).ravel()
        return np.bincount(role_node, weights=weights, minlength=n)

    n_flows = np.bincount(role_node, minlength=n).astype(np.float64)
    n_attack = np.bincount(role_node, weights=np.repeat(flows.label, 2), minlength=n)

    edge_keys, edge_of_flow = first_appearance(src * n + dst)
    edge_src, edge_dst = edge_keys // n, edge_keys % n
    # distinct (sender, destination port) pairs give the ports each node contacted
    port_pairs = np.unique(src * 65536 + flows.ports[flows.dst])

    features = np.stack([
        np.bincount(edge_dst, minlength=n),
        np.bincount(edge_src, minlength=n),
        n_flows,
        per_node(flows.bytes_src_to_dst, flows.bytes_dst_to_src),
        per_node(flows.bytes_dst_to_src, flows.bytes_src_to_dst),
        per_node(flows.packets_total, flows.packets_total),
        per_node(flows.duration, flows.duration) / n_flows,
        np.bincount(port_pairs // 65536, minlength=n),
    ], axis=1)
    edges = np.stack([edge_src, edge_dst, np.bincount(edge_of_flow)], axis=1)
    return SnapshotGraph(snapshot=snapshot,
                         entities=[flows.entities[c] for c in codes.tolist()],
                         labels=(2 * n_attack > n_flows).astype(np.int64),
                         features=features, edges=edges)


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
    return replace(graph, features=minmax_scale(graph.features))


def write_snapshot_text(path, snapshot: SnapshotIndex, noun: str, columns: str,
                        rows: list[str], edges: np.ndarray, weight) -> None:
    """Write the layout of graph and clustered files; `rows[i]` follows index i.

    Edge weight w is written as `weight(w)`: `int` or `float`, as the reader takes it.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# snapshot {snapshot.index} {snapshot.window_start!r} "
                 f"{snapshot.window_end!r}\n# {noun} {len(rows)}\n# {columns}\n")
        for i, row in enumerate(rows):
            fh.write(f"{i} {row}\n")
        fh.write(f"# edges {len(edges)}\n# {_EDGE_COLUMNS}\n")
        for s, d, w in edges.tolist():
            fh.write(f"{s} {d} {weight(w)}\n")


def read_snapshot_text(path, noun: str, columns: str, make_node, weight):
    """(snapshot, nodes, labels, features, edges) from the layout `write_snapshot_text` writes.

    `make_node` gives a row's (node, label) from its fields (ValueError
    on a value it refuses), `weight` (`int` or `float`) an edge weight's
    value from its text; columns f1..f8 are read here, and the labels,
    features and edges come back as an int64 vector, an (n, N_FEATURES)
    matrix and an int64 (m, 3) array. Raises MalformedArtefact naming
    `path` and the line on a refused value, and unless the counts
    match the rows, the last line ends with a newline, each node row
    has one field per column and its position as index, each edge
    endpoint is a node index, each weight is a whole count in [1, 2**63)
    and no (src, dst) pair repeats: any truncation of a written file fails.
    """
    names = columns.split()
    first = names.index("f1")
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        lineno, line = 0, ""

        def take(n: int, *prefix: str) -> list[str]:
            nonlocal lineno, line
            lineno, line = next(lines, (lineno + 1, ""))
            parts = line.split()
            if len(parts) != n or tuple(parts[:len(prefix)]) != prefix:
                raise ValueError(f"expected {n} fields starting {' '.join(prefix)!r}, got "
                                 + (repr(line.rstrip()) if line else "end of file"))
            return parts

        try:
            _, _, index, start, end = take(5, "#", "snapshot")
            snapshot = SnapshotIndex(int(index), float(start), float(end))
            n_nodes = int(take(3, "#", noun)[2])
            take(1 + len(names), "#", *names)
            nodes, labels, features = [], [], []
            for i, (lineno, line) in zip(range(n_nodes), lines):
                row = line.split()
                if len(row) != len(names) or row[0] != str(i):
                    raise ValueError(f"expected node row {i}, got {line.rstrip()!r}")
                node, label = make_node(row)
                nodes.append(node)
                labels.append(label)
                features.append(_read_features(row[first:first + N_FEATURES]))
            n_edges = int(take(3, "#", "edges")[2])
            take(4, "#", *_EDGE_COLUMNS.split())
            edges, pairs = [], set()
            for _, (lineno, line) in zip(range(n_edges), lines):
                s, d, text = line.split()
                s, d, w = int(s), int(d), weight(text)
                if not (0 <= s < n_nodes and 0 <= d < n_nodes):
                    raise ValueError(f"edge endpoint out of range [0, {n_nodes})")
                if not (1 <= w <= _MAX_WEIGHT and w == int(w)):
                    raise ValueError(f"edge weight must be a count in [1, 2**63), got {text}")
                if (s, d) in pairs:
                    raise ValueError(f"edge {s} -> {d} appears twice")
                pairs.add((s, d))
                edges.append((s, d, int(w)))
            if min(n_nodes, n_edges) < 0 or len(edges) != n_edges:
                raise ValueError(f"counted {n_nodes} nodes and {n_edges} edges, "
                                 f"found {len(nodes)} and {len(edges)} rows")
            if not line.endswith("\n"):
                raise ValueError("no newline at end of file")
            for lineno, _ in lines:
                raise ValueError("unexpected line after the edge list")
        except ValueError as exc:
            raise MalformedArtefact(f"{path}: line {lineno}: {exc}") from None
    return (snapshot, nodes, np.array(labels, dtype=np.int64),
            np.array(features, dtype=np.float64).reshape(len(features), N_FEATURES),
            np.array(edges, dtype=np.int64).reshape(len(edges), 3))


def _read_features(fields: list[str]) -> list[float]:
    """f1..f8 from their texts; ValueError unless every one is finite."""
    values = list(map(float, fields))
    if not all(map(math.isfinite, values)):
        bad = next(j for j, v in enumerate(values) if not math.isfinite(v))
        raise ValueError(f"feature f{bad + 1} must be finite, got {fields[bad]}")
    return values


def write_graph_text(path, graph: SnapshotGraph) -> None:
    """Write a graph file: one row per node with its entity, label and features."""
    rows = [f"{e.ip} {e.port} {label} " + " ".join(map(repr, row))
            for e, label, row in zip(graph.entities, graph.labels.tolist(),
                                     graph.features.tolist())]
    write_snapshot_text(path, graph.snapshot, "nodes", _NODE_COLUMNS, rows, graph.edges, int)


def _graph_node(row: list[str]) -> tuple[EntityId, int]:
    label = int(row[3])
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return entity(row[1], row[2]), label


def read_graph_text(path) -> SnapshotGraph:
    return SnapshotGraph(*read_snapshot_text(path, "nodes", _NODE_COLUMNS, _graph_node, int))
