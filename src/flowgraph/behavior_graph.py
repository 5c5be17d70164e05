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

`density_cluster.aggregate` collapses such a graph into a super-node
graph of the same type, `SnapshotGraph`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import MalformedArtefact
from .flow_model import EntityId, FlowTable, decimal, entity
from .temporal import SnapshotIndex

N_FEATURES = 8

# column layouts of the node table and the edge list in the text export
_NODE_COLUMNS = "node_index ip port label f1 f2 f3 f4 f5 f6 f7 f8"
_EDGE_COLUMNS = "src_index dst_index weight"
_MAX_WEIGHT = np.iinfo(np.int64).max
_BLOCK_ROWS = 4096  # rows a reader splits and checks at a time


@dataclass
class SnapshotGraph:
    """Node i is `nodes[i]`, with label `labels[i]` and behaviour vector `features[i]`.

    A behaviour graph's nodes are `EntityId`s and its labels majority
    votes; a clustered graph's nodes are `SuperNode`s and its labels
    hard labels (0 for a cluster, 1 for an attack singleton).
    """

    snapshot: SnapshotIndex
    nodes: list  # EntityId per node, or SuperNode per node of a clustered graph
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
    nodes = [flows.entities[c] for c in codes.tolist()]
    ports = np.array([e.port for e in nodes], dtype=np.int64)

    def per_node(from_src, from_dst) -> np.ndarray:
        weights = np.stack([from_src, from_dst], axis=1).ravel()
        return np.bincount(role_node, weights=weights, minlength=n)

    n_flows = np.bincount(role_node, minlength=n).astype(np.float64)
    n_attack = np.bincount(role_node, weights=np.repeat(flows.label, 2), minlength=n)

    edge_keys, edge_of_flow = first_appearance(src * n + dst)
    edge_src, edge_dst = edge_keys // n, edge_keys % n
    # distinct (sender, destination port) pairs give the ports each node contacted; plain
    # np.unique would import numpy.ma, which costs a graph process more than the call
    port_pairs = first_appearance(src * 65536 + ports[dst])[0]

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
    return SnapshotGraph(snapshot=snapshot, nodes=nodes,
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
                        rows: list[str], edges: np.ndarray, weight_suffix: str) -> None:
    """Write the layout of graph and clustered files; `rows[i]` follows index i.

    Edge weight w is written as its digits followed by `weight_suffix`.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# snapshot {snapshot.index} {snapshot.window_start!r} "
                 f"{snapshot.window_end!r}\n# {noun} {len(rows)}\n# {columns}\n")
        for i, row in enumerate(rows):
            fh.write(f"{i} {row}\n")
        fh.write(f"# edges {len(edges)}\n# {_EDGE_COLUMNS}\n")
        for s, d, w in edges.tolist():
            fh.write(f"{s} {d} {w}{weight_suffix}\n")


def read_snapshot_text(path, noun: str, columns: str, make_nodes, weight_suffix: str,
                       members=lambda node: (node,)) -> SnapshotGraph:
    """The graph of the layout `write_snapshot_text` writes.

    `make_nodes` gives the nodes and int64 labels of a block of node
    rows from its columns, one tuple of texts per column (ValueError on
    a value it refuses), and `members(node)` a node's entities. Rows
    are checked `_BLOCK_ROWS` at a time, and a refused block row by
    row, so a check's message names its block's first row. Raises
    MalformedArtefact naming `path` and the line of the first refused
    row or value, and unless the counts match the rows, the last line
    ends with a newline, each node row has one field per column and its
    position as index, each edge endpoint reads as a node row's index,
    the snapshot index, the counts and the weights (each followed by
    `weight_suffix`) are `decimal`, each weight is in [1, 2**63), no
    entity and no (src, dst) pair repeats, the window bounds and
    features are finite, unsigned, ASCII and without `_`, and the
    window end is not below its start: any truncation fails.
    """
    names = columns.split()
    first = names.index("f1")
    weights = re.compile(f"(?:[1-9][0-9]*{re.escape(weight_suffix)} )*")
    with open(path, "r", encoding="utf-8") as fh:
        *lines, last = fh.read().split("\n")
    if last:  # the file does not end with a newline
        lines.append(last)
    lineno = 0  # of the last line read

    def take(n: int, *prefix: str) -> list[str]:
        nonlocal lineno
        line = lines[lineno] if lineno < len(lines) else None
        lineno += 1
        parts = [] if line is None else line.split()
        if len(parts) != n or tuple(parts[:len(prefix)]) != prefix:
            raise ValueError(f"expected {n} fields starting {' '.join(prefix)!r}, got "
                             + ("end of file" if line is None else repr(line.rstrip())))
        return parts

    def block(parse, n: int):  # parse's parts for the next n rows, and the first row error
        nonlocal lineno
        rows = lines[lineno:lineno + n]
        parts = []
        for lo in range(0, max(len(rows), 1), _BLOCK_ROWS):
            run = rows[lo:lo + _BLOCK_ROWS]
            try:
                parts.append(parse(run, lo))
            except ValueError:
                for bad, row in enumerate(run):
                    try:
                        parse([row], lo + bad)
                    except ValueError as error:
                        parts.append(parse(run[:bad], lo))
                        lineno += lo + bad + 1
                        return parts, error
        lineno += len(rows)
        return parts, None

    def parse_nodes(rows: list[str], start: int):
        table = list(map(str.split, rows))
        cols = list(zip(*table)) or [()] * len(names)
        if (set(map(len, table)) - {len(names)}
                or cols[0] != tuple(map(str, range(start, start + len(rows))))):
            raise ValueError(f"expected node row {start}, got {rows[0].rstrip()!r}")
        nodes, labels = make_nodes(cols)
        return nodes, labels, _read_floats(cols[first:first + N_FEATURES], "feature f{}").T.copy()

    def parse_edges(rows: list[str], start: int) -> np.ndarray:
        table = list(map(str.split, rows))
        if set(map(len, table)) - {3}:
            raise ValueError(f"expected 3 fields, got {rows[0].rstrip()!r}")
        src, dst, weight = list(zip(*table)) or [()] * 3
        if not (node_index.issuperset(src) and node_index.issuperset(dst)):
            raise ValueError(f"edge endpoint not a node index in [0, {n_nodes}): "
                             f"{src[0]} {dst[0]}")
        text = " ".join(weight + ("",))  # each weight followed by a space
        counts = weights.fullmatch(text) and list(
            map(int, text.replace(weight_suffix + " ", " ").split()))
        if counts is None or max(counts, default=1) > _MAX_WEIGHT:
            raise ValueError(f"edge weight must read <count>{weight_suffix} with a count in "
                             f"[1, 2**63), got {weight[0]}")
        return np.array([src, dst, counts], dtype=np.int64).T.copy()

    try:
        _, _, index, *bounds = take(5, "#", "snapshot")
        start, end = _read_floats(list(zip(bounds)), "window bound {}").ravel().tolist()
        if end < start:
            raise ValueError(f"window end {bounds[1]} is below its start {bounds[0]}")
        snapshot = SnapshotIndex(decimal(index), start, end)
        n_nodes = decimal(take(3, "#", noun)[2])
        take(1 + len(names), "#", *names)
        parts, error = block(parse_nodes, n_nodes)
        if error:
            raise error
        nodes, labels, features = zip(*parts)
        nodes = [node for part in nodes for node in part]
        seen = set()
        for row, node in enumerate(nodes):
            for e in members(node):
                if e in seen:
                    lineno = 4 + row  # node rows follow the three header lines
                    raise ValueError(f"entity {e.ip}|{e.port} appears twice")
                seen.add(e)
        n_edges = decimal(take(3, "#", "edges")[2])
        take(4, "#", *_EDGE_COLUMNS.split())
        node_index = frozenset(map(str, range(n_nodes)))  # each index as node rows write it
        head = lineno
        parts, error = block(parse_edges, n_edges)
        edges = np.concatenate(parts)
        firsts = np.unique(edges[:, 0] * n_nodes + edges[:, 1], return_index=True)[1]
        if len(firsts) < len(edges):
            repeat = int(np.flatnonzero(np.bincount(firsts, minlength=len(edges)) == 0)[0])
            lineno = head + repeat + 1
            raise ValueError(f"edge {edges[repeat, 0]} -> {edges[repeat, 1]} appears twice")
        if error:
            raise error
        if len(edges) != n_edges:
            raise ValueError(f"counted {n_edges} edges, found {len(edges)} rows")
        if lineno < len(lines):
            lineno += 1
            raise ValueError("unexpected line after the edge list")
        if last:
            raise ValueError("no newline at end of file")
    except ValueError as exc:
        raise MalformedArtefact(f"{path}: line {lineno}: {exc}") from None
    return SnapshotGraph(snapshot, nodes, np.concatenate(labels), np.concatenate(features), edges)


def _read_floats(cols: list[tuple[str, ...]], name: str) -> np.ndarray:
    """The texts of `cols` as a float64 array, one row per column; ValueError naming
    `name.format(j)` for the column j (from 1) whose first text is refused, unless the texts
    are finite, ASCII, without `_` and unsigned (`float` takes "1_0", "١" and "+1"); an
    exponent's sign, as in "1e-05", is fine."""
    text = " " + " ".join(map(" ".join, cols))
    values = np.array(cols, dtype=np.float64)
    if (text.isascii() and "_" not in text and " +" not in text and " -" not in text
            and np.isfinite(values).all()):
        return values
    j = next((j for j, (t, v) in enumerate(zip(next(zip(*cols)), values[:, 0].tolist()))
              if not (t.isascii() and "_" not in t and t[0] not in "+-" and math.isfinite(v))), 0)
    raise ValueError(f"{name.format(j + 1)} must be a finite unsigned ASCII number without "
                     f"'_', got {cols[j][0]}")


def write_graph_text(path, graph: SnapshotGraph) -> None:
    """Write a graph file: one row per node with its entity, label and features."""
    rows = [f"{e.ip} {e.port} {label} " + " ".join(map(repr, row))
            for e, label, row in zip(graph.nodes, graph.labels.tolist(),
                                     graph.features.tolist())]
    write_snapshot_text(path, graph.snapshot, "nodes", _NODE_COLUMNS, rows, graph.edges, "")


def _graph_nodes(cols: list[tuple[str, ...]]) -> tuple[list[EntityId], np.ndarray]:
    nodes = list(map(entity, cols[1], cols[2]))
    if not {"0", "1"}.issuperset(cols[3]):
        raise ValueError(f"label must read 0 or 1, got {cols[3][0]}")
    return nodes, np.array(cols[3], dtype=np.int64)


def read_graph_text(path) -> SnapshotGraph:
    return read_snapshot_text(path, "nodes", _NODE_COLUMNS, _graph_nodes, "")
