"""Brute-force reference implementations and shared builders for the tests.

Everything here favors obviousness over speed: full distance matrices,
explicit component searches, eigendecompositions. The production code
must agree with these on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowgraph.behavior_graph import N_FEATURES, SnapshotGraph
from flowgraph.flow_model import EntityId, FlowTable
from flowgraph.spectral_gcn import build_operator, loss_and_grads, propagate, union_matrices
from flowgraph.temporal import SnapshotIndex

NOISE = -1


def graph_from(features, labels, edges=(), index=0) -> SnapshotGraph:
    """Snapshot `index` (600 s wide) whose node i has labels[i] and features[i]."""
    labels = np.asarray(labels, dtype=np.int64)
    return SnapshotGraph(snapshot=SnapshotIndex.for_width(index, 600.0),
                         entities=[EntityId(f"10.0.{i // 200}.{i % 200 + 1}", 1000 + i)
                                   for i in range(len(labels))],
                         labels=labels,
                         features=np.asarray(features, dtype=np.float64).reshape(len(labels), N_FEATURES),
                         edges=np.array(edges, dtype=np.int64).reshape(-1, 3))


# edge weights no reader takes: not a whole count >= 1, or past int64
BAD_WEIGHTS = ("0", "-5", "0.0", "-2.0", "2.5", "nan", "inf", "-inf",
               "9223372036854775808", "1e30")


def corrupted_snapshot_texts(text: str, n_nodes: int) -> list[str]:
    """Variants of a written graph or clustered file that must be refused.

    Every truncation (at a line boundary or inside a line), the last
    edge row replaced by one with an endpoint outside [0, n_nodes), by
    a copy of the first edge row (the file must hold two edges or
    more), or by the same pair with each of `BAD_WEIGHTS`, the other
    count noun, a node row out of place and a line after the edge list.
    """
    head, last = text.rstrip("\n").rsplit("\n", 1)  # all but the last edge row, and that row
    head += "\n"
    first = text.split(" weight\n", 1)[1].split("\n", 1)[0]
    src, dst, _ = last.split()
    swapped = (text.replace("# nodes ", "# supernodes ") if "# nodes " in text
               else text.replace("# supernodes ", "# nodes "))
    return [text[:cut] for cut in range(len(text))] + [
        head + f"0 {n_nodes} 1\n", head + "-1 0 1\n", head + first + "\n", swapped,
        text.replace("\n0 ", "\n7 ", 1), text + "0 1 1\n"] + [
        head + f"{src} {dst} {w}\n" for w in BAD_WEIGHTS]


def with_node_field(text: str, field: int, value: str) -> str:
    """A written graph or clustered file with field `field` of node row 0 set to `value`."""
    lines = text.splitlines(keepends=True)
    row = lines[3].split(" ")
    row[field] = value
    lines[3] = " ".join(row)
    return "".join(lines)


def aggregate_edges_oracle(graph: SnapshotGraph, assignment, cluster_count: int) -> list:
    """The super-node edge rows `aggregate` makes, merged in a dict.

    Normal node j (in node order) goes to cluster `assignment[j]` and
    the attack nodes to super-nodes cluster_count, cluster_count + 1,
    ...; an edge with a noise endpoint is dropped, and the weights of
    edges between one super-node pair add up in the pair's entry,
    which keeps the order of its first edge.
    """
    normal = iter(assignment)
    attack = iter(range(cluster_count, cluster_count + graph.n_nodes))
    super_of = [next(attack) if label else next(normal) for label in graph.labels.tolist()]
    weight: dict[tuple[int, int], int] = {}
    for src, dst, w in graph.edges.tolist():
        s, d = super_of[src], super_of[dst]
        if s == NOISE or d == NOISE:
            continue  # at least one endpoint was noise
        weight[(s, d)] = weight.get((s, d), 0) + w
    return [[s, d, w] for (s, d), w in weight.items()]


def distance_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def exact_eps_cases() -> list[tuple[np.ndarray, float]]:
    """(points, eps) inputs where many pairs sit at exactly eps.

    Integer-grid points have integer squared distances, so eps in
    {1, 2, 5} is met exactly (5 through 3-4-5 triangles); half of each
    grid is stacked on again so points have coincident twins, and one
    input is a single point repeated.
    """
    cases = [(np.zeros((5, 8)), 1.0)]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 8)[seed % 3]
        n = int(rng.integers(5, 40))
        grid = rng.integers(0, 6 if dims < 8 else 3, size=(n, dims)).astype(np.float64)
        points = np.vstack([grid, grid[: len(grid) // 2]])
        cases.extend((points, eps) for eps in (1.0, 2.0, 5.0))
    return cases


def block_edge_case() -> tuple[np.ndarray, float]:
    """(points, eps): 300 points in 8 dimensions, more than one row block of every kernel.

    An integer grid with coincident twins, as in `exact_eps_cases`, so
    many pairs sit at exactly eps = 2 (squared distance 4) on both sides
    of the kernel's row-block edges.
    """
    grid = np.random.default_rng(300).integers(0, 5, size=(200, 8)).astype(np.float64)
    return np.vstack([grid, grid[:100]]), 2.0


def dbscan_oracle(points: np.ndarray, eps: float, min_pts: int):
    """Reachability-closure DBSCAN over the full distance matrix.

    Core points: closed eps-ball (self included) holds >= min_pts
    points. Clusters are connected components of cores, ids assigned in
    ascending order of each component's lowest core index. A border
    point joins the cluster of the lowest-index core inside its ball.
    """
    n = len(points)
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0
    d = distance_matrix(points)
    core = (d <= eps).sum(axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=np.int64)

    cluster_count = 0
    for start in range(n):
        if not core[start] or labels[start] != NOISE:
            continue
        labels[start] = cluster_count
        stack = [start]
        while stack:
            p = stack.pop()
            for q in range(n):
                if core[q] and labels[q] == NOISE and d[p, q] <= eps:
                    labels[q] = cluster_count
                    stack.append(q)
        cluster_count += 1

    for p in range(n):
        if not core[p]:
            for q in range(n):
                if core[q] and d[p, q] <= eps:
                    labels[p] = labels[q]
                    break
    return labels, cluster_count


def mutual_reachability_matrix(points: np.ndarray, min_pts: int) -> np.ndarray:
    d = distance_matrix(points)
    core = np.sort(d, axis=1)[:, min_pts - 1]
    return np.maximum(np.maximum.outer(core, core), d)


def mst_weight_oracle(points: np.ndarray, min_pts: int) -> float:
    """Total MST weight over the mutual-reachability graph, via Kruskal.

    Every minimum spanning tree of a graph has the same total weight,
    so the total is comparable across MST algorithms.
    """
    n = len(points)
    mr = mutual_reachability_matrix(points, min_pts)
    edges = sorted(
        (mr[i, j], i, j) for i in range(n) for j in range(i + 1, n)
    )
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    accepted = 0
    for w, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            total += w
            accepted += 1
            if accepted == n - 1:
                break
    return total


def chebyshev_eig_oracle(l_tilde: np.ndarray, x: np.ndarray, j: int) -> np.ndarray:
    """T_j(L~) x computed through the eigendecomposition U T_j(D) U^T x."""
    lam, u = np.linalg.eigh(l_tilde)
    t_prev = np.ones_like(lam)
    if j == 0:
        t = t_prev
    else:
        t = lam.copy()
        for _ in range(2, j + 1):
            t_prev, t = t, 2.0 * lam * t - t_prev
    return (u * t) @ (u.T @ x)


@dataclass(frozen=True)
class FlowRecord:
    """One labeled flow between two entities: the per-flow form the oracles read.

    ``start_time`` is in seconds relative to the capture start,
    ``label`` is 0 for normal and 1 for attack traffic.
    """

    src: EntityId
    dst: EntityId
    start_time: float
    duration: float
    bytes_src_to_dst: int
    bytes_dst_to_src: int
    packets_total: int
    label: int


def from_records(records: list[FlowRecord]) -> FlowTable:
    """The table of `records` in order; entities coded by first appearance."""
    codes: dict[EntityId, int] = {}
    src, dst = [], []
    for r in records:
        src.append(codes.setdefault(r.src, len(codes)))
        dst.append(codes.setdefault(r.dst, len(codes)))

    def column(name: str, dtype) -> np.ndarray:
        return np.array([getattr(r, name) for r in records], dtype=dtype)

    return FlowTable(list(codes), np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                     column("start_time", np.float64), column("duration", np.float64),
                     column("bytes_src_to_dst", np.int64), column("bytes_dst_to_src", np.int64),
                     column("packets_total", np.int64), column("label", np.int64))


def table_records(table: FlowTable) -> list[FlowRecord]:
    """The rows of a flow table as records, in order."""
    return [FlowRecord(table.entities[s], table.entities[d], t, dur, fwd, bwd, packets, label)
            for s, d, t, dur, fwd, bwd, packets, label in zip(
                table.src.tolist(), table.dst.tolist(), table.start_time.tolist(),
                table.duration.tolist(), table.bytes_src_to_dst.tolist(),
                table.bytes_dst_to_src.tolist(), table.packets_total.tolist(),
                table.label.tolist())]


def _attack_volume(rng: np.random.Generator):
    sent = int(rng.integers(40, 201))
    received = int(rng.integers(0, 61))
    packets = int(rng.integers(1, 4))
    duration = float(rng.uniform(0.01, 0.1))
    return sent, received, packets, duration


def _normal_volume(rng: np.random.Generator):
    sent = int(rng.lognormal(np.log(3000.0), 0.1))
    received = int(rng.lognormal(np.log(8000.0), 0.1))
    packets = max(2, (sent + received) // 800)
    duration = float(rng.lognormal(0.0, 0.2))
    return sent, received, packets, duration


def synth_records(config) -> list[FlowRecord]:
    """The trace of `synth.generate(config)`, one record and one scalar draw at a time.

    The normal volumes are scalar `rng.lognormal` calls here, where
    `generate` draws them as one batch, and the attack volumes are
    scalar calls written out separately.
    """
    from flowgraph.synth import _NORMAL_PEERS, _attack_entity, _normal_entity, _victim_entity

    rng = np.random.default_rng(config.seed)
    records: list[FlowRecord] = []
    n, m = config.n_normal_entities, config.n_attack_entities
    flows_each = int(round(config.flows_per_entity_rate * config.duration))
    n_normal_flows = n * flows_each if config.attack_fraction_of_flows < 1.0 else 0
    if n_normal_flows:
        spacing = config.duration / flows_each
        phases = rng.uniform(0.0, spacing, size=n)
        for i in range(n):
            for j in range(flows_each):
                sent, received, packets, duration = _normal_volume(rng)
                records.append(FlowRecord(
                    _normal_entity(i), _normal_entity((i + 1 + j % _NORMAL_PEERS) % n),
                    float(phases[i] + j * spacing), duration, sent, received, packets, 0))
    if m > 0 and config.attack_fraction_of_flows > 0.0:
        volume = _attack_volume if config.behaviour_separation == "high" else _normal_volume
        f = config.attack_fraction_of_flows
        n_scans = int(round(len(records) * f / (1.0 - f))) if f < 1.0 else m * flows_each
        times = np.sort(rng.uniform(0.0, config.duration, size=n_scans))
        for j in range(n_scans):
            sent, received, packets, duration = volume(rng)
            records.append(FlowRecord(_attack_entity(j % m), _victim_entity(j), float(times[j]),
                                      duration, sent, received, packets, 1))
        if flows_each:
            spacing = config.duration / flows_each
            phases = rng.uniform(0.0, spacing, size=m)
            for k in range(m):
                for j in range(flows_each):
                    sent, received, packets, duration = volume(rng)
                    records.append(FlowRecord(
                        _attack_entity(k), _attack_entity((k + 1) % m),
                        float(phases[k] + j * spacing), duration, sent, received, packets, 1))
    records.sort(key=lambda r: r.start_time)
    return records


def extract_features(entity: EntityId, flows: list[FlowRecord]) -> np.ndarray:
    """Behaviour vector of one entity from its incident flows.

    Straightforward per-entity scan; build_graph must compute the same
    vectors in its single pass over the snapshot.
    """
    in_peers: set[EntityId] = set()
    out_peers: set[EntityId] = set()
    ports: set[int] = set()
    n_flows = 0
    sent = received = packets = 0
    dur_sum = 0.0
    for flow in flows:
        if flow.src == entity:
            n_flows += 1
            out_peers.add(flow.dst)
            ports.add(flow.dst.port)
            sent += flow.bytes_src_to_dst
            received += flow.bytes_dst_to_src
            packets += flow.packets_total
            dur_sum += flow.duration
        if flow.dst == entity:
            n_flows += 1
            in_peers.add(flow.src)
            sent += flow.bytes_dst_to_src
            received += flow.bytes_src_to_dst
            packets += flow.packets_total
            dur_sum += flow.duration
    if n_flows == 0:
        raise ValueError(f"entity {entity} has no incident flow")
    return np.array([
        len(in_peers), len(out_peers), n_flows, sent, received,
        packets, dur_sum / n_flows, len(ports),
    ], dtype=np.float64)


def flow_tallies(entity: EntityId, flows: list[FlowRecord]) -> tuple[int, int]:
    """(attack flows, all flows) incident to `entity`, once per endpoint role."""
    incident = [f.label for f in flows for e in (f.src, f.dst) if e == entity]
    return sum(incident), len(incident)


def majority_label(attack_flows: int, total_flows: int) -> int:
    """1 iff attack flows form a strict majority; draws are normal."""
    return 1 if 2 * attack_flows > total_flows else 0


def gradient_check(model, graph, *, weighted: bool = False,
                   class_weights: tuple[float, float] = (1.0, 1.0),
                   step: float = 1e-6) -> float:
    """Max relative error between analytic and central finite differences."""
    a, x, y = union_matrices([graph], weighted=weighted)
    operator = build_operator(a, model.variant)
    basis = propagate(model, operator, x)
    _, gw0, gw1 = loss_and_grads(model, operator, basis, y, class_weights)

    def loss_at() -> float:
        loss, _, _ = loss_and_grads(model, operator, basis, y, class_weights)
        return loss

    max_err = 0.0
    for blocks, grads in ((model.w0, gw0), (model.w1, gw1)):
        for w, g in zip(blocks, grads):
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = w[idx]
                w[idx] = original + step
                upper = loss_at()
                w[idx] = original - step
                lower = loss_at()
                w[idx] = original
                numeric = (upper - lower) / (2.0 * step)
                analytic = float(g[idx])
                err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
                max_err = max(max_err, err)
    return max_err


def adjacency_oracle(graph, *, weighted: bool = False) -> np.ndarray:
    """Dense symmetrized n x n adjacency; binary unless weighted is true."""
    n = graph.n_nodes
    a = np.zeros((n, n))
    for src, dst, w in graph.edges:
        if weighted:
            a[src, dst] += w
            if src != dst:
                a[dst, src] += w
        else:
            a[src, dst] = 1.0
            a[dst, src] = 1.0
    return a


def renormalize_oracle(a: np.ndarray) -> np.ndarray:
    """Dense D^(-1/2) (A + I) D^(-1/2) with D the degree of A + I."""
    a_tilde = a + np.eye(len(a))
    inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


def laplacian_oracle(a: np.ndarray) -> np.ndarray:
    """Dense I - D^(-1/2) A D^(-1/2); degree-0 rows and columns are all zero."""
    degree = a.sum(axis=1)
    connected = degree > 0
    inv_sqrt = np.where(connected, 1.0 / np.sqrt(np.where(connected, degree, 1.0)), 0.0)
    lap = -(a * inv_sqrt[:, None] * inv_sqrt[None, :])
    lap[np.diag_indices_from(lap)] += connected.astype(float)
    return lap


def edges_of(a: np.ndarray) -> np.ndarray:
    """Unit-weight (m, 3) edges of a dense symmetric 0/1 adjacency (upper triangle)."""
    i, j = np.nonzero(np.triu(a))
    return np.column_stack([i, j, np.ones_like(i)]).astype(np.int64)
