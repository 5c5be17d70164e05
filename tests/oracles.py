"""Brute-force reference implementations and shared builders for the tests.

Everything here favors obviousness over speed: full distance matrices,
explicit component searches, eigendecompositions. The production code
must agree with these on small inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flowgraph.behavior_graph import N_FEATURES, SnapshotGraph, build_graph, normalize_features
from flowgraph.density_cluster import DistanceRows
from flowgraph.flow_model import EntityId, FlowTable
from flowgraph.spectral_gcn.graph_ops import lambda_max, normalized_laplacian, union_matrices
from flowgraph.spectral_gcn.model import (VARIANT_RENORMALIZED, build_operator, loss_and_grads,
                                         propagate)
from flowgraph.synth import SynthConfig, generate
from flowgraph.temporal import SnapshotIndex, dissect

NOISE = -1


def graph_from(features, labels, edges=(), index=0) -> SnapshotGraph:
    """Snapshot `index` (600 s wide) whose node i has labels[i] and features[i]."""
    labels = np.asarray(labels, dtype=np.int64)
    return SnapshotGraph(snapshot=SnapshotIndex.for_width(index, 600.0),
                         nodes=[EntityId(f"10.0.{i // 200}.{i % 200 + 1}", 1000 + i)
                                for i in range(len(labels))],
                         labels=labels,
                         features=np.asarray(features, dtype=np.float64).reshape(len(labels), N_FEATURES),
                         edges=np.array(edges, dtype=np.int64).reshape(-1, 3))


# edge weights no reader takes: not a whole count >= 1, past int64, or not ASCII
# decimal (a clustered weight is a decimal count followed by ".0")
BAD_WEIGHTS = ("0", "-5", "0.0", "-2.0", "2.5", "nan", "inf", "-inf",
               "9223372036854775808", "9223372036854775808.0", "1e30", "3_0", "+3", "03",
               "\u0663", "3_0.0", "+3.0", "\u0663.0", "3.00", "3e0")

ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def corrupted_snapshot_texts(text: str, n_nodes: int) -> list[str]:
    """Variants of a written graph or clustered file that must be refused.

    Every truncation (at a line boundary or inside a line), the last
    edge row replaced by one with an endpoint outside [0, n_nodes), by
    a copy of the first edge row (the file must hold two edges or
    more), or by the same pair with each of `BAD_WEIGHTS` or with an
    endpoint that `int` takes but is not ASCII decimal, the other count
    noun, a node row out of place, a line after the edge list, a
    snapshot index, count or window bound that `int` or `float` takes
    but is signed, holds `_` or is not ASCII, and a window end below
    its start.
    """
    head, last = text.rstrip("\n").rsplit("\n", 1)  # all but the last edge row, and that row
    head += "\n"
    first = text.split(" weight\n", 1)[1].split("\n", 1)[0]
    src, dst, w = last.split()
    noun = "nodes" if "# nodes " in text else "supernodes"
    swapped = text.replace(f"# {noun} ", "# supernodes " if noun == "nodes" else "# nodes ")
    header = text.split("\n", 1)[0]
    index, start, end = header.split()[2:]  # the snapshot index and window bounds' texts
    return [text[:cut] for cut in range(len(text))] + [
        head + f"0 {n_nodes} 1\n", head + "-1 0 1\n", head + first + "\n", swapped,
        text.replace("\n0 ", "\n7 ", 1), text + "0 1 1\n"] + [
        head + f"{src} {dst} {bad}\n" for bad in BAD_WEIGHTS] + [
        head + row + "\n" for row in (f"+{src} {dst} {w}", f"{src} 0_{dst} {w}",
                                      f"{src} {dst.translate(ARABIC_INDIC)} {w}")] + [
        text.replace(old, new, 1) for old, new in (
            ("# snapshot ", "# snapshot +"), ("# snapshot ", "# snapshot 0_"),
            (f"# {noun} ", f"# {noun} 0_"), (f"# {noun} ", f"# {noun} +"),
            ("# edges ", "# edges +"), ("# edges ", "# edges 0_"),
            (f" {start} ", f" 0_{start} "), (f" {start} ", f" {start.translate(ARABIC_INDIC)} "),
            (f" {start} ", f" +{start} "), (f" {end}\n", f" -{end}\n"),
            (header, f"# snapshot {index} -600.0 -0.0"),
            (header, "# snapshot 3 2400.0 1800.0"))]


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


def padded(points) -> np.ndarray:
    """`points` with zero columns appended up to the `N_FEATURES` columns the clusterers take.

    A zero column adds nothing to a squared distance. For three or fewer
    columns it leaves every distance bit unchanged too: numpy adds eight
    terms as ((d0+d1)+(d2+d3))+((d4+d5)+(d6+d7)), which with d3..d7 = 0
    is (d0+d1)+d2, the left-to-right sum it makes of three terms.
    """
    points = np.asarray(points, dtype=np.float64)
    return np.hstack([points, np.zeros((len(points), N_FEATURES - points.shape[1]))])


def distance_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def kernel_rows(points: np.ndarray) -> np.ndarray:
    """Every row of `DistanceRows(points)`, made `rows.block` rows at a time, stacked."""
    rows = DistanceRows(points)
    return np.vstack([np.zeros((0, rows.n))] + [rows(slice(lo, lo + rows.block)).copy()
                                                 for lo in range(0, rows.n, rows.block)])


def exact_eps_cases() -> list[tuple[np.ndarray, float]]:
    """(points, eps) inputs where many pairs sit at exactly eps.

    Integer-grid points have integer squared distances, so eps in
    {1, 2, 5} is met exactly (5 through 3-4-5 triangles); half of each
    grid is stacked on again so points have coincident twins, and one
    input is a single point repeated. The 2- and 3-D grids are `padded`
    to 8 columns.
    """
    cases = [(np.zeros((5, 8)), 1.0)]
    for seed in range(6):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 8)[seed % 3]
        n = int(rng.integers(5, 40))
        grid = padded(rng.integers(0, 6 if dims < 8 else 3, size=(n, dims)))
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


def traffic_points() -> list[np.ndarray]:
    """The normalized normal-node features of each snapshot of a small capture, as clustered.

    Without attack entities a column's minimum is a normal node's, so
    the features hold zeros, and many values repeat down a column. Half
    of each set is stacked on again, so rows repeat and distances tie.
    """
    table = generate(SynthConfig(seed=0, duration=7200.0, n_normal_entities=20,
                                 n_attack_entities=0))
    sets = []
    for snapshot, flows in dissect(table, 600.0).items():
        graph = build_graph(flows, snapshot=snapshot)
        points = normalize_features(graph).features[graph.labels == 0]
        sets.append(np.vstack([points, points[:len(points) // 2]]))
    return sets


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


@dataclass
class OpticsOrdering:
    """An OPTICS run capped at eps: the processing order, and each point's
    reachability and core distance, infinity where undefined."""

    order: np.ndarray
    reachability: np.ndarray
    core_distance: np.ndarray

    def extract_at_eps(self, eps_prime: float) -> tuple[np.ndarray, int]:
        """(labels, cluster_count) of the flat DBSCAN-style clustering at eps_prime.

        Scanning the order, a point whose reachability exceeds eps_prime
        starts a new cluster if its core distance is within eps_prime
        and is noise otherwise; every other point joins the cluster open.
        """
        labels = np.full(len(self.order), NOISE, dtype=np.int64)
        cluster_count, current = 0, NOISE
        for p in self.order:
            if self.reachability[p] > eps_prime:
                current = NOISE
                if self.core_distance[p] <= eps_prime:
                    current, cluster_count = cluster_count, cluster_count + 1
            labels[p] = current
        return labels, cluster_count


def optics_oracle(points: np.ndarray, eps: float, min_pts: int) -> OpticsOrdering:
    """OPTICS (Ankerst et al., SIGMOD 1999) over the full distance matrix.

    A point's core distance is defined only when its closed eps-ball
    (self included) holds at least min_pts points, and only neighbours
    within eps receive reachability updates. The next point processed
    is the unprocessed seed of least reachability, lowest index on ties;
    with no seed left, the lowest unprocessed index starts anew.
    """
    n = len(points)
    d = distance_matrix(points)
    reach, core = np.full(n, np.inf), np.full(n, np.inf)
    order: list[int] = []
    seeds: set[int] = set()
    done = np.zeros(n, dtype=bool)
    for start in range(n):
        p = None if done[start] else start
        while p is not None:
            order.append(p)
            done[p] = True
            seeds.discard(p)
            if (d[p] <= eps).sum() >= min_pts:
                core[p] = np.sort(d[p])[min_pts - 1]
                for q in range(n):
                    if not done[q] and d[p, q] <= eps and max(core[p], d[p, q]) < reach[q]:
                        reach[q] = max(core[p], d[p, q])
                        seeds.add(q)
            p = min(seeds, key=lambda q: (reach[q], q), default=None)
    return OpticsOrdering(np.array(order, dtype=np.int64), reach, core)


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



def hdbscan_hierarchy_oracle(edges: list[tuple[int, int, float]], n: int,
                             min_cluster_size: int) -> tuple[np.ndarray, int]:
    """(assignment, cluster count) that HDBSCAN selects from its MST edges, built with dicts.

    The dendrogram is two dicts keyed by linkage node id, the condensed
    tree a list of (parent cluster, child, lambda, child size) rows with
    clusters relabeled from n upward in BFS order, stabilities and the
    excess-of-mass selection dicts over those rows, and each point takes
    the label of the first selected cluster on its chain of ancestors.
    """
    order = np.argsort([w for _, _, w in edges], kind="stable")
    parent = list(range(2 * n - 1))
    size = [1] * n + [0] * (n - 1)
    children: dict[int, tuple[int, int]] = {}
    dist: dict[int, float] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    next_id = n
    for ei in order:
        a, b, w = edges[ei]
        ra, rb = find(a), find(b)
        parent[ra] = parent[rb] = next_id
        children[next_id] = (ra, rb)
        dist[next_id] = w
        size[next_id] = size[ra] + size[rb]
        next_id += 1

    def leaves(node: int) -> list[int]:
        out, stack = [], [node]
        while stack:
            x = stack.pop()
            if x < n:
                out.append(x)
            else:
                stack.extend(children[x])
        return out

    root = 2 * n - 2
    relabel = {root: n}
    next_label = n + 1
    rows: list[tuple[int, int, float, int]] = []
    queue = [root]
    head = 0
    while head < len(queue):
        node = queue[head]
        head += 1
        cluster = relabel[node]
        left, right = children[node]
        lam = 1.0 / dist[node] if dist[node] > 0 else np.inf
        left_size = 1 if left < n else size[left]
        right_size = 1 if right < n else size[right]
        if left_size >= min_cluster_size and right_size >= min_cluster_size:
            for child, child_size in ((left, left_size), (right, right_size)):
                relabel[child] = next_label
                rows.append((cluster, next_label, lam, child_size))
                next_label += 1
                queue.append(child)
        elif left_size < min_cluster_size and right_size < min_cluster_size:
            for child in (left, right):
                for leaf in leaves(child):
                    rows.append((cluster, leaf, lam, 1))
        else:
            small, big = (left, right) if right_size >= min_cluster_size else (right, left)
            relabel[big] = cluster
            queue.append(big)
            for leaf in leaves(small):
                rows.append((cluster, leaf, lam, 1))

    births = {n: 0.0}
    for _, child, lam, _ in rows:
        if child >= n:
            births[child] = lam
    stability = {c: 0.0 for c in births}
    for cluster, _, lam, child_size in rows:
        contrib = lam - births[cluster]
        if np.isinf(lam) and np.isinf(births[cluster]):
            contrib = 0.0
        stability[cluster] += contrib * child_size

    cluster_children: dict[int, list[int]] = {c: [] for c in stability}
    for up, child, _, _ in rows:
        if child >= n:
            cluster_children[up].append(child)
    selected = {c: True for c in stability}
    selected[n] = False  # the root is never a flat cluster
    for node in sorted(stability, reverse=True):
        if node == n:
            continue
        subtree = sum(stability[ch] for ch in cluster_children[node])
        if subtree > stability[node]:
            selected[node] = False
            stability[node] = subtree
        else:
            stack = list(cluster_children[node])
            while stack:
                d = stack.pop()
                selected[d] = False
                stack.extend(cluster_children[d])
    chosen = {c for c, keep in selected.items() if keep}

    label_of = {c: i for i, c in enumerate(sorted(chosen))}
    cluster_parent = {}
    point_parent = {}
    for up, child, _, _ in rows:
        if child >= n:
            cluster_parent[child] = up
        else:
            point_parent[child] = up
    labels = np.full(n, NOISE, dtype=np.int64)
    for p in range(n):
        cur = point_parent[p]
        while cur is not None:
            if cur in label_of:
                labels[p] = label_of[cur]
                break
            cur = cluster_parent.get(cur)
    return labels, len(chosen)

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


def gradient_check(model, graph, *, class_weights: tuple[float, float] = (1.0, 1.0),
                   step: float = 1e-6) -> float:
    """Max relative error between analytic and central finite differences."""
    a, x, y = union_matrices([graph])
    operator = build_operator(a, model.config.variant)
    basis = propagate(model, operator, x)
    _, gw0, gw1 = loss_and_grads(model, operator, basis, y, class_weights)

    def loss_at() -> float:
        loss, _, _ = loss_and_grads(model, operator, basis, y, class_weights)
        return loss

    max_err = 0.0
    for w, g in ((model.w0, gw0), (model.w1, gw1)):
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


def adjacency_oracle(graph) -> np.ndarray:
    """Dense symmetrized binary n x n adjacency: 1 where an edge runs either way."""
    n = graph.n_nodes
    a = np.zeros((n, n))
    for src, dst, _ in graph.edges:
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


def dense_operators(model, graph) -> list[np.ndarray]:
    """One dense n x n operator per weight block: [A^], or [T_0(L~), ..., T_k(L~)].

    Built from `adjacency_oracle`, the Chebyshev terms by the dense
    three-term recurrence. L~ is scaled by the `lambda_max` of the
    production Laplacian: a power iteration, which an eigendecomposition
    matches only to its 1e-6 tolerance.
    """
    a = adjacency_oracle(graph)
    n = len(a)
    if model.config.variant == VARIANT_RENORMALIZED:
        return [renormalize_oracle(a)]
    lam = lambda_max(normalized_laplacian(union_matrices([graph])[0]))
    l_tilde = (2.0 / lam) * laplacian_oracle(a) - np.eye(n)
    terms = [np.eye(n), l_tilde]
    while len(terms) <= model.config.k:
        terms.append(2.0 * l_tilde @ terms[-1] - terms[-2])
    return terms[:model.config.k + 1]


def dense_gcn_oracle(model, graph, class_weights: tuple[float, float]):
    """(scores, loss, gw0, gw1) of `model` on `graph` with dense operators, block by block.

    The plain product order: each layer sums (T_j H) W_j over its blocks,
    propagating its input before the weights, and the gradients follow
    the chain rule one block at a time, with T_j^T taken as written. The
    layers' blocks are split from, and the gradients stacked as, the
    model's arrays: w0's row blocks and w1's column blocks.
    """
    ops = dense_operators(model, graph)
    w0, w1 = np.split(model.w0, len(ops)), np.split(model.w1, len(ops), axis=1)
    x, y = graph.features, graph.labels
    z1 = sum((t @ x) @ w for t, w in zip(ops, w0))
    h = np.maximum(z1, 0.0)
    scores = sum((t @ h) @ w for t, w in zip(ops, w1))
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    sample_w = np.asarray(class_weights, dtype=float)[y]
    rows = np.arange(len(y))
    loss = -(sample_w * log_p[rows, y]).sum() / sample_w.sum()
    d_scores = np.exp(log_p)
    d_scores[rows, y] -= 1.0
    d_scores *= (sample_w / sample_w.sum())[:, None]
    gw1 = np.concatenate([(t @ h).T @ d_scores for t in ops], axis=1)
    dz1 = sum(t.T @ d_scores @ w.T for t, w in zip(ops, w1)) * (z1 > 0.0)
    gw0 = np.concatenate([(t @ x).T @ dz1 for t in ops])
    return scores, float(loss), gw0, gw1


def edges_of(a: np.ndarray) -> np.ndarray:
    """Unit-weight (m, 3) edges of a dense symmetric 0/1 adjacency (upper triangle)."""
    i, j = np.nonzero(np.triu(a))
    return np.column_stack([i, j, np.ones_like(i)]).astype(np.int64)
