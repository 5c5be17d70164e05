"""HDBSCAN: hierarchical density clustering with stability selection.

Pipeline: (1) core distance per point = distance to its min_pts-th
nearest neighbor, the neighborhood including the point itself; (2)
mutual reachability distance d_mr(p, q) = max(core(p), core(q),
d(p, q)); (3) minimum spanning tree over d_mr (dense Prim, computing
each point's distance row when it joins the tree); (4) single-linkage
dendrogram; (5) condensation with min_cluster_size; (6) excess-of-mass
selection of the flat clustering.
Points under no selected cluster are noise.

Fewer points than min_pts is a documented degenerate case: everything
is noise.
"""

from __future__ import annotations

import numpy as np

from . import NOISE, ClusterResult, DistanceRows


def core_distances(rows: DistanceRows, min_pts: int) -> np.ndarray:
    """Distance to the min_pts-th nearest neighbor, self included, in one blockwise pass."""
    core = np.empty(rows.n)
    for lo, block in rows.blocks():
        core[lo:lo + len(block)] = np.partition(block, min_pts - 1, axis=1)[:, min_pts - 1]
    return core


def mutual_reachability_mst(rows: DistanceRows, core: np.ndarray) -> list[tuple[int, int, float]]:
    """MST edges (parent, child, weight) under mutual reachability.

    Dense Prim from point 0, reading each point's distance row once,
    when it joins the tree; ties on the cheapest frontier edge go to the
    lowest point index.
    """
    n = rows.n
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True

    def mr_row(j: int) -> np.ndarray:
        return np.maximum(np.maximum(core[j], core), rows(j))

    best = mr_row(0)
    best_parent = np.zeros(n, dtype=np.int64)
    edges = []
    for _ in range(n - 1):
        j = int(np.where(in_tree, np.inf, best).argmin())
        edges.append((int(best_parent[j]), j, float(best[j])))
        in_tree[j] = True
        row = mr_row(j)
        improved = ~in_tree & (row < best)
        best[improved] = row[improved]
        best_parent[improved] = j
    return edges


def _single_linkage(edges: list[tuple[int, int, float]], n: int):
    """Merge MST edges in ascending weight into a dendrogram.

    Returns (children, dist, size) keyed by linkage node id; points are
    ids 0..n-1, merges are ids n..2n-2, the root is 2n-2.
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
    return children, dist, size


def _leaves(node: int, children, n: int) -> list[int]:
    out, stack = [], [node]
    while stack:
        x = stack.pop()
        if x < n:
            out.append(x)
        else:
            stack.extend(children[x])
    return out


def _condense(children, dist, size, n: int, min_cluster_size: int):
    """Condensed tree rows (parent_cluster, child, lambda, child_size).

    Clusters are relabeled from n upward in BFS order; a child smaller
    than min_cluster_size dissolves into point rows at the split's
    lambda = 1/distance, while a single surviving child continues under
    the parent's cluster id.
    """
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
                for leaf in _leaves(child, children, n):
                    rows.append((cluster, leaf, lam, 1))
        else:
            small, big = (left, right) if right_size >= min_cluster_size else (right, left)
            relabel[big] = cluster
            queue.append(big)
            for leaf in _leaves(small, children, n):
                rows.append((cluster, leaf, lam, 1))
    return rows


def _stability(rows, n: int) -> dict[int, float]:
    births = {n: 0.0}
    for _, child, lam, _ in rows:
        if child >= n:
            births[child] = lam
    stability = {c: 0.0 for c in births}
    for cluster, _, lam, child_size in rows:
        contrib = lam - births[cluster]
        if np.isinf(lam) and np.isinf(births[cluster]):
            contrib = 0.0  # all points coincident: zero-distance splits throughout
        stability[cluster] += contrib * child_size
    return stability


def _select_excess_of_mass(rows, stability: dict[int, float], n: int) -> set[int]:
    cluster_children: dict[int, list[int]] = {c: [] for c in stability}
    for parent, child, _, _ in rows:
        if child >= n:
            cluster_children[parent].append(child)

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
    return {c for c, keep in selected.items() if keep}


def hdbscan(points: np.ndarray, min_pts: int, min_cluster_size: int) -> ClusterResult:
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n == 0:
        return ClusterResult.empty()
    if n < max(min_pts, 2):
        # core distances undefined; documented degenerate case
        return ClusterResult(assignment=np.full(n, NOISE, dtype=np.int64),
                             cluster_count=0)

    distances = DistanceRows(points)
    edges = mutual_reachability_mst(distances, core_distances(distances, min_pts))
    children, dist, size = _single_linkage(edges, n)
    rows = _condense(children, dist, size, n, min_cluster_size)
    stability = _stability(rows, n)
    chosen = _select_excess_of_mass(rows, stability, n)

    label_of = {c: i for i, c in enumerate(sorted(chosen))}
    cluster_parent = {}
    point_parent = {}
    for parent, child, _, _ in rows:
        if child >= n:
            cluster_parent[child] = parent
        else:
            point_parent[child] = parent

    labels = np.full(n, NOISE, dtype=np.int64)
    for p in range(n):
        cur = point_parent[p]
        while cur is not None:
            if cur in label_of:
                labels[p] = label_of[cur]
                break
            cur = cluster_parent.get(cur)
    return ClusterResult(assignment=labels, cluster_count=len(chosen))
