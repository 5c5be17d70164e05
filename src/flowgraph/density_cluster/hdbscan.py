"""HDBSCAN at `MIN_PTS` = 2, with stability selection.

At min_pts 2 a point's core distance is the distance to its nearest
other point, so core(p) <= d(p, q) and core(q) <= d(p, q), and the
mutual reachability max(core(p), core(q), d(p, q)) is exactly the bits
of d(p, q). Pipeline: (1) minimum spanning tree over the euclidean
distances (dense Prim, computing each point's distance row when it
joins the tree, against the points still outside it); (2)
single-linkage dendrogram; (3) one breadth-first walk condensing it
with `MIN_CLUSTER_SIZE`, which gives each cluster's parent and
stability and the cluster each point falls from; (4) excess-of-mass
selection of the flat clustering (Campello, Moulavi & Sander, PAKDD
2013). Steps 2-4 hold the tree in flat lists indexed by node or
cluster. Points under no selected cluster are noise.

Fewer than 2 points is a documented degenerate case: everything is
noise.
"""

from __future__ import annotations

import numpy as np

from . import MIN_CLUSTER_SIZE, NOISE, ClusterResult, DistanceRows


@np.errstate(over="ignore")  # an overflowing distance is refused below, not warned about
def minimum_spanning_tree(rows: DistanceRows) -> list[tuple[int, int, float]]:
    """MST edges (parent, child, weight) over the euclidean distances.

    Dense Prim from point 0, reading each point's distance row once,
    when it joins the tree and leaves the kernel's columns, against the
    points still outside; ties on the cheapest frontier edge go to the
    lowest point index. Raises ValueError on a distance that is not
    finite (a feature gap past about 1e154 overflows its square).
    """
    best = np.full(rows.n, np.inf)  # cheapest edge into each column's point
    best_parent = np.zeros(rows.n, dtype=np.int64)
    edges, j, at = [], 0, 0
    while True:
        best[at] = np.inf
        keep = rows.drop(j)
        if keep is not None:
            best, best_parent = best[keep], best_parent[keep]
        row = rows(j)
        if np.isinf(row).any():  # dropped columns read NaN, not inf
            raise ValueError(f"a distance from point {j} is not finite")
        best_parent[row < best] = j
        np.fmin(best, row, out=best)  # fmin keeps best where a dropped column reads NaN
        if not rows.left:
            return edges
        at = int(best.argmin())
        j = int(rows.ids[at])
        edges.append((int(best_parent[at]), j, float(best[at])))


def _single_linkage(edges: list[tuple[int, int, float]], n: int):
    """Merge MST edges in ascending weight into a dendrogram (children, dist, size).

    Points are nodes 0..n-1 and merge m is node n + m, joining the
    nodes `children[m]` (the roots of the edge's endpoints, in edge
    order) at distance `dist[m]`; `size[x]` counts the points under
    node x. The root is node 2n - 2.
    """
    order = np.argsort([w for _, _, w in edges], kind="stable")
    up = list(range(2 * n - 1))
    size = [1] * n
    children, dist = [], []

    def find(x: int) -> int:
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    for m, ei in enumerate(order.tolist()):
        a, b, w = edges[ei]
        ra, rb = find(a), find(b)
        up[ra] = up[rb] = n + m
        children.append((ra, rb))
        dist.append(w)
        size.append(size[ra] + size[rb])
    return children, dist, size


def _condense(children, dist, size, min_cluster_size: int):
    """Walk the dendrogram breadth-first into a condensed tree (parent, stability, fell_from).

    Cluster 0 is the root; clusters are numbered in BFS order, the left
    child before the right. A split into two children of at least
    min_cluster_size points makes two clusters, born at the split's
    lambda = 1/distance; a smaller child dissolves, each of its points
    leaving the cluster (`fell_from`), and a single surviving child
    continues the parent cluster. `stability[c]` sums (lambda - birth)
    over the points and child clusters leaving c, counting
    inf - inf as 0 (coincident points split at distance 0).
    """
    n = len(children) + 1
    parent, birth, stability = [-1], [0.0], [0.0]
    fell_from = np.empty(n, dtype=np.int64)
    queue = [(2 * n - 2, 0)]  # (dendrogram node, its cluster), appended to while walked
    for node, cluster in queue:
        left, right = children[node - n]
        lam = 1.0 / dist[node - n] if dist[node - n] > 0 else np.inf
        step = 0.0 if np.isinf(lam) and np.isinf(birth[cluster]) else lam - birth[cluster]
        big = [child for child in (left, right) if size[child] >= min_cluster_size]
        if len(big) == 2:
            for child in big:
                stability[cluster] += step * size[child]
                queue.append((child, len(parent)))
                parent.append(cluster)
                birth.append(lam)
                stability.append(0.0)
            continue
        queue.extend((child, cluster) for child in big)
        stack = [child for child in (right, left) if size[child] < min_cluster_size]
        while stack:  # the dissolving points, left child first
            x = stack.pop()
            if x < n:
                fell_from[x] = cluster
                stability[cluster] += step
            else:
                stack.extend(children[x - n])
    return parent, stability, fell_from


def _excess_of_mass(parent: list[int], stability: list[float]) -> tuple[list[int], int]:
    """Flat label of each cluster (NOISE if none) and the number of labels.

    Children before parents, a cluster other than the root is kept
    unless its child clusters' stabilities add up to more than its own,
    in which case it takes their sum. Parents before children, a kept
    cluster with no kept ancestor takes the next label, and every
    cluster under it shares that label.
    """
    clusters = len(parent)
    kept = [True] * clusters
    below = [0.0] * clusters
    for c in range(clusters - 1, 0, -1):
        if below[c] > stability[c]:
            kept[c] = False
            stability[c] = below[c]
        below[parent[c]] += stability[c]
    label = [NOISE] * clusters
    count = 0
    for c in range(1, clusters):
        if label[parent[c]] != NOISE:
            label[c] = label[parent[c]]
        elif kept[c]:
            label[c] = count
            count += 1
    return label, count


def hdbscan(points: np.ndarray) -> ClusterResult:
    distances = DistanceRows(points)
    n = distances.n
    if n < 2:  # no edge to build a tree from; documented degenerate case
        return ClusterResult(assignment=np.full(n, NOISE, dtype=np.int64), cluster_count=0)

    edges = minimum_spanning_tree(distances)
    parent, stability, fell_from = _condense(*_single_linkage(edges, n), MIN_CLUSTER_SIZE)
    label, count = _excess_of_mass(parent, stability)
    return ClusterResult(assignment=np.array(label, dtype=np.int64)[fell_from],
                         cluster_count=count)
