"""DBSCAN on dense points, exact and deterministic.

Neighborhoods are closed euclidean balls that include the query point,
so min_pts=2 means "at least one other point within eps". Clusters are
the connected components of core points under mutual eps-reachability;
a border point (non-core within eps of some core) joins the cluster of
the lowest-index core point inside its eps-ball. Remaining points are
noise. Cluster ids are dense from 0 in ascending order of each
cluster's lowest core index.
"""

from __future__ import annotations

import numpy as np

from . import NOISE, ClusterResult, DistanceRows


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> ClusterResult:
    distances = DistanceRows(points)
    n = distances.n

    # One blockwise pass computes every distance row once; within is the
    # symmetric closed eps-ball mask and its row sums are the ball sizes.
    within = np.empty((n, n), dtype=bool)
    for lo, rows in distances.blocks():
        within[lo:lo + len(rows)] = rows <= eps
    core = within.sum(axis=1) >= min_pts
    labels = np.full(n, NOISE, dtype=np.int64)

    # Grow one component per unlabeled core, scanning starts in index order.
    cluster_count = 0
    for start in range(n):
        if not core[start] or labels[start] != NOISE:
            continue
        cid = cluster_count
        cluster_count += 1
        labels[start] = cid
        stack = [start]
        while stack:
            p = stack.pop()
            reachable = np.flatnonzero(within[p] & core & (labels == NOISE))
            labels[reachable] = cid
            stack.extend(reachable.tolist())

    # Border assignment: lowest-index core within eps.
    for p in np.flatnonzero(~core):
        cores_in_reach = np.flatnonzero(within[p] & core)
        if cores_in_reach.size:
            labels[p] = labels[cores_in_reach[0]]

    return ClusterResult(assignment=labels, cluster_count=cluster_count)
