"""DBSCAN at `MIN_PTS` = 2, exact and deterministic.

Neighborhoods are closed euclidean balls that include the query point,
so at min_pts 2 a point is core exactly when another point lies within
eps, and no border point exists: the clusters are the connected
components of the eps-graph that hold two or more points, and a
component of one point is noise. OPTICS's flat extraction at the eps it
ran with gives the same clustering, so this pass serves both settings.
Cluster ids are dense from 0 in ascending order of each cluster's
lowest index. A reached point leaves the kernel's columns, so a frontier
row measures only unreached points, and no row is read once all are.
"""

from __future__ import annotations

import numpy as np

from . import NOISE, ClusterResult, DistanceRows


@np.errstate(over="ignore")  # an overflowing distance is inf, within no eps
def dbscan(points: np.ndarray, eps: float) -> ClusterResult:
    rows = DistanceRows(points)
    labels = np.full(rows.n, NOISE, dtype=np.int64)
    reached = np.zeros(rows.n, dtype=bool)
    cluster_count = 0
    # One breadth-first search per unreached start, in index order; a point's
    # row is computed once, when the point is in the frontier.
    for start in range(rows.n):
        if reached[start]:
            continue
        reached[start] = True
        rows.drop(start)
        frontier, size = np.array([start]), 1
        while frontier.size and rows.left:
            found, lo = [], 0
            while lo < frontier.size and rows.left:
                block = frontier[lo:lo + rows.block]
                lo += block.size
                found.append(rows.ids[(rows(block) <= eps).any(axis=0)])
                if found[-1].size:
                    rows.drop(found[-1])
            frontier = np.concatenate(found)
            reached[frontier] = True
            labels[frontier] = cluster_count
            size += frontier.size
        if size > 1:
            labels[start] = cluster_count
            cluster_count += 1
    return ClusterResult(assignment=labels, cluster_count=cluster_count)
