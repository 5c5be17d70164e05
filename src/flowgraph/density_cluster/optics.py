"""OPTICS ordering with flat epsilon extraction.

The reachability run caps everything at eps: core distance is defined
(finite) only when the closed eps-ball holds at least min_pts points,
and only neighbors within eps ever receive reachability updates.
Undefined distances are recorded as infinity. Seed-queue ties are
broken by lowest point index.

extract_at_eps scans the ordering and rebuilds a DBSCAN-style flat
clustering: a point whose reachability exceeds the threshold starts a
new cluster if its own core distance is within the threshold and is
noise otherwise; every other point joins the cluster currently open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import NOISE, ClusterResult, DistanceRows


@dataclass
class OpticsResult:
    order: np.ndarray
    reachability: np.ndarray
    core_distance: np.ndarray

    def extract_at_eps(self, eps_prime: float) -> ClusterResult:
        n = len(self.order)
        labels = np.full(n, NOISE, dtype=np.int64)
        cluster_count = 0
        current = NOISE
        for p in self.order:
            if self.reachability[p] > eps_prime:
                if self.core_distance[p] <= eps_prime:
                    current = cluster_count
                    cluster_count += 1
                    labels[p] = current
                else:
                    current = NOISE
            else:
                labels[p] = current
        return ClusterResult(assignment=labels, cluster_count=cluster_count)


def optics(points: np.ndarray, eps: float, min_pts: int) -> OpticsResult:
    rows = DistanceRows(points)
    n = rows.n
    order = np.empty(n, dtype=np.int64)
    reach = np.full(n, np.inf)
    core_dist = np.full(n, np.inf)
    processed = np.zeros(n, dtype=bool)
    seed_reach = np.full(n, np.inf)  # reach on the seed set, infinity off it

    def process(p: int, position: int) -> None:
        processed[p] = True
        seed_reach[p] = np.inf
        order[position] = p
        row = rows(p)  # computed once: each point is processed once
        within = row <= eps
        if within.sum() >= min_pts:
            # min_pts-th nearest neighbor, the ball including p itself
            core_dist[p] = np.partition(row, min_pts - 1)[min_pts - 1]
            candidate = np.maximum(core_dist[p], row)
            update = within & ~processed & (candidate < reach)
            reach[update] = seed_reach[update] = candidate[update]

    position = 0
    for start in range(n):
        if processed[start]:
            continue
        process(start, position)
        position += 1
        # smallest reachability wins, np.argmin takes the lowest index on ties;
        # a seed's reach is at most eps, so an infinite minimum means no seeds
        while seed_reach[q := int(seed_reach.argmin())] < np.inf:
            process(q, position)
            position += 1

    return OpticsResult(order=order, reachability=reach, core_distance=core_dist)
