"""Density clustering of normal behavioural entities.

DBSCAN, OPTICS (with flat epsilon extraction) and HDBSCAN are
implemented here directly on dense numpy arrays. All three take their
distances from one exact kernel, `distance_rows`, in the difference
form; DBSCAN fills a boolean eps-ball mask from it in a single
blockwise pass. Clustering is applied only to the normal-labeled nodes
of a snapshot; noise points are discarded and the surviving clusters
are aggregated into super-nodes with averaged behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE = -1
_BLOCK = 256


def distance_rows(points: np.ndarray, idx) -> np.ndarray:
    """Euclidean distances from points[idx] to all points, one row each.

    `idx` is an index array, or a single index for a one-row result.
    d(p, q) and d(q, p) are the same bits: the squared differences are
    equal and are summed in the same order.
    """
    diff = points[idx, None, :] - points[None, :, :]
    diff *= diff  # in place: one block-sized temporary, not two
    return np.sqrt(diff.sum(axis=2))


def row_blocks(n: int):
    """Index ranges of at most _BLOCK rows covering 0..n-1."""
    for lo in range(0, n, _BLOCK):
        yield np.arange(lo, min(lo + _BLOCK, n))


@dataclass
class ClusterParams:
    """Algorithm choice plus the knobs each algorithm consumes.

    Defaults follow the reference experiment: min_pts=2, euclidean
    metric, min_cluster_size=5 for hdbscan, eps in {0.2, 0.5, 0.8} for
    dbscan/optics (0.5 if unspecified).
    """

    algorithm: str = "dbscan"
    eps: float = 0.5
    min_pts: int = 2
    min_cluster_size: int = 5

    def __post_init__(self):
        if self.algorithm not in ("dbscan", "optics", "hdbscan"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm in ("dbscan", "optics") and not self.eps > 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        for name in ("min_pts", "min_cluster_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {self.min_pts}")
        if self.algorithm == "hdbscan" and self.min_cluster_size < 2:
            raise ValueError(
                f"min_cluster_size must be >= 2, got {self.min_cluster_size}")

    def tag(self) -> str:
        """Directory/file tag for this parameterization; `parse_tag` reads it back."""
        if self.algorithm == "hdbscan":
            return "hdbscan"
        return f"{self.algorithm}_eps{self.eps:g}"


def parse_tag(tag: str) -> tuple[str, float | None]:
    """(algorithm, eps) of a `ClusterParams.tag()`; eps is None for hdbscan, which takes none."""
    algorithm, sep, eps = tag.partition("_eps")
    return algorithm, float(eps) if sep else None


@dataclass
class ClusterResult:
    """Per-point assignment: dense cluster ids from 0, or NOISE (-1)."""

    assignment: np.ndarray
    cluster_count: int

    @classmethod
    def empty(cls) -> "ClusterResult":
        return cls(assignment=np.zeros(0, dtype=np.int64), cluster_count=0)


def cluster_points(points: np.ndarray, params: ClusterParams) -> ClusterResult:
    """Dispatch to the configured algorithm."""
    if params.algorithm == "dbscan":
        return dbscan(points, params.eps, params.min_pts)
    if params.algorithm == "optics":
        return optics(points, params.eps, params.min_pts).extract_at_eps(params.eps)
    return hdbscan(points, params.min_pts, params.min_cluster_size)


from .dbscan import dbscan  # noqa: E402
from .optics import OpticsResult, optics  # noqa: E402
from .hdbscan import hdbscan  # noqa: E402
from .aggregate import (  # noqa: E402
    KIND_ATTACK,
    KIND_CLUSTER,
    ClusteredGraph,
    SuperNode,
    aggregate,
    cluster_snapshot,
    read_clustered_text,
    write_assignment_csv,
    write_clustered_text,
)

__all__ = [
    "KIND_ATTACK",
    "KIND_CLUSTER",
    "NOISE",
    "ClusterParams",
    "ClusterResult",
    "ClusteredGraph",
    "SuperNode",
    "OpticsResult",
    "aggregate",
    "cluster_points",
    "cluster_snapshot",
    "dbscan",
    "hdbscan",
    "optics",
    "parse_tag",
    "read_clustered_text",
    "write_assignment_csv",
    "write_clustered_text",
]
