"""Density clustering of normal behavioural entities.

DBSCAN, OPTICS (with flat epsilon extraction) and HDBSCAN are
implemented here directly on dense numpy arrays. All three take their
distances from one exact kernel, `distance_rows`, in the difference
form, which works one feature column at a time and sums in numpy's own
order, so every distance equals the plain `sqrt(((p - q) ** 2).sum())`
bit for bit. DBSCAN fills a boolean eps-ball mask from it in a single
blockwise pass; OPTICS and HDBSCAN read rows of one n x n
`distance_matrix` per snapshot. Clustering is applied only to the
normal-labeled nodes of a snapshot; noise points are discarded and the
surviving clusters are aggregated into super-nodes with averaged
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NOISE = -1
_BLOCK = 256
_KERNEL_ROWS = 64  # rows per kernel block: its five live n-wide buffers stay in cache


def distance_rows(points: np.ndarray, idx) -> np.ndarray:
    """Euclidean distances from points[idx] to all points, one row each.

    `idx` is an index array, or a single index for a one-row result.
    Each entry is the bits of `sqrt(((points[i] - points[j]) ** 2).sum())`:
    the squared differences are made one feature column at a time from
    a contiguous copy of `points.T` and added in the order numpy's
    add-reduce uses on a short contiguous axis (see `_sum_squares`).
    d(p, q) and d(q, p) are the same bits: the squared differences are
    equal and are summed in the same order.
    """
    points = np.asarray(points, dtype=np.float64)
    n, n_features = points.shape
    idx = np.atleast_1d(idx)
    cols = np.ascontiguousarray(points.T)
    out = np.empty((len(idx), n))
    spare = np.empty((4, min(len(idx), _KERNEL_ROWS), n))
    for lo in range(0, len(idx), _KERNEL_ROWS):
        block = cols[:, idx[lo:lo + _KERNEL_ROWS]]
        rows = block.shape[1]
        _sum_squares(cols, block, 0, n_features, out[lo:lo + rows], spare[:, :rows])
    return np.sqrt(out, out=out)


def distance_matrix(points: np.ndarray) -> np.ndarray:
    """All pairwise distances as one n x n float64 matrix (n * n * 8 bytes)."""
    return distance_rows(points, np.arange(len(points)))


def _square(cols, block, j: int, out: np.ndarray) -> np.ndarray:
    """out = (block[j] - cols[j]) ** 2, the block's rows against every point."""
    np.subtract(block[j, :, None], cols[j], out=out)
    return np.multiply(out, out, out=out)


def _sum_squares(cols, block, lo: int, hi: int, out, spare) -> np.ndarray:
    """out = squared differences of columns lo..hi-1 summed as numpy's pairwise add.

    Fewer than 8 terms are added left to right. Up to 128 terms go to
    eight interleaved lanes, joined as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)),
    then the rest are added in order. More than 128 split into two halves
    at a multiple of 8. Each lane is summed whole before the next, so at
    most five blocks are live. `spare` holds four buffers shaped like out.
    """
    count = hi - lo
    term = spare[0]
    if count < 8:
        out.fill(0.0)
        for j in range(lo, hi):
            out += _square(cols, block, j, term)
        return out
    if count > 128:
        half = count // 2
        half -= half % 8
        second = _sum_squares(cols, block, lo + half, hi, np.empty_like(out), spare)
        _sum_squares(cols, block, lo, lo + half, out, spare)
        return np.add(out, second, out=out)

    body = hi - count % 8

    def lane(k: int, acc: np.ndarray) -> np.ndarray:
        _square(cols, block, lo + k, acc)
        for j in range(lo + k + 8, body, 8):
            acc += _square(cols, block, j, term)
        return acc

    a, (b, c, d) = out, spare[1:]
    lane(0, a)
    a += lane(1, b)
    lane(2, b)
    b += lane(3, c)
    a += b
    lane(4, b)
    b += lane(5, c)
    lane(6, c)
    c += lane(7, d)
    b += c
    a += b
    for j in range(body, hi):
        a += _square(cols, block, j, term)
    return a


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
        return f"{self.algorithm}_eps{eps_text(self.eps)}"


def eps_text(eps: float) -> str:
    """eps as tags and reports print it: `:g` when that reads back as eps, else repr.

    `:g` keeps six digits, so 0.1234567 and 0.1234568 would share a tag.
    """
    text = f"{eps:g}"
    return text if float(text) == eps else repr(float(eps))


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
    "eps_text",
    "hdbscan",
    "optics",
    "parse_tag",
    "read_clustered_text",
    "write_assignment_csv",
    "write_clustered_text",
]
