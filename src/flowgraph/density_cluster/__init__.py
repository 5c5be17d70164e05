"""Density clustering of normal behavioural entities.

DBSCAN, OPTICS (with flat epsilon extraction) and HDBSCAN are
implemented here directly on dense numpy arrays, for points with the
`N_FEATURES` = 8 behaviour features. All take their distances from one
exact kernel, `DistanceRows`, in the difference form, which adds the
eight squared differences in the one order numpy's add-reduce uses for
eight terms, so every distance equals the plain
`sqrt(((p - q) ** 2).sum())` bit for bit.
At `MIN_PTS` = 2 DBSCAN's clusters are the eps-graph's connected
components of two or more points, and OPTICS's extraction at the eps it
ran with is the same clustering, so one breadth-first pass serves both:
it computes each point's row once, a block of rows at a time. At
`MIN_PTS` = 2 HDBSCAN's mutual reachability is the plain distance, so
it builds a euclidean minimum spanning tree, computing each point's row
once, when the point joins the tree. Each search measures only the
points still outside, which the kernel keeps as its columns. No
algorithm holds an n x n array.
Clustering is applied only to the normal-labeled nodes of a snapshot;
noise points are discarded and the surviving clusters are aggregated
into super-nodes with averaged behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..behavior_graph import N_FEATURES

ALGORITHMS = ("dbscan", "optics", "hdbscan")  # the values of ClusterParams.algorithm
NOISE = -1
MIN_PTS = 2  # points in a core point's closed neighbourhood, itself included
MIN_CLUSTER_SIZE = 5  # hdbscan: points a cluster needs to survive a split
_BLOCK_BYTES = 256 << 10  # squared differences per kernel block: stays in cache
_DEAD_SHARE = 0.2  # dropped columns a kernel holds before it compacts
_LANES = (0, 4, 2, 6, 1, 5, 3, 7)  # feature on each plane: halving adds pair them as numpy does


class DistanceRows:
    """Exact euclidean distances between behaviour vectors, from any point to the points left.

    The columns are the points not dropped yet, in ascending order, and
    `ids[c]` is column c's point. `rows(p)` is point p's row over them
    and `rows(idx)` one row per index of a slice or index array of at
    most `rows.block` points. Each entry is the bits of
    `sqrt(((points[i] - points[j]) ** 2).sum())`: the squares of the
    eight feature differences are made in one pass from a contiguous
    copy of `points.T`, one plane per feature in `_LANES` order, and
    three in-place halvings add them as numpy's add-reduce adds eight
    terms, ((d0+d1)+(d2+d3))+((d4+d5)+(d6+d7)). An entry depends on its
    two points alone, so the columns held change none of its bits, and
    d(p, q) and d(q, p) are the same bits. `drop(ids)` turns the points'
    columns to NaN, which no comparison selects, until more than
    `_DEAD_SHARE` of the columns are dropped and they are compacted
    away. A returned row is a view of one scratch buffer allocated per
    point set, so it holds only until the next call.
    """

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != N_FEATURES:
            raise ValueError(f"points must be shaped (n, {N_FEATURES}), got {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points must have finite coordinates")
        self.n = self.left = len(points)  # left: points not dropped
        self._planes = np.ascontiguousarray(points.T[list(_LANES)])
        self._cols, self.ids = self._planes.copy(), np.arange(self.n)
        self._live = np.ones(self.n, dtype=bool)
        self._squares = np.empty(max(_BLOCK_BYTES // 8, N_FEATURES * self.n))

    @property
    def block(self) -> int:
        return max(1, _BLOCK_BYTES // (8 * N_FEATURES * max(len(self.ids), 1)))

    def __call__(self, idx) -> np.ndarray:
        single = isinstance(idx, (int, np.integer))
        if single:
            idx = slice(idx, idx + 1)
        block = self._planes[:, idx, None]
        m = len(self.ids)
        t = self._squares[:block.size * m].reshape(N_FEATURES, block.shape[1], m)
        np.subtract(block, self._cols[:, None], out=t)
        np.multiply(t, t, out=t)
        t[:4] += t[4:]
        t[:2] += t[2:4]
        t[0] += t[1]
        np.sqrt(t[0], out=t[0])
        return t[0, 0] if single else t[0]

    def drop(self, ids) -> np.ndarray | None:
        """Drop the points `ids`, none dropped before; if this compacts the columns, the mask
        of those kept, for arrays aligned with the columns to follow, else None."""
        at = self.ids.searchsorted(ids)
        self._cols[:, at] = np.nan
        self._live[at] = False
        self.left -= np.size(at)
        if len(self.ids) - self.left <= _DEAD_SHARE * len(self.ids):
            return None
        keep, self._live = self._live, np.ones(self.left, dtype=bool)
        self._cols, self.ids = self._cols[:, keep], self.ids[keep]
        return keep


@dataclass
class ClusterParams:
    """One clustering run: the algorithm and, for dbscan and optics, eps.

    These are the only settings a run takes, so `tag()` names it in
    full. The reference experiment's other values are the constants
    `MIN_PTS` (every algorithm) and `MIN_CLUSTER_SIZE` (hdbscan); eps is
    one of {0.2, 0.5, 0.8}, 0.5 if unspecified, with the euclidean
    metric.
    """

    algorithm: str = "dbscan"
    eps: float = 0.5

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, not one of {ALGORITHMS}")
        if self.algorithm != "hdbscan" and not 0 < self.eps < np.inf:
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")

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


def cluster_points(points: np.ndarray, params: ClusterParams) -> ClusterResult:
    """Run the configured algorithm with `MIN_PTS` and, for hdbscan, `MIN_CLUSTER_SIZE`.

    dbscan and optics share `dbscan`'s pass: at `MIN_PTS` = 2 OPTICS's
    flat extraction at the eps it ran with equals DBSCAN at that eps
    (Ankerst et al., SIGMOD 1999, "ExtractDBSCAN-Clustering").
    """
    if params.algorithm == "hdbscan":
        return hdbscan(points)
    return dbscan(points, params.eps)


from .dbscan import dbscan  # noqa: E402
from .hdbscan import hdbscan  # noqa: E402
from .aggregate import (  # noqa: E402
    KIND_ATTACK,
    KIND_CLUSTER,
    SuperNode,
    aggregate,
    cluster_snapshot,
    read_clustered_text,
    write_assignment_csv,
    write_clustered_text,
)
