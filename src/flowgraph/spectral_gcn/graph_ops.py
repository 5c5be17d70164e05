"""Edge-list graph operators for spectral convolution.

Every operator is an `EdgeOperator` built from the binary symmetrized
adjacency of a snapshot (or clustered) graph: an edge in either
direction makes A_ij = A_ji = 1, whatever its flow count, the unweighted
adjacency the renormalized GCN of Kipf & Welling (ICLR 2017) is defined
on. Applying an operator costs O(|E| h).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_POWER_TOL = 1e-6
_POWER_MAX_ITER = 1000
_LAMBDA_MAX_FALLBACK = 2.0


@dataclass
class EdgeOperator:
    """Symmetric n x n matrix as (rows, cols, vals) triplets.

    Entries are sorted by row, then column, and every diagonal entry is
    stored even when it is zero: `diagonal` therefore selects exactly
    one entry per row, in row order.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    # per width h: the bincount index row * h + column of each entry's terms, and their values
    _slots: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.rows, self.cols, self.vals))

    @property
    def diagonal(self) -> np.ndarray:
        return self.rows == self.cols

    def with_vals(self, vals: np.ndarray) -> EdgeOperator:
        return EdgeOperator(self.n, self.rows, self.cols, vals)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """This matrix times an (n, h) array; a vector goes in as an (n, 1) column."""
        h = x.shape[1]
        if h not in self._slots:
            self._slots[h] = ((self.rows[:, None] * h + np.arange(h)).ravel(),
                              np.repeat(self.vals, h))
        slots, vals = self._slots[h]
        terms = np.take(x, self.cols, axis=0).ravel()
        terms *= vals  # contiguous: a broadcast over h columns would loop h at a time
        out = np.bincount(slots, weights=terms, minlength=self.n * h)
        return out.astype(np.float64, copy=False).reshape(self.n, h)  # int64 when n is 0


def renormalize_adjacency(a: EdgeOperator) -> EdgeOperator:
    """D^(-1/2) (A + I) D^(-1/2) with D the degree of A + I.

    The added self-loops keep every row stochastic-normalizable, so the
    spectrum stays within [-1, 1] and repeated application cannot blow
    activations up.
    """
    a_tilde = a.vals + a.diagonal
    inv_sqrt = 1.0 / np.sqrt(np.bincount(a.rows, weights=a_tilde, minlength=a.n))
    return a.with_vals(a_tilde * inv_sqrt[a.rows] * inv_sqrt[a.cols])


def normalized_laplacian(a: EdgeOperator) -> EdgeOperator:
    """Symmetric normalized Laplacian I - D^(-1/2) A D^(-1/2).

    Degree-0 rows use the convention that the D^(-1/2) factor and the
    identity entry are both 0, so an isolated node contributes an
    all-zero row instead of a division by zero.
    """
    degree = np.bincount(a.rows, weights=a.vals, minlength=a.n)
    connected = degree > 0
    inv_sqrt = np.where(connected, 1.0 / np.sqrt(np.where(connected, degree, 1.0)), 0.0)
    lap = -(a.vals * inv_sqrt[a.rows] * inv_sqrt[a.cols])
    lap[a.diagonal] += connected
    return a.with_vals(lap)


def lambda_max(lap: EdgeOperator) -> float:
    """Largest eigenvalue of a normalized Laplacian, by power iteration.

    Falls back to 2, the upper bound of a normalized Laplacian's
    spectrum, when the iteration does not converge or the graph is (all
    but) edgeless, so that its top eigenvalue is numerically zero.
    """
    v = np.random.default_rng(0).standard_normal((lap.n, 1))
    v /= np.linalg.norm(v)
    previous = np.inf
    for _ in range(_POWER_MAX_ITER):
        w = lap @ v
        estimate = float(v.ravel() @ w.ravel())  # Rayleigh quotient, v is unit length
        norm = np.linalg.norm(w)
        if not np.isfinite(norm) or norm == 0.0:
            break
        v = w / norm
        if abs(estimate - previous) <= _POWER_TOL:
            return estimate if estimate > 1e-8 else _LAMBDA_MAX_FALLBACK
        previous = estimate
    return _LAMBDA_MAX_FALLBACK


def scale_laplacian(lap: EdgeOperator) -> EdgeOperator:
    """L rescaled to (2/lambda_max) L - I so its spectrum fits [-1, 1]."""
    return lap.with_vals((2.0 / lambda_max(lap)) * lap.vals - lap.diagonal)


def chebyshev_basis(l_tilde: EdgeOperator, x: np.ndarray, k: int) -> list[np.ndarray]:
    """[T_0 x, ..., T_k x] via T_j x = 2 L~ T_{j-1} x - T_{j-2} x."""
    if k < 0:
        raise ValueError(f"polynomial order must be >= 0, got {k}")
    out = [x]
    if k >= 1:
        out.append(l_tilde @ x)
    for _ in range(2, k + 1):
        out.append(2.0 * (l_tilde @ out[-1]) - out[-2])
    return out


def chebyshev_series(l_tilde: EdgeOperator, coeffs: list[np.ndarray]) -> np.ndarray:
    """sum_j T_j(L~) coeffs[j] over two or more coefficients, by Clenshaw's recurrence.

    b_j = c_j + 2 L~ b_{j+1} - b_{j+2} from j = k down to 1, with
    b_{k+1} = b_{k+2} = 0; the sum is c_0 + L~ b_1 - b_2, in k products.
    """
    b1, b2 = coeffs[-1], 0.0
    for c in coeffs[-2:0:-1]:
        b1, b2 = c + 2.0 * (l_tilde @ b1) - b2, b1
    return coeffs[0] + l_tilde @ b1 - b2


def union_matrices(graphs):
    """Block-diagonal binary adjacency plus stacked features and labels.

    Disconnected union of the given graphs: node i of graph g lands at
    offset(g) + i, so graph g's int64 (m, 3) edge rows shift by
    [offset(g), offset(g), 0], and no edges are added between blocks.
    A_ij = A_ji = 1 when an edge joins i and j in either direction (a
    self-loop sets A_ii), and 0 elsewhere; edge weights are not read.
    One `np.unique` over both directions of every edge and the diagonal
    gives the sorted entries, every diagonal one included. Raises
    ValueError on an empty list: a union of no graphs has no feature width.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    offsets = np.cumsum([0] + [g.n_nodes for g in graphs])
    n = int(offsets[-1])
    edges = np.concatenate([g.edges + [offset, offset, 0]
                            for g, offset in zip(graphs, offsets.tolist())])
    src, dst = edges[:, 0], edges[:, 1]
    nodes = np.arange(n)
    keys, inverse = np.unique(np.concatenate([src * n + dst, dst * n + src, nodes * n + nodes]),
                              return_inverse=True)
    vals = np.zeros(len(keys))
    vals[inverse[:2 * len(edges)]] = 1.0
    a = EdgeOperator(n, keys // n, keys % n, vals)

    return a, np.vstack([g.features for g in graphs]), np.concatenate([g.labels for g in graphs])
