"""The column-wise distance kernel against the oracle's distance matrix, bit for bit.

Features span six orders of magnitude, so a summation order other than
numpy's own add-reduce rounds some entry differently. The row counts
cross the kernel's 64-row and DBSCAN's 256-row block edges, and the
feature counts cover each branch of the pairwise sum: fewer than 8
terms, 8 lanes with and without a remainder, and the split above 128.
"""

from __future__ import annotations

import numpy as np

from flowgraph.density_cluster import distance_matrix, distance_rows
from oracles import block_edge_case, distance_matrix as oracle_distance_matrix, exact_eps_cases


def mixed_scale_points(n: int, n_features: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=n_features)
    return rng.standard_normal((n, n_features)) * scale


def cases():
    for n_features in [*range(1, 21), 64]:
        for n in (1, 2, 63, 64, 65, 300):
            yield f"{n}x{n_features}", mixed_scale_points(n, n_features, seed=n * 1000 + n_features)
    for n_features in (129, 200):
        for n in (1, 65, 130):
            yield f"{n}x{n_features}", mixed_scale_points(n, n_features, seed=n * 1000 + n_features)
    for i, (points, _) in enumerate(exact_eps_cases()):
        yield f"exact eps case {i}", points
    yield "block edge case", block_edge_case()[0]


def test_kernel_equals_oracle_bit_for_bit():
    for name, points in cases():
        expected = oracle_distance_matrix(points)
        n = len(points)
        assert np.array_equal(distance_rows(points, np.arange(n)), expected), name
        assert np.array_equal(distance_matrix(points), expected), name
        for i in range(n):
            row = distance_rows(points, i)
            assert row.shape == (1, n), name
            assert np.array_equal(row[0], expected[i]), (name, i)


def test_kernel_takes_rows_in_any_order():
    points = mixed_scale_points(150, 8, seed=5)
    idx = np.random.default_rng(6).permutation(150)[:100]
    assert np.array_equal(distance_rows(points, idx), oracle_distance_matrix(points)[idx])


def test_empty_input():
    assert distance_matrix(np.zeros((0, 8))).shape == (0, 0)
    assert np.array_equal(distance_matrix(np.ones((3, 0))), np.zeros((3, 3)))
