"""The column-wise distance kernel against the oracle's distance matrix, bit for bit.

Features span six orders of magnitude, so a summation order other than
numpy's own add-reduce rounds some entry differently. The row counts
cross the kernel's block edges, and the feature counts cover each
branch of the pairwise sum: fewer than 8 terms, 8 lanes with and
without a remainder, and the split above 128.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from flowgraph.density_cluster import DistanceRows, hdbscan, optics
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


def all_rows(points: np.ndarray) -> np.ndarray:
    rows = DistanceRows(points)
    return np.vstack([np.zeros((0, len(points)))] + [block.copy() for _, block in rows.blocks()])


def test_kernel_equals_oracle_bit_for_bit():
    for name, points in cases():
        expected = oracle_distance_matrix(points)
        n = len(points)
        assert np.array_equal(all_rows(points), expected), name
        rows = DistanceRows(points)
        for i in range(n):
            row = rows(i)
            assert row.shape == (n,), name
            assert np.array_equal(row, expected[i]), (name, i)


def test_kernel_takes_rows_in_any_order():
    points = mixed_scale_points(150, 8, seed=5)
    order = np.random.default_rng(6).permutation(150)
    rows = DistanceRows(points)
    for lo in range(0, 150, rows.block):
        idx = order[lo:lo + rows.block]
        assert np.array_equal(rows(idx), oracle_distance_matrix(points)[idx])


def test_empty_input():
    assert all_rows(np.zeros((0, 8))).shape == (0, 0)
    assert np.array_equal(all_rows(np.ones((3, 0))), np.zeros((3, 3)))


def test_optics_and_hdbscan_hold_no_distance_matrix():
    # n * n * 8 bytes would be 32 MB; rows are made one block at a time
    points = np.random.default_rng(12).random((2000, 8))
    for run in (lambda: optics(points, 0.5, 2), lambda: hdbscan(points, 2, 5)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 ** 2, peak
