"""The column-wise distance kernel against the oracle's distance matrix, bit for bit.

Features span six orders of magnitude, so a summation order other than
numpy's own add-reduce of the eight squared differences rounds some
entry differently. The row counts cross the kernel's block edges.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from flowgraph.density_cluster import ClusterParams, DistanceRows, cluster_points, dbscan, hdbscan
from oracles import (block_edge_case, distance_matrix as oracle_distance_matrix, exact_eps_cases,
                     kernel_rows, traffic_points)


def mixed_scale_points(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=8)
    return rng.standard_normal((n, 8)) * scale


def cases():
    for n in (1, 2, 63, 64, 65, 300):
        yield f"{n}x8", mixed_scale_points(n, seed=n * 1000 + 8)
    for i, points in enumerate(traffic_points()):
        yield f"traffic snapshot {i}", points
    for i, (points, _) in enumerate(exact_eps_cases()):
        yield f"exact eps case {i}", points
    yield "block edge case", block_edge_case()[0]


def test_kernel_equals_oracle_bit_for_bit():
    for name, points in cases():
        expected = oracle_distance_matrix(points)
        n = len(points)
        assert np.array_equal(kernel_rows(points), expected), name
        rows = DistanceRows(points)
        for i in range(n):
            row = rows(i)
            assert row.shape == (n,), name
            assert np.array_equal(row, expected[i]), (name, i)


def test_traffic_points_hold_zeros_and_ties():
    sets = traffic_points()
    assert len(sets) == 12
    for points in sets:
        assert (points == 0).any()
        assert any(len(np.unique(col)) < len(col) for col in points.T)
        assert len(np.unique(points, axis=0)) < len(points)


def test_kernel_takes_rows_in_any_order():
    points = mixed_scale_points(150, seed=5)
    order = np.random.default_rng(6).permutation(150)
    rows = DistanceRows(points)
    for lo in range(0, 150, rows.block):
        idx = order[lo:lo + rows.block]
        assert np.array_equal(rows(idx), oracle_distance_matrix(points)[idx])


def test_empty_input():
    assert kernel_rows(np.zeros((0, 8))).shape == (0, 0)


def test_points_take_the_eight_behaviour_features():
    for shape in ((3, 0), (3, 2), (3, 9), (8,), (2, 4, 8)):
        with pytest.raises(ValueError, match=r"shaped \(n, 8\)"):
            DistanceRows(np.ones(shape))
    # every clusterer, hdbscan also on too few points to build a tree
    for run in (lambda p: dbscan(p, 0.5), lambda p: cluster_points(p, ClusterParams("optics")),
                hdbscan):
        for n in (1, 3):
            with pytest.raises(ValueError, match=r"shaped \(n, 8\)"):
                run(np.ones((n, 2)))


def test_optics_and_hdbscan_hold_no_distance_matrix():
    # n * n * 8 bytes would be 32 MB and an n x n mask 4 MB; rows are made
    # one block at a time, so dbscan and the optics setting stay within
    # 1 MiB and hdbscan, which also keeps its tree, within 4 MiB
    points = np.random.default_rng(12).random((2000, 8))
    for run, bound in ((lambda: dbscan(points, 0.5), 1),
                       (lambda: cluster_points(points, ClusterParams("optics", 0.5)), 1),
                       (lambda: hdbscan(points), 4)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 1024 ** 2, peak
