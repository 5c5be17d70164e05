"""The column-wise distance kernel against the oracle's distance matrix, bit for bit.

Features span six orders of magnitude, so a summation order other than
numpy's own add-reduce of the eight squared differences rounds some
entry differently. The row counts cross the kernel's block edges.
"""

from __future__ import annotations

import importlib
import tracemalloc

import numpy as np
import pytest

from flowgraph.density_cluster import ClusterParams, DistanceRows, cluster_points, dbscan, hdbscan
from flowgraph.density_cluster.hdbscan import minimum_spanning_tree
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


def test_dropped_points_leave_the_columns():
    # points leave in random order, a few at a time; the columns left keep
    # ascending order and their entries' bits, and dropped columns are
    # compacted away once more than a fifth of the columns are dropped
    for name, points in cases():
        expected = oracle_distance_matrix(points)
        n = len(points)
        rows = DistanceRows(points)
        rng = np.random.default_rng(n)
        order = rng.permutation(n)
        at = 0
        while at < n:
            step = int(rng.integers(1, 4))
            rows.drop(np.sort(order[at:at + step]))
            at += step
            left = np.sort(order[at:])
            live = np.isin(rows.ids, left)
            assert rows.left == len(left) and np.array_equal(rows.ids[live], left), name
            assert np.all(np.diff(rows.ids) > 0), name
            assert len(rows.ids) - rows.left <= 0.2 * len(rows.ids), name
            i = int(rng.integers(n))
            row = rows(i)
            assert np.array_equal(row[live], expected[i, left]), (name, i)
            assert np.isnan(row[~live]).all(), (name, i)
            block = rng.integers(n, size=min(rows.block, n))
            assert np.array_equal(rows(block)[:, live], expected[np.ix_(block, left)]), name


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


class CountingRows(DistanceRows):
    """The kernel, counting the distance entries it computes in `computed`."""

    computed = 0

    def __call__(self, idx):
        rows = super().__call__(idx)
        CountingRows.computed += rows.size
        return rows


def test_dbscan_measures_only_unreached_points(monkeypatch):
    # every pair of these points is within eps, so the first row reaches
    # them all and no row is read after it; all rows against all points
    # would take n * n entries
    n = 300
    points = np.random.default_rng(7).random((n, 8)) * 0.1
    monkeypatch.setattr(importlib.import_module(dbscan.__module__), "DistanceRows", CountingRows)
    monkeypatch.setattr(CountingRows, "computed", 0)
    result = dbscan(points, 0.5)
    assert result.cluster_count == 1 and not result.assignment.any()
    assert CountingRows.computed <= 2 * n


def test_prim_measures_only_points_outside_the_tree(monkeypatch):
    # a joining point's row covers the points still outside the tree, about
    # n * n / 2 entries in all, plus the dropped columns awaiting compaction
    n = 300
    points = np.random.default_rng(8).random((n, 8))
    monkeypatch.setattr(CountingRows, "computed", 0)
    edges = minimum_spanning_tree(CountingRows(points))
    assert edges == minimum_spanning_tree(DistanceRows(points))
    assert CountingRows.computed <= 0.6 * n * n
