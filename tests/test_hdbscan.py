from __future__ import annotations

import numpy as np
import pytest

from flowgraph.density_cluster import NOISE, ClusterParams, DistanceRows, cluster_points, hdbscan
from flowgraph.density_cluster.hdbscan import core_distances, mutual_reachability_mst
from oracles import (block_edge_case, distance_matrix, exact_eps_cases,
                     hdbscan_hierarchy_oracle, mst_weight_oracle, padded)


def three_blobs(seed: int, spread: float = 0.02, separation: float = 1.0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [separation, 0.0], [0.0, separation]])
    points = padded(np.vstack([c + rng.uniform(-spread, spread, size=(10, 2))
                               for c in centers]))
    truth = np.repeat([0, 1, 2], 10)
    return points, truth


def partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same grouping regardless of which integer names each group."""
    mapping: dict[int, int] = {}
    for x, y in zip(a, b):
        if x == NOISE or y == NOISE:
            return False
        if mapping.setdefault(int(x), int(y)) != y:
            return False
    return len(set(mapping.values())) == len(mapping)


def test_recovers_three_blobs():
    points, truth = three_blobs(seed=1)
    result = hdbscan(points, min_pts=2, min_cluster_size=5)
    assert result.cluster_count == 3
    assert partitions_equal(result.assignment, truth)


def test_min_cluster_size_threshold():
    # 4 points pairwise at distance 0.1: a tetrahedron on scaled basis
    # vectors; too small for min_cluster_size=5
    points = padded(np.eye(4) * (0.1 / np.sqrt(2.0)))
    result = hdbscan(points, min_pts=2, min_cluster_size=5)
    assert result.cluster_count == 0
    assert np.array_equal(result.assignment, [NOISE] * 4)


def test_duplicate_points():
    points = padded([[0.0, 0.0]] * 6 + [[3.0, 3.0]] * 6)
    result = hdbscan(points, min_pts=2, min_cluster_size=5)
    assert result.cluster_count == 2
    assert len(set(result.assignment[:6])) == 1
    assert len(set(result.assignment[6:])) == 1
    assert result.assignment[0] != result.assignment[6]


def test_fewer_points_than_min_pts():
    points = padded([[0.0], [1.0]])
    result = hdbscan(points, min_pts=3, min_cluster_size=2)
    assert result.cluster_count == 0
    assert np.array_equal(result.assignment, [NOISE, NOISE])


def test_single_point():
    result = hdbscan(padded([[0.5, 0.5]]), min_pts=2, min_cluster_size=2)
    assert np.array_equal(result.assignment, [NOISE])


def test_min_cluster_size_below_two_is_refused():
    points, _ = three_blobs(seed=3)
    for bad in (1, 0, -1):
        with pytest.raises(ValueError, match="min_cluster_size"):
            hdbscan(points, min_pts=2, min_cluster_size=bad)


def test_mst_weight_against_exhaustive_oracle():
    cases = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 51))
        points = rng.uniform(0, 1, size=(n, 8))
        min_pts = int(rng.integers(2, 5))
        cases.append((f"seed {seed}", points, min_pts))
    for i, (points, _) in enumerate(exact_eps_cases()[::3]):
        cases.extend((f"exact eps case {i}", points, m) for m in (2, 4))
    points, _ = block_edge_case()
    cases.extend(("block edge case", points, m) for m in (2, 4))
    for name, points, min_pts in cases:
        if len(points) < min_pts:
            continue
        rows = DistanceRows(points)
        core = core_distances(rows, min_pts)
        assert np.array_equal(core, np.sort(distance_matrix(points), axis=1)[:, min_pts - 1]), name
        edges = mutual_reachability_mst(rows, core)
        total = sum(w for _, _, w in edges)
        assert len(edges) == len(points) - 1
        assert abs(total - mst_weight_oracle(points, min_pts)) < 1e-9, name


def random_point_set(seed: int) -> np.ndarray:
    """Uniform points, an integer grid (ties, coincident points), blobs or rounded points,
    in 1 to 8 dimensions and `padded` to 8 columns."""
    rng = np.random.default_rng(seed)
    n, dims = int(rng.integers(2, 41)), int(rng.integers(1, 9))
    kind = seed % 4
    if kind == 0:
        return padded(rng.uniform(0, 1, size=(n, dims)))
    if kind == 1:
        return padded(rng.integers(0, 4, size=(n, dims)))
    if kind == 2:
        centers = rng.uniform(0, 1, size=(int(rng.integers(1, 5)), dims))
        return padded(centers[rng.integers(0, len(centers), size=n)]
                      + rng.normal(0, 0.03, (n, dims)))
    return padded(np.round(rng.uniform(0, 1, size=(n, dims)), 1))


def test_hierarchy_matches_the_dict_oracle():
    cases = []
    for seed in range(2000):
        rng = np.random.default_rng([seed, 1])
        cases.append((f"seed {seed}", random_point_set(seed),
                      int(rng.integers(1, 6)), int(rng.integers(2, 8))))
    for i, (points, _) in enumerate(exact_eps_cases()):
        cases.extend((f"exact eps case {i}", points, m, mcs) for m in (1, 2, 4) for mcs in (2, 5))
    points, _ = block_edge_case()
    cases.extend(("block edge case", points, m, mcs) for m in (2, 4) for mcs in (2, 5))
    for name, points, min_pts, mcs in cases:
        result = hdbscan(points, min_pts, mcs)
        if len(points) < max(min_pts, 2):
            continue
        rows = DistanceRows(points)
        edges = mutual_reachability_mst(rows, core_distances(rows, min_pts))
        assignment, count = hdbscan_hierarchy_oracle(edges, len(points), mcs)
        assert result.cluster_count == count, name
        assert np.array_equal(result.assignment, assignment), name


def test_selected_clusters_respect_min_cluster_size():
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        points = rng.uniform(0, 1, size=(90, 8))
        mcs = int(rng.integers(3, 9))
        result = hdbscan(points, min_pts=2, min_cluster_size=mcs)
        ids = np.unique(result.assignment[result.assignment != NOISE])
        assert np.array_equal(ids, np.arange(result.cluster_count))
        for cid in ids:
            assert (result.assignment == cid).sum() >= mcs


def test_determinism():
    points, _ = three_blobs(seed=8)
    a = hdbscan(points, 2, 5)
    b = hdbscan(points, 2, 5)
    assert np.array_equal(a.assignment, b.assignment)


def test_dispatch_through_cluster_points():
    points, truth = three_blobs(seed=2)
    params = ClusterParams(algorithm="hdbscan")
    result = cluster_points(points, params)
    assert result.cluster_count == 3
    assert partitions_equal(result.assignment, truth)
