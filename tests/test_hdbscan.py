from __future__ import annotations

import importlib

import numpy as np
import pytest

from flowgraph.density_cluster import (MIN_CLUSTER_SIZE, NOISE, ClusterParams, DistanceRows,
                                       cluster_points, dbscan, hdbscan)
from flowgraph.density_cluster.hdbscan import (_condense, _excess_of_mass, _single_linkage,
                                               minimum_spanning_tree)
from oracles import (block_edge_case, distance_matrix, exact_eps_cases,
                     hdbscan_hierarchy_oracle, mst_weight_oracle, mutual_reachability_matrix,
                     padded)


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
    result = hdbscan(points)
    assert result.cluster_count == 3
    assert partitions_equal(result.assignment, truth)


def test_min_cluster_size_threshold():
    # 4 points pairwise at distance 0.1: a tetrahedron on scaled basis
    # vectors; too small for min_cluster_size=5
    points = padded(np.eye(4) * (0.1 / np.sqrt(2.0)))
    result = hdbscan(points)
    assert result.cluster_count == 0
    assert np.array_equal(result.assignment, [NOISE] * 4)


def test_duplicate_points():
    points = padded([[0.0, 0.0]] * 6 + [[3.0, 3.0]] * 6)
    result = hdbscan(points)
    assert result.cluster_count == 2
    assert len(set(result.assignment[:6])) == 1
    assert len(set(result.assignment[6:])) == 1
    assert result.assignment[0] != result.assignment[6]


def test_single_point():
    result = hdbscan(padded([[0.5, 0.5]]))
    assert np.array_equal(result.assignment, [NOISE])


def test_distances_that_are_not_finite_are_refused():
    """A feature gap past about 1e154 squares to inf. The tree, and so hdbscan, refuse such
    points with a ValueError; dbscan, whose eps no inf distance is within, keeps its answer.
    Neither lets numpy's overflow warning out. A NaN or infinite coordinate is refused by the
    kernel, so by every setting alike."""
    spread = np.arange(10.0)[:, None] * np.full((1, 8), 1e200)
    near = np.random.default_rng(4).random((9, 8))
    far = np.vstack([near, np.full((1, 8), 1e200)])
    for points in (spread, far):
        with pytest.raises(ValueError, match="not finite"):
            hdbscan(points)
        with pytest.raises(ValueError, match="not finite"):
            minimum_spanning_tree(DistanceRows(points))
    assert np.array_equal(dbscan(spread, 0.5).assignment, np.full(10, NOISE))
    assert np.array_equal(dbscan(far, 0.5).assignment,
                          np.append(dbscan(near, 0.5).assignment, NOISE))
    blobs = three_blobs(5)[0]
    for value in (np.nan, np.inf, -np.inf):
        one_coordinate = blobs.copy()
        one_coordinate[3, 7] = value
        for bad in (np.vstack([blobs, np.full((1, 8), value)]), one_coordinate):
            for call in (DistanceRows, hdbscan, lambda p: dbscan(p, 0.5),
                         lambda p: minimum_spanning_tree(DistanceRows(p))):
                with pytest.raises(ValueError, match="finite coordinates"):
                    call(bad)


def test_each_distance_row_is_computed_once(monkeypatch):
    returned = []

    class CountingRows(DistanceRows):
        def __call__(self, idx):
            rows = super().__call__(idx)
            returned.append(1 if rows.ndim == 1 else len(rows))
            return rows

    monkeypatch.setattr(importlib.import_module(hdbscan.__module__), "DistanceRows", CountingRows)
    hdbscan(np.random.default_rng(3).random((300, 8)))
    assert sum(returned) == 300


def test_mst_weight_against_exhaustive_oracle():
    cases = []
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 51))
        cases.append((f"seed {seed}", rng.uniform(0, 1, size=(n, 8))))
    cases.extend((f"exact eps case {i}", points)
                 for i, (points, _) in enumerate(exact_eps_cases()[::3]))
    cases.append(("block edge case", block_edge_case()[0]))
    for name, points in cases:
        edges = minimum_spanning_tree(DistanceRows(points))
        total = sum(w for _, _, w in edges)
        assert len(edges) == len(points) - 1
        assert abs(total - mst_weight_oracle(points, 2)) < 1e-9, name


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


def case_sets() -> list[tuple[str, np.ndarray]]:
    """The 2,000 random sets, every `exact_eps_cases` grid and `block_edge_case`."""
    cases = [(f"seed {seed}", random_point_set(seed)) for seed in range(2000)]
    cases.extend((f"exact eps case {i}", points) for i, (points, _) in enumerate(exact_eps_cases()))
    cases.append(("block edge case", block_edge_case()[0]))
    return cases


def select(edges: list[tuple[int, int, float]], n: int, min_cluster_size: int):
    """(assignment, cluster count) of hdbscan's hierarchy steps at any min_cluster_size."""
    parent, stability, fell_from = _condense(*_single_linkage(edges, n), min_cluster_size)
    label, count = _excess_of_mass(parent, stability)
    return np.array(label, dtype=np.int64)[fell_from], count


def test_mutual_reachability_at_min_pts_2_is_the_distance():
    # the identity hdbscan rests on: core(p) and core(q) never exceed d(p, q)
    for name, points in case_sets():
        off_diagonal = ~np.eye(len(points), dtype=bool)
        mr = mutual_reachability_matrix(points, 2)[off_diagonal]
        assert np.array_equal(mr.view(np.int64),
                              distance_matrix(points)[off_diagonal].view(np.int64)), name


def test_hierarchy_matches_the_dict_oracle():
    sizes = {f"seed {seed}": [int(np.random.default_rng([seed, 1]).integers(2, 8))]
             for seed in range(2000)}
    for name, points in case_sets():
        result = hdbscan(points)
        n = len(points)
        if n < 2:
            continue
        edges = minimum_spanning_tree(DistanceRows(points))
        for mcs in sizes.get(name, [2, 5]):
            assignment, count = hdbscan_hierarchy_oracle(edges, n, mcs)
            got, got_count = select(edges, n, mcs)
            assert got_count == count, (name, mcs)
            assert np.array_equal(got, assignment), (name, mcs)
        assignment, count = hdbscan_hierarchy_oracle(edges, n, MIN_CLUSTER_SIZE)
        assert result.cluster_count == count, name
        assert np.array_equal(result.assignment, assignment), name


def test_selected_clusters_respect_min_cluster_size():
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        points = rng.uniform(0, 1, size=(90, 8))
        mcs = int(rng.integers(3, 9))
        result = hdbscan(points)
        for (assignment, count), size in (
                (select(minimum_spanning_tree(DistanceRows(points)), 90, mcs), mcs),
                ((result.assignment, result.cluster_count), MIN_CLUSTER_SIZE)):
            ids = np.unique(assignment[assignment != NOISE])
            assert np.array_equal(ids, np.arange(count))
            for cid in ids:
                assert (assignment == cid).sum() >= size


def test_determinism():
    points, _ = three_blobs(seed=8)
    a = hdbscan(points)
    b = hdbscan(points)
    assert np.array_equal(a.assignment, b.assignment)


def test_dispatch_through_cluster_points():
    points, truth = three_blobs(seed=2)
    params = ClusterParams(algorithm="hdbscan")
    result = cluster_points(points, params)
    assert result.cluster_count == 3
    assert partitions_equal(result.assignment, truth)
