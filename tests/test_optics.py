from __future__ import annotations

import numpy as np

from flowgraph.density_cluster import NOISE, ClusterParams, cluster_points, dbscan, optics
from oracles import block_edge_case, distance_matrix, exact_eps_cases, padded


def test_two_close_points():
    points = padded([[0.0], [0.1]])
    result = optics(points, eps=0.2, min_pts=2)
    assert np.allclose(result.core_distance, [0.1, 0.1])
    extracted = result.extract_at_eps(0.2)
    assert extracted.cluster_count == 1
    assert np.array_equal(extracted.assignment, [0, 0])


def test_isolated_point():
    points = padded([[0.0], [100.0]])
    result = optics(points, eps=0.5, min_pts=2)
    assert np.isinf(result.reachability).all()
    assert np.isinf(result.core_distance).all()
    extracted = result.extract_at_eps(0.5)
    assert extracted.cluster_count == 0
    assert np.array_equal(extracted.assignment, [NOISE, NOISE])


def test_ordering_is_a_permutation():
    rng = np.random.default_rng(5)
    points = rng.uniform(0, 1, size=(40, 8))
    result = optics(points, eps=0.6, min_pts=3)
    assert np.array_equal(np.sort(result.order), np.arange(40))


def test_agreement_with_dbscan_on_core_points():
    """Flat extraction at eps equals DBSCAN wherever a point is core.

    Border points may legitimately land in a different (touching)
    cluster depending on processing order, so the comparison is
    restricted to core points; at min_pts=2 every clustered point is
    core and the assignments must match outright.
    """
    cases = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 101))
        points = rng.uniform(0, 1, size=(n, 8))
        eps = float(rng.uniform(0.2, 0.9))
        min_pts = int(rng.integers(2, 6))
        cases.append((f"seed {seed}", points, eps, min_pts))
    for i, (points, eps) in enumerate(exact_eps_cases()):
        cases.extend((f"exact eps case {i}", points, eps, m) for m in (2, 3, 5))
    points, eps = block_edge_case()
    cases.extend(("block edge case", points, eps, m) for m in (2, 3, 5))
    for name, points, eps, min_pts in cases:
        o = optics(points, eps, min_pts)
        extracted = o.extract_at_eps(eps)
        flat = dbscan(points, eps, min_pts)
        core = o.core_distance <= eps

        d = distance_matrix(points)
        expected_core = np.where((d <= eps).sum(axis=1) >= min_pts,
                                 np.sort(d, axis=1)[:, min(min_pts, len(d)) - 1], np.inf)
        assert np.array_equal(o.core_distance, expected_core), name
        assert extracted.cluster_count == flat.cluster_count, name
        assert np.array_equal(extracted.assignment[core],
                              flat.assignment[core]), name
        if min_pts == 2:
            assert np.array_equal(extracted.assignment, flat.assignment), name


def test_extraction_ids_dense():
    rng = np.random.default_rng(77)
    points = rng.uniform(0, 1, size=(70, 8))
    extracted = optics(points, 0.5, 2).extract_at_eps(0.5)
    ids = np.unique(extracted.assignment[extracted.assignment != NOISE])
    assert np.array_equal(ids, np.arange(extracted.cluster_count))


def test_dispatch_through_cluster_points():
    points = padded([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    params = ClusterParams(algorithm="optics", eps=0.2)
    result = cluster_points(points, params)
    assert np.array_equal(result.assignment, [0, 0, NOISE])
