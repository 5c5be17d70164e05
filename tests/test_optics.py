"""The `optics` setting against the OPTICS ordering with eps extraction.

`cluster_points` serves `optics` with DBSCAN's pass, which at `MIN_PTS`
= 2 is the same clustering as OPTICS's flat extraction at the eps it
ran with. `oracles.optics_oracle` is OPTICS itself, so these tests also
check that oracle's ordering, reachabilities and core distances.
"""

from __future__ import annotations

import numpy as np

from flowgraph.density_cluster import MIN_PTS, NOISE, ClusterParams, cluster_points, dbscan
from oracles import (block_edge_case, distance_matrix, exact_eps_cases, optics_oracle, padded,
                     traffic_points)


def optics_setting(points: np.ndarray, eps: float):
    return cluster_points(points, ClusterParams(algorithm="optics", eps=eps))


def assert_optics_setting_matches_oracle(points: np.ndarray, eps: float, name: str) -> None:
    labels, count = optics_oracle(points, eps, MIN_PTS).extract_at_eps(eps)
    result = optics_setting(points, eps)
    assert result.cluster_count == count, name
    assert np.array_equal(result.assignment, labels), name


def test_two_close_points():
    points = padded([[0.0], [0.1]])
    result = optics_oracle(points, eps=0.2, min_pts=2)
    assert np.allclose(result.core_distance, [0.1, 0.1])
    labels, count = result.extract_at_eps(0.2)
    assert count == 1
    assert np.array_equal(labels, [0, 0])
    assert_optics_setting_matches_oracle(points, 0.2, "two close points")


def test_isolated_point():
    points = padded([[0.0], [100.0]])
    result = optics_oracle(points, eps=0.5, min_pts=2)
    assert np.isinf(result.reachability).all()
    assert np.isinf(result.core_distance).all()
    labels, count = result.extract_at_eps(0.5)
    assert count == 0
    assert np.array_equal(labels, [NOISE, NOISE])
    assert_optics_setting_matches_oracle(points, 0.5, "isolated point")


def test_ordering_is_a_permutation():
    rng = np.random.default_rng(5)
    points = rng.uniform(0, 1, size=(40, 8))
    result = optics_oracle(points, eps=0.6, min_pts=3)
    assert np.array_equal(np.sort(result.order), np.arange(40))


def test_agreement_with_dbscan_on_core_points():
    """At `MIN_PTS` the OPTICS extraction at eps equals DBSCAN outright.

    Every clustered point is core at min_pts 2, so no border point can
    land in a different touching cluster: the oracle's extraction, the
    `optics` setting and `dbscan` give the same assignment.
    """
    cases = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 101))
        points = rng.uniform(0, 1, size=(n, 8))
        eps = float(rng.uniform(0.2, 0.9))
        cases.append((f"seed {seed}", points, eps))
    for i, (points, eps) in enumerate(exact_eps_cases()):
        cases.append((f"exact eps case {i}", points, eps))
    points, eps = block_edge_case()
    cases.append(("block edge case", points, eps))
    # the normalized normal features of a capture's snapshots, as clustered
    for i, points in enumerate(traffic_points()):
        cases.extend((f"traffic snapshot {i} eps {eps}", points, eps) for eps in (0.2, 0.5, 0.8))
    for name, points, eps in cases:
        o = optics_oracle(points, eps, MIN_PTS)
        d = distance_matrix(points)
        expected_core = np.where((d <= eps).sum(axis=1) >= MIN_PTS,
                                 np.sort(d, axis=1)[:, min(MIN_PTS, len(d)) - 1], np.inf)
        assert np.array_equal(o.core_distance, expected_core), name
        labels, count = o.extract_at_eps(eps)
        for result in (dbscan(points, eps), optics_setting(points, eps)):
            assert result.cluster_count == count, name
            assert np.array_equal(result.assignment, labels), name


def test_extraction_ids_dense():
    rng = np.random.default_rng(77)
    points = rng.uniform(0, 1, size=(70, 8))
    extracted = optics_setting(points, 0.5)
    ids = np.unique(extracted.assignment[extracted.assignment != NOISE])
    assert np.array_equal(ids, np.arange(extracted.cluster_count))
    assert_optics_setting_matches_oracle(points, 0.5, "seed 77")


def test_dispatch_through_cluster_points():
    points = padded([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    params = ClusterParams(algorithm="optics", eps=0.2)
    result = cluster_points(points, params)
    assert np.array_equal(result.assignment, [0, 0, NOISE])
