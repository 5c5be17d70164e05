from __future__ import annotations

import numpy as np

from flowgraph.density_cluster import (MIN_PTS, NOISE, ClusterParams,
                                      cluster_points, dbscan, eps_text, hdbscan, parse_tag)
from oracles import (block_edge_case, dbscan_oracle, distance_matrix, exact_eps_cases,
                     kernel_rows, padded)


def test_chain_within_eps():
    points = padded([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
    result = dbscan(points, eps=0.15)
    assert result.cluster_count == 1
    assert np.array_equal(result.assignment, [0, 0, 0])


def test_single_point_is_noise():
    result = dbscan(padded([[1.0, 2.0]]), eps=0.5)
    assert result.cluster_count == 0
    assert np.array_equal(result.assignment, [NOISE])


def test_two_far_blobs():
    rng = np.random.default_rng(0)
    blob1 = rng.uniform(-0.025, 0.025, size=(3, 2))
    blob2 = rng.uniform(-0.025, 0.025, size=(3, 2)) + 5.0
    points = padded(np.vstack([blob1, blob2]))
    result = dbscan(points, eps=0.2)
    assert result.cluster_count == 2
    assert np.array_equal(result.assignment, [0, 0, 0, 1, 1, 1])


def test_empty_input():
    # no points take each algorithm's general path
    empty = np.zeros((0, 8))
    for result in (dbscan(empty, eps=0.5),
                   cluster_points(empty, ClusterParams("optics", 0.5)),
                   hdbscan(empty)):
        assert result.cluster_count == 0
        assert result.assignment.dtype == np.int64 and len(result.assignment) == 0


def test_oracle_equivalence_100_seeds():
    cases = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 101))
        points = rng.uniform(0, 1, size=(n, 8))
        eps = float(rng.uniform(0.2, 0.9))
        cases.append((f"seed {seed}", points, eps))
    for i, (points, eps) in enumerate(exact_eps_cases()):
        cases.append((f"exact eps case {i}", points, eps))
    cases.append(("block edge case", *block_edge_case()))
    for name, points, eps in cases:
        # the shared kernel is the oracle's distance matrix, bit for bit
        assert np.array_equal(kernel_rows(points), distance_matrix(points)), name
        result = dbscan(points, eps)
        expected, count = dbscan_oracle(points, eps, MIN_PTS)
        assert result.cluster_count == count, name
        assert np.array_equal(result.assignment, expected), name


def test_determinism():
    rng = np.random.default_rng(9)
    points = rng.uniform(0, 1, size=(60, 8))
    a = dbscan(points, 0.5)
    b = dbscan(points, 0.5)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.cluster_count == b.cluster_count


def test_cluster_ids_dense_and_sized():
    # at MIN_PTS = 2 there are no border points, so every cluster holds
    # at least MIN_PTS members
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        points = rng.uniform(0, 1, size=(80, 8))
        result = dbscan(points, 0.45)
        ids = np.unique(result.assignment[result.assignment != NOISE])
        assert np.array_equal(ids, np.arange(result.cluster_count))
        for cid in ids:
            assert (result.assignment == cid).sum() >= 2


def test_dispatch_through_cluster_points():
    points = padded([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    params = ClusterParams(algorithm="dbscan", eps=0.2)
    result = cluster_points(points, params)
    assert np.array_equal(result.assignment, [0, 0, NOISE])


def test_tag_round_trips_the_paper_settings():
    settings = [(a, eps) for a in ("dbscan", "optics") for eps in (0.2, 0.5, 0.8)]
    settings.append(("hdbscan", None))  # takes no radius
    tags = [ClusterParams(a, 0.5 if eps is None else eps).tag() for a, eps in settings]
    assert tags == ["dbscan_eps0.2", "dbscan_eps0.5", "dbscan_eps0.8", "optics_eps0.2",
                    "optics_eps0.5", "optics_eps0.8", "hdbscan"]
    assert [parse_tag(tag) for tag in tags] == settings


def test_tag_keeps_every_digit_that_tells_eps_apart():
    for eps, tag in ((0.1234567, "dbscan_eps0.1234567"), (0.1234568, "dbscan_eps0.1234568"),
                     (1e-7, "dbscan_eps1e-07"), (0.1 + 0.2, "dbscan_eps0.30000000000000004"),
                     (2, "dbscan_eps2"), (np.float64(0.2), "dbscan_eps0.2")):
        assert ClusterParams("dbscan", eps).tag() == tag
        assert parse_tag(tag) == ("dbscan", eps)
        assert eps_text(eps) == tag.partition("_eps")[2]
