from __future__ import annotations

import numpy as np
import pytest

from flowgraph.density_cluster import (
    ClusterResult,
    NOISE,
    aggregate,
)
from flowgraph.errors import LengthMismatch
from flowgraph.report import (
    EffectsRow,
    PopulationRow,
    clustering_effects_table,
    population_series,
    run_filename,
    run_totals,
    series_totals,
    write_effects_csv,
    write_population_csv,
)
from oracles import graph_from


def snapshot_graph(index, labels):
    return graph_from(np.zeros((len(labels), 8)), labels, index=index)


def clustered(graph, assignment, cluster_count):
    result = ClusterResult(assignment=np.asarray(assignment), cluster_count=cluster_count)
    return aggregate(graph, result)


def test_population_row_validation():
    with pytest.raises(ValueError):
        PopulationRow(snapshot_index=0, normal_count=2, attack_count=0,
                      clustered_normal_count=3)
    with pytest.raises(ValueError):
        PopulationRow(snapshot_index=0, normal_count=-1, attack_count=0,
                      clustered_normal_count=0)


def test_series_counts_and_totals():
    g0 = snapshot_graph(0, [0, 0, 0, 0, 1])
    g1 = snapshot_graph(1, [0, 0, 1, 1])
    c0 = clustered(g0, [0, 0, 0, NOISE], 1)
    c1 = clustered(g1, [0, 0], 1)
    rows = population_series([g0, g1], [c0, c1])
    assert [(r.snapshot_index, r.normal_count, r.attack_count,
             r.clustered_normal_count) for r in rows] \
        == [(0, 4, 1, 1), (1, 2, 2, 1)]
    assert series_totals(rows) == (6, 3, 2)


def test_series_sorted_by_index():
    g0, g1 = snapshot_graph(0, [0, 0]), snapshot_graph(1, [0, 0, 1])
    c0, c1 = clustered(g0, [0, 0], 1), clustered(g1, [0, 0], 1)
    rows = population_series([g1, g0], [c1, c0])
    assert [r.snapshot_index for r in rows] == [0, 1]


def test_empty_series():
    assert population_series([], []) == []
    assert series_totals([]) == (0, 0, 0)


def test_length_and_pairing_mismatch():
    g0 = snapshot_graph(0, [0, 0])
    c0 = clustered(g0, [0, 0], 1)
    with pytest.raises(LengthMismatch):
        population_series([g0], [])
    g1 = snapshot_graph(1, [0, 0])
    c1 = clustered(g1, [0, 0], 1)
    with pytest.raises(LengthMismatch):
        population_series([g0, g0], [c0, c1])


def test_population_csv(tmp_path):
    g0 = snapshot_graph(0, [0, 0, 1])
    c0 = clustered(g0, [0, 0], 1)
    path = tmp_path / "series.csv"
    write_population_csv(path, population_series([g0], [c0]))
    lines = path.read_text().splitlines()
    assert lines[0] == "snapshot,normal_count,attack_count,clustered_normal_count"
    assert lines[1] == "0,2,1,1"
    assert lines[2] == "total,2,1,1"
    assert lines[3].startswith("mean,")


def test_effects_share_percent():
    row = EffectsRow(method="optics", eps=0.8,
                     clustered_normal_total=479938, attack_total=80174)
    assert row.share_percent == 85.69
    identity = EffectsRow(method="dbscan", eps=0.5,
                          clustered_normal_total=100, attack_total=0)
    assert identity.share_percent == 100.0
    empty = EffectsRow(method="dbscan", eps=0.5,
                       clustered_normal_total=0, attack_total=0)
    assert empty.share_percent == 0.0


def test_run_totals_and_table():
    g0 = snapshot_graph(0, [0, 0, 0, 1])
    g1 = snapshot_graph(1, [0, 0, 1, 1])
    coarse = [clustered(g0, [0, 0, 0], 1), clustered(g1, [0, 0], 1)]
    fine = [clustered(g0, [0, 0, NOISE], 1), clustered(g1, [NOISE, NOISE], 0)]
    assert run_totals(coarse) == (2, 3)
    assert run_totals(fine) == (1, 3)

    rows = clustering_effects_table([
        ("dbscan", 0.5, coarse),
        ("dbscan", 0.2, fine),
    ])
    # attack totals are invariant across rows of the same dataset
    assert len({r.attack_total for r in rows}) == 1
    assert rows[0].clustered_normal_total >= rows[1].clustered_normal_total


def test_effects_csv_recomputes(tmp_path):
    rows = [EffectsRow("dbscan", 0.2, 141935, 80174),
            EffectsRow("hdbscan", None, 176645, 80174)]
    path = tmp_path / "effects.csv"
    write_effects_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,eps,clustered_normal_total,attack_total,share_percent"
    for line, row in zip(lines[1:], rows):
        method, eps, cn, at, share = line.split(",")
        assert (int(cn), int(at)) == (row.clustered_normal_total, row.attack_total)
        recomputed = round(100.0 * int(cn) / (int(cn) + int(at)), 2)
        assert float(share) == recomputed
    assert lines[2].startswith("hdbscan,,")


def test_run_filename():
    assert run_filename("unsw", "dbscan", 0.2) == "unsw_dbscan_0.2.csv"
    assert run_filename("synthetic", "hdbscan", None) == "synthetic_hdbscan_na.csv"
    assert run_filename("x", "optics", 0.5) == "x_optics_0.5.csv"
