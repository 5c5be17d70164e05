from __future__ import annotations

import numpy as np
import pytest

from flowgraph.errors import LengthMismatch
from flowgraph.report import (
    EffectsRow,
    clustering_effects_table,
    population_series,
    run_filename,
    write_effects_csv,
    write_population_csv,
)


def labelled(index, labels):
    """The `(snapshot index, labels)` pair `cmd_report` keeps of a graph file."""
    return index, np.array(labels, dtype=np.int64)


def test_clustered_normal_above_normal_is_refused():
    with pytest.raises(ValueError, match="snapshot 4: clustered normal count 3 exceeds "
                                         "normal count 2"):
        population_series([labelled(4, [0, 0, 1])], [labelled(4, [0, 0, 0, 1])])


def test_series_counts_and_totals(tmp_path):
    g0 = labelled(0, [0, 0, 0, 0, 1])
    g1 = labelled(1, [0, 0, 1, 1])
    c0 = labelled(0, [0, 1])
    c1 = labelled(1, [0, 1, 1])
    rows = population_series([g0, g1], [c0, c1])
    assert [(r.snapshot_index, r.normal_count, r.attack_count,
             r.clustered_normal_count) for r in rows] \
        == [(0, 4, 1, 1), (1, 2, 2, 1)]
    path = tmp_path / "series.csv"
    write_population_csv(path, rows)
    assert path.read_text().splitlines()[-2:] == ["total,6,3,2", "mean,3.0,1.5,1.0"]


def test_series_sorted_by_index():
    g0, g1 = labelled(0, [0, 0]), labelled(1, [0, 0, 1])
    c0, c1 = labelled(0, [0]), labelled(1, [0, 1])
    rows = population_series([g1, g0], [c1, c0])
    assert [r.snapshot_index for r in rows] == [0, 1]


def test_empty_series(tmp_path):
    assert population_series([], []) == []
    path = tmp_path / "series.csv"
    write_population_csv(path, [])
    assert path.read_text().splitlines() == [
        "snapshot,normal_count,attack_count,clustered_normal_count", "total,0,0,0"]


def test_length_and_pairing_mismatch():
    g0, c0 = labelled(0, [0, 0]), labelled(0, [0])
    with pytest.raises(LengthMismatch):
        population_series([g0], [])
    c1 = labelled(1, [0])
    with pytest.raises(LengthMismatch):
        population_series([g0, g0], [c0, c1])


def test_population_csv(tmp_path):
    path = tmp_path / "series.csv"
    write_population_csv(path, population_series([labelled(0, [0, 0, 1])],
                                                 [labelled(0, [0, 1])]))
    lines = path.read_text().splitlines()
    assert lines[0] == "snapshot,normal_count,attack_count,clustered_normal_count"
    assert lines[1] == "0,2,1,1"
    assert lines[2] == "total,2,1,1"
    assert lines[3] == "mean,2.0,1.0,1.0"


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


def test_effects_table_counts_labels():
    coarse = [np.array([0, 1]), np.array([0, 1, 1])]
    fine = [np.array([1]), np.array([1, 1])]
    rows = clustering_effects_table([
        ("dbscan", 0.5, coarse),
        ("dbscan", 0.2, fine),
        ("hdbscan", None, []),
    ])
    assert [(r.method, r.eps, r.clustered_normal_total, r.attack_total) for r in rows] \
        == [("dbscan", 0.5, 2, 3), ("dbscan", 0.2, 0, 3), ("hdbscan", None, 0, 0)]


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
