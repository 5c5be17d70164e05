"""Property tests: the columnar flow path against per-flow oracles.

Random flow sets over a small entity pool (so pairs repeat and
self-loops occur), with start times placed exactly on window
boundaries, go through `oracles.from_records`, `dissect` and
`build_graph`. Every graph must equal what the brute-force
`extract_features` and `flow_tallies` oracles give for the same
window, exactly and in first-appearance node and edge order. CSV text
with malformed rows in both schemas checks that `parse_flows` skips
and counts the same rows the per-row rules refuse.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowgraph.behavior_graph import build_graph
from flowgraph.errors import MalformedRow
from flowgraph.flow_model import EntityId, parse_flows, write_flows
from flowgraph.temporal import dissect
from oracles import (FlowRecord, extract_features, flow_tallies, from_records, majority_label,
                     table_records)

# bounded so that tier-1 stays fast and runs the same examples every time
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

WIDTH = 600.0
# two entities share a port, so distinct ports and distinct peers differ
ENTITIES = [EntityId("10.0.0.1", 80), EntityId("10.0.0.2", 80), EntityId("10.0.0.3", 443),
            EntityId("::1", 22), EntityId("192.168.1.7", 65535)]

start_times = st.one_of(
    st.integers(0, 5).map(lambda k: k * WIDTH),  # exactly on a window boundary
    st.floats(0.0, 6 * WIDTH, allow_nan=False),
)
flow_records = st.builds(
    FlowRecord,
    src=st.sampled_from(ENTITIES),
    dst=st.sampled_from(ENTITIES),
    start_time=start_times,
    duration=st.floats(0.0, 1e4, allow_nan=False),
    bytes_src_to_dst=st.integers(0, 1 << 40),
    bytes_dst_to_src=st.integers(0, 1 << 40),
    packets_total=st.integers(0, 1 << 20),
    label=st.integers(0, 1),
)
flow_lists = st.lists(flow_records, max_size=40)


def first_appearance(items) -> list:
    return list(dict.fromkeys(items))


def oracle_windows(flows: list[FlowRecord], width: float) -> dict[int, list[FlowRecord]]:
    """Flows by window index floor(start / width), in input order, empty windows omitted."""
    windows: dict[int, list[FlowRecord]] = {}
    for f in flows:
        windows.setdefault(math.floor(f.start_time / width), []).append(f)
    return dict(sorted(windows.items()))


@PROPERTY
@given(flow_lists)
def test_dissect_and_build_graph_match_the_oracles(flows):
    graphs = {s.index: build_graph(table, snapshot=s)
              for s, table in dissect(from_records(flows), WIDTH).items()}
    windows = oracle_windows(flows, WIDTH)
    assert list(graphs) == list(windows)
    for k, window in windows.items():
        graph = graphs[k]
        assert (graph.snapshot.window_start, graph.snapshot.window_end) == (k * WIDTH,
                                                                            k * WIDTH + WIDTH)
        ids = first_appearance(e for f in window for e in (f.src, f.dst))
        assert graph.entities == ids
        for e, label, row in zip(graph.entities, graph.labels, graph.features):
            assert np.array_equal(row, extract_features(e, window))
            assert label == majority_label(*flow_tallies(e, window))
        pairs = [(ids.index(f.src), ids.index(f.dst)) for f in window]
        assert graph.edges.tolist() == [[s, d, pairs.count((s, d))]
                                        for s, d in first_appearance(pairs)]


def test_empty_and_one_flow_tables():
    empty = from_records([])
    assert len(empty) == 0 and dissect(empty, WIDTH) == {}
    assert build_graph(empty).entities == [] and build_graph(empty).edges.tolist() == []

    one = FlowRecord(ENTITIES[0], ENTITIES[0], WIDTH, 2.5, 10, 20, 3, 1)
    (snapshot, table), = dissect(from_records([one]), WIDTH).items()
    assert snapshot.index == 1 and table_records(table) == [one]
    graph = build_graph(table, snapshot=snapshot)
    assert graph.edges.tolist() == [[0, 0, 1]]
    assert graph.features.tolist() == [[1, 1, 2, 30, 30, 6, 2.5, 1]]
    assert graph.labels.tolist() == [1]


@PROPERTY
@given(flow_lists, st.lists(st.integers(0, 39), max_size=10))
def test_take_selects_rows_over_the_same_entities(flows, positions):
    table = from_records(flows)
    idx = np.array([p for p in positions if p < len(flows)], dtype=np.int64)
    taken = table.take(idx)
    assert taken.entities is table.entities and taken.ports is table.ports
    assert table_records(taken) == [flows[i] for i in idx]


@PROPERTY
@given(flow_lists)
def test_from_records_round_trips_parse_flows(tmp_path_factory, flows):
    path = tmp_path_factory.mktemp("csv") / "flows.csv"
    write_flows(path, from_records(flows))
    parsed = parse_flows(path).records
    t0 = min((f.start_time for f in flows), default=0.0)
    rebased = [FlowRecord(f.src, f.dst, f.start_time - t0, f.duration, f.bytes_src_to_dst,
                          f.bytes_dst_to_src, f.packets_total, f.label) for f in flows]
    assert table_records(parsed) == rebased
    expected = from_records(rebased)
    assert parsed.entities == expected.entities
    for name in ("src", "dst", "start_time", "duration", "bytes_src_to_dst",
                 "bytes_dst_to_src", "packets_total", "label", "ports"):
        assert np.array_equal(getattr(parsed, name), getattr(expected, name)), name


# (synthetic row fields, why the row is refused); None marks a good row
BAD_FIELDS = [
    ({3: "70000"}, "port out of range"),
    ({1: "0x50"}, "hex port"),
    ({0: "10.0.0.256"}, "not an IP address"),
    ({4: "nan"}, "start time not a number"),
    ({4: "-1.0"}, "negative start time"),
    ({5: "-1.0"}, "negative duration"),
    ({5: "inf"}, "infinite duration"),
    ({6: "-5"}, "negative count"),
    ({7: str(1 << 63)}, "count beyond 64 bits"),
    ({9: "2"}, "label outside {0, 1}"),
    ({8: "1.5"}, "fractional packet count"),
]
GOOD = ["10.0.0.1", "5000", "10.0.0.2", "80", "12.5", "1.0", "100", "200", "10", "0"]
SYNTH_HEADER = ("src_ip,src_port,dst_ip,dst_port,start_time,duration,"
                "bytes_fwd,bytes_bwd,packets,label")
UNSW_HEADER = "srcip,sport,dstip,dsport,proto,stime,dur,sbytes,dbytes,spkts,dpkts,label"


def as_unsw(fields: list[str]) -> list[str]:
    """The unsw15 row of a synthetic row: a proto column and packets split in two."""
    spkts, dpkts = (str(int(fields[8]) - 1), "1") if fields[8].isdigit() else (fields[8], "0")
    return fields[:4] + ["tcp"] + fields[4:8] + [spkts, dpkts, fields[9]]


@PROPERTY
@given(st.lists(st.one_of(st.none(), st.integers(0, len(BAD_FIELDS) - 1),
                          st.just(-1)), max_size=12),
       st.sampled_from(["synthetic", "unsw15"]))
def test_malformed_rows_are_skipped_and_counted(tmp_path_factory, kinds, schema):
    """None is a good row, -1 a row with a field missing, i the i-th BAD_FIELDS row."""
    rows, good = [], []
    for number, kind in enumerate(kinds):
        fields = list(GOOD)
        fields[4] = repr(float(number))
        if kind is None:
            good.append(number)
        elif kind == -1:
            fields = fields[:-1]
        else:
            for at, value in BAD_FIELDS[kind][0].items():
                fields[at] = value
        if schema == "unsw15":
            fields = as_unsw(fields) if len(fields) == len(GOOD) else fields[:3]
        rows.append(",".join(fields))
    path = tmp_path_factory.mktemp("csv") / "flows.csv"
    path.write_text("\n".join([SYNTH_HEADER if schema == "synthetic" else UNSW_HEADER]
                              + rows) + "\n")

    result = parse_flows(path, schema=schema, on_malformed="skip")
    assert result.skipped_rows == len(kinds) - len(good)
    t0 = float(good[0]) if good else 0.0
    assert [r.start_time for r in table_records(result.records)] == [n - t0 for n in good]
    assert all(r.packets_total == 10 for r in table_records(result.records))

    first_bad = next((n for n, kind in enumerate(kinds) if kind is not None), None)
    if first_bad is None:
        assert len(parse_flows(path, schema=schema).records) == len(kinds)
    else:
        with pytest.raises(MalformedRow) as err:
            parse_flows(path, schema=schema)
        assert err.value.row_index == first_bad + 1
