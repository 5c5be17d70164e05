from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from flowgraph.behavior_graph import build_graph
from flowgraph.errors import MalformedRow, MissingColumn
from flowgraph.flow_model import EntityId, entity, parse_flows, write_flows
from flowgraph.synth import SynthConfig, generate
from oracles import FlowRecord, from_records, table_records

SYNTH_HEADER = ("src_ip,src_port,dst_ip,dst_port,start_time,duration,"
                "bytes_fwd,bytes_bwd,packets,label\n")
UNSW_HEADER = ("srcip,sport,dstip,dsport,stime,dur,sbytes,dbytes,"
               "spkts,dpkts,label\n")


def flow(src_port=5000, dst_port=80, start=0.0, label=0):
    return FlowRecord(
        src=EntityId("10.0.0.1", src_port),
        dst=EntityId("10.0.0.2", dst_port),
        start_time=start, duration=1.0,
        bytes_src_to_dst=100, bytes_dst_to_src=200,
        packets_total=10, label=label,
    )


def test_entity_validation():
    EntityId("10.0.0.1", 0)
    EntityId("::1", 65535)
    with pytest.raises(ValueError):
        EntityId("10.0.0.1", 65536)
    with pytest.raises(ValueError):
        EntityId("10.0.0.1", -1)
    with pytest.raises(ValueError):
        EntityId("not-an-ip", 80)
    # readers and the parser share one validated EntityId per text;
    # a refused text is refused again, not cached
    assert entity("10.0.0.1", "80") is entity("10.0.0.1", "80") == EntityId("10.0.0.1", 80)
    for _ in range(2):
        with pytest.raises(ValueError):
            entity("not-an-ip", "80")
        with pytest.raises(ValueError):
            entity("10.0.0.1", "0x50")
    # ports are ASCII decimal: the whitespace int() strips is all it takes beyond digits
    assert entity("10.0.0.1", " 80\t") == EntityId("10.0.0.1", 80)
    for port in ("8_0", "+80", "080", "٨٠", ""):
        with pytest.raises(ValueError, match="ASCII decimal"):
            entity("10.0.0.1", port)


def test_ipv6_spellings_of_one_address_are_one_entity(tmp_path):
    assert EntityId("2001:DB8:0:0:0:0:0:1", 80).ip == "2001:db8::1"
    assert entity("2001:0db8::0001", "80") == EntityId("2001:db8::1", 80)
    path = tmp_path / "v6.csv"
    path.write_text(SYNTH_HEADER
                    + "2001:db8::1,80,10.0.0.2,443,0.0,1.0,100,200,10,0\n"
                    + "2001:DB8:0:0:0:0:0:1,80,10.0.0.2,443,1.0,1.0,100,200,10,0\n")
    graph = build_graph(parse_flows(path).records)
    assert graph.nodes == [EntityId("2001:db8::1", 80), EntityId("10.0.0.2", 443)]
    assert graph.features[1, 0] == 1  # f1, in-degree: one distinct predecessor
    assert graph.edges.tolist() == [[0, 1, 2]]


def test_parse_empty_file_with_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(SYNTH_HEADER)
    result = parse_flows(path)
    assert table_records(result.records) == []
    assert result.skipped_rows == 0


def test_parse_single_synthetic_row(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text(SYNTH_HEADER + "10.0.0.1,5000,10.0.0.2,80,12.5,1.0,100,200,10,0\n")
    result = parse_flows(path)
    assert len(result.records) == 1
    r = table_records(result.records)[0]
    assert r.src == EntityId("10.0.0.1", 5000)
    assert r.dst == EntityId("10.0.0.2", 80)
    assert r.start_time == 0.0  # rebased: the only row defines t0
    assert r.duration == 1.0
    assert (r.bytes_src_to_dst, r.bytes_dst_to_src) == (100, 200)
    assert r.packets_total == 10
    assert r.label == 0


def test_padded_and_exponent_numbers_still_parse(tmp_path):
    """Padding and the exponent form repr writes still parse; BAD_FIELDS holds the refusals."""
    path = tmp_path / "numbers.csv"
    path.write_text(SYNTH_HEADER + "".join(f"10.0.0.1,5000,10.0.0.2,80,0.0,{dur},{n},200,10,0\n"
                                           for dur, n in ((" 12.5 ", " 100 "), ("1e-05", "7"))))
    records = parse_flows(path).records
    assert records.duration.tolist() == [12.5, 1e-05]
    assert records.bytes_src_to_dst.tolist() == [100, 7]


def test_skip_policy_counts_bad_rows(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        SYNTH_HEADER
        + "10.0.0.1,5000,10.0.0.2,80,0.0,1.0,100,200,10,0\n"
        + "10.0.0.1,70000,10.0.0.2,80,1.0,1.0,100,200,10,0\n"
        + "10.0.0.1,5001,10.0.0.2,80,2.0,1.0,100,200,10,1\n"
    )
    result = parse_flows(path, on_malformed="skip")
    assert len(result.records) == 2
    assert result.skipped_rows == 1
    assert [r.label for r in table_records(result.records)] == [0, 1]


def test_abort_policy_reports_row_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        SYNTH_HEADER
        + "10.0.0.1,5000,10.0.0.2,80,0.0,1.0,100,200,10,0\n"
        + "10.0.0.1,5000,10.0.0.2,80,0.0,1.0,100,200,10,7\n"
    )
    with pytest.raises(MalformedRow) as err:
        parse_flows(path)
    assert err.value.row_index == 2


def test_missing_column_and_empty_file(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("src_ip,src_port\n")
    with pytest.raises(MissingColumn):
        parse_flows(path)
    empty = tmp_path / "nothing.csv"
    empty.write_text("")
    with pytest.raises(MissingColumn):
        parse_flows(empty)


def test_schema_comes_from_the_header(tmp_path):
    fields = "10.0.0.1,5000,10.0.0.2,80,12.5,1.0,100,200,"
    synthetic, unsw = tmp_path / "synthetic.csv", tmp_path / "unsw.csv"
    synthetic.write_text(SYNTH_HEADER + fields + "10,1\n")
    unsw.write_text(UNSW_HEADER + fields + "4,6,1\n")
    assert table_records(parse_flows(synthetic).records) \
        == table_records(parse_flows(unsw).records)
    # every column of neither schema (one unsw15 column short), or of both
    neither = tmp_path / "neither.csv"
    neither.write_text(UNSW_HEADER.replace("dpkts,", "") + fields + "10,1\n")
    both = tmp_path / "both.csv"
    both.write_text(SYNTH_HEADER.rstrip("\n") + "," + UNSW_HEADER)
    for path, why in ((neither, "no schema; missing unsw15: dpkts; synthetic: src_ip"),
                      (both, "both schemas, unsw15 and synthetic")):
        with pytest.raises(MissingColumn,
                           match=f"^{re.escape(str(path))}: header names every column of {why}"):
            parse_flows(path)


def test_a_header_naming_a_schema_column_twice_is_refused(tmp_path):
    """Otherwise the last of the repeated columns would be read: here a label of 1."""
    path = tmp_path / "twice.csv"
    for repeat in (",label,label", ",Label, label"):
        path.write_text(SYNTH_HEADER.replace(",label", repeat)
                        + "10.0.0.1,5000,10.0.0.2,80,12.5,1.0,100,200,10,0,1\n")
        with pytest.raises(MissingColumn, match=f"^{re.escape(str(path))}: header names "
                                                f"column 'label' twice"):
            parse_flows(path)
    # a column outside the schema may repeat
    path.write_text(SYNTH_HEADER.replace(",label", ",label,note,note")
                    + "10.0.0.1,5000,10.0.0.2,80,12.5,1.0,100,200,10,1,a,b\n")
    assert parse_flows(path).records.label.tolist() == [1]


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    """Excel's "CSV UTF-8" export starts the file with a BOM, before the header's first name."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_flows(plain, generate(SynthConfig(duration=1800.0, n_normal_entities=10)))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    table, again = parse_flows(plain).records, parse_flows(marked).records
    for field in dataclasses.fields(table):
        assert np.array_equal(getattr(again, field.name), getattr(table, field.name)), field.name


def test_parameter_validation(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(SYNTH_HEADER)
    with pytest.raises(ValueError):
        parse_flows(path, on_malformed="ignore")


def test_rebasing_min_is_zero(tmp_path):
    path = tmp_path / "late.csv"
    rows = [f"10.0.0.1,5000,10.0.0.2,80,{t},1.0,100,200,10,0\n"
            for t in (5000.5, 5600.0, 9999.25)]
    path.write_text(SYNTH_HEADER + "".join(rows))
    records = table_records(parse_flows(path).records)
    assert min(r.start_time for r in records) == 0.0
    assert [r.start_time for r in records] == [0.0, 599.5, 4998.75]


def test_round_trip(tmp_path):
    records = [flow(start=0.0), flow(start=12.25, label=1),
               flow(src_port=1, dst_port=65535, start=600.0)]
    path = tmp_path / "rt.csv"
    write_flows(path, from_records(records))
    reparsed = table_records(parse_flows(path).records)
    assert reparsed == records


def test_unsw_schema(tmp_path):
    path = tmp_path / "unsw.csv"
    # extra columns are ignored; per-direction packets are summed
    path.write_text(
        "srcip,sport,dstip,dsport,proto,stime,dur,sbytes,dbytes,spkts,dpkts,label\n"
        "59.166.0.0,1390,149.171.126.6,53,udp,1421927414.0,0.001,132,164,2,3,0\n"
    )
    records = table_records(parse_flows(path).records)
    assert len(records) == 1
    assert records[0].packets_total == 5
    assert records[0].src == EntityId("59.166.0.0", 1390)
    assert records[0].start_time == 0.0


def test_unsw_hex_port_is_malformed(tmp_path):
    path = tmp_path / "hex.csv"
    path.write_text(
        UNSW_HEADER
        + "59.166.0.0,0x20205321,149.171.126.6,53,1.0,0.001,132,164,2,3,0\n"
    )
    with pytest.raises(MalformedRow):
        parse_flows(path)
    assert parse_flows(path, on_malformed="skip").skipped_rows == 1
