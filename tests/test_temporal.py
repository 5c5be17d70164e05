from __future__ import annotations

import numpy as np
import pytest

from flowgraph.errors import NonPositiveWidth
from flowgraph.flow_model import EntityId
from flowgraph.temporal import SnapshotIndex, dissect
from oracles import FlowRecord, from_records, table_records


def flow(start: float, label: int = 0) -> FlowRecord:
    return FlowRecord(
        src=EntityId("10.0.0.1", 1000), dst=EntityId("10.0.0.2", 80),
        start_time=start, duration=0.5, bytes_src_to_dst=10,
        bytes_dst_to_src=20, packets_total=2, label=label,
    )


def test_half_open_boundaries():
    flows = [flow(0.0), flow(599.9), flow(600.0)]
    buckets = dissect(from_records(flows), 600.0)
    by_index = {s.index: table_records(fl) for s, fl in buckets.items()}
    assert sorted(by_index) == [0, 1]
    assert [f.start_time for f in by_index[0]] == [0.0, 599.9]
    assert [f.start_time for f in by_index[1]] == [600.0]


def test_empty_input():
    assert dissect(from_records([]), 600.0) == {}


def test_width_validation():
    for width in (0.0, -600.0, np.inf, np.nan):
        with pytest.raises(NonPositiveWidth):
            dissect(from_records([flow(0.0)]), width)


def test_width_too_small_for_the_capture_is_refused():
    # unrefused, 1e-17 would overflow the int64 index and 1e-16 would
    # give the empty window [700.0, 700.0) a flow
    flows = from_records([flow(0.0), flow(700.0)])
    for width in (1e-17, 1e-16, 700.0 / 2 ** 52):
        with pytest.raises(NonPositiveWidth, match=r"2\*\*52"):
            dissect(flows, width)
    width = np.nextafter(700.0 / 2 ** 52, 1.0)
    buckets = dissect(flows, width)
    assert [s.index for s in buckets] == [0, 2 ** 52 - 1]
    for snapshot, table in buckets.items():
        assert (snapshot.window_start <= table.start_time).all()
        assert (table.start_time < snapshot.window_end).all()


def test_snapshot_index_window():
    s = SnapshotIndex.for_width(7, 600.0)
    assert s.index == 7
    assert s.window_start == 4200.0
    assert s.window_end - s.window_start == 600.0
    assert int(s.window_start // 600.0) == s.index


def test_empty_windows_omitted():
    buckets = dissect(from_records([flow(0.0), flow(1250.0)]), 100.0)
    assert [s.index for s in buckets] == [0, 12]


def test_partition_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        flows = [flow(float(t), label=int(lab))
                 for t, lab in zip(rng.uniform(0, 5000, size=200),
                                   rng.integers(0, 2, size=200))]
        width = float(rng.uniform(50, 900))
        buckets = {s: table_records(fl)
                   for s, fl in dissect(from_records(flows), width).items()}
        scattered = [f for fl in buckets.values() for f in fl]
        # multiset equality: same records, each exactly once
        assert sorted(scattered, key=lambda f: (f.start_time, f.label)) \
            == sorted(flows, key=lambda f: (f.start_time, f.label))
        for snapshot, fl in buckets.items():
            for f in fl:
                assert snapshot.window_start <= f.start_time < snapshot.window_end
            # input order preserved inside a snapshot
            positions = [flows.index(f) for f in fl]
            assert positions == sorted(positions)


def test_keys_sorted_by_index():
    flows = [flow(2500.0), flow(100.0), flow(1200.0)]
    indexes = [s.index for s in dissect(from_records(flows), 600.0)]
    assert indexes == sorted(indexes)
