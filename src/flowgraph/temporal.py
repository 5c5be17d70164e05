"""Temporal dissection of a flow table into fixed-width snapshots.

Windows are half-open [k*width, (k+1)*width); a flow belongs to the
window of its start time even if its duration crosses the boundary.
Empty windows are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveWidth
from .flow_model import FlowTable


@dataclass(frozen=True)
class SnapshotIndex:
    """One temporal window: index k covers [k*width, (k+1)*width)."""

    index: int
    window_start: float
    window_end: float

    @classmethod
    def for_width(cls, index: int, width: float) -> "SnapshotIndex":
        start = index * width
        return cls(index=index, window_start=start, window_end=start + width)


def check_width(width: float) -> None:
    """Raise NonPositiveWidth unless the snapshot width is finite and > 0."""
    if not 0 < width < np.inf:
        raise NonPositiveWidth(f"snapshot width must be finite and > 0, got {width}")


def dissect(flows: FlowTable, width: float) -> dict[SnapshotIndex, FlowTable]:
    """Assign each flow to its snapshot by floor(start_time / width).

    Returns a mapping ordered by snapshot index; within a snapshot the
    input order is preserved. Snapshots with no flows are omitted.
    Raises NonPositiveWidth unless every start time is under 2**52 widths.
    """
    check_width(width)
    last = float(flows.start_time.max()) if len(flows) else 0.0
    # past 2**52 widths from 0, adjacent window bounds can round to one float
    if last / width >= 2 ** 52:
        raise NonPositiveWidth(f"snapshot width {width} is too small for flows that start "
                               f"up to {last} s: their window index would reach 2**52")
    keys = np.floor(flows.start_time / width).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    indexes, firsts = np.unique(keys[order], return_index=True)
    bounds = np.append(firsts, len(order))
    return {
        SnapshotIndex.for_width(k, width): flows.take(order[lo:hi])
        for k, lo, hi in zip(indexes.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
    }
