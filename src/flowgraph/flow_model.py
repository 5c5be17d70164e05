"""Flow-record data model and CSV parsing.

Two CSV schemas are understood:

* ``unsw15`` -- the column subset of the UNSW-NB15 flow files that this
  toolkit consumes: srcip, sport, dstip, dsport, stime, dur, sbytes,
  dbytes, spkts, dpkts, label. Extra columns are ignored. The file must
  carry a header row naming these columns.
* ``synthetic`` -- this repo's canonical interchange format: src_ip,
  src_port, dst_ip, dst_port, start_time, duration, bytes_fwd,
  bytes_bwd, packets, label.

Timestamps are rebased on parse so that the earliest accepted record
starts at 0; downstream snapshot indexing is capture-relative.
"""

from __future__ import annotations

import csv
import ipaddress
from dataclasses import dataclass
from pathlib import Path

from .errors import MalformedRow, MissingColumn

SYNTHETIC_COLUMNS = [
    "src_ip", "src_port", "dst_ip", "dst_port", "start_time",
    "duration", "bytes_fwd", "bytes_bwd", "packets", "label",
]

UNSW15_COLUMNS = [
    "srcip", "sport", "dstip", "dsport", "stime", "dur",
    "sbytes", "dbytes", "spkts", "dpkts", "label",
]

# parse_flows decodes both in this order: every column between the byte
# counts and the label is a packet count, and those are summed
SCHEMAS = {"unsw15": UNSW15_COLUMNS, "synthetic": SYNTHETIC_COLUMNS}


@dataclass(frozen=True)
class EntityId:
    """A behavioural entity: one (IP address, port) endpoint."""

    ip: str
    port: int

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")
        try:
            ipaddress.ip_address(self.ip)
        except ValueError:
            raise ValueError(f"not a valid IP address literal: {self.ip!r}") from None


@dataclass(frozen=True)
class FlowRecord:
    """One labeled communication between two entities.

    ``start_time`` is in seconds relative to the capture start,
    ``label`` is 0 for normal and 1 for attack traffic.
    """

    src: EntityId
    dst: EntityId
    start_time: float
    duration: float
    bytes_src_to_dst: int
    bytes_dst_to_src: int
    packets_total: int
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if not self.start_time >= 0:
            raise ValueError(f"start_time must be >= 0, got {self.start_time}")
        if not self.duration >= 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        for name in ("bytes_src_to_dst", "bytes_dst_to_src", "packets_total"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class ParseResult:
    """Accepted records in file order plus the skipped-row counter."""

    records: list[FlowRecord]
    skipped_rows: int = 0


def _parse_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"negative count: {value}")
    return value


def _parse_seconds(text: str) -> float:
    value = float(text)
    # rejects NaN (comparison is False) and negatives; inf rejected below
    if not value >= 0 or value == float("inf"):
        raise ValueError(f"seconds value must be finite and >= 0: {text!r}")
    return value


def parse_flows(path: str | Path, schema: str = "synthetic",
                on_malformed: str = "abort") -> ParseResult:
    """Parse a flow CSV into validated records.

    Args:
        path: CSV file with a header row, comma separated, UTF-8.
        schema: "unsw15" or "synthetic".
        on_malformed: "abort" raises MalformedRow on the first bad row;
            "skip" drops bad rows and counts them.

    Returns:
        ParseResult with records in file order, start times rebased so
        the minimum observed start time maps to 0.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}; expected one of {sorted(SCHEMAS)}")
    if on_malformed not in ("abort", "skip"):
        raise ValueError(f"on_malformed must be 'abort' or 'skip', got {on_malformed!r}")
    columns = SCHEMAS[schema]

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: empty file, no header row") from None
        lookup = {name.strip().lower(): i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in lookup]
        if missing:
            raise MissingColumn(
                f"{path}: header does not match the {schema!r} schema, "
                f"missing column(s): {', '.join(missing)}"
            )
        idx = [lookup[c] for c in columns]

        raw: list[tuple] = []
        skipped = 0
        for row_index, row in enumerate(reader, start=1):
            try:
                fields = [row[i] for i in idx]
                # Entity identity must be exact: int() rejects hex ports and "-"
                # placeholders rather than guessing; EntityId checks the range.
                raw.append((
                    EntityId(fields[0].strip(), int(fields[1])),
                    EntityId(fields[2].strip(), int(fields[3])),
                    _parse_seconds(fields[4]),
                    _parse_seconds(fields[5]),
                    _parse_count(fields[6]),
                    _parse_count(fields[7]),
                    sum(map(_parse_count, fields[8:-1])),
                    _parse_label(fields[-1]),
                ))
            except (ValueError, IndexError) as exc:
                if on_malformed == "abort":
                    raise MalformedRow(row_index, str(exc)) from None
                skipped += 1

    if not raw:
        return ParseResult([], skipped)

    t0 = min(r[2] for r in raw)
    records = [
        FlowRecord(src, dst, start - t0, dur, b_fwd, b_bwd, pkts, label)
        for (src, dst, start, dur, b_fwd, b_bwd, pkts, label) in raw
    ]
    return ParseResult(records, skipped)


def _parse_label(text: str) -> int:
    label = int(text)
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return label


def write_flows(path: str | Path, records: list[FlowRecord]) -> None:
    """Write records as synthetic-schema CSV (round-trips with parse_flows)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SYNTHETIC_COLUMNS)
        for r in records:
            writer.writerow([
                r.src.ip, r.src.port, r.dst.ip, r.dst.port,
                repr(float(r.start_time)), repr(float(r.duration)),
                r.bytes_src_to_dst, r.bytes_dst_to_src,
                r.packets_total, r.label,
            ])
