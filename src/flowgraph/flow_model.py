"""Flow table data model and CSV parsing.

`parse_flows` reads a CSV in the one schema whose every column its
header names once (extra columns are ignored; a header naming every
column of neither schema, or of both, is refused):

* ``unsw15`` -- the column subset of the UNSW-NB15 flow files that this
  toolkit consumes: srcip, sport, dstip, dsport, stime, dur, sbytes,
  dbytes, spkts, dpkts, label.
* ``synthetic`` -- this repo's canonical interchange format: src_ip,
  src_port, dst_ip, dst_port, start_time, duration, bytes_fwd,
  bytes_bwd, packets, label.

Ports, labels, byte and packet counts are ASCII decimal texts (see
`decimal`); seconds are unsigned ASCII numbers. Timestamps are rebased
on parse so that the earliest accepted flow starts at 0; downstream
snapshot indexing is capture-relative.
"""

from __future__ import annotations

import csv
import functools
import ipaddress
import operator
import re
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
ON_MALFORMED = ("abort", "skip")  # what parse_flows does with a malformed row
# a canonical IPv4 octet; [0-9], since \d also matches non-ASCII digits
_OCTET = "(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD = re.compile(rf"(?:{_OCTET}\.){{3}}{_OCTET}")


@dataclass(frozen=True)
class EntityId:
    """A behavioural entity: one (IP address, port) endpoint.

    `ip` holds `ipaddress`'s canonical text, so `2001:DB8:0:0:0:0:0:1`
    and `2001:db8::1` name one entity. An IPv6 scope id (`fe80::1%eth0`)
    is refused: `ipaddress` takes any text after `%`, spaces and `;`
    too, which the artefact files split on.
    """

    ip: str
    port: int

    def __post_init__(self):
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")
        if _DOTTED_QUAD.fullmatch(self.ip):  # canonical IPv4 text, as ipaddress would keep it
            return
        try:
            address = ipaddress.ip_address(self.ip)
        except ValueError:
            raise ValueError(f"not a valid IP address literal: {self.ip!r}") from None
        if "%" in self.ip:
            raise ValueError(f"IP address with a scope id: {self.ip!r}")
        if (text := str(address)) != self.ip:  # a canonical text is kept, not copied
            object.__setattr__(self, "ip", text)


@functools.lru_cache(maxsize=1 << 16)
def entity(ip: str, port: str) -> EntityId:
    """The `EntityId` of an address and a port text, validated once per process.

    Readers and the parser take every entity from here, so a text seen
    in many files or rows is checked by `ipaddress` only the first time.
    `decimal` refuses hex ports and "-" placeholders rather than guessing.
    """
    return EntityId(ip, decimal(port))


def decimal(text: str) -> int:
    """A port or label text's value: digits 0-9, no leading zero, whitespace around allowed.

    `int()` alone would also take "+1", "0_1", "01" and non-ASCII digits such as "١".
    """
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and len(digits) > 1):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(digits)


def parse_label(text: str) -> int:
    """A flow or node label, 0 (normal) or 1 (attack), as `decimal` reads it."""
    if (label := decimal(text)) > 1:
        raise ValueError(f"label must be 0 or 1, got {label}")
    return label


@dataclass(eq=False)
class FlowTable:
    """Flows as columns: one row per flow, entities as codes into `entities`.

    `src` and `dst` index `entities`, which lists each endpoint once and
    is shared by every `take` of the table. `start_time` is in seconds
    relative to the capture start, `label` is 0 for normal and 1 for
    attack traffic.
    """

    entities: list[EntityId]
    src: np.ndarray  # int64
    dst: np.ndarray  # int64
    start_time: np.ndarray  # float64
    duration: np.ndarray  # float64
    bytes_src_to_dst: np.ndarray  # int64
    bytes_dst_to_src: np.ndarray  # int64
    packets_total: np.ndarray  # int64
    label: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.src)

    def take(self, idx) -> FlowTable:
        """The flows at positions `idx`, in that order, over the same entities."""
        return FlowTable(self.entities, **{name: getattr(self, name)[idx] for name in _COLUMNS})


# the per-flow columns of a FlowTable and their types
_COLUMNS = {"src": np.int64, "dst": np.int64, "start_time": np.float64,
            "duration": np.float64, "bytes_src_to_dst": np.int64,
            "bytes_dst_to_src": np.int64, "packets_total": np.int64, "label": np.int64}
_WRITE_ROWS = 1 << 14  # rows per block in write_flows


@dataclass
class ParseResult:
    """Accepted flows in file order plus the skipped-row counter."""

    records: FlowTable
    skipped_rows: int = 0


def _count(value: int) -> int:
    """A byte or packet count, or a sum of packet counts, as int64 stores it."""
    if value >= 1 << 63:
        raise ValueError(f"count does not fit in 64 bits: {value}")
    return value


def _parse_seconds(text: str) -> float:
    """An unsigned ASCII number of seconds; `float()` alone would take "+5", "1_2.5" and "٥"."""
    digits = text.strip()
    if not digits.isascii() or "_" in digits or digits[:1] in "+-":
        raise ValueError(f"not an unsigned ASCII number of seconds: {text!r}")
    value = float(digits)
    # rejects NaN (the comparison is False) and inf
    if not value >= 0 or value == float("inf"):
        raise ValueError(f"seconds value must be finite and >= 0: {text!r}")
    return value


def check_on_malformed(on_malformed: str) -> None:
    """Raise ValueError unless `on_malformed` is one of `ON_MALFORMED`."""
    if on_malformed not in ON_MALFORMED:
        raise ValueError(f"unknown on_malformed {on_malformed!r}, not one of {ON_MALFORMED}")


def parse_flows(path: str | Path, on_malformed: str = "abort") -> ParseResult:
    """Parse a flow CSV into a validated flow table.

    Args:
        path: UTF-8 CSV file (a leading BOM is dropped) with a header row,
            comma separated, in the schema whose every column the header names.
        on_malformed: "abort" raises MalformedRow on the first bad row;
            "skip" drops bad rows and counts them.

    Returns:
        ParseResult with flows in file order, start times rebased so
        the minimum observed start time maps to 0.

    Raises MissingColumn naming `path` for an empty file, a header
    naming every column of neither schema, or of both, or a header
    naming a column of its schema twice.
    """
    check_on_malformed(on_malformed)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: empty file, no header row") from None
        names = [name.strip().lower() for name in header]
        lookup = {name: i for i, name in enumerate(names)}
        missing = {name: [c for c in columns if c not in lookup]
                   for name, columns in SCHEMAS.items()}
        found = [name for name, absent in missing.items() if not absent]
        if len(found) != 1:
            detail = (f"both schemas, {' and '.join(found)}" if found else "no schema; missing "
                      + "; ".join(f"{name}: {', '.join(c)}" for name, c in missing.items()))
            raise MissingColumn(f"{path}: header names every column of {detail}")
        repeated = [c for c in SCHEMAS[found[0]] if names.count(c) > 1]
        if repeated:
            raise MissingColumn(f"{path}: header names column {repeated[0]!r} twice")
        idx = [lookup[c] for c in SCHEMAS[found[0]]]

        # entity code of each (ip, port) text; texts naming one entity
        # (" 10.0.0.1" and "10.0.0.1") share the code through `index`
        code_of: dict[tuple[str, str], int] = {}
        index: dict[EntityId, int] = {}

        def code(ip: str, port: str) -> int:
            found = code_of.get((ip, port))
            if found is None:
                found = index.setdefault(entity(ip.strip(), port), len(index))
                code_of[(ip, port)] = found
            return found

        pick = operator.itemgetter(*idx)
        columns = {name: array("d" if dtype is np.float64 else "q")
                   for name, dtype in _COLUMNS.items()}
        src, dst, start, duration, sent, received, packets, label = (
            column.append for column in columns.values())
        skipped = 0
        for row_index, row in enumerate(reader, start=1):
            try:
                fields = pick(row)
                s, d, t, dur, fwd, bwd, n_packets, lab = (
                    code(fields[0], fields[1]), code(fields[2], fields[3]),
                    _parse_seconds(fields[4]), _parse_seconds(fields[5]),
                    _count(decimal(fields[6])), _count(decimal(fields[7])),
                    _count(sum(map(decimal, fields[8:-1]))),
                    parse_label(fields[-1]))
            except (ValueError, IndexError) as exc:
                if on_malformed == "abort":
                    raise MalformedRow(row_index, str(exc)) from None
                skipped += 1
                continue
            src(s)
            dst(d)
            start(t)
            duration(dur)
            sent(fwd)
            received(bwd)
            packets(n_packets)
            label(lab)

    table = {name: np.frombuffer(column, dtype=_COLUMNS[name])
             for name, column in columns.items()}
    times = table["start_time"]
    table["start_time"] = times - times.min() if len(times) else times
    return ParseResult(FlowTable(list(index), **table), skipped)


def write_flows(path: str | Path, flows: FlowTable) -> None:
    """Write a flow table as synthetic-schema CSV (round-trips with parse_flows).

    No field needs CSV quoting: an address is `EntityId`'s canonical text
    and every other field a number.
    """
    ends = [f"{e.ip},{e.port}" for e in flows.entities]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SYNTHETIC_COLUMNS) + "\n")
        # a block of rows at a time, so that few Python objects are alive at once
        for lo in range(0, len(flows), _WRITE_ROWS):
            rows = zip(*(getattr(flows, name)[lo:lo + _WRITE_ROWS].tolist() for name in _COLUMNS))
            fh.write("".join(f"{ends[s]},{ends[d]},{t!r},{dur!r},{fwd},{bwd},{packets},{label}\n"
                             for s, d, t, dur, fwd, bwd, packets, label in rows))
