"""SPC trace format: the UMass repository's WebSearch / Financial traces.

The Storage Performance Council format used by the UMass Trace Repository
is a plain ASCII CSV with one I/O per line::

    ASU,LBA,Size,Opcode,Timestamp[,optional fields...]

* ``ASU`` — application-specific unit (integer device id),
* ``LBA`` — logical block address (integer),
* ``Size`` — bytes (integer),
* ``Opcode`` — ``r``/``R`` or ``w``/``W``,
* ``Timestamp`` — seconds from trace start (float).

This module reads and writes that exact format, so the published
WebSearch1-3 / Financial1-2 traces drop straight into the experiments
when available; the synthetic library stands in when they are not.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from ..core.request import IOKind
from ..core.workload import Workload
from ..exceptions import TraceFormatError
from .formats import TraceRecord, records_to_workload


def parse_line(line: str, line_number: int | None = None) -> TraceRecord:
    """Parse one SPC line into a :class:`TraceRecord`."""
    parts = line.strip().split(",")
    if len(parts) < 5:
        raise TraceFormatError(
            f"expected >=5 comma-separated fields, got {len(parts)}: {line!r}",
            line_number=line_number,
        )
    try:
        return TraceRecord(
            unit=int(parts[0]),
            lba=int(parts[1]),
            size=int(parts[2]),
            kind=IOKind.parse(parts[3]),
            timestamp=float(parts[4]),
        )
    except (ValueError, TraceFormatError) as exc:
        raise TraceFormatError(str(exc), line_number=line_number) from exc


def iter_records(
    source: str | Path | TextIO,
    units: set[int] | None = None,
) -> Iterator[TraceRecord]:
    """Stream records from an SPC file, optionally filtered by ASU."""
    if isinstance(source, (str, Path)):
        handle: TextIO = open(source, "r", encoding="ascii")
        owns = True
    else:
        handle = source
        owns = False
    try:
        for n, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = parse_line(line, line_number=n)
            if units is None or record.unit in units:
                yield record
    finally:
        if owns:
            handle.close()


def read_workload(
    source: str | Path | TextIO,
    name: str = "spc",
    units: set[int] | None = None,
    max_records: int | None = None,
) -> Workload:
    """Load an SPC trace as a :class:`Workload` (sorted by timestamp).

    SPC files are normally timestamp-ordered already; out-of-order lines
    (some published traces have jitter) are tolerated by sorting.
    """
    records = []
    for record in iter_records(source, units=units):
        records.append(record)
        if max_records is not None and len(records) >= max_records:
            break
    records.sort(key=lambda r: r.timestamp)
    return records_to_workload(records, name=name)


def write_records(records: Iterable[TraceRecord], target: str | Path | TextIO) -> int:
    """Write records in SPC format; returns the number written."""
    if isinstance(target, (str, Path)):
        handle: TextIO = open(target, "w", encoding="ascii")
        owns = True
    else:
        handle = target
        owns = False
    count = 0
    try:
        for r in records:
            handle.write(
                f"{r.unit},{r.lba},{r.size},{r.kind.value.lower()},{r.timestamp:.6f}\n"
            )
            count += 1
    finally:
        if owns:
            handle.close()
    return count


def workload_to_records(
    workload: Workload,
    size: int = 4096,
    unit: int = 0,
) -> list[TraceRecord]:
    """Materialize synthetic SPC records for a workload (round-tripping)."""
    return [
        TraceRecord(timestamp=float(t), lba=i * (size // 512), size=size,
                    kind=IOKind.READ, unit=unit)
        for i, t in enumerate(workload.arrivals)
    ]


def dumps(records: Iterable[TraceRecord]) -> str:
    """Records as an SPC-format string (tests / examples)."""
    buffer = io.StringIO()
    write_records(records, buffer)
    return buffer.getvalue()
