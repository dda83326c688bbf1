"""HP Labs-style text traces (the OpenMail family).

The HP Labs storage traces (Cello, OpenMail) ship in SRT containers whose
ASCII export is a whitespace-separated table.  We support the common
ASCII export shape::

    <timestamp> <device> <start_byte_or_lba> <size> <R|W>

* ``timestamp`` — seconds (float, absolute or relative),
* ``device`` — device/LU identifier (integer),
* ``start`` — byte offset or LBA (integer; treated as LBA),
* ``size`` — bytes (integer),
* ``R|W`` — direction.

Lines starting with ``#`` are comments.  Timestamps may be absolute; the
loader rebases to the first I/O.  This parser is intentionally liberal —
field count beyond 5 is allowed and ignored — because the various SRT
exporters disagree on trailing columns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, TextIO

from ..core.request import IOKind
from ..core.workload import Workload
from ..exceptions import TraceFormatError
from .formats import TraceRecord, records_to_workload


def parse_line(line: str, line_number: int | None = None) -> TraceRecord | None:
    """Parse one line; ``None`` for comments and blank lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) < 5:
        raise TraceFormatError(
            f"expected >=5 whitespace-separated fields, got {len(parts)}: {line!r}",
            line_number=line_number,
        )
    try:
        return TraceRecord(
            timestamp=float(parts[0]),
            unit=int(parts[1]),
            lba=int(parts[2]),
            size=int(parts[3]),
            kind=IOKind.parse(parts[4]),
        )
    except (ValueError, TraceFormatError) as exc:
        raise TraceFormatError(str(exc), line_number=line_number) from exc


def iter_records(source: str | Path | TextIO) -> Iterator[TraceRecord]:
    """Stream records from an HP-style ASCII trace."""
    if isinstance(source, (str, Path)):
        handle: TextIO = open(source, "r", encoding="ascii")
        owns = True
    else:
        handle = source
        owns = False
    try:
        for n, line in enumerate(handle, start=1):
            record = parse_line(line, line_number=n)
            if record is not None:
                yield record
    finally:
        if owns:
            handle.close()


def read_workload(
    source: str | Path | TextIO,
    name: str = "hpl",
    max_records: int | None = None,
) -> Workload:
    """Load an HP-style trace as a :class:`Workload` rebased to t=0."""
    records = []
    for record in iter_records(source):
        records.append(record)
        if max_records is not None and len(records) >= max_records:
            break
    records.sort(key=lambda r: r.timestamp)
    return records_to_workload(records, name=name, rebase=True)
