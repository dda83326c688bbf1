"""Common record type and helpers for on-disk trace formats.

Real block-level traces (UMass SPC, HP Labs) carry more than arrival
times: address, size, direction.  :class:`TraceRecord` is the common
denominator the parsers produce; :func:`records_to_workload` projects a
record stream onto the arrival-sequence view the shaping algorithms use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..core.request import IOKind
from ..core.workload import Workload
from ..exceptions import TraceFormatError


@dataclass(frozen=True)
class TraceRecord:
    """One I/O in a block-level trace."""

    timestamp: float  # seconds from trace start
    lba: int
    size: int  # bytes
    kind: IOKind
    unit: int = 0  # ASU / device id

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise TraceFormatError(f"non-finite timestamp {self.timestamp}")
        if self.timestamp < 0:
            raise TraceFormatError(f"negative timestamp {self.timestamp}")
        if self.size < 0:
            raise TraceFormatError(f"negative size {self.size}")


def records_to_workload(
    records: Iterable[TraceRecord],
    name: str = "trace",
    rebase: bool = True,
) -> Workload:
    """Project records onto their arrival sequence.

    Records must already be in non-decreasing timestamp order (block
    traces are logged in arrival order); ``rebase=True`` shifts the first
    arrival to time 0.
    """
    times = [r.timestamp for r in records]
    if not times:
        return Workload([], name=name)
    base = times[0] if rebase else 0.0
    if base < 0:  # pragma: no cover - TraceRecord already validates
        raise TraceFormatError("negative base timestamp")
    return Workload([t - base for t in times], name=name)


def validate_monotone(records: Iterable[TraceRecord]) -> Iterator[TraceRecord]:
    """Pass-through iterator enforcing non-decreasing timestamps."""
    last = -1.0
    for n, record in enumerate(records, start=1):
        if record.timestamp < last:
            raise TraceFormatError(
                f"timestamps not monotone: {record.timestamp} < {last}",
                line_number=n,
            )
        last = record.timestamp
        yield record
