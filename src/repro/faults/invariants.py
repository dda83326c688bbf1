"""Conservation invariant: no request is created or destroyed twice.

Every request injected into a faulty system must end in **exactly one**
terminal state: completed, dropped (retry budget exhausted or lost in a
crash), or shed (load-shedding by the adaptive controller).  Crashes,
aborts, retries, demotions and failovers may move a request between
queues any number of times, but the ledger must balance — a request
that vanishes silently (leaked by a cancelled completion event) or is
counted twice (completed *and* retried) is a bug in the fault plane,
not a measurement.

:func:`check_conservation` audits a finished run by object identity and
returns a :class:`ConservationReport`; the chaos harness raises on any
violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.request import Request
from ..exceptions import SimulationError


@dataclass(frozen=True)
class ConservationReport:
    """Audit result for one run's request ledger."""

    injected: int
    completed: int
    dropped: int
    shed: int
    #: Requests appearing in more than one terminal bucket.
    duplicated: tuple[int, ...] = field(default_factory=tuple)
    #: Injected requests appearing in no terminal bucket (leaked).
    missing: tuple[int, ...] = field(default_factory=tuple)
    #: Terminal requests that were never injected (fabricated).
    foreign: tuple[int, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not (self.duplicated or self.missing or self.foreign)

    def summary(self) -> str:
        line = (
            f"injected={self.injected} completed={self.completed} "
            f"dropped={self.dropped} shed={self.shed}"
        )
        if self.ok:
            return f"conservation OK: {line}"
        problems = []
        if self.duplicated:
            problems.append(f"duplicated={list(self.duplicated)}")
        if self.missing:
            problems.append(f"leaked={list(self.missing)}")
        if self.foreign:
            problems.append(f"foreign={list(self.foreign)}")
        return f"conservation VIOLATED: {line}; " + " ".join(problems)


def check_conservation(
    injected: Iterable[Request],
    completed: Iterable[Request],
    dropped: Iterable[Request] = (),
    shed: Iterable[Request] = (),
) -> ConservationReport:
    """Audit that every injected request reached exactly one terminal state.

    Identity-based (``id``), not index-based: retried requests keep their
    identity across requeues, and two requests may legally share an
    ``index`` across workloads.  A request still in a device window is
    in no bucket, so it is reported leaked.
    """
    injected = list(injected)
    buckets = {
        "completed": list(completed),
        "dropped": list(dropped),
        "shed": list(shed),
    }
    injected_ids = {id(r): r for r in injected}
    seen: dict[int, str] = {}
    duplicated: list[int] = []
    foreign: list[int] = []
    for bucket, requests in buckets.items():
        for request in requests:
            key = id(request)
            if key in seen:
                duplicated.append(request.index)
            seen[key] = bucket
            if key not in injected_ids:
                foreign.append(request.index)
    missing = [r.index for r in injected if id(r) not in seen]
    return ConservationReport(
        injected=len(injected),
        completed=len(buckets["completed"]),
        dropped=len(buckets["dropped"]),
        shed=len(buckets["shed"]),
        duplicated=tuple(sorted(duplicated)),
        missing=tuple(sorted(missing)),
        foreign=tuple(sorted(foreign)),
    )


def assert_conservation(
    injected: Iterable[Request],
    completed: Iterable[Request],
    dropped: Iterable[Request] = (),
    shed: Iterable[Request] = (),
) -> ConservationReport:
    """:func:`check_conservation`, raising ``SimulationError`` on violation."""
    report = check_conservation(injected, completed, dropped, shed)
    if not report.ok:
        raise SimulationError(report.summary())
    return report
