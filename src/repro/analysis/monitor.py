"""Online SLA compliance monitoring.

An operator doesn't just want end-of-day compliance; they want to know
*when* the guaranteed class started missing its bound and whether the
system recovered.  :class:`ComplianceMonitor` consumes completion events
(arrival, response time) and maintains per-window compliance over fixed
time buckets, flagging windows that fall below a target fraction.

Used by the failure-injection tests to show the shaped system's
violations are confined to the injected brownout windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError
from ..units import met_deadline


@dataclass(frozen=True)
class WindowCompliance:
    """Compliance of one monitoring window."""

    start: float
    end: float
    total: int
    within: int

    @property
    def fraction(self) -> float:
        return self.within / self.total if self.total else 1.0


class ComplianceMonitor:
    """Windowed deadline-compliance tracking.

    Parameters
    ----------
    delta:
        Response-time bound being monitored.
    target:
        Fraction of requests per window that must meet ``delta``.
    window:
        Bucket width in seconds (completions are bucketed by *arrival*
        time, so a slow drain is attributed to the burst that caused it).
    """

    def __init__(self, delta: float, target: float, window: float = 1.0):
        if delta <= 0 or window <= 0:
            raise ConfigurationError("delta and window must be positive")
        if not 0.0 < target <= 1.0:
            raise ConfigurationError(f"target must be in (0, 1], got {target}")
        self.delta = delta
        self.target = target
        self.window = window
        self._totals: dict[int, int] = {}
        self._within: dict[int, int] = {}

    def record(self, arrival: float, response_time: float) -> None:
        index = int(arrival / self.window)
        self._totals[index] = self._totals.get(index, 0) + 1
        if met_deadline(response_time, self.delta):
            self._within[index] = self._within.get(index, 0) + 1

    def record_requests(self, requests) -> None:
        """Bulk-record completed :class:`~repro.core.request.Request`s."""
        for request in requests:
            self.record(request.arrival, request.response_time)

    def windows(self) -> list[WindowCompliance]:
        """Per-window compliance, dense from the first to last bucket."""
        if not self._totals:
            return []
        lo, hi = min(self._totals), max(self._totals)
        return [
            WindowCompliance(
                start=i * self.window,
                end=(i + 1) * self.window,
                total=self._totals.get(i, 0),
                within=self._within.get(i, 0),
            )
            for i in range(lo, hi + 1)
        ]

    def violations(self) -> list[WindowCompliance]:
        """Windows whose compliance fell below the target."""
        return [
            w for w in self.windows() if w.total > 0 and w.fraction < self.target
        ]

    @property
    def overall_fraction(self) -> float:
        total = sum(self._totals.values())
        within = sum(self._within.values())
        return within / total if total else 1.0

    def availability(self) -> float:
        """Fraction of non-empty windows meeting the target (an SLO-style
        'good minutes over total minutes' measure)."""
        active = [w for w in self.windows() if w.total > 0]
        if not active:
            return 1.0
        good = sum(1 for w in active if w.fraction >= self.target)
        return good / len(active)
