"""Earliest-deadline-first scheduling over the decomposed classes.

An additional recombiner beyond the paper's four: primary requests are
served in deadline order (which for uniform ``delta`` equals FCFS within
``Q1``), and overflow requests are served whenever no primary deadline is
at risk *according to the actual clock* — a time-based variant of Miser's
queue-slot slack.

EDF dispatches an overflow request at time ``t`` iff serving it (the
overflow head's demand at rate ``C``) still leaves every queued primary
request able to finish by its absolute deadline at rate ``C``:

    t + (w2 + W_k) / C <= d_k   for every queued primary position k

where ``w2`` is the overflow head's service demand and ``W_k`` the
cumulative demand of the primaries up to and including position ``k``
(unit demand everywhere reduces this to the seed-era
``t + (k + 2)/C <= d_k`` bit for bit).  Compared to Miser, this uses the
*live clock* rather than slack counters frozen at admission, so it can
exploit slack Miser forgets (a primary request that waited keeps its
absolute deadline, but Miser's stored slack never grows back).

Deadline ties are resolved with the admission tolerance
(:data:`repro.units.EPS`, in room units — multiplied by the service
time, ``EPS * service_time``, to land in seconds), matching the
admission kernels and the exact oracle.
"""

from __future__ import annotations

from collections import deque

from ..core.request import QoSClass, Request
from ..exceptions import ConfigurationError
from ..units import EPS
from .base import Scheduler
from .classifier import OnlineRTTClassifier


class EDFScheduler(Scheduler):
    """Deadline-aware two-class scheduler (clock-based slack)."""

    name = "edf"

    def __init__(self, classifier: OnlineRTTClassifier, service_rate: float):
        if service_rate <= 0:
            raise ConfigurationError(
                f"service_rate must be positive, got {service_rate}"
            )
        self.classifier = classifier
        self.service_time = 1.0 / service_rate
        # Kernel EPS is expressed in room units (work); one unit of work
        # takes service_time seconds, so the seconds-domain tolerance is
        # the product.
        self.tie_tolerance = EPS * self.service_time
        self._q1: deque[Request] = deque()
        self._q2: deque[Request] = deque()

    def on_arrival(self, request: Request) -> None:
        if self.classifier.classify(request) is QoSClass.PRIMARY:
            self._q1.append(request)  # uniform delta: FIFO == EDF
        else:
            self._q2.append(request)
        self._note_arrival(request)

    def _overflow_is_safe(self, now: float) -> bool:
        """Would serving the overflow head endanger any queued primary?

        Demand-aware: the deferral cost is the overflow head's own
        demand, and each primary's finish time accumulates the actual
        demands ahead of it.  At unit demand the cumulative sum is the
        exact integer ``position + 2``, so the arithmetic (and every
        deferral decision) is bit-identical to the unit-cost original.
        """
        cumulative = self._q2[0].service_demand if self._q2 else 1.0
        for request in self._q1:
            cumulative += request.service_demand
            finish_if_deferred = now + cumulative * self.service_time
            if finish_if_deferred > request.deadline + self.tie_tolerance:
                return False
        return True

    def select(self, now: float) -> Request | None:
        if self._q2 and (not self._q1 or self._overflow_is_safe(now)):
            if self._q1:
                self._m_slack_dispatches.inc()
            request = self._q2.popleft()
        elif self._q1:
            request = self._q1.popleft()
        elif self._q2:
            request = self._q2.popleft()
        else:
            return None
        self._note_dispatch(request)
        return request

    def on_completion(self, request: Request) -> None:
        self.classifier.on_completion(request)
        self._note_completion(request)

    def on_requeue(self, request: Request) -> None:
        self._q2.append(request)
        self._note_arrival(request)

    def shed_overflow(self, keep: int = 0) -> list[Request]:
        shed = []
        while len(self._q2) > keep:
            shed.append(self._q2.pop())
        return shed

    def pending(self) -> int:
        return len(self._q1) + len(self._q2)

    def class_backlog(self) -> dict[str, int]:
        return {"q1": len(self._q1), "q2": len(self._q2)}
