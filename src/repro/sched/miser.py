"""Miser: slack-based recombination scheduling (Algorithm 2).

Miser couples the two classes tightly: whenever every pending primary
request can still afford to give away a service slot (``minSlack >= 1``),
the next slot goes to the overflow queue — so overflow requests are
served *as early as possible* instead of waiting for the primary class to
drain (FairQueue) or for a dedicated server (Split).

The slack arithmetic follows Algorithm 2, with the O(n) "decrement every
queued request" replaced by the equivalent O(log n)
:class:`~repro.core.slack.SlackTracker`.  Slack is measured in *work
units*: admission slack reads the classifier's admitted work
(``maxQ1 - workQ1``), the overflow gate requires the head's own
``service_demand`` worth of slack, and an overflow dispatch decrements
every stored slack by that demand.  Unit-cost workloads collapse all of
this to the paper's integer slot arithmetic bit for bit.

Being online, RTT + Miser can in the worst case delay a few primary
requests beyond their deadline; the paper proves ``delta_C = Cmin`` makes
that impossible and observes that tiny ``delta_C`` suffices in practice —
both claims are covered in the test suite and benchmarks.
"""

from __future__ import annotations

import itertools
from collections import deque

from ..core.request import QoSClass, Request
from ..core.slack import SlackTracker, initial_slack
from ..units import EPS
from .base import Scheduler
from .classifier import OnlineRTTClassifier


class MiserScheduler(Scheduler):
    """Slack-gated two-class scheduler."""

    name = "miser"

    def __init__(self, classifier: OnlineRTTClassifier):
        self.classifier = classifier
        self._q1: deque[tuple[Request, int]] = deque()  # (request, slack key)
        self._q2: deque[Request] = deque()
        self._tracker = SlackTracker()
        self._keys = itertools.count()
        #: Overflow requests served ahead of queued primaries (telemetry).
        self.slack_dispatches = 0

    def on_arrival(self, request: Request) -> None:
        qos = self.classifier.classify(request)
        if qos is QoSClass.PRIMARY:
            key = next(self._keys)
            # Post-increment occupancy, exactly as Algorithm 2 reads
            # lenQ1 — generalized to admitted work (== lenQ1 at unit
            # demand, so the unit path floors identically).
            slack = initial_slack(self.classifier.max_queue, self.classifier.work_q1)
            self._tracker.insert(key, slack)
            self._q1.append((request, key))
        else:
            self._q2.append(request)
        self._note_arrival(request)

    def select(self, now: float) -> Request | None:
        # Algorithm 2 departure rule: overflow may run iff even the most
        # constrained primary request can spare the head's worth of work.
        # (At unit demand the gate is exactly the original min_slack >= 1.)
        if self._q2 and (
            self._tracker.min_slack() + EPS >= self._q2[0].service_demand
        ):
            if self._q1:
                self.slack_dispatches += 1
                self._m_slack_dispatches.inc()
            request = self._q2.popleft()
            self._tracker.decrement_all(request.service_demand)
            self._note_dispatch(request)
            return request
        if self._q1:
            request, key = self._q1.popleft()
            self._tracker.remove(key)
            self._note_dispatch(request)
            return request
        if self._q2:
            request = self._q2.popleft()
            self._note_dispatch(request)
            return request
        return None

    def on_completion(self, request: Request) -> None:
        self.classifier.on_completion(request)
        self._note_completion(request)

    def on_requeue(self, request: Request) -> None:
        # Retries join Q2 directly: no re-classification, no slack entry,
        # so a retried request can never displace a fresh guaranteed one.
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

    @property
    def min_slack(self) -> float:
        """Current minimum slack (work units) across queued primaries."""
        return self._tracker.min_slack()
