"""Proportional-share fair queuing (SFQ and WF²Q+), plus the paper's
``FairQueue`` recombiner built on top of it.

The paper's FairQueue policy multiplexes ``Q1`` and ``Q2`` on one server
with a proportional-share bandwidth allocator "(like WF2Q, SFQ, pClock)"
dividing capacity in the ratio ``Cmin : delta_C``.  We implement the two
cited virtual-time schedulers from their original tag rules:

* **SFQ** (Goyal, Vin, Cheng 1997): start tag ``S = max(v, F_prev)``,
  finish tag ``F = S + cost / weight``; serve min start tag; the server
  virtual time ``v`` is the start tag of the request in service and jumps
  to the maximum assigned finish tag when the system idles.
* **WF²Q+** (Bennett & Zhang): same tags, but only *eligible* requests
  (``S <= V``) may be served, choosing the minimum finish tag; the system
  virtual time ``V`` advances with delivered service and is floored by the
  minimum head start tag.

Both are work-conserving: idle capacity flows to whichever class is
backlogged, which is where the statistical-multiplexing benefit over the
dedicated-server Split policy comes from (Section 4.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.request import QoSClass, Request
from ..exceptions import ConfigurationError, SchedulerError
from .base import Scheduler
from .classifier import OnlineRTTClassifier

#: WF²Q+ eligibility tolerance in virtual time: a head whose start tag
#: ties the system virtual time up to float noise is eligible.
ELIGIBILITY_SLACK = 1e-12


@dataclass
class _Flow:
    weight: float
    queue: deque = field(default_factory=deque)  # of (start, finish, request)
    last_finish: float = 0.0

    @property
    def backlogged(self) -> bool:
        return bool(self.queue)

    @property
    def head_start(self) -> float:
        return self.queue[0][0]

    @property
    def head_finish(self) -> float:
        return self.queue[0][1]


class FairQueue:
    """Generic virtual-time fair queue over named flows.

    Parameters
    ----------
    weights:
        Mapping of flow id to positive weight.
    variant:
        ``"sfq"`` (default) or ``"wf2q"``.
    """

    def __init__(self, weights: dict[int, float], variant: str = "sfq"):
        if not weights:
            raise ConfigurationError("at least one flow is required")
        for flow_id, w in weights.items():
            if w <= 0:
                raise ConfigurationError(f"flow {flow_id} weight must be positive")
        if variant not in ("sfq", "wf2q"):
            raise ConfigurationError(f"unknown variant {variant!r}")
        self.variant = variant
        self._flows = {fid: _Flow(weight=w) for fid, w in weights.items()}
        self._virtual = 0.0
        self._max_finish = 0.0
        self._pending = 0

    def __len__(self) -> int:
        return self._pending

    def add(self, flow_id: int, request: Request, cost: float = 1.0) -> None:
        """Tag and enqueue ``request`` on ``flow_id``."""
        try:
            flow = self._flows[flow_id]
        except KeyError:
            raise SchedulerError(f"unknown flow {flow_id}") from None
        if cost <= 0:
            raise SchedulerError(f"cost must be positive, got {cost}")
        start = max(self._virtual, flow.last_finish)
        finish = start + cost / flow.weight
        flow.last_finish = finish
        if finish > self._max_finish:
            self._max_finish = finish
        flow.queue.append((start, finish, request))
        self._pending += 1

    def select(self) -> tuple[int, Request] | None:
        """Dispatch decision: ``(flow_id, request)`` or ``None`` if empty."""
        backlogged = [
            (fid, flow) for fid, flow in self._flows.items() if flow.backlogged
        ]
        if not backlogged:
            # End of busy period: SFQ advances v to the max assigned finish
            # tag so post-idle arrivals do not catch up on stale credit.
            self._virtual = max(self._virtual, self._max_finish)
            return None
        if self.variant == "sfq":
            fid, flow = min(
                backlogged, key=lambda item: (item[1].head_start, item[1].head_finish)
            )
            self._virtual = max(self._virtual, flow.head_start)
        else:  # wf2q
            min_start = min(flow.head_start for _, flow in backlogged)
            self._virtual = max(self._virtual, min_start)
            eligible = [
                (fid, flow)
                for fid, flow in backlogged
                if flow.head_start <= self._virtual + ELIGIBILITY_SLACK
            ]
            fid, flow = min(eligible, key=lambda item: item[1].head_finish)
        start, finish, request = flow.queue.popleft()
        if self.variant == "wf2q":
            # WF2Q+ virtual time also advances with delivered service.
            total_weight = sum(f.weight for f in self._flows.values())
            self._virtual += (finish - start) * flow.weight / total_weight
        self._pending -= 1
        return fid, request

    def backlog(self, flow_id: int) -> int:
        return len(self._flows[flow_id].queue)

    def drain(self, flow_id: int, keep: int = 0) -> list[Request]:
        """Remove queued requests beyond ``keep`` from a flow's tail.

        The flow's ``last_finish`` tag is left untouched: the removed
        requests already consumed virtual service, so post-shed arrivals
        on this flow resume from where the flow would have been — a
        slight penalty to the shed flow, never to the others.
        """
        flow = self._flows[flow_id]
        shed = []
        while len(flow.queue) > keep:
            _, _, request = flow.queue.pop()
            shed.append(request)
            self._pending -= 1
        return shed


class FairQueueScheduler(Scheduler):
    """The paper's FairQueue recombiner: RTT split + fair sharing.

    Arrivals are classified by the online RTT classifier; primary requests
    join flow 1 with weight ``Cmin`` and overflow requests join flow 2
    with weight ``delta_C``.  The server's full capacity ``Cmin + delta_C``
    is shared in that ratio while both classes are backlogged, and flows
    to the backlogged class otherwise.
    """

    name = "fairqueue"

    def __init__(
        self,
        classifier: OnlineRTTClassifier,
        primary_weight: float,
        overflow_weight: float,
        variant: str = "sfq",
    ):
        self.classifier = classifier
        self._queue = FairQueue(
            {int(QoSClass.PRIMARY): primary_weight, int(QoSClass.OVERFLOW): overflow_weight},
            variant=variant,
        )
        # Metric names (``sched.<name>.*``) follow the policy variant.
        self.name = "fairqueue" if variant == "sfq" else "wf2q"

    def on_arrival(self, request: Request) -> None:
        qos = self.classifier.classify(request)
        self._queue.add(int(qos), request)
        self._note_arrival(request)

    def select(self, now: float) -> Request | None:
        choice = self._queue.select()
        if choice is None:
            return None
        self._note_dispatch(choice[1])
        return choice[1]

    def on_completion(self, request: Request) -> None:
        self.classifier.on_completion(request)
        self._note_completion(request)

    def on_requeue(self, request: Request) -> None:
        self._queue.add(int(QoSClass.OVERFLOW), request)
        self._note_arrival(request)

    def shed_overflow(self, keep: int = 0) -> list[Request]:
        return self._queue.drain(int(QoSClass.OVERFLOW), keep)

    def pending(self) -> int:
        return len(self._queue)

    def class_backlog(self) -> dict[str, int]:
        return {
            "q1": self._queue.backlog(int(QoSClass.PRIMARY)),
            "q2": self._queue.backlog(int(QoSClass.OVERFLOW)),
        }
