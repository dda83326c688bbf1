"""Live scheduler invariants: a checking proxy that audits every dispatch.

:class:`CheckingScheduler` wraps any :class:`repro.sched.base.Scheduler`
and forwards the driver's calls unchanged while auditing the invariant
catalog below.  Violations are *recorded*, not raised, so one run can
report every breakage at once; the differential harness
(:mod:`repro.check.differential`) turns a non-empty record into a
failure.

Invariant catalog
-----------------
``work-conservation``
    ``select`` may return ``None`` only when nothing is pending — an
    idle server with a backlogged queue is a lost service slot.
``classifier-bound``
    The online classifier's ``Q1`` occupancy stays within
    ``[0, limit]`` at all times (Algorithm 1's ``maxQ1`` bound).
``fcfs-order``
    FCFS dispatches strictly in arrival order (by source sequence).
``fair-virtual-time``
    The fair queue's system virtual time never decreases (SFQ/WF²Q+
    tag algebra; a backwards jump re-opens spent service credit).
``miser-slack``
    Miser serves overflow ahead of queued primaries only when every
    queued primary can spare the overflow head's worth of work
    (``min_slack >= demand`` at the decision; ``>= 1`` at unit cost),
    and the minimum slack never goes negative (Algorithm 2's safety
    condition).
``edf-order``
    EDF dispatches primaries in non-decreasing deadline order, and
    serves overflow ahead of queued primaries only when the clock-based
    safety test passes.
``srpt-order`` / ``srpt-preempt``
    SRPT never dispatches a request with more remaining work than the
    queued minimum, and only preempts when a queued request genuinely
    has less work than the in-flight remainder.
``nudge-swap-once``
    A Nudge dispatch overtakes at most one earlier arrival, and no
    request is ever overtaken twice (the defining one-swap budget of
    Nudge; fault-plane requeues reshuffle arrival order legitimately,
    so the check stands down once a requeue is observed).
``boost-order``
    Boost dispatches in non-decreasing boosted-arrival order
    (``arrival - b(demand)``).
``dispatch-before-completion``
    Every completion was previously dispatched, exactly once (a
    preempted request is un-marked: it legitimately dispatches again).

The checks reach into scheduler internals (``_queue._virtual``,
``_tracker``) by design — this module is the white-box auditor for the
black-box differential harness, and the private coupling is pinned down
by the tests in ``tests/check/``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.request import QoSClass, Request
from ..sched.base import Scheduler
from ..sched.edf import EDFScheduler
from ..sched.fair import FairQueueScheduler
from ..sched.fcfs import FCFSScheduler
from ..sched.miser import MiserScheduler
from ..sched.sized import BoostScheduler, NudgeScheduler, SRPTScheduler
from ..units import EPS


@dataclass(frozen=True)
class Violation:
    """One recorded invariant breach."""

    invariant: str
    policy: str
    detail: str
    time: float

    def __str__(self) -> str:
        return f"[{self.policy} @ t={self.time:g}] {self.invariant}: {self.detail}"


class CheckingScheduler(Scheduler):
    """Transparent auditing proxy around a concrete scheduler.

    Behaviorally identical to the wrapped scheduler (all decisions are
    delegated); every interaction is checked against the invariant
    catalog and breaches are appended to :attr:`violations`.
    """

    def __init__(self, inner: Scheduler):
        self.inner = inner
        self.name = inner.name
        self.violations: list[Violation] = []
        self._arrival_seq = 0
        self._dispatch_seq: dict[int, int] = {}  # id(request) -> arrival seq
        self._dispatched: set[int] = set()
        self._last_fcfs_seq = -1
        self._last_virtual = float("-inf")
        self._last_q1_deadline = float("-inf")
        self._overtaken: set[int] = set()  # arrival seqs overtaken once
        self._saw_requeue = False
        self._now = 0.0

    # The driver probes optional attributes (``classifier``) and the
    # sampler probes ``min_slack``-style telemetry: forward everything
    # we do not intercept.  ``preemptive``/``should_preempt``/
    # ``on_preempt`` exist on the Scheduler base class, so they are
    # overridden explicitly below — ``__getattr__`` only fires for
    # missing attributes.
    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    @property
    def preemptive(self) -> bool:
        return self.inner.preemptive

    def _flag(self, invariant: str, detail: str) -> None:
        self.violations.append(
            Violation(invariant=invariant, policy=self.name, detail=detail, time=self._now)
        )

    # ------------------------------------------------------------------
    # Scheduler interface
    # ------------------------------------------------------------------

    def on_arrival(self, request: Request) -> None:
        self._dispatch_seq[id(request)] = self._arrival_seq
        self._arrival_seq += 1
        self.inner.on_arrival(request)
        self._check_classifier()

    def select(self, now: float) -> Request | None:
        self._now = now
        pending_before = self.inner.pending()
        inner = self.inner
        # Snapshot decision inputs *before* the inner scheduler mutates
        # its state.
        miser_slack = None
        q1_backlog = 0
        edf_safe = None
        srpt_min = None
        boost_min = None
        if isinstance(inner, MiserScheduler):
            miser_slack = inner.min_slack
            q1_backlog = inner.class_backlog()["q1"]
        elif isinstance(inner, EDFScheduler):
            q1_backlog = inner.class_backlog()["q1"]
            edf_safe = inner._overflow_is_safe(now)
        elif isinstance(inner, SRPTScheduler):
            srpt_min = inner.min_remaining()
        elif isinstance(inner, BoostScheduler):
            boost_min = inner.min_key()

        request = inner.select(now)

        if request is None:
            if pending_before > 0:
                self._flag(
                    "work-conservation",
                    f"select() returned None with {pending_before} pending",
                )
            return None

        key = id(request)
        if key in self._dispatched:
            self._flag("dispatch-before-completion", "request dispatched twice")
        self._dispatched.add(key)

        if isinstance(inner, NudgeScheduler):
            # FCFS-with-one-swap: the dispatched request may overtake at
            # most one still-queued earlier arrival, and nobody is
            # overtaken twice.  Requeues legitimately reshuffle arrival
            # order, so the check stands down once one is seen.
            if not self._saw_requeue:
                seq = self._dispatch_seq.get(key, -1)
                overtaken = [
                    self._dispatch_seq[id(queued)]
                    for queued in inner._queue
                    if self._dispatch_seq.get(id(queued), seq) < seq
                ]
                if len(overtaken) > 1:
                    self._flag(
                        "nudge-swap-once",
                        f"arrival #{seq} overtook {len(overtaken)} earlier "
                        "arrivals (budget is one)",
                    )
                for old_seq in overtaken:
                    if old_seq in self._overtaken:
                        self._flag(
                            "nudge-swap-once",
                            f"arrival #{old_seq} overtaken a second time",
                        )
                    self._overtaken.add(old_seq)
        elif isinstance(inner, FCFSScheduler):
            seq = self._dispatch_seq.get(key, -1)
            if seq <= self._last_fcfs_seq:
                self._flag(
                    "fcfs-order",
                    f"arrival #{seq} dispatched after #{self._last_fcfs_seq}",
                )
            self._last_fcfs_seq = seq
        elif isinstance(inner, FairQueueScheduler):
            virtual = inner._queue._virtual
            if virtual < self._last_virtual - 1e-12:
                self._flag(
                    "fair-virtual-time",
                    f"virtual time moved backwards: {self._last_virtual} -> {virtual}",
                )
            self._last_virtual = max(self._last_virtual, virtual)
        elif isinstance(inner, MiserScheduler):
            if (
                request.qos_class is QoSClass.OVERFLOW
                and q1_backlog > 0
                and miser_slack is not None
                and miser_slack < request.service_demand - EPS
            ):
                self._flag(
                    "miser-slack",
                    f"overflow of demand {request.service_demand} served "
                    f"past {q1_backlog} primaries with min_slack="
                    f"{miser_slack}",
                )
            if inner.min_slack < -EPS:
                self._flag(
                    "miser-slack", f"min_slack went negative: {inner.min_slack}"
                )
        elif isinstance(inner, EDFScheduler):
            if request.qos_class is QoSClass.PRIMARY:
                deadline = request.deadline
                if deadline < self._last_q1_deadline - 1e-12:
                    self._flag(
                        "edf-order",
                        f"primary deadline {deadline} after {self._last_q1_deadline}",
                    )
                self._last_q1_deadline = max(self._last_q1_deadline, deadline)
            elif q1_backlog > 0 and edf_safe is False:
                self._flag(
                    "edf-order",
                    f"overflow served past {q1_backlog} primaries while unsafe",
                )
        elif isinstance(inner, SRPTScheduler):
            # The snapshot minimum includes the request that was popped,
            # so a correct SRPT dispatch matches it exactly.
            work = inner.remaining_work(request)
            if srpt_min is not None and work > srpt_min + EPS:
                self._flag(
                    "srpt-order",
                    f"dispatched remaining work {work} above queued "
                    f"minimum {srpt_min}",
                )
        elif isinstance(inner, BoostScheduler):
            key_value = inner.key_of(request)
            if boost_min is not None and key_value > boost_min + 1e-12:
                self._flag(
                    "boost-order",
                    f"dispatched boost key {key_value} above queued "
                    f"minimum {boost_min}",
                )
        return request

    def on_completion(self, request: Request) -> None:
        key = id(request)
        if key not in self._dispatched:
            self._flag(
                "dispatch-before-completion", "completion without dispatch"
            )
        else:
            self._dispatched.discard(key)
        self.inner.on_completion(request)
        self._check_classifier()

    def on_requeue(self, request: Request) -> None:
        self._saw_requeue = True
        self.inner.on_requeue(request)

    def should_preempt(self, current: Request, remaining: float, now: float) -> bool:
        self._now = now
        decision = self.inner.should_preempt(current, remaining, now)
        if decision and isinstance(self.inner, SRPTScheduler):
            min_work = self.inner.min_remaining()
            threshold = remaining * self.inner.service_rate
            if min_work is None or min_work >= threshold:
                self._flag(
                    "srpt-preempt",
                    f"preemption with queued minimum {min_work} not below "
                    f"in-flight remainder {threshold}",
                )
        return decision

    def on_preempt(self, request: Request) -> None:
        # The preempted request is back in the queue: un-mark it so its
        # re-dispatch is not misread as a double dispatch.
        self._dispatched.discard(id(request))
        self.inner.on_preempt(request)

    def shed_overflow(self, keep: int = 0) -> list[Request]:
        return self.inner.shed_overflow(keep)

    def pending(self) -> int:
        return self.inner.pending()

    def class_backlog(self) -> dict[str, int]:
        return self.inner.class_backlog()

    # ------------------------------------------------------------------

    def _check_classifier(self) -> None:
        classifier = getattr(self.inner, "classifier", None)
        if classifier is None:
            return
        if classifier.len_q1 < 0:
            self._flag(
                "classifier-bound", f"negative occupancy {classifier.len_q1}"
            )
        # ``set_limit`` may shrink the bound below the current occupancy
        # (degradation drains, it does not evict), so audit against the
        # largest bound the occupancy could legally have been admitted
        # under.  Work-bound mode caps outstanding *work* rather than the
        # request count (many small demands can legally exceed the count
        # limit), so each mode audits its own ledger.
        if getattr(classifier, "mode", "count") == "work":
            if classifier.work_q1 > classifier.work_limit + 1e-6:
                self._flag(
                    "classifier-bound",
                    f"outstanding work {classifier.work_q1} exceeds work "
                    f"limit {classifier.work_limit}",
                )
        elif classifier.len_q1 > classifier.planned_limit:
            self._flag(
                "classifier-bound",
                f"occupancy {classifier.len_q1} exceeds planned limit "
                f"{classifier.planned_limit}",
            )
