"""Device driver: the layer where the paper installs its shaper.

The driver sits between arriving requests and a server.  It owns a
scheduler (which may internally classify requests into ``Q1``/``Q2``),
dispatches whenever the server is idle, and collects per-class response
time statistics — the raw material of Figures 4-6.

Fault tolerance
---------------
The driver is also where the resilience plane (:mod:`repro.faults`)
plugs in.  When the server is crash-capable (a
:class:`~repro.faults.server.FaultableServer` or a fault-aware farm),
the driver wires its ``on_requeue`` / ``on_loss`` / ``on_recovery``
hooks; when a :class:`~repro.faults.retry.RetryPolicy` is given, every
dispatch is guarded by a per-class timeout, and timed-out or
crash-requeued requests are retried with bounded, backed-off attempts —
demoted ``Q1 → Q2`` first, so a retry can never evict a fresh
guaranteed request.  Every arrival ends in exactly one of three ledgers
(``completed``, ``dropped``, ``shed``), which is the conservation
invariant the chaos harness asserts.

With no retry policy and a plain server, none of the fault paths are
armed and behavior is identical to the pre-fault-plane driver.

Queue-depth management (AQM)
----------------------------
When built with an in-flight *window* (:mod:`repro.server.aqm`), the
driver interposes a bounded device queue between scheduler and server:
a request leaves the scheduler only when the window has a slot, waits
in a FIFO device queue for a free service unit, and frees its slot on
any exit (completion, abort, crash-loss, preemption).  The window
measures each request's *sojourn* — window entry to service start — at
dispatch, which is the signal the adaptive controllers
(:class:`~repro.server.aqm.CoDelWindow` /
:class:`~repro.server.aqm.AdaptiveWindow`) resize on.  Crash-requeues
and retries re-enter through the scheduler and must re-acquire a slot,
so the fault plane exerts *backpressure* instead of requeuing
instantaneously.  With ``window=None`` (default) none of this exists
and the dispatch loop is bit-identical to the pre-AQM driver.

The heap-free loop
------------------
:func:`serve_direct` serves an open-loop workload or a closed-loop
population with none of the above armed, without the event engine, on
one server or on a topology's single-unit sides behind its front end:
it merges the pending arrivals with the pending completions itself and
calls the same front end, schedulers, service models and collectors as
the drivers would.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..core.request import QoSClass, Request
from ..exceptions import ConfigurationError, SimulationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from ..sim.engine import Simulator
from ..sim.events import PRIORITY_MONITOR
from ..sim.source import ClosedLoopPopulation
from ..sim.stats import RateRecorder, ResponseTimeCollector
from ..sched.base import Scheduler
from .aqm import InflightWindow
from .base import Server, ServiceTimeModel

#: Every class a request can complete in, and its collector's name.
CLASS_LABELS = (
    (QoSClass.PRIMARY, "Q1"),
    (QoSClass.OVERFLOW, "Q2"),
    (QoSClass.UNCLASSIFIED, "all"),
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> server)
    from ..core.workload import Workload
    from ..faults.retry import RetryPolicy
    from ..sched.classifier import OnlineRTTClassifier


class DeviceDriver:
    """Connects a scheduler to a server and records completions.

    Parameters
    ----------
    sim, server, scheduler:
        The simulation engine, the (idle) server to drive, and the
        dispatch policy.
    record_rates:
        When set, completions are also binned into a rate time series
        (used to draw Figure 2(c)); value is the bin width in seconds.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`.  When
        given, the driver emits ``<metrics_prefix>.arrivals`` /
        ``dispatches`` / ``completions`` / ``deadline_misses`` counters
        and binds the scheduler's standard instruments to the same
        registry.  Defaults to the no-op registry (near-zero overhead).
    metrics_prefix:
        Metric name prefix — override when several drivers share one
        registry (the split topology uses ``q1.driver`` / ``q2.driver``).
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` arming dispatch
        timeouts and bounded retries.  ``None`` (default) disables every
        timeout/retry path.
    classifier:
        The :class:`~repro.sched.classifier.OnlineRTTClassifier` whose
        ``Q1`` slot a demoted request must release.  Defaults to the
        scheduler's own ``classifier`` attribute when present (the
        single-server policies); :class:`~repro.server.cluster.
        SplitSystem` passes its front-end classifier explicitly.
    window:
        Optional :class:`~repro.server.aqm.InflightWindow` bounding the
        number of requests in flight at the device (device queue + in
        service).  May be shared between drivers (the shared-window
        topologies); the driver raises the window floor by its server's
        concurrency and keeps a private residency count for its
        conservation ledger.  ``None`` (default) disables the device
        queue entirely — the historical unbuffered dispatch loop.
    """

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        scheduler: Scheduler,
        record_rates: float | None = None,
        metrics: MetricsRegistry | None = None,
        metrics_prefix: str = "driver",
        retry: "RetryPolicy | None" = None,
        classifier: "OnlineRTTClassifier | None" = None,
        window: InflightWindow | None = None,
    ):
        self.sim = sim
        self.server = server
        self.scheduler = scheduler
        server.on_completion = self._on_completion
        self.completed: list[Request] = []
        #: External completion observers (closed-loop sources); see
        #: :meth:`add_completion_hook`.
        self._completion_hooks: list = []
        self.by_class = class_collectors()
        self.overall = ResponseTimeCollector("overall")
        self.completion_rates = RateRecorder(record_rates) if record_rates else None
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.metrics_prefix = metrics_prefix
        self._observed = self.metrics.enabled
        if self._observed:
            scheduler.bind_metrics(self.metrics)
        self._m_arrivals = self.metrics.counter(f"{metrics_prefix}.arrivals")
        self._m_dispatches = self.metrics.counter(f"{metrics_prefix}.dispatches")
        self._m_completions = self.metrics.counter(f"{metrics_prefix}.completions")
        self._m_misses = self.metrics.counter(f"{metrics_prefix}.deadline_misses")
        self._m_preemptions = self.metrics.counter(f"{metrics_prefix}.preemptions")
        #: Times the scheduler pulled an in-flight request off the server.
        self.preemptions = 0
        self._preemptive = bool(getattr(scheduler, "preemptive", False))

        # ---- queue-depth management (dormant when window is None) ------
        self.window = window
        #: FIFO device queue: requests that left the scheduler but have
        #: not reached a service unit yet.  Only populated when a window
        #: is armed — the dormant driver dispatches straight to the
        #: server.
        self._device_queue: deque[Request] = deque()
        #: This driver's share of the window occupancy (a shared window
        #: counts residents of several drivers; the conservation ledger
        #: needs the per-driver figure).
        self._window_resident = 0
        self._drain_pending = False
        if window is not None:
            window.raise_floor(getattr(server, "concurrency", 1))
            window.add_drain_hook(self._on_window_drain)
            if self._observed:
                window.bind_metrics(self.metrics, prefix=f"aqm.{metrics_prefix}")

        # ---- resilience plane (all dormant when retry is None and the
        # ---- server has no fault hooks) --------------------------------
        self.retry = retry
        self.classifier = (
            classifier
            if classifier is not None
            else getattr(scheduler, "classifier", None)
        )
        #: Requests that exhausted their retry budget or were lost in a
        #: crash — they will never complete.
        self.dropped: list[Request] = []
        #: Requests shed from the overflow queue by the adaptive
        #: controller — they will never complete.
        self.shed: list[Request] = []
        #: Always-on primary-class tallies (the adaptive controller's
        #: inputs; two branch checks per completion).
        self.q1_completed = 0
        self.q1_missed = 0
        self.demotions = 0
        #: Armed timeout events keyed by a monotonic per-request token
        #: (set on the request as ``_timeout_token``).  Never keyed by
        #: ``id(request)``: a dropped request can be garbage-collected
        #: and its id reused by a *new* request, silently disarming or
        #: firing the wrong timeout.
        self._timeouts: dict[int, object] = {}
        self._timeout_seq = itertools.count(1)
        self._m_requeued = self.metrics.counter(f"faults.{metrics_prefix}.requeued")
        self._m_retries = self.metrics.counter(f"faults.{metrics_prefix}.retries")
        self._m_dropped = self.metrics.counter(f"faults.{metrics_prefix}.dropped")
        self._m_shed = self.metrics.counter(f"faults.{metrics_prefix}.shed")
        self._m_demotions = self.metrics.counter(f"faults.{metrics_prefix}.demotions")
        self._m_timeouts = self.metrics.counter(f"faults.{metrics_prefix}.timeouts")
        if hasattr(server, "on_requeue"):
            server.on_requeue = self._on_server_requeue
        if hasattr(server, "on_loss"):
            server.on_loss = self._on_server_loss
        if hasattr(server, "on_recovery"):
            server.on_recovery = self._try_dispatch

    def on_arrival(self, request: Request) -> None:
        """Entry point for workload sources."""
        if self._observed:
            self._m_arrivals.inc()
        self.scheduler.on_arrival(request)
        self._try_dispatch()
        if self._preemptive and self.server.busy:
            self._maybe_preempt()

    def _maybe_preempt(self) -> None:
        """Ask a preemptive scheduler whether the in-flight request loses.

        Only single-unit servers expose ``current``/``preempt``; a farm
        (or a crashed server, whose ``busy`` covers downtime) simply
        declines.
        """
        current = getattr(self.server, "current", None)
        if current is None:
            return
        remaining = self.server.remaining_seconds()
        if remaining <= 0.0:
            return
        if not self.scheduler.should_preempt(current, remaining, self.sim.now):
            return
        if self.retry is not None:
            self._disarm_timeout(current)
        preempted = self.server.preempt()
        self._window_exit(preempted)
        self.preemptions += 1
        self._m_preemptions.inc()
        self.scheduler.on_preempt(preempted)
        self._try_dispatch()

    def add_completion_hook(self, hook) -> None:
        """Register ``hook(request)`` to run after every completion.

        This is the observation point closed-loop sources
        (:class:`repro.sim.source.ClosedLoopSource`) use to learn that a
        user's request finished, so the user's next arrival can be
        scheduled.  Hooks run after the driver's own accounting but
        before the post-completion dispatch attempt, so an arrival a hook
        schedules at the completion instant is ordered behind it.
        """
        self._completion_hooks.append(hook)

    def _try_dispatch(self) -> None:
        # The clock cannot move inside one callback: read it once.
        if self.window is not None:
            now = self.sim.now
            self._pull_into_window(now)
            self._feed_device(now)
            return
        # Dormant path (no window): dispatch straight from the scheduler.
        # Loop: a multi-unit server (ServerFarm) may have several idle
        # units to fill from the queue in one go.
        server = self.server
        if server.busy:
            return
        now = self.sim.now
        while True:
            request = self.scheduler.select(now)
            if request is None:
                return
            if self._observed:
                self._m_dispatches.inc()
            server.dispatch(request)
            if self.retry is not None:
                self._arm_timeout(request)
            if server.busy:
                return

    def _pull_into_window(self, now: float) -> None:
        """Move requests scheduler -> device queue while slots remain.

        This is the backpressure point: a request pulled here has left
        the scheduler for good (no reordering, no shedding), so the
        window decides how much of the backlog loses policy protection.
        """
        window = self.window
        scheduler = self.scheduler
        while window.has_slot():
            request = scheduler.select(now)
            if request is None:
                return
            window.on_enter(request, now)
            self._window_resident += 1
            self._device_queue.append(request)
            if self.retry is not None:
                # Timeouts guard the whole device round trip: armed at
                # window entry, not service start, so a request rotting
                # in a bloated device queue still times out and retries.
                self._arm_timeout(request)
        if scheduler.pending() > 0:
            window.on_gated()

    def _feed_device(self, now: float) -> None:
        """Start service for queued requests while units are idle."""
        queue = self._device_queue
        server = self.server
        while queue and not server.busy:
            request = queue.popleft()
            self.window.on_dispatch(request, now)
            if self._observed:
                self._m_dispatches.inc()
            server.dispatch(request)

    def _window_exit(self, request: Request) -> None:
        """Release ``request``'s window slot (no-op when no window)."""
        if self.window is not None and self.window.on_exit(request, self.sim.now):
            self._window_resident -= 1

    def _on_window_drain(self) -> None:
        """A window slot freed — possibly by a peer sharing the window.

        Deferred by one zero-delay event so the exiting driver finishes
        its own completion accounting (and gets first claim on the slot)
        before this driver pulls; coalesced so a burst of exits queues
        one poke, not one per exit.
        """
        if self._drain_pending or (
            self.scheduler.pending() == 0 and not self._device_queue
        ):
            return
        self._drain_pending = True
        self.sim.schedule_after(0.0, self._drain_now)

    def _drain_now(self) -> None:
        self._drain_pending = False
        self._try_dispatch()

    def _on_completion(self, request: Request) -> None:
        if self.retry is not None:
            self._disarm_timeout(request)
        if self.window is not None:
            self._window_exit(request)
        self.scheduler.on_completion(request)
        self.completed.append(request)
        rt = request.response_time
        qos = request.qos_class
        self.by_class[qos].add(rt)
        self.overall.add(rt)
        if qos is QoSClass.PRIMARY:
            self.q1_completed += 1
            if not request.met_deadline:
                self.q1_missed += 1
        if self._observed:
            self._m_completions.inc()
            if qos is QoSClass.PRIMARY and not request.met_deadline:
                self._m_misses.inc()
        if self.completion_rates is not None:
            self.completion_rates.record(self.sim.now)
        for hook in self._completion_hooks:
            hook(request)
        self._try_dispatch()

    # ------------------------------------------------------------------
    # Fault plane: timeouts, retries, crash requeues, shedding
    # ------------------------------------------------------------------

    def _arm_timeout(self, request: Request) -> None:
        timeout = self.retry.timeout_for(request)
        if timeout is None:
            return
        token = next(self._timeout_seq)
        request._timeout_token = token
        self._timeouts[token] = self.sim.schedule_after(
            timeout,
            lambda: self._on_timeout(request),
            priority=PRIORITY_MONITOR,
        )

    def _disarm_timeout(self, request: Request) -> None:
        token = getattr(request, "_timeout_token", None)
        if token is None:
            return
        request._timeout_token = None
        event = self._timeouts.pop(token, None)
        if event is not None:
            event.cancel()

    def _on_timeout(self, request: Request) -> None:
        """The per-class dispatch timeout expired with service unfinished."""
        self._disarm_timeout(request)
        if self.window is not None and request in self._device_queue:
            # Timed out while still waiting in the device queue — the
            # bufferbloat failure mode the timeout exists to catch.
            self._device_queue.remove(request)
            self._window_exit(request)
            self._m_timeouts.inc()
            self._retry_request(request)
            self._try_dispatch()
            return
        abort = getattr(self.server, "abort", None)
        if abort is None or not abort(request):
            # Not in flight here any more (completed at this same instant,
            # or crash-requeued already) — nothing to retry.
            return
        self._window_exit(request)
        self._m_timeouts.inc()
        self._retry_request(request)
        self._try_dispatch()

    def _on_server_requeue(self, request: Request) -> None:
        """A crash interrupted ``request`` mid-service; retry it.

        With a window armed the slot is released here and re-acquired
        through the scheduler — a crash no longer refills the device
        queue instantaneously (backpressure).
        """
        self._disarm_timeout(request)
        self._window_exit(request)
        self._m_requeued.inc()
        self._retry_request(request)

    def _on_server_loss(self, request: Request) -> None:
        """A crash destroyed ``request`` mid-service; account the loss."""
        self._disarm_timeout(request)
        self._window_exit(request)
        self._release_slot(request)
        self.dropped.append(request)
        self._m_dropped.inc()

    def _release_slot(self, request: Request) -> None:
        """Free the classifier's ``Q1`` slot held by ``request``, if any."""
        if request.qos_class is QoSClass.PRIMARY and self.classifier is not None:
            self.classifier.on_completion(request)

    def _retry_request(self, request: Request) -> None:
        """Demote, back off, and re-enqueue — or drop when out of budget."""
        request.retries += 1
        if request.qos_class is QoSClass.PRIMARY:
            # Q1 -> Q2 demotion: release the admission slot *before*
            # re-entry so a retried request can never evict a fresh
            # guaranteed one, then forget the (already blown) deadline.
            self._release_slot(request)
            request.classify(QoSClass.OVERFLOW)
            self.demotions += 1
            self._m_demotions.inc()
        policy = self.retry
        if policy is not None and request.retries > policy.max_retries:
            self.dropped.append(request)
            self._m_dropped.inc()
            return
        self._m_retries.inc()
        delay = policy.backoff_delay(request.retries) if policy is not None else 0.0
        if delay > 0:
            self.sim.schedule_after(
                delay,
                lambda: self._requeue_now(request),
                priority=PRIORITY_MONITOR,
            )
        else:
            self._requeue_now(request)

    def _requeue_now(self, request: Request) -> None:
        self.scheduler.on_requeue(request)
        self._try_dispatch()

    def record_shed(self, requests: list[Request]) -> None:
        """Account overflow requests shed by the adaptive controller."""
        for request in requests:
            self._release_slot(request)
            self.shed.append(request)
            self._m_shed.inc()

    def fault_ledger(self) -> dict[str, int]:
        """Conservation buckets owned by this driver.

        With a window armed the ledger gains a ``window`` bucket — this
        driver's requests currently resident in the device (queued or in
        service).  Mid-run, ``completed + dropped + shed`` undercounts by
        exactly that residency; at end of run it must be zero.  Without a
        window the historical three-bucket shape is preserved.
        """
        ledger = {
            "completed": len(self.completed),
            "dropped": len(self.dropped),
            "shed": len(self.shed),
        }
        if self.window is not None:
            ledger["window"] = self._window_resident
        return ledger

    def window_snapshot(self) -> dict | None:
        """The armed window's statistics, or ``None`` when dormant."""
        return None if self.window is None else self.window.snapshot()

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------

    def fraction_within(self, bound: float) -> float:
        """Overall fraction of completed requests with response <= bound."""
        return self.overall.fraction_within(bound)

    def primary_deadline_misses(self) -> int:
        """Primary-class requests that completed after their deadline.

        Returns the incrementally maintained ``q1_missed`` counter (the
        conservation tests assert it agrees with an O(n) rescan of
        ``completed``).
        """
        return self.q1_missed


class Side(NamedTuple):
    """One single-unit server that :func:`serve_direct` serves.

    ``scheduler`` orders the side's queue, ``model`` gives its service
    times, and ``name`` labels its errors.
    """

    scheduler: Scheduler
    model: ServiceTimeModel
    name: str = "server"


def class_collectors() -> dict:
    """Empty per-class collectors, keyed and named as a driver keeps them."""
    return {qos: ResponseTimeCollector(label) for qos, label in CLASS_LABELS}


def merge_sides(collectors: list[ResponseTimeCollector]) -> ResponseTimeCollector:
    """One collector holding ``collectors``' samples in the order given.

    A topology reports every collector merged this way, in side order:
    the first side's samples in completion order, then the next side's.
    """
    merged = ResponseTimeCollector(collectors[0].name)
    for collector in collectors:
        merged.extend(collector.samples)
    return merged


@dataclass(frozen=True)
class DirectRun:
    """What :func:`serve_direct` (or a native loop) measured.

    ``by_class`` and ``overall`` are filled exactly as
    :class:`DeviceDriver`'s collectors of the same names, and for a
    topology merged in side order, as its system merges them.  The
    reporting methods are :class:`DeviceDriver`'s, so
    :func:`repro.shaping.run_result` packages either alike.
    """

    by_class: dict
    overall: ResponseTimeCollector
    #: Requests that completed.
    completed: int
    #: Primary-class requests that completed after their deadline.
    primary_misses: int
    #: Times a scheduler pulled the in-flight request off its server.
    preemptions: int

    def fault_ledger(self) -> dict[str, int]:
        """:meth:`DeviceDriver.fault_ledger`'s buckets: nothing drops or sheds."""
        return {"completed": self.completed, "dropped": 0, "shed": 0}

    def primary_deadline_misses(self) -> int:
        return self.primary_misses


#: The completion key of an idle side: later than any pending completion,
#: one at +inf included.
_IDLE = (math.inf, math.inf)


def serve_direct(
    feed: "Workload | ClosedLoopPopulation",
    *sides: Side,
    route: "Callable[[Request], int] | None" = None,
) -> DirectRun:
    """Serve ``feed`` on one server or a topology, without the event engine.

    ``feed`` is a workload, replayed open loop, or a closed-loop
    population.  ``sides`` are single-unit servers.  One side serves
    every request.  Several sides need ``route``, the topology's front
    end: it classifies an arrival and returns the index of the side
    that queues it (:meth:`~repro.server.cluster.SplitFrontEnd.route`,
    :meth:`~repro.server.sizesplit.SizeSplitFrontEnd.route`).

    Each side holds at most one pending completion (a
    :class:`~repro.server.base.Server` serves one request at a time),
    and a completion fires before any arrival at its instant
    (``PRIORITY_COMPLETION < PRIORITY_ARRIVAL``).  Same-instant
    completions on different sides fire in dispatch order: the
    simulator orders them by the sequence their completion events got
    at dispatch, and one event dispatches on one side at most.  Among
    arrivals:

    * a :class:`~repro.sim.source.WorkloadSource` keeps one arrival
      pending, so time and priority order every tie;
    * a :class:`~repro.sim.source.ClosedLoopSource` keeps one pending
      arrival per thinking user, and the simulator orders their ties by
      scheduling sequence.  Here they wait in a local ``(time, sequence,
      user)`` heap whose sequence counts pushes in that same order: the
      users in turn at time 0, then each completion's user, whose next
      think is drawn before the post-completion dispatch, as the
      source's completion hook draws it.

    This loop merges the pending arrivals with the pending completions
    itself and calls the front end, the schedulers, the service models,
    the collectors and the population in the order, and with the float
    operations, of the source -> front end -> :class:`DeviceDriver` ->
    ``Server`` -> ``Simulator`` stack with no window, retry policy,
    metrics or rate recording: a completion runs its side's
    ``on_completion``, its collectors and the user's next think, then
    dispatches on that side only; an arrival is routed, queued, and
    dispatches on its side only.  Its samples are bit-identical to that
    stack's, which :func:`repro.check.differential.engine_parity` (open
    loop) and :func:`~repro.check.differential.closed_loop_parity`
    certify.  A topology's collectors are merged in side order
    (:func:`merge_sides`), as its system reports them.

    An open loop's arrival and size columns are read one value at a
    time, and no request is kept after it completes: the collectors
    hold the samples.  A population keeps its own ``requests``.

    For an open loop under fcfs or split,
    :func:`repro.perf.native.serve_fifo` is this loop in C, and on one
    server under fairqueue, wf2q or miser,
    :func:`repro.perf.native.serve_recombined`; for a population under
    srpt, nudge, boost, edf or splitfarm,
    :func:`repro.perf.native.serve_closed`, which draws through the
    population's own generators.  ``auto`` takes them first.  A change
    to the event order here must be made there too.
    """
    routed = route is not None
    if not sides or (len(sides) > 1 and not routed):
        raise ConfigurationError(
            f"serve_direct needs one side, or a route over several; got "
            f"{len(sides)} side(s) and route={route!r}"
        )
    collectors = [(class_collectors(), ResponseTimeCollector("overall")) for _ in sides]
    # What the loop calls on each side, rebound whenever it changes side.
    units = [
        (
            scheduler,
            scheduler.select,
            scheduler.on_arrival,
            scheduler.on_completion,
            model.service_time,
            bool(getattr(scheduler, "preemptive", False)),
            side_classes,
            side_overall,
        )
        for (scheduler, model, _), (side_classes, side_overall) in zip(sides, collectors)
    ]
    (
        scheduler,
        select,
        on_arrival,
        on_completion,
        service_time,
        preemptive,
        by_class,
        overall,
    ) = units[0]
    # A topology's sides: each one's request in service and its
    # completion key, (instant, dispatch sequence), or _IDLE.  Between
    # events the loop serves side ``k``, the one whose completion fires
    # first; ``current`` and ``end`` are its.
    inflight = [None] * len(sides)
    keys = [_IDLE] * len(sides)
    dispatches = 0
    k = 0
    primary = QoSClass.PRIMARY
    completed = misses = preemptions = 0
    current = None  # the request in service
    end = 0.0  # its completion instant
    closed = isinstance(feed, ClosedLoopPopulation)
    pending: list = []  # a population's (time, sequence, user) arrivals
    pushes = 0  # arrivals pushed so far: the next sequence number
    index = n = 0  # an open loop's next arrival and its column length
    if closed:
        next_arrival = feed.next_arrival
        submit = feed.submit
        for user in range(feed.n_users):
            at = next_arrival(user, 0.0)
            if at is not None:
                heappush(pending, (at, pushes, user))
                pushes += 1
        t = pending[0][0] if pending else math.inf
    else:
        arrivals = feed.arrivals
        sizes = feed.sizes
        n = arrivals.size
        t = float(arrivals[0]) if n else math.inf
    # ``t`` is the next arrival instant.
    while True:
        if current is not None and end <= t:
            # Server._complete, then DeviceDriver._on_completion.
            now = end
            request, current = current, None
            request.completion = now
            on_completion(request)
            response = now - request.arrival
            qos = request.qos_class
            by_class[qos].add(response)
            overall.add(response)
            completed += 1
            if qos is primary and not request.met_deadline:
                misses += 1
            if closed:
                # ClosedLoopSource._on_completion: the user thinks again.
                user = request.client_id
                at = next_arrival(user, now)
                if at is not None:
                    heappush(pending, (at, pushes, user))
                    pushes += 1
                    if at < t:
                        t = at
            recheck = False
        else:
            if index < n:
                # WorkloadSource._fire.
                now = t
                if sizes is None:
                    request = Request(arrival=now, index=index)
                else:
                    request = Request(
                        arrival=now, index=index, service_demand=float(sizes[index])
                    )
                index += 1
                t = float(arrivals[index]) if index < n else math.inf
            elif pending:
                # ClosedLoopSource._submit.
                now, _, user = heappop(pending)
                request = submit(user, now)
                t = pending[0][0] if pending else math.inf
            else:
                break
            if routed:
                # The front end classifies and routes; the side's driver
                # takes the arrival.
                side = route(request)
                if side != k:
                    k = side
                    (
                        scheduler,
                        select,
                        on_arrival,
                        on_completion,
                        service_time,
                        preemptive,
                        by_class,
                        overall,
                    ) = units[k]
                    current = inflight[k]
                    end = keys[k][0]
            # DeviceDriver.on_arrival.
            on_arrival(request)
            recheck = preemptive
        # DeviceDriver._try_dispatch and, after an arrival, _maybe_preempt.
        while True:
            if current is None:
                request = select(now)
                if request is None:
                    break
                # Server.dispatch: a preempted request resumes its remainder.
                duration = request.remaining_service
                if duration is None:
                    duration = service_time(request)
                else:
                    request.remaining_service = None
                if duration <= 0:
                    raise SimulationError(
                        f"{sides[k].name}: non-positive service time {duration}"
                    )
                request.dispatch = now
                current = request
                end = now + duration
            if not recheck:
                break
            recheck = False
            remaining = max(0.0, end - now)
            if remaining <= 0.0 or not scheduler.should_preempt(
                current, remaining, now
            ):
                break
            # Server.preempt; the loop then dispatches once more.
            current.remaining_service = remaining
            current.dispatch = None
            request, current = current, None
            preemptions += 1
            scheduler.on_preempt(request)
        if routed:
            if current is not inflight[k]:
                # Side k completed or dispatched: a dispatch's completion
                # event takes the simulator's next sequence.
                inflight[k] = current
                keys[k] = _IDLE if current is None else (end, dispatches)
                dispatches += 1
            # Serve the side whose completion fires first next.
            side = keys.index(min(keys))
            if side != k:
                k = side
                (
                    scheduler,
                    select,
                    on_arrival,
                    on_completion,
                    service_time,
                    preemptive,
                    by_class,
                    overall,
                ) = units[k]
                current = inflight[k]
                end = keys[k][0]
    if routed:
        by_class = {
            qos: merge_sides([classes[qos] for classes, _ in collectors])
            for qos in by_class
        }
        overall = merge_sides([side_overall for _, side_overall in collectors])
    return DirectRun(
        by_class=by_class,
        overall=overall,
        completed=completed,
        primary_misses=misses,
        preemptions=preemptions,
    )
