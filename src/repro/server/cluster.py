"""Split topology: overflow offloaded to a separate physical server.

The paper's ``Split`` recombiner sends ``Q1`` to the main server (capacity
``Cmin``) and ``Q2`` to a dedicated secondary server (capacity
``delta_C``) — in the spirit of Everest-style write off-loading.  The two
servers cannot share capacity: if one idles while the other is backlogged,
that capacity is wasted, which is exactly the effect Section 4.3 measures
against FairQueue and Miser.

Fault tolerance: when built with crash-capable servers (``server_factory``
producing :class:`~repro.faults.server.FaultableServer`), the front end
fails over — an arrival whose dedicated server is down is routed to the
surviving server (a ``Q1`` arrival is demoted to ``Q2`` first, releasing
its admission slot, since the overflow server carries no guarantee).
Routing decisions and failovers are surfaced as ``split.*`` counters.

Split's rules — the classifier, the routing rule, the two sides'
capacities and schedulers — live in :class:`SplitFrontEnd`, apart from
any engine: :class:`SplitSystem` drives its sides on the event engine
and :func:`~repro.server.driver.serve_direct` without one.
:class:`TopologySystem` is the reporting surface both two-sided
topologies share.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable

from ..core.request import QoSClass, Request
from ..exceptions import ConfigurationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from ..sched.classifier import OnlineRTTClassifier
from ..sched.fcfs import FCFSScheduler
from ..sim.engine import Simulator
from ..sim.stats import ResponseTimeCollector
from .aqm import make_window
from .base import Server
from .constant_rate import ConstantRateModel, constant_rate_server
from .driver import CLASS_LABELS, DeviceDriver, Side, merge_sides

#: Split's sides, in the order its results merge them.
PRIMARY_SIDE, OVERFLOW_SIDE = 0, 1


class SplitFrontEnd:
    """Split's rules, apart from any engine.

    The classifier decomposes arrivals on ``cmin``; :meth:`route` sends
    ``Q1`` to the primary side (capacity ``cmin``) and ``Q2`` to the
    overflow side (capacity ``delta_c``), each a single FCFS unit.
    ``admission`` is the classifier's mode (``"count"`` or ``"work"``).
    """

    def __init__(
        self, cmin: float, delta_c: float, delta: float, admission: str = "count"
    ):
        if delta_c <= 0:
            raise ConfigurationError(
                f"Split needs a positive overflow capacity, got {delta_c}"
            )
        self.classifier = OnlineRTTClassifier(cmin, delta, mode=admission)
        overflow = FCFSScheduler()
        # Both sides run FCFS; distinct scheduler names keep their
        # ``sched.<name>.*`` counters apart in a shared registry.
        overflow.name = "q2.fcfs"
        #: Primary side, then overflow side.
        self.sides = (
            Side(_NotifyingFCFS(self.classifier), ConstantRateModel(cmin), "primary"),
            Side(overflow, ConstantRateModel(delta_c), "overflow"),
        )

    def route(self, request: Request) -> int:
        """Classify ``request``; its side: primary for ``Q1``, else overflow."""
        if self.classifier.classify(request) is QoSClass.PRIMARY:
            return PRIMARY_SIDE
        return OVERFLOW_SIDE


class TopologySystem:
    """A topology's front end with one driver per side, on one simulator.

    Presents :class:`~repro.server.driver.DeviceDriver`'s reporting
    surface for the whole topology.  Every collector merges the sides in
    side order (:func:`~repro.server.driver.merge_sides`), class by
    class: a request may complete on either side in either class.

    Parameters
    ----------
    sim, front:
        The simulation engine and the topology's front end (its
        ``classifier``, ``route`` and ``sides``).
    make_server:
        ``(side) -> Server``: the server (or farm) behind each side.
    prefixes:
        Each side's driver metric prefix.
    metrics, retry, aqm, aqm_shared, delta:
        As for the topologies' constructors; windows are built with
        ``make_window(aqm, delta)``.
    """

    #: :meth:`window_snapshot`'s key for each side's window.
    window_keys: tuple[str, ...] = ()

    def __init__(
        self,
        sim: Simulator,
        front,
        make_server: Callable[[Side], Server],
        prefixes: tuple[str, ...],
        metrics: MetricsRegistry | None,
        retry,
        aqm: str | None,
        aqm_shared: bool,
        delta: float,
    ):
        self.sim = sim
        self.classifier = front.classifier
        self.route = front.route
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.aqm = aqm
        self.aqm_shared = bool(aqm_shared)
        shared_window = make_window(aqm, delta) if self.aqm_shared else None
        self.drivers = tuple(
            DeviceDriver(
                sim,
                make_server(side),
                side.scheduler,
                metrics=self.metrics,
                metrics_prefix=prefix,
                retry=retry,
                classifier=self.classifier,
                window=shared_window if self.aqm_shared else make_window(aqm, delta),
            )
            for side, prefix in zip(front.sides, prefixes)
        )

    def add_completion_hook(self, hook) -> None:
        """Register ``hook(request)`` on every side's driver.

        Whichever side completes a request, the hook fires exactly once
        — the observation point closed-loop sources need.
        """
        for driver in self.drivers:
            driver.add_completion_hook(hook)

    @property
    def completed(self) -> list[Request]:
        return list(chain.from_iterable(d.completed for d in self.drivers))

    @property
    def dropped(self) -> list[Request]:
        return list(chain.from_iterable(d.dropped for d in self.drivers))

    @property
    def shed(self) -> list[Request]:
        return list(chain.from_iterable(d.shed for d in self.drivers))

    @property
    def q1_completed(self) -> int:
        return sum(d.q1_completed for d in self.drivers)

    @property
    def q1_missed(self) -> int:
        return sum(d.q1_missed for d in self.drivers)

    @property
    def preemptions(self) -> int:
        return sum(d.preemptions for d in self.drivers)

    @property
    def overall(self) -> ResponseTimeCollector:
        return merge_sides([d.overall for d in self.drivers])

    @property
    def by_class(self) -> dict[QoSClass, ResponseTimeCollector]:
        return {
            qos: merge_sides([d.by_class[qos] for d in self.drivers])
            for qos, _ in CLASS_LABELS
        }

    def fraction_within(self, bound: float) -> float:
        """Completed-weighted compliance across the sides.

        Empty drivers contribute zero weight rather than polluting the
        average with their NaN ``fraction_within`` (an empty collector
        has no compliance to report — see ``repro.sim.stats``).
        """
        total = sum(len(d.completed) for d in self.drivers)
        if total == 0:
            return float("nan")
        hits = sum(
            driver.overall.fraction_within(bound) * len(driver.completed)
            for driver in self.drivers
            if driver.completed
        )
        return hits / total

    def primary_deadline_misses(self) -> int:
        return sum(d.primary_deadline_misses() for d in self.drivers)

    def fault_ledger(self) -> dict[str, int]:
        """Aggregated conservation buckets across the drivers.

        Per-driver ``window`` residency sums correctly even for a shared
        window (each driver counts only its own residents).
        """
        ledger = {
            "completed": sum(len(d.completed) for d in self.drivers),
            "dropped": sum(len(d.dropped) for d in self.drivers),
            "shed": sum(len(d.shed) for d in self.drivers),
        }
        if self.aqm is not None:
            ledger["window"] = sum(d._window_resident for d in self.drivers)
        return ledger

    def window_snapshot(self) -> dict | None:
        """Window statistics (one dict when shared, per-side otherwise)."""
        if self.aqm is None:
            return None
        if self.aqm_shared:
            return self.drivers[0].window_snapshot()
        return {
            key: driver.window_snapshot()
            for key, driver in zip(self.window_keys, self.drivers)
        }


class SplitSystem(TopologySystem):
    """Front end routing RTT classes to two independent servers.

    Parameters
    ----------
    sim:
        Simulation engine shared by both servers.
    cmin:
        Primary server capacity (also the classifier's decomposition
        capacity).
    delta_c:
        Secondary (overflow) server capacity.
    delta:
        Primary-class response-time bound.
    metrics:
        Optional registry shared by the front end and both drivers; the
        drivers emit under ``q1.driver`` / ``q2.driver`` and the front
        end counts routing decisions as ``split.routed_q1`` / ``_q2``.
    server_factory:
        Constructor ``(sim, capacity, name) -> Server`` for the two
        servers; defaults to :func:`~repro.server.constant_rate.
        constant_rate_server`.  The fault harness passes a factory
        building :class:`~repro.faults.server.FaultableServer` units.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` handed to both
        drivers (timeout/retry semantics as in
        :class:`~repro.server.driver.DeviceDriver`).
    admission:
        Classifier admission mode: ``"count"`` (the paper's bound) or
        ``"work"`` (cumulative admitted demand bounded by ``C·δ``) — see
        :class:`~repro.sched.classifier.OnlineRTTClassifier`.
    aqm:
        Optional in-flight window policy name (see
        :mod:`repro.server.aqm`).  ``None`` (default) leaves both device
        queues unbounded-free — the historical dispatch path.
    aqm_shared:
        When true, both drivers share one window (a single device budget
        for the whole split pair, floored at the sum of their service
        concurrencies); default is a per-driver window each.
    """

    window_keys = ("q1", "q2")

    def __init__(
        self,
        sim: Simulator,
        cmin: float,
        delta_c: float,
        delta: float,
        metrics: MetricsRegistry | None = None,
        server_factory: Callable[[Simulator, float, str], Server] | None = None,
        retry=None,
        admission: str = "count",
        aqm: str | None = None,
        aqm_shared: bool = False,
    ):
        factory = server_factory if server_factory is not None else constant_rate_server
        super().__init__(
            sim,
            SplitFrontEnd(cmin, delta_c, delta, admission),
            lambda side: factory(sim, side.model.capacity, side.name),
            ("q1.driver", "q2.driver"),
            metrics,
            retry,
            aqm,
            aqm_shared,
            delta,
        )
        self.primary_driver, self.overflow_driver = self.drivers
        # Bound once: every arrival reads both servers' ``down`` flags.
        self._primary_server = self.primary_driver.server
        self._overflow_server = self.overflow_driver.server
        self._observed = self.metrics.enabled
        self._m_routed_q1 = self.metrics.counter("split.routed_q1")
        self._m_routed_q2 = self.metrics.counter("split.routed_q2")
        self._m_failovers = self.metrics.counter("split.failovers")
        self.failovers = 0

    @property
    def servers(self) -> list[Server]:
        """Both backing servers, primary first (fault-injection targets)."""
        return [self._primary_server, self._overflow_server]

    def on_arrival(self, request: Request) -> None:
        """Classify, then route to the class's dedicated server.

        If that server is down and the other is up, fail over: a ``Q1``
        arrival is demoted (slot released) before taking the overflow
        path; a ``Q2`` arrival simply borrows the primary server.  With
        both servers down, the request queues at its dedicated driver
        and waits for repair.
        """
        primary, overflow = self._primary_server, self._overflow_server
        if self.route(request) == PRIMARY_SIDE:
            if self._observed:
                self._m_routed_q1.inc()
            if getattr(primary, "down", False) and not getattr(
                overflow, "down", False
            ):
                self.failovers += 1
                self._m_failovers.inc()
                self.classifier.on_completion(request)
                request.classify(QoSClass.OVERFLOW)
                self.overflow_driver.on_arrival(request)
            else:
                self.primary_driver.on_arrival(request)
        else:
            if self._observed:
                self._m_routed_q2.inc()
            if getattr(overflow, "down", False) and not getattr(
                primary, "down", False
            ):
                self.failovers += 1
                self._m_failovers.inc()
                self.primary_driver.on_arrival(request)
            else:
                self.overflow_driver.on_arrival(request)


class _NotifyingFCFS(FCFSScheduler):
    """FCFS that releases the classifier's Q1 slot on completion."""

    name = "q1.fcfs"

    def __init__(self, classifier: OnlineRTTClassifier):
        super().__init__()
        self._classifier = classifier

    def on_completion(self, request: Request) -> None:
        self._classifier.on_completion(request)
        self._note_completion(request)
