"""High-level workload shaping facade.

This module is the public entry point tying the pieces together the way
the paper's system does:

1. **Profile** the workload: find ``Cmin`` for a ``(fraction, delta)``
   QoS target (:class:`~repro.core.capacity.CapacityPlanner`).
2. **Decompose** it with RTT into guaranteed and overflow classes.
3. **Recombine and serve** under a policy — ``fcfs``, ``split``,
   ``fairqueue``, ``wf2q`` or ``miser`` — on a simulated server of
   capacity ``Cmin + delta_C``, measuring the response-time distribution.
   Each run takes the event loop or, bit-identically, the native or the
   heap-free loop (:func:`select_engine`).

Example
-------
>>> from repro.shaping import WorkloadShaper
>>> from repro.traces.library import openmail
>>> shaper = WorkloadShaper(delta=0.010, fraction=0.90)
>>> outcome = shaper.shape(openmail(duration=60.0))
>>> outcome.plan.cmin > 0
True
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .core.capacity import CapacityPlan, CapacityPlanner
from .core.request import QoSClass
from .core.rtt import DecompositionResult, decompose
from .core.workload import Workload
from .exceptions import ConfigurationError, SimulationError
from .obs.export import export_run
from .obs.registry import NULL_REGISTRY, MetricsRegistry
from .obs.sampler import Sampler, attach_standard_probes
from .perf import native
from .perf.engines import ENGINES
from .sched.registry import ALL_POLICIES, TOPOLOGY_POLICIES, make_scheduler
from .server.aqm import AQM_POLICIES, make_window
from .server.base import Server, ServiceTimeModel
from .server.cluster import SplitFrontEnd, SplitSystem, TopologySystem
from .server.constant_rate import ConstantRateModel
from .server.driver import CLASS_LABELS, DeviceDriver, DirectRun, Side, serve_direct
from .server.farm import ServerFarm
from .server.sizesplit import SizeSplitFrontEnd, SizeSplitSystem
from .sim.engine import Simulator
from .sim.source import ClosedLoopPopulation, ClosedLoopSource, WorkloadSource
from .sim.stats import ResponseTimeCollector
from .units import met_deadline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> shaping)
    from .faults.invariants import ConservationReport
    from .faults.schedule import FaultSchedule

#: Planners kept strongly alive by a :class:`WorkloadShaper` (LRU).
PLANNER_CACHE_SIZE = 8


@dataclass(frozen=True)
class RunConfig:
    """Complete configuration of one :func:`run_policy` simulation.

    One validated value — capacity plan, observability, engine,
    admission mode and window — that every entry point builds its stack
    from (:func:`build_stack`), and that can be stored, hashed into
    experiment manifests, and passed around whole:

    >>> run_policy(workload, "split", config=RunConfig(3.0, 2.0, 0.5))

    Attributes
    ----------
    cmin, delta_c, delta:
        The capacity plan: decomposition capacity, overflow surplus, and
        the primary-class response-time bound.  Each must be finite.
    record_rates:
        Completion-rate bin width in seconds (single-server only);
        ``None`` disables rate recording.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` threaded
        through driver and scheduler.
    sample_interval:
        Period of the standard probe sampler; ``None`` disables it.
    engine:
        Execution engine (:mod:`repro.perf.engines`): ``"scalar"`` or
        ``"auto"``; ``None`` means ``"auto"``.
    admission:
        Classifier admission mode: ``"count"`` (the paper's
        ``lenQ1 < floor(C·δ)``) or ``"work"`` (cumulative admitted
        ``service_demand`` bounded by ``C·δ``).
    aqm:
        In-flight window policy bounding the device queue between
        scheduler and server — one of
        :data:`repro.server.aqm.AQM_POLICIES` (``"unbounded"``,
        ``"static"``, ``"codel"``, ``"adaptive"``).  ``None`` (default)
        means no device queue at all: the historical dispatch path,
        bit-identical to pre-AQM builds.
    aqm_shared:
        For the two-driver topologies (``split``/``splitfarm``): share a
        single window across both drivers instead of one each.  Ignored
        by single-server policies.
    """

    cmin: float
    delta_c: float
    delta: float
    record_rates: float | None = None
    metrics: MetricsRegistry | None = None
    sample_interval: float | None = None
    engine: str | None = None
    admission: str = "count"
    aqm: str | None = None
    aqm_shared: bool = False

    def __post_init__(self) -> None:
        for name in ("cmin", "delta_c", "delta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.cmin <= 0 or self.delta_c < 0 or self.delta <= 0:
            raise ConfigurationError(
                f"bad configuration: cmin={self.cmin}, "
                f"delta_c={self.delta_c}, delta={self.delta}"
            )
        if self.engine is not None and self.engine not in ENGINES + ("auto",):
            raise ConfigurationError(
                f"unknown execution engine {self.engine!r}; "
                f"choose from {sorted(ENGINES)} or 'auto'"
            )
        if self.admission not in ("count", "work"):
            raise ConfigurationError(
                f"unknown admission mode {self.admission!r}; "
                "choose from ['count', 'work']"
            )
        if self.aqm is not None and self.aqm not in AQM_POLICIES:
            raise ConfigurationError(
                f"unknown aqm window policy {self.aqm!r}; "
                f"choose from {sorted(AQM_POLICIES)} or None"
            )
        if self.aqm_shared and self.aqm is None:
            raise ConfigurationError("aqm_shared requires an aqm policy")

    def with_engine(self, engine: str | None) -> "RunConfig":
        """A copy selecting a different execution engine."""
        return replace(self, engine=engine)


@dataclass(frozen=True)
class RunTelemetry:
    """Metrics and samples captured during one :func:`run_policy` call.

    Attributes
    ----------
    registry:
        The run's metric registry (counters/gauges/histograms, final
        values).
    samples:
        Periodic :class:`~repro.obs.sampler.Sampler` records — one dict
        per tick plus a final end-of-run snapshot.
    meta:
        Run configuration echoed into the trace's ``meta`` line.
    """

    registry: MetricsRegistry
    samples: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def export(self, path) -> int:
        """Write the JSONL trace (see :func:`repro.obs.export.export_run`)."""
        return export_run(path, self.registry, self.samples, meta=self.meta)


@dataclass(frozen=True)
class RunResult:
    """Measured outcome of one run, however its traffic reached the stack.

    Every entry point returns one: :func:`run_policy` (open loop),
    :func:`repro.workload.closedloop.run_closed_loop` (closed loop),
    :func:`repro.faults.harness.run_resilient` and ``run_chaos`` (the
    fault plane) and, as its subclass
    :class:`~repro.serve.harness.ServeRunResult`, the serving plane.
    :func:`run_result` packages each one after the same end-of-run
    check, so every result reports a run that lost no request.

    Attributes
    ----------
    policy, workload_name, cmin, delta_c, delta:
        The run's configuration.  A closed loop is named
        ``closed-loop-<policy>-<users>u``.
    overall, primary, overflow:
        Response-time collectors for the whole stream and per class.
        Under FCFS nothing is classified, so ``primary``/``overflow`` are
        empty and ``overall`` carries everything.  The native loops hand
        their float64 response column to the collectors as their sample
        store (:meth:`~repro.sim.stats.ResponseTimeCollector.adopting`);
        every view reads as it does on the event loop.
    primary_misses:
        Guaranteed-class requests that finished after ``arrival + delta``.
    ledger:
        Conservation buckets ``{"completed", "dropped", "shed"}``, plus
        a ``"window"`` residency bucket (checked zero) when a window was
        armed.  Only the fault plane drops and sheds.
    engine:
        Path that served the run (:func:`select_engine`), all
        bit-identical: the ``"native"`` C loops (fcfs, split, fairqueue,
        wf2q and miser open loop; srpt, nudge, boost, edf and splitfarm
        closed loop), the ``"direct"`` heap-free loop
        (:func:`repro.server.driver.serve_direct`, one server or a
        topology's sides) or the ``"scalar"`` event loop.
    admission, aqm:
        The classifier's admission mode and the in-flight window policy
        the stack ran with (``None`` = no window).
    window:
        Final window statistics (``snapshot()`` dict, or per-driver dicts
        for the two-driver topologies); ``None`` when no window was armed.
    completion_series:
        ``(bin_starts, completion rate IOPS)`` when rate recording was on.
    telemetry:
        Metrics and samples when a registry or a sampler was attached;
        ``None`` for unobserved runs.
    submitted:
        A closed loop's requests in submission order: its arrival trace
        is an outcome of the run (:meth:`observed_workload`).  Empty for
        the other entry points; an open loop keeps no requests.
    schedule, completed, dropped, shed, conservation:
        The fault plane's schedule, terminal requests and identity audit
        (:func:`repro.faults.invariants.assert_conservation`).
    demotions, failovers, degrades, recoveries, final_limit:
        The fault plane's Q1 demotions and failovers, and the adaptive
        controller's statistics (``None`` when it did not run;
        ``final_limit`` is the classifier's last ``maxQ1``).
    """

    policy: str
    workload_name: str
    cmin: float
    delta_c: float
    delta: float
    overall: ResponseTimeCollector
    primary: ResponseTimeCollector
    overflow: ResponseTimeCollector
    primary_misses: int
    ledger: dict
    engine: str = "scalar"
    admission: str = "count"
    aqm: str | None = None
    window: dict | None = None
    completion_series: tuple | None = None
    telemetry: RunTelemetry | None = None
    submitted: list = field(repr=False, default_factory=list)
    schedule: FaultSchedule | None = None
    completed: list = field(repr=False, default_factory=list)
    dropped: list = field(repr=False, default_factory=list)
    shed: list = field(repr=False, default_factory=list)
    conservation: ConservationReport | None = None
    demotions: int = 0
    failovers: int = 0
    degrades: int | None = None
    recoveries: int | None = None
    final_limit: int | None = None

    @property
    def total_capacity(self) -> float:
        return self.cmin + self.delta_c

    def fraction_within(self, bound: float | None = None) -> float:
        """Overall fraction meeting ``bound`` (defaults to ``delta``).

        ``NaN`` for a run that completed zero requests (empty workload) —
        such a run has no compliance to report.
        """
        return self.overall.fraction_within(self.delta if bound is None else bound)

    def binned_fractions(self, edges) -> dict[str, float]:
        """Figure 6-style cumulative bins over the overall distribution."""
        return self.overall.binned_fractions(edges)

    def q1_compliance(self) -> float:
        """Deadline compliance over every completed primary request."""
        total = len(self.primary)
        if total == 0:
            return float("nan")
        return 1.0 - self.primary_misses / total

    def q1_compliance_after(self, instant: float) -> float:
        """Q1 deadline compliance among arrivals after ``instant``.

        The chaos acceptance metric, over a fault-plane run's
        ``completed`` requests: evaluated at ``schedule.last_clear`` it
        measures whether shaping *restored* the guarantee once the
        faults ended.
        """
        done = [
            r
            for r in self.completed
            if r.qos_class is QoSClass.PRIMARY and r.arrival > instant
        ]
        if done:
            return sum(1 for r in done if r.met_deadline) / len(done)
        if not any(r.qos_class is QoSClass.PRIMARY for r in self.completed):
            # Classifier-free run (FCFS): fall back to the overall
            # within-delta fraction over the same post-fault window.
            late = [r for r in self.completed if r.arrival > instant]
            if late:
                return sum(
                    1 for r in late if met_deadline(r.response_time, self.delta)
                ) / len(late)
        return float("nan")

    def observed_workload(self) -> Workload:
        """The arrival trace a closed loop's population generated.

        Materializing it closes the loop back into the open-loop
        tooling: the observed trace can be decomposed, replayed, or
        golden-recorded like any other workload.
        """
        ordered = sorted(self.submitted, key=lambda r: (r.arrival, r.index))
        return Workload.from_requests(ordered, name=self.workload_name)


def run_policy(
    workload: Workload,
    policy: str,
    cmin: float | None = None,
    delta_c: float | None = None,
    delta: float | None = None,
    config: RunConfig | None = None,
) -> RunResult:
    """Simulate serving ``workload`` under ``policy`` and collect stats.

    Pass the run as ``config=RunConfig(...)``, or only its capacity plan
    as the flat ``cmin``/``delta_c``/``delta``, not both.

    Capacity allocation follows Section 4.3: the total provisioned
    capacity is always ``cmin + delta_c``.  FCFS uses all of it on the
    unpartitioned stream; Split dedicates ``cmin`` to ``Q1`` and
    ``delta_c`` to ``Q2`` on separate servers; FairQueue/WF²Q/Miser share
    a single ``cmin + delta_c`` server between the classes.  The stack
    is :func:`build_stack`'s.

    ``config.metrics`` threads a registry through the driver(s) and
    scheduler; ``config.sample_interval`` additionally installs a
    periodic :class:`~repro.obs.sampler.Sampler` with the standard probe
    set.  Either one populates ``RunResult.telemetry``.

    ``config.engine`` selects the execution engine
    (:mod:`repro.perf.engines`): ``"scalar"`` forces the event loop,
    and ``"auto"`` (or ``None``, the default) picks the first path that
    qualifies (:func:`select_engine`) for a run with no observability
    or window attached: the native C loops (fcfs, split, fairqueue,
    wf2q or miser with sizes unit or in ingest's range, either
    admission mode; ``engine="native"``), then the heap-free loop
    (every other run — a single-server policy on its one server, split
    and splitfarm on their front end's two sides; ``engine="direct"``),
    then the event loop.  The samples are bit-identical whichever path
    runs (certified by :func:`repro.check.differential.engine_parity`).
    """
    if config is not None:
        if any(value is not None for value in (cmin, delta_c, delta)):
            raise ConfigurationError(
                "pass either config=RunConfig(...) or cmin/delta_c/delta, "
                "not both"
            )
    elif cmin is None or delta_c is None or delta is None:
        raise ConfigurationError(
            "run_policy needs cmin, delta_c, and delta "
            "(directly or via config=RunConfig(...))"
        )
    else:
        config = RunConfig(cmin, delta_c, delta)
    check_policy(policy, config)
    return serve_feed(workload, policy, config)


def select_engine(
    feed: Workload | ClosedLoopPopulation, policy: str, config: RunConfig
) -> str:
    """The path that serves ``policy`` on ``feed`` under ``config``.

    The one selection rule, which :func:`serve_feed` follows and
    :func:`repro.check.differential.engine_parity` certifies.
    ``engine="scalar"``, rate recording, a metrics registry, a sampler
    or a window take the event loop (``"scalar"``), which attaches them.
    Otherwise an open loop takes ``"native"`` where
    :func:`repro.perf.native.serves` says so, a closed-loop population
    where :func:`repro.perf.native.serves_closed` does, and every other
    run ``"direct"``.
    """
    if (
        config.engine == "scalar"
        or config.record_rates is not None
        or config.metrics is not None
        or config.sample_interval is not None
        or config.aqm is not None
    ):
        return "scalar"
    if isinstance(feed, Workload):
        served = native.serves(policy, feed.sizes)
    else:
        served = native.serves_closed(policy, feed)
    return "native" if served else "direct"


def serve_feed(
    feed: Workload | ClosedLoopPopulation,
    policy: str,
    config: RunConfig,
) -> RunResult:
    """The run body :func:`run_policy` and ``run_closed_loop`` share.

    ``feed`` is a workload, replayed open loop, or a closed-loop
    population.  It is served on the path :func:`select_engine` names:
    the native loops (:func:`serve_native`, or for a population
    :func:`serve_native_closed`), the heap-free loop
    (:func:`~repro.server.driver.serve_direct`) or the event loop, which
    alone attaches rate recording, a metrics registry, a sampler or a
    window.
    """
    engine = select_engine(feed, policy, config)
    closed = isinstance(feed, ClosedLoopPopulation)
    if closed:
        name, duration = f"closed-loop-{policy}-{feed.n_users}u", feed.horizon
    else:
        name, duration = feed.name, feed.duration
    sampler = series = None
    if engine == "native":
        report = (serve_native_closed if closed else serve_native)(feed, policy, config)
    elif engine == "direct":
        sides, route = build_stack(policy, config)
        report = serve_direct(feed, *sides, route=route)
    else:
        sim = Simulator()
        report = build_stack(policy, config, sim).system
        if config.sample_interval is not None:
            sampler = Sampler(sim, config.sample_interval)
            attach_standard_probes(sampler, report)
            # Periodic ticks cover the arrivals; the drain tail past
            # them is captured by the final snapshot below.
            sampler.install(until=duration)
        if closed:
            source = ClosedLoopSource(sim, report, feed)
        else:
            source = WorkloadSource(sim, feed, report)
        source.start()
        sim.run()
        if sampler is not None:
            sampler.sample_now()
        if config.record_rates is not None:
            series = report.completion_rates.series()
    submitted = feed.requests if closed else []
    return run_result(
        report,
        policy,
        config,
        name,
        len(submitted) if closed else len(feed),
        duration,
        sampler=sampler,
        engine=engine,
        submitted=submitted,
        completion_series=series,
    )


def run_result(
    report: DeviceDriver | TopologySystem | DirectRun,
    policy: str,
    config: RunConfig,
    workload_name: str,
    requests: int,
    duration: float,
    sampler: Sampler | None = None,
    result: type = RunResult,
    **fields,
) -> RunResult:
    """Package a finished run as a ``result``: the one end-of-run check.

    ``report`` served the run: a driver, a topology's system, or a
    :class:`~repro.server.driver.DirectRun` (the heap-free loop's or the
    native loops' collectors).  ``requests`` entered it.  Each of them
    must have ended completed, dropped or shed, and none may still be
    in a device window; otherwise the run lost a request and
    :class:`~repro.exceptions.SimulationError` is raised.

    A registry in ``config.metrics`` or a ``sampler`` makes the
    result's telemetry (``duration`` goes into its meta line).
    ``fields`` fill the rest of the ``result`` type's fields.
    """
    ledger = report.fault_ledger()
    resident = ledger.get("window", 0)
    if resident:
        raise SimulationError(
            f"{policy}: window not drained at end of run "
            f"({resident} requests still resident)"
        )
    ended = ledger["completed"] + ledger["dropped"] + ledger["shed"]
    if ended != requests:
        raise SimulationError(
            f"{policy}: {ended} of {requests} requests ended completed, "
            "dropped or shed"
        )
    telemetry: RunTelemetry | None = None
    if config.metrics is not None or sampler is not None:
        telemetry = RunTelemetry(
            registry=config.metrics if config.metrics is not None else NULL_REGISTRY,
            samples=sampler.records if sampler is not None else [],
            meta={
                "policy": policy,
                "workload": workload_name,
                "requests": requests,
                "cmin": config.cmin,
                "delta_c": config.delta_c,
                "delta": config.delta,
                "duration": duration,
                "sample_interval": sampler.interval if sampler is not None else None,
            },
        )
    primary, overflow = class_results(policy, report.by_class)
    return result(
        policy=policy,
        workload_name=workload_name,
        cmin=config.cmin,
        delta_c=config.delta_c,
        delta=config.delta,
        overall=report.overall,
        primary=primary,
        overflow=overflow,
        primary_misses=report.primary_deadline_misses(),
        ledger=ledger,
        admission=config.admission,
        aqm=config.aqm,
        window=report.window_snapshot() if config.aqm is not None else None,
        telemetry=telemetry,
        **fields,
    )


def check_policy(policy: str, config: RunConfig) -> None:
    """Refuse ``policy`` under ``config`` if no stack can run it.

    The one check every entry point makes, before it picks an engine;
    :class:`RunConfig` has already refused bad capacities and
    ``aqm_shared`` without ``aqm``.
    """
    if policy not in ALL_POLICIES:
        raise ConfigurationError(f"unknown policy {policy!r}")
    if config.record_rates is not None and policy in TOPOLOGY_POLICIES:
        raise ConfigurationError("rate recording is single-server only")


class Stack(NamedTuple):
    """An event-loop stack :func:`build_stack` assembled on a simulator.

    ``system`` is the sink a source feeds; ``servers`` its service units
    in fault-schedule ``unit`` order.  ``loop_driver`` carries the ``Q1``
    completions the adaptive controller reads (primary or small side),
    ``shed_from`` the demoted work (overflow or large side); a
    single-server stack's one driver is both.
    """

    system: DeviceDriver | TopologySystem
    servers: list
    loop_driver: DeviceDriver
    shed_from: DeviceDriver


def build_stack(
    policy: str,
    config: RunConfig,
    sim: Simulator | None = None,
    retry=None,
    unit: Callable[[Simulator, ServiceTimeModel, str], Server] = Server,
):
    """The stack that serves ``policy`` under ``config``: the one recipe.

    With no ``sim``: ``(sides, route)`` for
    :func:`~repro.server.driver.serve_direct`, a topology's front-end
    sides and routing rule, or one rate ``cmin + delta_c`` side and no
    route.  With a ``sim``: a :class:`Stack` on it, whose service units
    are ``unit(sim, model, name)`` — plain servers by default, or
    :func:`repro.faults.injector.faulty_units` for the fault plane —
    named ``primary``/``overflow`` (split), ``small[0]``/``large[0]``
    (splitfarm's one-unit farms) or after the policy.  ``retry`` arms
    every driver's timeout/retry path.
    """
    check_policy(policy, config)
    cmin, delta_c, delta = config.cmin, config.delta_c, config.delta
    admission = config.admission
    if sim is None:
        if policy == "split":
            front = SplitFrontEnd(cmin, delta_c, delta, admission)
        elif policy == "splitfarm":
            front = SizeSplitFrontEnd(cmin, delta_c, delta, admission=admission)
        else:
            scheduler = make_scheduler(policy, cmin, delta_c, delta, admission)
            return (Side(scheduler, ConstantRateModel(cmin + delta_c), policy),), None
        return front.sides, front.route
    shared = dict(
        metrics=config.metrics,
        retry=retry,
        admission=admission,
        aqm=config.aqm,
        aqm_shared=config.aqm_shared,
    )
    if policy == "split":
        system = SplitSystem(
            sim,
            cmin,
            delta_c,
            delta,
            server_factory=lambda s, rate, name: unit(s, ConstantRateModel(rate), name),
            **shared,
        )
        return Stack(
            system, system.servers, system.primary_driver, system.overflow_driver
        )
    if policy == "splitfarm":
        system = SizeSplitSystem(
            sim,
            cmin,
            delta_c,
            delta,
            farm_factory=lambda s, rate, units, name: ServerFarm(
                s,
                [ConstantRateModel(rate / units) for _ in range(units)],
                name=name,
                unit_factory=unit,
            ),
            **shared,
        )
        return Stack(
            system, system.servers, system.small_driver, system.large_driver
        )
    scheduler = make_scheduler(policy, cmin, delta_c, delta, admission)
    server = unit(sim, ConstantRateModel(cmin + delta_c), policy)
    driver = DeviceDriver(
        sim,
        server,
        scheduler,
        record_rates=config.record_rates,
        metrics=config.metrics,
        retry=retry,
        window=make_window(config.aqm, delta),
    )
    return Stack(driver, [server], driver, driver)


def class_results(
    policy: str, by_class: dict
) -> tuple[ResponseTimeCollector, ResponseTimeCollector]:
    """The ``(primary, overflow)`` collectors a run's result reports.

    FCFS classifies nothing, so its pair is empty and ``overall`` holds
    every sample.
    """
    if policy == "fcfs":
        return ResponseTimeCollector("Q1"), ResponseTimeCollector("Q2")
    return by_class[QoSClass.PRIMARY], by_class[QoSClass.OVERFLOW]


def serve_native(workload: Workload, policy: str, config: RunConfig) -> DirectRun:
    """The native loops' run (:mod:`repro.perf.native`).

    Serves ``workload`` under ``policy``, one of
    :data:`~repro.perf.native.SERVE_POLICIES`, on the stack
    :func:`build_stack` assembles for the direct loop: it is built, so a
    configuration the policy refuses is refused alike, and its servers'
    rates and its classifier (a topology's front end's, or the one
    scheduler's) give the loop its rates and admission bound.  The
    collectors adopt the loop's response column, and slices of it, as
    their sample store: they hold the direct loop's samples, in its
    order, and fold their moments lazily, so their ``stats`` match too.
    """
    sides, route = build_stack(policy, config)
    if policy in native.FIFO_POLICIES:
        # Split's classifier is its front end's; ``route`` is bound to it.
        classifier = route.__self__.classifier if route is not None else None
        responses, first, misses = native.serve_fifo(
            workload.arrivals,
            workload.sizes,
            [(model.capacity, name) for _, model, name in sides],
            classifier,
        )
        if classifier is None:
            columns = {QoSClass.UNCLASSIFIED: responses}
        else:
            columns = {
                QoSClass.PRIMARY: responses[:first],
                QoSClass.OVERFLOW: responses[first:],
            }
    else:
        ((scheduler, model, _),) = sides
        responses, classes, misses = native.serve_recombined(
            workload.arrivals,
            workload.sizes,
            policy,
            model.capacity,
            (config.cmin, config.delta_c),
            scheduler.classifier,
        )
        columns = {
            qos: responses[classes == qos]
            for qos in (QoSClass.PRIMARY, QoSClass.OVERFLOW)
        }
    return _adopted(responses, columns, misses)


def serve_native_closed(
    population: ClosedLoopPopulation, policy: str, config: RunConfig
) -> DirectRun:
    """:func:`serve_native`'s closed counterpart: the closed loop in C.

    Serves ``population`` under ``policy``, one of
    :data:`~repro.perf.native.CLOSED_POLICIES`, on the stack
    :func:`build_stack` assembles for the direct loop, whose objects give
    the loop its rates, rules and classifier
    (:func:`repro.perf.native.serve_closed`).  The population's
    ``requests`` fill as the direct loop fills them, and the collectors
    adopt the loop's response column, per class, with a topology's sides
    merged in side order (:func:`~repro.server.driver.merge_sides`).
    """
    sides, route = build_stack(policy, config)
    if route is not None:
        classifier = route.__self__.classifier
    else:
        classifier = getattr(sides[0].scheduler, "classifier", None)
    responses, classes, where, misses, preemptions = native.serve_closed(
        population, policy, sides, classifier
    )
    if route is not None:
        merged = np.argsort(where, kind="stable")
        responses, classes = responses[merged], classes[merged]
    columns = {qos: responses[classes == qos] for qos, _ in CLASS_LABELS}
    return _adopted(responses, columns, misses, preemptions)


def _adopted(
    responses: np.ndarray, columns: dict, misses: int, preemptions: int = 0
) -> DirectRun:
    """A native loop's run: collectors adopting its response columns.

    ``columns`` maps a class to its responses; a class it lacks collected
    nothing.
    """
    empty = np.empty(0)
    return DirectRun(
        by_class={
            qos: ResponseTimeCollector.adopting(label, columns.get(qos, empty))
            for qos, label in CLASS_LABELS
        },
        overall=ResponseTimeCollector.adopting("overall", responses),
        completed=responses.size,
        primary_misses=misses,
        preemptions=preemptions,
    )


@dataclass(frozen=True)
class ShapingOutcome:
    """Plan + decomposition + (optional) simulated policy results."""

    plan: CapacityPlan
    decomposition: DecompositionResult
    runs: dict

    def run(self, policy: str) -> RunResult:
        try:
            return self.runs[policy]
        except KeyError:
            raise ConfigurationError(
                f"policy {policy!r} was not simulated; have {sorted(self.runs)}"
            ) from None


class WorkloadShaper:
    """End-to-end shaping pipeline for one QoS target.

    Parameters
    ----------
    delta:
        Response-time bound of the guaranteed class (seconds).
    fraction:
        Fraction of requests to guarantee.
    delta_c:
        Overflow surplus capacity; defaults to the paper's ``1 / delta``.
    """

    def __init__(self, delta: float, fraction: float, delta_c: float | None = None):
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        if not 0 < fraction <= 1:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        self.delta = delta
        self.fraction = fraction
        self.delta_c = delta_c if delta_c is not None else 1.0 / delta
        # Weak cache + bounded strong LRU: a plain id()-keyed dict held
        # every planner (and via it every workload) forever, so shapers
        # used across many workloads grew without bound — and a recycled
        # id() could even alias a dead workload's entry.  The weak map
        # drops entries as soon as nothing keeps the planner alive; the
        # LRU pins the most recent PLANNER_CACHE_SIZE so memoization
        # still works for the common reuse patterns.
        self._planners: weakref.WeakValueDictionary[int, CapacityPlanner] = (
            weakref.WeakValueDictionary()
        )
        self._planner_lru: OrderedDict[int, CapacityPlanner] = OrderedDict()

    def planner(self, workload: Workload) -> CapacityPlanner:
        """Per-workload planner, memoized for the shaper's lifetime.

        Repeated :meth:`plan` / :meth:`decompose` / :meth:`shape` calls
        on the same workload then share the planner's cached RTT
        evaluations and bisection brackets.  At most
        :data:`PLANNER_CACHE_SIZE` planners are kept alive by the shaper
        itself; older ones fall out of the weak cache once no caller
        references them.
        """
        key = id(workload)
        planner = self._planners.get(key)
        if planner is None or planner.workload is not workload:
            planner = CapacityPlanner(workload, self.delta)
            self._planners[key] = planner
        self._planner_lru[key] = planner
        self._planner_lru.move_to_end(key)
        while len(self._planner_lru) > PLANNER_CACHE_SIZE:
            self._planner_lru.popitem(last=False)
        return planner

    def plan(self, workload: Workload) -> CapacityPlan:
        """Profile: the minimum-capacity provisioning decision."""
        return self.planner(workload).plan(self.fraction, delta_c=self.delta_c)

    def decompose(self, workload: Workload, cmin: float | None = None):
        """Split the workload at ``cmin`` (planned if not given)."""
        if cmin is None:
            cmin = self.plan(workload).cmin
        return decompose(workload, cmin, self.delta)

    def shape(
        self,
        workload: Workload,
        policies: tuple[str, ...] = ("miser",),
    ) -> ShapingOutcome:
        """Plan, decompose, and simulate the requested policies."""
        plan = self.plan(workload)
        decomposition = decompose(workload, plan.cmin, self.delta)
        runs = {
            policy: run_policy(workload, policy, plan.cmin, plan.delta_c, self.delta)
            for policy in policies
        }
        return ShapingOutcome(plan=plan, decomposition=decomposition, runs=runs)
