"""High-level workload shaping facade.

This module is the public entry point tying the pieces together the way
the paper's system does:

1. **Profile** the workload: find ``Cmin`` for a ``(fraction, delta)``
   QoS target (:class:`~repro.core.capacity.CapacityPlanner`).
2. **Decompose** it with RTT into guaranteed and overflow classes.
3. **Recombine and serve** under a policy — ``fcfs``, ``split``,
   ``fairqueue``, ``wf2q`` or ``miser`` — on a simulated server of
   capacity ``Cmin + delta_C``, measuring the response-time distribution.

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

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, NamedTuple

from .core.capacity import CapacityPlan, CapacityPlanner
from .core.request import QoSClass
from .core.rtt import DecompositionResult, decompose
from .core.workload import Workload
from .exceptions import ConfigurationError, SimulationError
from .obs.export import export_run
from .obs.registry import NULL_REGISTRY, MetricsRegistry
from .obs.sampler import Sampler, attach_standard_probes
from .perf import engines
from .sched.registry import ALL_POLICIES, TOPOLOGY_POLICIES, make_scheduler
from .server.aqm import AQM_POLICIES, make_window, resolve_aqm
from .server.base import Server, ServiceTimeModel
from .server.cluster import SplitFrontEnd, SplitSystem, TopologySystem
from .server.constant_rate import ConstantRateModel
from .server.driver import DeviceDriver, DirectRun, Side, serve_direct
from .server.farm import ServerFarm
from .server.sizesplit import SizeSplitFrontEnd, SizeSplitSystem
from .sim import batch
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
        the primary-class response-time bound.
    record_rates:
        Completion-rate bin width in seconds (single-server only);
        ``None`` disables rate recording.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry` threaded
        through driver and scheduler.
    sample_interval:
        Period of the standard probe sampler; ``None`` disables it.
    engine:
        Execution engine override ("scalar", "batch", "auto"); ``None``
        defers to :mod:`repro.perf.engines`.
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
        if self.cmin <= 0 or self.delta_c < 0 or self.delta <= 0:
            raise ConfigurationError(
                f"bad configuration: cmin={self.cmin}, "
                f"delta_c={self.delta_c}, delta={self.delta}"
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
        empty and ``overall`` carries everything.
    primary_misses:
        Guaranteed-class requests that finished after ``arrival + delta``.
    ledger:
        Conservation buckets ``{"completed", "dropped", "shed"}``, plus
        a ``"window"`` residency bucket (checked zero) when a window was
        armed.  Only the fault plane drops and sheds.
    engine:
        Path that served the run, all bit-identical: the ``"scalar"``
        event loop, the ``"batch"`` columnar fast path (open loop only),
        or the ``"direct"`` heap-free loop
        (:func:`repro.server.driver.serve_direct`, one server or a
        topology's sides).
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

    ``config.engine`` overrides the execution-engine selection of
    :mod:`repro.perf.engines` for this call: ``"scalar"`` forces the
    event loop, ``"batch"`` demands the columnar fast path (an error if
    the configuration is ineligible), and ``"auto"`` (the process
    default) picks the first path that qualifies: the batch engine (an
    FCFS or Split run under count admission with no observability or
    window attached), then the heap-free loop (every other policy with
    none of those attached — a single-server policy on its one server,
    Split under work admission and splitfarm on their front end's two
    sides; the result records ``engine="direct"``), then the event
    loop.  The samples are bit-identical whichever path runs (certified
    by :func:`repro.check.differential.engine_parity`).
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
    # Resolve the effective window policy (aqm= argument, Registry
    # override, or REPRO_AQM) once, so engine eligibility, the armed
    # window, and the result snapshot can never disagree.
    aqm = resolve_aqm(config.aqm)
    requested = engines.resolve_engine(config.engine)
    if requested != "scalar":
        eligible, reason = batch.supports(
            policy,
            record_rates=config.record_rates,
            metrics=config.metrics,
            sample_interval=config.sample_interval,
            admission=config.admission,
            aqm=aqm,
        )
        if eligible:
            return _run_policy_batch(workload, policy, config)
        if requested == "batch":
            raise ConfigurationError(
                f"engine 'batch' cannot run this configuration: {reason} "
                "(use engine='auto' to fall back to the event engine)"
            )
    return serve_feed(workload, policy, config, aqm, requested)


def serve_feed(
    feed: Workload | ClosedLoopPopulation,
    policy: str,
    config: RunConfig,
    aqm: str | None,
    requested: str,
) -> RunResult:
    """The run body :func:`run_policy` and ``run_closed_loop`` share.

    ``feed`` is a workload, replayed open loop, or a closed-loop
    population; ``aqm`` the resolved window policy and ``requested``
    the resolved engine, never ``"batch"``.  Unless it is
    ``"scalar"``, every policy, single-server or topology, takes the
    heap-free loop when nothing hooks the event loop: no rate recording,
    metrics registry, sampler or window.  Every other run takes the
    event loop, which attaches them.
    """
    closed = isinstance(feed, ClosedLoopPopulation)
    if closed:
        name, duration = f"closed-loop-{policy}-{feed.n_users}u", feed.horizon
    else:
        name, duration = feed.name, feed.duration
    sampler = series = None
    hooked = (
        config.record_rates is not None
        or config.metrics is not None
        or config.sample_interval is not None
        or aqm is not None
    )
    if requested != "scalar" and not hooked:
        sides, route = build_stack(policy, config)
        report = serve_direct(feed, *sides, route=route)
        engine = "direct"
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
        engine = "scalar"
    submitted = feed.requests if closed else []
    return run_result(
        report,
        policy,
        config,
        name,
        len(submitted) if closed else len(feed),
        duration,
        aqm=aqm,
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
    aqm: str | None = None,
    sampler: Sampler | None = None,
    result: type = RunResult,
    **fields,
) -> RunResult:
    """Package a finished run as a ``result``: the one end-of-run check.

    ``report`` served the run: a driver, a topology's system, or a
    :class:`~repro.server.driver.DirectRun` (the heap-free loop's, or the
    batch engine's collectors).  ``requests`` entered it.  Each of them
    must have ended completed, dropped or shed, and none may still be
    in a device window; otherwise the run lost a request and
    :class:`~repro.exceptions.SimulationError` is raised.

    ``aqm`` is the resolved window policy.  A registry in
    ``config.metrics`` or a ``sampler`` makes the result's telemetry
    (``duration`` goes into its meta line).  ``fields`` fill the rest of
    the ``result`` type's fields.
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
        aqm=aqm,
        window=report.window_snapshot() if aqm is not None else None,
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
    aqm = resolve_aqm(config.aqm)
    shared = dict(
        metrics=config.metrics,
        retry=retry,
        admission=admission,
        aqm=aqm,
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
        window=make_window(aqm, delta),
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


def _run_policy_batch(workload: Workload, policy: str, config: RunConfig) -> RunResult:
    """Columnar fast path of :func:`run_policy` (eligible configs only).

    Delegates the dynamics to :func:`repro.sim.batch.run_batch` and
    repackages the response columns into the same collectors the scalar
    engine fills — in the same sample order, so downstream consumers
    cannot tell the engines apart — handed over as a
    :class:`~repro.server.driver.DirectRun`.  Sized workloads pass their
    demand column straight through.
    """
    run = batch.run_batch(
        workload.arrivals,
        policy,
        config.cmin,
        config.delta_c,
        config.delta,
        demands=workload.sizes,
    )
    overall = ResponseTimeCollector("overall")
    overall.extend_array(run.overall)
    primary = ResponseTimeCollector("Q1")
    primary.extend_array(run.primary)
    overflow = ResponseTimeCollector("Q2")
    overflow.extend_array(run.overflow)
    collected = DirectRun(
        by_class={QoSClass.PRIMARY: primary, QoSClass.OVERFLOW: overflow},
        overall=overall,
        completed=len(overall),
        primary_misses=run.primary_misses,
        preemptions=0,
    )
    return run_result(
        collected,
        policy,
        config,
        workload.name,
        len(workload),
        workload.duration,
        engine="batch",
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
