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
from typing import Callable, NamedTuple

from .core.capacity import CapacityPlan, CapacityPlanner
from .core.request import QoSClass
from .core.rtt import DecompositionResult, decompose
from .core.workload import Workload
from .exceptions import ConfigurationError, SimulationError
from .obs.export import export_run
from .obs.registry import MetricsRegistry
from .obs.sampler import Sampler, attach_standard_probes
from .perf import engines
from .sched.registry import ALL_POLICIES, TOPOLOGY_POLICIES, make_scheduler
from .server.aqm import AQM_POLICIES, make_window, resolve_aqm
from .server.base import Server, ServiceTimeModel
from .server.cluster import SplitFrontEnd, SplitSystem, TopologySystem
from .server.constant_rate import ConstantRateModel
from .server.driver import DeviceDriver, Side, serve_direct
from .server.farm import ServerFarm
from .server.sizesplit import SizeSplitFrontEnd, SizeSplitSystem
from .sim import batch
from .sim.engine import Simulator
from .sim.source import WorkloadSource
from .sim.stats import ResponseTimeCollector

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
class PolicyRunResult:
    """Measured outcome of serving a workload under one policy.

    Attributes
    ----------
    policy:
        Policy name ("fcfs", "split", "fairqueue", "wf2q", "miser").
    workload_name, cmin, delta_c, delta:
        The experiment configuration.
    overall, primary, overflow:
        Response-time collectors for the whole stream and per class.
        Under FCFS nothing is classified, so ``primary``/``overflow`` are
        empty and ``overall`` carries everything.
    primary_misses:
        Guaranteed-class requests that finished after ``arrival + delta``.
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
    #: (bin_starts, completion rate IOPS) when rate recording was enabled.
    completion_series: tuple | None = None
    #: Metrics + samples when observability was enabled (``metrics=`` /
    #: ``sample_interval=``); ``None`` for unobserved runs.
    telemetry: RunTelemetry | None = None
    #: Path that produced this result: the "scalar" event loop, the
    #: "batch" columnar fast path, or the "direct" heap-free loop
    #: (:func:`repro.server.driver.serve_direct`, one server or a
    #: topology's sides) — all bit-identical.
    engine: str = "scalar"
    #: Admission mode the classifier ran in ("count" or "work").
    admission: str = "count"
    #: In-flight window policy the driver ran with (``None`` = no window).
    aqm: str | None = None
    #: Final window statistics (``snapshot()`` dict, or per-driver dicts
    #: for the two-driver topologies); ``None`` when no window was armed.
    window: dict | None = None

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


def run_policy(
    workload: Workload,
    policy: str,
    cmin: float | None = None,
    delta_c: float | None = None,
    delta: float | None = None,
    config: RunConfig | None = None,
) -> PolicyRunResult:
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
    set.  Either one populates ``PolicyRunResult.telemetry``.

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
        if _direct_supports(config, aqm):
            sides, route = build_stack(policy, config)
            run = serve_direct(workload, *sides, route=route)
            return _policy_result(
                workload,
                policy,
                config,
                run.by_class,
                run.overall,
                completed=run.completed,
                primary_misses=run.primary_misses,
                engine="direct",
            )
    sample_interval = config.sample_interval
    sim = Simulator()
    system = build_stack(policy, config, sim).system

    sampler: Sampler | None = None
    if sample_interval is not None:
        sampler = Sampler(sim, sample_interval)
        attach_standard_probes(sampler, system)
        # Periodic ticks cover the arrival window; the drain tail past
        # ``duration`` is captured by the final snapshot below.
        sampler.install(until=workload.duration)

    source = WorkloadSource(sim, workload, system)
    source.start()
    sim.run()
    if sampler is not None:
        sampler.sample_now()

    telemetry: RunTelemetry | None = None
    if config.metrics is not None or sampler is not None:
        telemetry = RunTelemetry(
            registry=config.metrics if config.metrics is not None else system.metrics,
            samples=sampler.records if sampler is not None else [],
            meta={
                "policy": policy,
                "workload": workload.name,
                "requests": len(workload),
                "cmin": config.cmin,
                "delta_c": config.delta_c,
                "delta": config.delta,
                "duration": workload.duration,
                "sample_interval": sample_interval,
            },
        )

    return _policy_result(
        workload,
        policy,
        config,
        system.by_class,
        system.overall,
        completed=len(system.completed),
        primary_misses=system.primary_deadline_misses(),
        completion_series=(
            system.completion_rates.series()
            if config.record_rates is not None
            else None
        ),
        telemetry=telemetry,
        aqm=aqm,
        window=system.window_snapshot() if aqm is not None else None,
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


def _direct_supports(config: RunConfig, aqm: str | None) -> bool:
    """Whether :func:`~repro.server.driver.serve_direct` can run this.

    Every policy qualifies, single-server or topology, under either
    admission mode, when nothing hooks the event loop: no rate
    recording, no metrics registry, no sampler and no in-flight window
    (``aqm`` is the resolved window policy).
    :func:`repro.workload.closedloop.run_closed_loop` asks the same
    question of a population.
    """
    return (
        config.record_rates is None
        and config.metrics is None
        and config.sample_interval is None
        and aqm is None
    )


def _policy_result(
    workload: Workload,
    policy: str,
    config: RunConfig,
    by_class: dict,
    overall: ResponseTimeCollector,
    completed: int,
    primary_misses: int,
    engine: str = "scalar",
    **extra,
) -> PolicyRunResult:
    """Package one served run, refusing a run that lost a request."""
    if completed != len(workload):
        raise SimulationError(
            f"{policy}: {completed} of {len(workload)} requests completed"
        )
    primary, overflow = class_results(policy, by_class)
    return PolicyRunResult(
        policy=policy,
        workload_name=workload.name,
        cmin=config.cmin,
        delta_c=config.delta_c,
        delta=config.delta,
        overall=overall,
        primary=primary,
        overflow=overflow,
        primary_misses=primary_misses,
        engine=engine,
        admission=config.admission,
        **extra,
    )


def _run_policy_batch(
    workload: Workload, policy: str, config: RunConfig
) -> PolicyRunResult:
    """Columnar fast path of :func:`run_policy` (eligible configs only).

    Delegates the dynamics to :func:`repro.sim.batch.run_batch` and
    repackages the response columns into the same collectors the scalar
    engine fills — in the same sample order, so downstream consumers
    cannot tell the engines apart.  Sized workloads pass their demand
    column straight through.
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
    return _policy_result(
        workload,
        policy,
        config,
        {QoSClass.PRIMARY: primary, QoSClass.OVERFLOW: overflow},
        overall,
        completed=len(overall),
        primary_misses=run.primary_misses,
        engine="batch",
    )


@dataclass(frozen=True)
class ShapingOutcome:
    """Plan + decomposition + (optional) simulated policy results."""

    plan: CapacityPlan
    decomposition: DecompositionResult
    runs: dict

    def run(self, policy: str) -> PolicyRunResult:
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
