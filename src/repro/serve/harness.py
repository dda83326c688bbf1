"""Virtual-clock service harness: the whole control plane, deterministic.

:class:`ServiceHarness` assembles the serving plane — staged ingestion,
live admission (:class:`~repro.serve.admission.AdmissionService`), the
certified scheduling/serving stack from :mod:`repro.shaping`, and
optionally the fault plane and the :class:`~repro.serve.autoscaler.
Autoscaler` — on one :class:`~repro.sim.engine.Simulator`.  Virtual time
makes the service a pure function of its inputs, which is what lets the
differential harness (:func:`repro.check.differential.serve_parity`)
certify **serve ≡ simulate, bit for bit**:

* :class:`StagedSource` reproduces :class:`~repro.sim.source.
  WorkloadSource`'s delivery semantics exactly — one pending event at a
  time at arrival priority, the next arrival scheduled *before* the
  current one is delivered, identical :class:`~repro.core.request.
  Request` construction — while also accepting requests staged mid-run
  (the ingestion path);
* the serving stack is constructed with the very same component recipe
  as ``run_policy`` (healthy) or ``run_resilient`` (fault mode), so
  event order, float operation order, and therefore every response time
  are identical;
* the admission service runs **predict-then-verify**: each delivery is
  preceded by a read-only :meth:`~repro.serve.admission.AdmissionService.
  decide` and followed by a check that the stack's authoritative
  classifier did exactly what was predicted.  A service that drifted
  from the simulator would surface as a verification violation, not a
  silently different answer.

Running in chunks (``sim.run(until=t)`` boundaries) is parity-safe by
the engine's contract — events exactly at a boundary still fire and the
clock lands on the boundary — and every chunk edge doubles as an epoch
**audit point** where request-count conservation is asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..core.request import QoSClass, Request
from ..core.workload import Workload
from ..exceptions import ConfigurationError, SimulationError
from ..faults.controller import AdaptiveShaper, ControllerConfig
from ..faults.injector import FaultInjector, FaultState, FaultyModel
from ..faults.invariants import ConservationReport, assert_conservation
from ..faults.retry import RetryPolicy
from ..faults.schedule import FaultSchedule
from ..faults.server import FaultableServer
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..obs.sampler import Sampler, attach_standard_probes
from ..sched.registry import SINGLE_SERVER_POLICIES, make_scheduler
from ..server.aqm import make_window, resolve_aqm
from ..server.cluster import SplitSystem
from ..server.constant_rate import ConstantRateModel, constant_rate_server
from ..server.driver import DeviceDriver
from ..server.farm import ServerFarm
from ..server.sizesplit import SizeSplitSystem
from ..sim.engine import Simulator
from ..sim.events import PRIORITY_ARRIVAL
from ..sim.rng import derive_seed
from ..sim.stats import ResponseTimeCollector
from .admission import AdmissionService, Verdict
from .autoscaler import Autoscaler, AutoscalerConfig
from .placement import PlacementPlan


class StagedSource:
    """A :class:`~repro.sim.source.WorkloadSource` that accepts staging.

    Replays records with the open-loop source's exact semantics (one
    pending event, schedule-next-before-deliver, arrival priority) so a
    staged replay of a workload is event-for-event identical to feeding
    the same workload through ``run_policy``.  Unlike the workload
    source, records may be staged *while the clock runs* — the ingestion
    front end appends and, if the source had drained, re-arms it.
    """

    def __init__(self, sim: Simulator, sink, client_id: int = 0, on_request=None):
        self.sim = sim
        self.sink = sink
        self.client_id = client_id
        self.on_request = on_request
        self._records: list[tuple[float, float | None]] = []
        self._next = 0
        self._started = False
        self._armed = False
        self.requests: list[Request] = []

    def stage(self, arrival: float, size: float | None = None) -> int:
        """Append one request record; returns its index.

        Records must be staged in arrival order (the contract a sorted
        :class:`~repro.core.workload.Workload` provides for free); a
        live-staged arrival in the simulator's past is delivered *now*
        (the ingest front end clamps, it cannot rewrite history).
        """
        arrival = float(arrival)
        if not math.isfinite(arrival):
            raise ConfigurationError(
                f"staged arrival must be finite, got {arrival}"
            )
        records = self._records
        if records and arrival < records[-1][0]:
            raise ConfigurationError(
                f"staged arrival {arrival} precedes the last staged "
                f"arrival {records[-1][0]}; stage in order"
            )
        if size is not None:
            if not (size > 0 and math.isfinite(size)):
                raise ConfigurationError(
                    f"size must be positive and finite, got {size}"
                )
            size = float(size)
        records.append((arrival, size))
        if self._started and not self._armed:
            self._schedule_next()
        return len(records) - 1

    def stage_workload(self, workload: Workload) -> None:
        """Stage every arrival of ``workload`` (sizes included)."""
        sizes = workload.sizes
        for i in range(workload.arrivals.size):
            self.stage(
                float(workload.arrivals[i]),
                None if sizes is None else float(sizes[i]),
            )

    @property
    def horizon(self) -> float:
        """Latest staged arrival (0.0 when nothing is staged)."""
        return self._records[-1][0] if self._records else 0.0

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._records)

    def start(self) -> None:
        self._started = True
        if not self._armed:
            self._schedule_next()

    def _schedule_next(self) -> None:
        """Arm the next record, at its arrival or now if that is later."""
        index = self._next
        if index < len(self._records):
            arrival = self._records[index][0]
            now = self.sim.now
            # ``max(arrival, now)``: the arrival itself on a tie.
            self.sim.schedule(
                now if now > arrival else arrival, self._fire, PRIORITY_ARRIVAL
            )
            self._armed = True
        else:
            self._armed = False

    def _fire(self) -> None:
        index = self._next
        arrival, size = self._records[index]
        if size is None:
            request = Request(
                arrival=arrival, index=index, client_id=self.client_id
            )
        else:
            request = Request(
                arrival=arrival,
                index=index,
                client_id=self.client_id,
                service_demand=size,
            )
        self.requests.append(request)
        self._next = index + 1
        # Mirror WorkloadSource: arm the next arrival before delivering
        # this one so a synchronously-draining sink cannot starve us.
        self._schedule_next()
        if self.on_request is not None:
            self.on_request(request)
        self.sink.on_arrival(request)


@dataclass(frozen=True)
class ServeRunResult:
    """Outcome of one harness run: the serving plane's full ledger."""

    policy: str
    workload_name: str
    cmin: float
    delta_c: float
    delta: float
    #: Deadline actually enforced by the stack (``delta`` minus any
    #: placement latency charge; equals ``delta`` without a placement).
    effective_delta: float
    #: Per-arrival-index response times (NaN for dropped/shed/rejected).
    responses: np.ndarray = field(repr=False)
    #: Per-arrival-index admitted-to-Q1 mask.
    admitted: np.ndarray = field(repr=False)
    overall: ResponseTimeCollector
    primary: ResponseTimeCollector
    overflow: ResponseTimeCollector
    primary_misses: int
    ledger: dict
    completed: list = field(repr=False, default_factory=list)
    dropped: list = field(repr=False, default_factory=list)
    shed: list = field(repr=False, default_factory=list)
    rejected: list = field(repr=False, default_factory=list)
    #: Predict-then-verify mismatches (must be empty for a certified run).
    violations: tuple = ()
    #: Admission decision tallies by verdict name.
    decisions: dict = field(default_factory=dict)
    conservation: ConservationReport | None = None
    #: (time, outstanding) pairs from every epoch/chunk audit.
    audits: tuple = ()
    schedule: FaultSchedule | None = None
    samples: list = field(repr=False, default_factory=list)
    autoscaler_decisions: tuple = ()
    demotions: int = 0
    failovers: int = 0
    aqm: str | None = None
    window: dict | None = None
    final_limit: int | None = None

    def fraction_within(self, bound: float | None = None) -> float:
        return self.overall.fraction_within(
            self.delta if bound is None else bound
        )

    def q1_compliance(self) -> float:
        total = len(self.primary)
        if total == 0:
            return float("nan")
        return 1.0 - self.primary_misses / total

    def q1_compliance_after(self, instant: float) -> float:
        """Q1 deadline compliance among arrivals after ``instant``.

        Same acceptance metric as :meth:`repro.faults.harness.
        ResilientRunResult.q1_compliance_after` — at
        ``schedule.last_clear`` it answers whether the *service*
        restored the guarantee after the faults cleared.
        """
        done = [
            r
            for r in self.completed
            if r.qos_class is QoSClass.PRIMARY and r.arrival > instant
        ]
        if done:
            return sum(1 for r in done if r.met_deadline) / len(done)
        if not any(r.qos_class is QoSClass.PRIMARY for r in self.completed):
            late = [r for r in self.completed if r.arrival > instant]
            if late:
                return sum(
                    1 for r in late if r.response_time <= self.delta + 1e-12
                ) / len(late)
        return float("nan")


class ServiceHarness:
    """Drive the full serving plane under a deterministic virtual clock.

    Parameters
    ----------
    policy:
        Any policy ``run_policy`` accepts (topologies included).
    cmin, delta_c, delta:
        The capacity plan.  May be omitted when ``placement`` is given
        (the plan then supplies them).
    placement:
        Optional :class:`~repro.serve.placement.PlacementPlan`; its
        ``effective_delta`` (deadline minus inter-node latency) becomes
        the deadline the stack enforces.
    admission, aqm, aqm_shared:
        Forwarded to the stack exactly as ``RunConfig`` would.
    reject_on_overload:
        Arm the admission service's reject path (default off — parity
        replays require the pure-observer mode).
    autoscaler:
        ``AutoscalerConfig`` (a loop is built around the stack's
        classifier) or a prebuilt ``Autoscaler``; ``None`` disables.
    faults, retry, adaptive, controller_config, inflight, seed:
        Arm the fault plane; the stack is then built with
        ``run_resilient``'s exact component recipe.
    sample_interval:
        Periodic probe sampling (defaults to ``delta`` in fault mode
        when ``adaptive`` needs a sampler, else disabled).
    metrics:
        Optional registry; the harness adds ``serve.*`` counters.
    """

    def __init__(
        self,
        policy: str,
        cmin: float | None = None,
        delta_c: float | None = None,
        delta: float | None = None,
        *,
        placement: PlacementPlan | None = None,
        admission: str = "count",
        aqm: str | None = None,
        aqm_shared: bool = False,
        reject_on_overload: bool = False,
        autoscaler: Autoscaler | AutoscalerConfig | None = None,
        faults: FaultSchedule | None = None,
        retry: RetryPolicy | None = None,
        adaptive: bool = False,
        controller_config: ControllerConfig | None = None,
        inflight: str = "requeue",
        seed: int = 0,
        sample_interval: float | None = None,
        metrics: MetricsRegistry | None = None,
        on_request=None,
    ):
        if placement is not None:
            cmin = placement.cmin if cmin is None else cmin
            delta_c = placement.delta_c if delta_c is None else delta_c
            delta = placement.delta if delta is None else delta
        if cmin is None or delta_c is None or delta is None:
            raise ConfigurationError(
                "cmin, delta_c and delta are required (directly or via "
                "a placement plan)"
            )
        if cmin <= 0 or delta_c < 0 or delta <= 0:
            raise ConfigurationError(
                f"bad configuration: cmin={cmin}, delta_c={delta_c}, "
                f"delta={delta}"
            )
        self.policy = policy
        self.cmin = float(cmin)
        self.delta_c = float(delta_c)
        self.delta = float(delta)
        self.placement = placement
        self.effective_delta = (
            float(placement.effective_delta) if placement is not None else self.delta
        )
        if self.effective_delta <= 0:
            raise ConfigurationError(
                "placement latency consumes the whole deadline budget"
            )
        self.metrics = metrics
        self.schedule = faults
        self.retry = retry
        self.adaptive = bool(adaptive)
        self.controller_config = controller_config
        self.inflight = inflight
        self.seed = seed
        self.sample_interval = sample_interval
        self.aqm = resolve_aqm(aqm)
        self.aqm_shared = bool(aqm_shared)
        self._user_on_request = on_request
        self._fault_mode = (
            faults is not None or retry is not None or self.adaptive
        )
        self.sim = Simulator()
        self._build_stack(admission)
        self.admission_service = AdmissionService(
            classifier=self.classifier,
            window=self._decision_window(),
            reject_on_overload=reject_on_overload,
            metrics=metrics,
        )
        if isinstance(autoscaler, AutoscalerConfig):
            if autoscaler.mode == "active" and self.classifier is None:
                raise ConfigurationError(
                    f"policy {policy!r} has no classifier to re-provision; "
                    "use shadow mode"
                )
            autoscaler = Autoscaler(
                self.classifier,
                self.effective_delta,
                config=autoscaler,
                delta_c=self.delta_c,
                metrics=metrics,
            )
        self.autoscaler = autoscaler
        # The harness is the source's sink: staged requests take the
        # same gate (``on_arrival``) as a closed-loop population's.
        self.source = StagedSource(self.sim, self)
        self.delivered: list[Request] = []
        self.rejected: list[Request] = []
        self.violations: list[str] = []
        self.audits: list[tuple[float, int]] = []
        self.sampler: Sampler | None = None
        self.controller: AdaptiveShaper | None = None
        self._started = False
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._observed = registry.enabled
        self._m_ingested = registry.counter("serve.ingested")
        self._m_delivered = registry.counter("serve.delivered")
        self._m_rejected = registry.counter("serve.rejected")
        self._m_violations = registry.counter("serve.violations")

    # ------------------------------------------------------------------
    # Stack construction (the certified recipes, verbatim)
    # ------------------------------------------------------------------

    def _build_stack(self, admission: str) -> None:
        sim = self.sim
        cmin, delta_c = self.cmin, self.delta_c
        delta = self.effective_delta
        metrics = self.metrics
        policy = self.policy
        aqm = self.aqm
        if self._fault_mode:
            state = FaultState()
            self._fault_state = state
            if policy == "split":
                def factory(sim_, capacity, name):
                    return FaultableServer(
                        sim_,
                        FaultyModel(
                            ConstantRateModel(capacity),
                            state,
                            seed=derive_seed(self.seed, "faults.server", name),
                        ),
                        name=name,
                        inflight=self.inflight,
                    )

                self.system = SplitSystem(
                    sim, cmin, delta_c, delta,
                    metrics=metrics, admission=admission,
                    server_factory=factory, retry=self.retry,
                    aqm=aqm, aqm_shared=self.aqm_shared,
                )
                self.servers = self.system.servers
                self._loop_driver = self.system.primary_driver
                self._shed_from = self.system.overflow_driver
            elif policy == "splitfarm":
                if self.adaptive:
                    raise ConfigurationError(
                        "adaptive control is not supported for splitfarm"
                    )

                def farm_factory(sim_, capacity, units, name):
                    def unit_factory(s, model, name="unit"):
                        return FaultableServer(
                            s, model, name=name, inflight=self.inflight
                        )

                    models = [
                        FaultyModel(
                            ConstantRateModel(capacity / units),
                            state,
                            seed=derive_seed(
                                self.seed, "faults.server", f"{name}[{i}]"
                            ),
                        )
                        for i in range(units)
                    ]
                    return ServerFarm(
                        sim_, models, name=name, unit_factory=unit_factory
                    )

                self.system = SizeSplitSystem(
                    sim, cmin, delta_c, delta,
                    metrics=metrics, admission=admission,
                    farm_factory=farm_factory, retry=self.retry,
                    aqm=aqm, aqm_shared=self.aqm_shared,
                )
                self.servers = self.system.servers
                self._loop_driver = self.system.small_driver
                self._shed_from = self.system.large_driver
            elif policy in SINGLE_SERVER_POLICIES:
                scheduler = make_scheduler(
                    policy, cmin, delta_c, delta, admission=admission
                )
                server = FaultableServer(
                    sim,
                    FaultyModel(
                        ConstantRateModel(cmin + delta_c),
                        state,
                        seed=derive_seed(self.seed, "faults.server", policy),
                    ),
                    name=policy,
                    inflight=self.inflight,
                )
                self.system = DeviceDriver(
                    sim, server, scheduler, metrics=metrics, retry=self.retry,
                    window=make_window(aqm, delta),
                )
                self.servers = [server]
                self._loop_driver = self.system
                self._shed_from = self.system
            else:
                raise ConfigurationError(f"unknown policy {policy!r}")
            self.injector = FaultInjector(
                sim,
                self.schedule if self.schedule is not None else FaultSchedule(),
                servers=self.servers,
                state=state,
                metrics=metrics,
            )
        else:
            self.injector = None
            self.servers = []
            if policy == "split":
                self.system = SplitSystem(
                    sim, cmin, delta_c, delta,
                    metrics=metrics, admission=admission,
                    aqm=aqm, aqm_shared=self.aqm_shared,
                )
            elif policy == "splitfarm":
                self.system = SizeSplitSystem(
                    sim, cmin, delta_c, delta,
                    metrics=metrics, admission=admission,
                    aqm=aqm, aqm_shared=self.aqm_shared,
                )
            elif policy in SINGLE_SERVER_POLICIES:
                scheduler = make_scheduler(
                    policy, cmin, delta_c, delta, admission=admission
                )
                server = constant_rate_server(
                    sim, cmin + delta_c, name=policy
                )
                self.system = DeviceDriver(
                    sim, server, scheduler, metrics=metrics,
                    window=make_window(aqm, delta),
                )
            else:
                raise ConfigurationError(f"unknown policy {policy!r}")
            self._loop_driver = getattr(
                self.system, "primary_driver",
                getattr(self.system, "small_driver", self.system),
            )
            self._shed_from = getattr(
                self.system, "overflow_driver",
                getattr(self.system, "large_driver", self.system),
            )
        self.classifier = self.system.classifier
        if self.adaptive and self.classifier is None:
            raise ConfigurationError(
                f"policy {policy!r} has no admission bound to adapt"
            )

    def _decision_window(self):
        # A reject replaces a *demotion*, so the saturation signal is
        # the window of the driver demoted work would land on (the
        # overflow side in a topology, the only driver otherwise).
        return getattr(self._shed_from, "window", None)

    # ------------------------------------------------------------------
    # Ingestion and delivery (predict-then-verify)
    # ------------------------------------------------------------------

    # Public sink surface: staged requests arrive here, and so do the
    # externally-built requests of a closed-loop population
    # (repro.sim.source.ClosedLoopSource) the harness serves as sink.
    def on_arrival(self, request: Request) -> None:
        if self._observed:
            self._m_ingested.inc()
        if self.autoscaler is not None:
            self.autoscaler.observe(request)
        if self._user_on_request is not None:
            self._user_on_request(request)
        self._deliver(request)

    def _deliver(self, request: Request) -> None:
        verdict = self.admission_service.decide(request).verdict
        if verdict is Verdict.REJECT:
            self.rejected.append(request)
            if self._observed:
                self._m_rejected.inc()
            return
        self.delivered.append(request)
        if self._observed:
            self._m_delivered.inc()
        clf = self.classifier
        if clf is None or verdict is Verdict.PASS:
            self.system.on_arrival(request)
            return
        primary, overflow = clf.n_primary, clf.n_overflow
        self.system.on_arrival(request)
        if verdict is Verdict.ADMIT:
            kept = clf.n_primary == primary + 1 and clf.n_overflow == overflow
        else:
            kept = clf.n_primary == primary and clf.n_overflow == overflow + 1
        if not kept:
            moved = (clf.n_primary - primary, clf.n_overflow - overflow)
            self.violations.append(
                f"request {request.index} at t={request.arrival:g}: "
                f"predicted {verdict.value}, classifier moved "
                f"(primary, overflow) by {moved}"
            )
            if self._observed:
                self._m_violations.inc()

    def add_completion_hook(self, hook) -> None:
        self.system.add_completion_hook(hook)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _start(self, horizon: float) -> None:
        if self._started:
            return
        self._started = True
        if self.injector is not None:
            self.injector.install()
        needs_sampler = self.adaptive or self.sample_interval is not None
        if needs_sampler:
            interval = (
                self.sample_interval
                if self.sample_interval is not None
                else self.effective_delta
            )
            self.sampler = Sampler(self.sim, interval)
            attach_standard_probes(self.sampler, self)
            last_clear = self.schedule.last_clear if self.schedule else 0.0
            self.sampler.install(
                until=max(horizon, last_clear) + 20 * interval
            )
            if self.adaptive:
                self.controller = AdaptiveShaper(
                    driver=self._loop_driver,
                    classifier=self.classifier,
                    config=self.controller_config,
                    metrics=self.metrics,
                    shed_from=self._shed_from,
                ).install(self.sampler)
        if self.autoscaler is not None and self.autoscaler.config.mode != "off":
            self.sim.every(
                self.autoscaler.config.interval,
                lambda: self.autoscaler.tick(self.sim.now),
                until=horizon,
            )
        self.source.start()

    def replay(self, workload: Workload, chunks: int = 1) -> ServeRunResult:
        """Stage a whole workload and run it to completion."""
        self._workload_name = workload.name
        self.source.stage_workload(workload)
        return self.run(chunks=chunks)

    def run(self, chunks: int = 1, horizon: float | None = None) -> ServeRunResult:
        """Drive the plane: ``chunks`` audited epochs, then drain.

        Each chunk boundary is a ``sim.run(until=...)`` pause — the
        engine guarantees boundary events still fire — immediately
        followed by a conservation audit, so a leak is localized to the
        epoch that caused it.  A boundary the clock has already passed
        (a rerun after staging more records) is audited without running.
        """
        if chunks < 1:
            raise ConfigurationError(f"chunks must be >= 1, got {chunks}")
        span = self.source.horizon if horizon is None else float(horizon)
        self._start(span)
        if chunks > 1 and span > 0:
            for i in range(1, chunks):
                self.sim.run(until=span * i / chunks)
                self.audit()
        self.sim.run()
        if self.sampler is not None:
            self.sampler.sample_now()
        self.audit(final=True)
        return self.result()

    def run_epochs(
        self, epoch: float, horizon: float
    ) -> ServeRunResult:
        """Soak driver: audit every ``epoch`` virtual seconds."""
        if epoch <= 0 or horizon <= 0:
            raise ConfigurationError(
                f"epoch and horizon must be positive, got {epoch}/{horizon}"
            )
        chunks = max(1, int(round(horizon / epoch)))
        return self.run(chunks=chunks, horizon=horizon)

    # ------------------------------------------------------------------
    # Audits and results
    # ------------------------------------------------------------------

    def audit(self, final: bool = False) -> int:
        """O(1) count-conservation check; returns outstanding requests.

        ``injected == rejected + completed + dropped + shed + window +
        outstanding`` with ``outstanding >= 0`` must hold at *every*
        instant; the final audit (all sources drained) also demands
        ``outstanding == 0`` and an empty device window.
        """
        ledger = self.system.fault_ledger()
        terminal = ledger["completed"] + ledger["dropped"] + ledger["shed"]
        resident = ledger.get("window", 0)
        injected = len(self.source.requests)
        outstanding = injected - len(self.rejected) - terminal - resident
        now = self.sim.now
        if outstanding < 0:
            raise SimulationError(
                f"conservation audit failed at t={now:g}: {injected} "
                f"injected but {terminal} terminal + {resident} resident "
                f"+ {len(self.rejected)} rejected"
            )
        if final:
            if self.source.exhausted and outstanding != 0:
                raise SimulationError(
                    f"end-of-run audit: {outstanding} requests neither "
                    "completed nor accounted as dropped/shed/rejected"
                )
            if self.aqm is not None and resident != 0:
                raise SimulationError(
                    f"device window not drained at end of run "
                    f"({resident} resident)"
                )
        self.audits.append((now, outstanding))
        return outstanding

    def result(self) -> ServeRunResult:
        """Snapshot the plane into a :class:`ServeRunResult`.

        Asserts identity-based conservation over every *delivered*
        request (rejected ones never entered the stack and must not
        appear in any terminal bucket).
        """
        system = self.system
        # A topology builds these lists afresh on every read.
        completed, dropped, shed = system.completed, system.dropped, system.shed
        conservation = assert_conservation(
            self.delivered, completed, dropped=dropped, shed=shed
        )
        terminal_ids = set(map(id, chain(completed, dropped, shed)))
        for request in self.rejected:
            if id(request) in terminal_ids:
                raise SimulationError(
                    f"rejected request {request.index} leaked into the stack"
                )
        n = len(self.source.requests)
        responses = np.full(n, np.nan, dtype=np.float64)
        admitted = np.zeros(n, dtype=bool)
        for request in completed:
            # The same single float op the batch engine uses; adding
            # arrival back would reassociate and cost bit-parity.
            responses[request.index] = request.completion - request.arrival
        for request in self.delivered:
            admitted[request.index] = request.qos_class is QoSClass.PRIMARY
        by_class = system.by_class
        if self.policy == "fcfs":
            primary = ResponseTimeCollector("Q1")
            overflow = ResponseTimeCollector("Q2")
        else:
            primary = by_class[QoSClass.PRIMARY]
            overflow = by_class[QoSClass.OVERFLOW]
        demotions = (
            system.demotions
            if isinstance(system, DeviceDriver)
            else sum(driver.demotions for driver in system.drivers)
        )
        return ServeRunResult(
            policy=self.policy,
            workload_name=getattr(self, "_workload_name", "staged"),
            cmin=self.cmin,
            delta_c=self.delta_c,
            delta=self.delta,
            effective_delta=self.effective_delta,
            responses=responses,
            admitted=admitted,
            overall=system.overall,
            primary=primary,
            overflow=overflow,
            primary_misses=system.primary_deadline_misses(),
            ledger=dict(system.fault_ledger()),
            completed=list(completed),
            dropped=list(dropped),
            shed=list(shed),
            rejected=list(self.rejected),
            violations=tuple(self.violations),
            decisions={
                v.value: n for v, n in self.admission_service.decided.items()
            },
            conservation=conservation,
            audits=tuple(self.audits),
            schedule=self.schedule,
            samples=self.sampler.records if self.sampler is not None else [],
            autoscaler_decisions=(
                tuple(self.autoscaler.decisions)
                if self.autoscaler is not None
                else ()
            ),
            demotions=demotions,
            failovers=getattr(system, "failovers", 0),
            aqm=self.aqm,
            window=system.window_snapshot() if self.aqm is not None else None,
            final_limit=(
                self.classifier.limit if self.classifier is not None else None
            ),
        )
