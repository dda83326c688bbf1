"""Virtual-clock service harness: the whole control plane, deterministic.

:class:`ServiceHarness` assembles the serving plane — staged ingestion,
live admission (:class:`~repro.serve.admission.AdmissionService`), the
certified scheduling/serving stack from :mod:`repro.shaping`, and
optionally the fault plane and the :class:`~repro.serve.autoscaler.
Autoscaler` — on one :class:`~repro.sim.engine.Simulator`.  Virtual time
makes the service a pure function of its inputs, which is what lets the
differential harness (:func:`repro.check.differential.serve_parity`)
certify **serve ≡ simulate, bit for bit**:

* :class:`StagedSource` delivers through :class:`~repro.sim.source.
  WorkloadSource`'s own path — one pending event at a time at arrival
  priority, the next arrival scheduled *before* the current one is
  delivered, the same :class:`~repro.core.request.Request`
  construction — and adds only staging mid-run (the ingestion path);
* the serving stack is :func:`repro.shaping.build_stack`'s, the one
  ``run_policy`` (healthy) and ``run_resilient`` (fault mode, with
  :func:`~repro.faults.injector.faulty_units`) serve on, so event
  order, float operation order, and therefore every response time are
  identical;
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
from dataclasses import dataclass, field, replace

import numpy as np

from ..core.request import QoSClass, Request
from ..core.workload import Workload
from ..exceptions import ConfigurationError, SimulationError
from ..faults.controller import AdaptiveShaper, ControllerConfig
from ..faults.harness import fault_fields, fault_stack, refuse_adaptive, start_monitors
from ..faults.retry import RetryPolicy
from ..faults.schedule import FaultSchedule
from ..obs.registry import MetricsRegistry, NULL_REGISTRY
from ..obs.sampler import Sampler
from ..server.aqm import resolve_aqm
from ..shaping import RunConfig, RunResult, build_stack, run_result
from ..sim.engine import Simulator
from ..sim.source import WorkloadSource
from .admission import AdmissionService, Verdict
from .autoscaler import Autoscaler, AutoscalerConfig
from .placement import PlacementPlan


class StagedSource(WorkloadSource):
    """A :class:`~repro.sim.source.WorkloadSource` whose records are staged.

    Delivery is the workload source's own (one pending event,
    schedule-next-before-deliver, arrival priority), so a staged replay
    of a workload is event-for-event identical to feeding the same
    workload through ``run_policy``.  This class adds only the staging:
    records may be appended *while the clock runs*, and a source that
    had drained is re-armed.
    """

    def __init__(self, sim: Simulator, sink):
        super().__init__(sim, Workload([], name="staged"), sink)
        # The staged records, read by index by the inherited delivery;
        # a record staged without a size has the default demand.
        self._arrivals: list[float] = []
        self._sizes: list[float | None] = []
        self._started = False

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
        arrivals = self._arrivals
        if arrivals and arrival < arrivals[-1]:
            raise ConfigurationError(
                f"staged arrival {arrival} precedes the last staged "
                f"arrival {arrivals[-1]}; stage in order"
            )
        if size is not None and not (size > 0 and math.isfinite(size)):
            raise ConfigurationError(
                f"size must be positive and finite, got {size}"
            )
        # Once started, a source has an arrival pending unless every
        # staged record has fired.
        drained = self._next == len(arrivals)
        arrivals.append(arrival)
        self._sizes.append(None if size is None else float(size))
        if self._started and drained:
            self._schedule_next()
        return len(arrivals) - 1

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
        return self._arrivals[-1] if self._arrivals else 0.0

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._schedule_next()


@dataclass(frozen=True)
class ServeRunResult(RunResult):
    """A :class:`~repro.shaping.RunResult` plus the serving plane's ledger.

    ``delta`` is the planned deadline; the fault-plane fields are filled
    in every mode, and ``schedule`` is ``None`` unless faults were given.
    """

    #: Deadline actually enforced by the stack (``delta`` minus any
    #: placement latency charge; equals ``delta`` without a placement).
    effective_delta: float | None = None
    #: Per-arrival-index response times (NaN for dropped/shed/rejected).
    responses: np.ndarray | None = field(repr=False, default=None)
    #: Per-arrival-index admitted-to-Q1 mask.
    admitted: np.ndarray | None = field(repr=False, default=None)
    rejected: list = field(repr=False, default_factory=list)
    #: Predict-then-verify mismatches (must be empty for a certified run).
    violations: tuple = ()
    #: Admission decision tallies by verdict name.
    decisions: dict = field(default_factory=dict)
    #: (time, outstanding) pairs from every epoch/chunk audit.
    audits: tuple = ()
    autoscaler_decisions: tuple = ()


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
        Arm the fault plane; the stack then has ``run_resilient``'s
        crash-capable units (:func:`~repro.faults.injector.faulty_units`).
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
        config = RunConfig(
            float(cmin),
            float(delta_c),
            float(delta),
            metrics=metrics,
            admission=admission,
            aqm=aqm,
            aqm_shared=aqm_shared,
        )
        refuse_adaptive(policy, adaptive)
        self.policy = policy
        self.config = config
        self.cmin, self.delta_c, self.delta = config.cmin, config.delta_c, config.delta
        self.placement = placement
        self.effective_delta = (
            float(placement.effective_delta) if placement is not None else self.delta
        )
        if self.effective_delta <= 0:
            raise ConfigurationError(
                "placement latency consumes the whole deadline budget"
            )
        self.schedule = faults
        self.adaptive = bool(adaptive)
        self.controller_config = controller_config
        self.sample_interval = sample_interval
        self.aqm = resolve_aqm(aqm)
        self._user_on_request = on_request
        self.sim = Simulator()
        # The stack enforces the deadline left after any placement charge.
        self._stack_config = replace(config, delta=self.effective_delta)
        self.injector = None
        if faults is not None or retry is not None or self.adaptive:
            stack, self.injector = fault_stack(
                policy,
                self._stack_config,
                self.sim,
                faults if faults is not None else FaultSchedule(),
                retry=retry,
                inflight=inflight,
                seed=seed,
            )
        else:
            stack = build_stack(policy, self._stack_config, self.sim)
        self._stack = stack
        self.system = stack.system
        self.classifier = self.system.classifier
        self.admission_service = AdmissionService(
            classifier=self.classifier,
            # A reject replaces a *demotion*, so the saturation signal is
            # the window of the driver demoted work would land on.
            window=stack.shed_from.window,
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
        last_clear = self.schedule.last_clear if self.schedule else 0.0
        self.sampler, self.controller = start_monitors(
            self.sim,
            self._stack,
            self._stack_config,
            self.injector,
            max(horizon, last_clear),
            self.sample_interval,
            self.adaptive,
            self.controller_config,
        )
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
        self.audit()
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

    def audit(self) -> int:
        """O(1) count-conservation check; returns outstanding requests.

        ``injected == rejected + completed + dropped + shed + window +
        outstanding`` with ``outstanding >= 0`` must hold at *every*
        instant.  At end of run, :meth:`result` makes the one end-of-run
        check of :func:`~repro.shaping.run_result`: nothing outstanding
        and an empty device window.
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
        self.audits.append((now, outstanding))
        return outstanding

    def result(self) -> ServeRunResult:
        """Snapshot the plane into a :class:`ServeRunResult`.

        Asserts identity-based conservation over every *delivered*
        request: a rejected one never entered the stack, so one found in
        a terminal bucket fails the audit as foreign.
        """
        fields = fault_fields(self._stack, self.delivered, self.controller)
        n = len(self.source.requests)
        responses = np.full(n, np.nan, dtype=np.float64)
        admitted = np.zeros(n, dtype=bool)
        for request in fields["completed"]:
            # The same single float op the batch engine uses; adding
            # arrival back would reassociate and cost bit-parity.
            responses[request.index] = request.completion - request.arrival
        for request in self.delivered:
            admitted[request.index] = request.qos_class is QoSClass.PRIMARY
        return run_result(
            self.system,
            self.policy,
            self.config,
            getattr(self, "_workload_name", "staged"),
            len(self.delivered),
            self.source.horizon,
            aqm=self.aqm,
            sampler=self.sampler,
            result=ServeRunResult,
            schedule=self.schedule,
            effective_delta=self.effective_delta,
            responses=responses,
            admitted=admitted,
            rejected=list(self.rejected),
            violations=tuple(self.violations),
            decisions={
                v.value: n for v, n in self.admission_service.decided.items()
            },
            audits=tuple(self.audits),
            autoscaler_decisions=(
                tuple(self.autoscaler.decisions)
                if self.autoscaler is not None
                else ()
            ),
            **fields,
        )
