"""Fault-tolerant serving harness: `run_policy` for a world that breaks.

:func:`run_resilient` mirrors :func:`repro.shaping.run_policy` — same
capacity allocation, same policies, the same stack from
:func:`repro.shaping.build_stack` — but with crash-capable units
(:func:`~repro.faults.injector.faulty_units`: a
:class:`~repro.faults.server.FaultableServer` behind a
:class:`~repro.faults.injector.FaultyModel`, one per unit), a
:class:`~repro.faults.injector.FaultInjector` turning the
:class:`~repro.faults.schedule.FaultSchedule` into simulator events,
optional driver-level timeout/retry, and an optional
:class:`~repro.faults.controller.AdaptiveShaper` closing the loop from
miss rate back to ``maxQ1``.  After every run the conservation
invariant is asserted: each arrival completed, was shed, or was dropped
exactly once.

With an empty schedule, no retry policy, and no controller, the run is
bit-identical to :func:`run_policy` on the same workload and admission
mode — the chaos machinery is structurally dormant
(``benchmarks/bench_faults.py`` keeps the <5% overhead promise honest).

:func:`run_chaos` derives a randomized schedule from a seed and runs
the full resilient stack — the unit of the chaos suite in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.request import QoSClass
from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..obs.registry import MetricsRegistry
from ..obs.sampler import Sampler, attach_standard_probes
from ..server.aqm import resolve_aqm
from ..shaping import RunConfig, build_stack, class_results
from ..sim.engine import Simulator
from ..sim.source import WorkloadSource
from ..sim.stats import ResponseTimeCollector
from .controller import AdaptiveShaper, ControllerConfig, adaptive_refusal
from .injector import FaultInjector, FaultState, faulty_units
from .invariants import ConservationReport, assert_conservation
from .retry import RetryPolicy
from .schedule import FaultSchedule, random_schedule

#: Policies the resilience experiment compares (the paper's four
#: recombiners; the classifier-free FCFS baseline cannot adapt).
RESILIENCE_POLICIES = ("fcfs", "split", "fairqueue", "miser")


class DeadlineCompliance:
    """The deadline metrics of a fault-plane run's result.

    Shared by :class:`ResilientRunResult` and
    :class:`~repro.serve.harness.ServeRunResult`, which carry the
    ``delta``, ``overall``, ``primary``, ``primary_misses`` and
    ``completed`` it reads.
    """

    def fraction_within(self, bound: float | None = None) -> float:
        return self.overall.fraction_within(self.delta if bound is None else bound)

    def q1_compliance(self) -> float:
        """Deadline compliance over every completed primary request."""
        total = len(self.primary)
        if total == 0:
            return float("nan")
        return 1.0 - self.primary_misses / total

    def q1_compliance_after(self, instant: float) -> float:
        """Q1 deadline compliance among arrivals after ``instant``.

        The chaos acceptance metric: evaluated at ``schedule.last_clear``
        it measures whether shaping *restored* the guarantee once the
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
                    1 for r in late if r.response_time <= self.delta + 1e-12
                ) / len(late)
        return float("nan")


@dataclass(frozen=True)
class ResilientRunResult(DeadlineCompliance):
    """Outcome of one fault-injected (or healthy-baseline) run."""

    policy: str
    workload_name: str
    cmin: float
    delta_c: float
    delta: float
    schedule: FaultSchedule
    overall: ResponseTimeCollector
    primary: ResponseTimeCollector
    overflow: ResponseTimeCollector
    completed: list = field(repr=False, default_factory=list)
    dropped: list = field(repr=False, default_factory=list)
    shed: list = field(repr=False, default_factory=list)
    primary_misses: int = 0
    demotions: int = 0
    failovers: int = 0
    conservation: ConservationReport | None = None
    #: Controller stats when adaptive shaping ran (else None).
    degrades: int | None = None
    recoveries: int | None = None
    final_limit: int | None = None
    samples: list = field(repr=False, default_factory=list)
    #: AQM window policy the stack ran with (``None`` = no window).
    aqm: str | None = None
    #: Final window statistics (``snapshot()`` dict(s)); ``None`` when
    #: no window was armed.
    window: dict | None = None


def run_resilient(
    workload: Workload,
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
    schedule: FaultSchedule | None = None,
    retry: RetryPolicy | None = None,
    adaptive: bool = False,
    controller_config: ControllerConfig | None = None,
    inflight: str = "requeue",
    seed: int = 0,
    sample_interval: float | None = None,
    metrics: MetricsRegistry | None = None,
    aqm: str | None = None,
    aqm_shared: bool = False,
    admission: str = "count",
) -> ResilientRunResult:
    """Serve ``workload`` under ``policy`` on a fault-injected stack.

    Capacity allocation follows :func:`repro.shaping.run_policy`
    (Section 4.3), on :func:`repro.shaping.build_stack`'s stack.
    ``schedule`` drives the injector; ``retry`` arms the driver's
    timeout/retry path; ``adaptive=True`` installs an
    :class:`AdaptiveShaper` on the sampler cadence (``sample_interval``
    defaults to ``delta`` when unset).  ``admission`` is the
    classifier's mode, ``"count"`` or ``"work"``, as in
    :class:`~repro.shaping.RunConfig`.  The conservation invariant is
    asserted before returning.

    ``aqm`` arms a driver-level in-flight window (:mod:`repro.server.
    aqm`): crash-requeues and retries then re-enter through the
    scheduler and must re-acquire a window slot — backpressure instead
    of instantaneous requeue.  The ledger gains a ``window`` residency
    bucket, asserted drained (zero) at end of run.
    """
    config = RunConfig(
        cmin,
        delta_c,
        delta,
        metrics=metrics,
        admission=admission,
        aqm=aqm,
        aqm_shared=aqm_shared,
    )
    refusal = adaptive_refusal(policy) if adaptive else None
    if refusal is not None:
        raise ConfigurationError(refusal)
    schedule = schedule if schedule is not None else FaultSchedule()
    aqm = resolve_aqm(aqm)
    sim = Simulator()
    state = FaultState()
    stack = build_stack(
        policy, config, sim, retry=retry, unit=faulty_units(state, seed, inflight)
    )
    system = stack.system
    classifier = system.classifier
    injector = FaultInjector(
        sim, schedule, servers=stack.servers, state=state, metrics=metrics
    )
    injector.install()

    sampler: Sampler | None = None
    controller: AdaptiveShaper | None = None
    if adaptive or sample_interval is not None:
        interval = sample_interval if sample_interval is not None else delta
        sampler = Sampler(sim, interval)
        attach_standard_probes(sampler, system)
        # Keep ticking past the arrival window so the controller can
        # observe the post-fault recovery and restore the planned bound.
        horizon = max(workload.duration, schedule.last_clear) + 20 * interval
        sampler.install(until=horizon)
        if adaptive:
            controller = AdaptiveShaper(
                driver=stack.loop_driver,
                classifier=classifier,
                config=controller_config,
                metrics=metrics,
                shed_from=stack.shed_from,
            ).install(sampler)

    source = WorkloadSource(sim, workload, system)
    source.start()
    sim.run()
    if sampler is not None:
        sampler.sample_now()

    conservation = assert_conservation(
        source.requests,
        system.completed,
        dropped=system.dropped,
        shed=system.shed,
    )
    if aqm is not None:
        residue = system.fault_ledger().get("window", 0)
        if residue != 0:
            raise AssertionError(
                f"{policy}: window not drained at end of run "
                f"({residue} requests still resident)"
            )

    primary, overflow = class_results(policy, system.by_class)
    return ResilientRunResult(
        policy=policy,
        workload_name=workload.name,
        cmin=cmin,
        delta_c=delta_c,
        delta=delta,
        schedule=schedule,
        overall=system.overall,
        primary=primary,
        overflow=overflow,
        completed=list(system.completed),
        dropped=list(system.dropped),
        shed=list(system.shed),
        primary_misses=system.primary_deadline_misses(),
        demotions=system.demotions,
        failovers=getattr(system, "failovers", 0),
        conservation=conservation,
        degrades=controller.degrades if controller is not None else None,
        recoveries=controller.recoveries if controller is not None else None,
        final_limit=classifier.limit if classifier is not None else None,
        samples=sampler.records if sampler is not None else [],
        aqm=aqm,
        window=system.window_snapshot() if aqm is not None else None,
    )


def run_chaos(
    workload: Workload,
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
    seed: int,
    crashes: int = 1,
    droops: int = 1,
    storms: int = 1,
    retry: RetryPolicy | None = None,
    adaptive: bool | None = None,
    controller_config: ControllerConfig | None = None,
    metrics: MetricsRegistry | None = None,
    aqm: str | None = None,
    aqm_shared: bool = False,
    admission: str = "count",
) -> ResilientRunResult:
    """One chaos-suite run: derive a schedule from ``seed`` and go.

    ``adaptive`` defaults to True for every policy the controller can
    steer and False for the classifier-free ones (FCFS/SRPT/Nudge/Boost
    have no admission bound to steer) and for splitfarm (its Q1
    completions span both partitions): see
    :func:`~repro.faults.controller.adaptive_refusal`.  The retry policy
    defaults to generous per-class timeouts (``10·delta`` for Q1,
    ``40·delta`` for Q2) with three retries.  ``admission`` is the
    classifier's mode, as for :func:`run_resilient`.
    """
    schedule = random_schedule(
        seed,
        horizon=workload.duration,
        crashes=crashes,
        droops=droops,
        storms=storms,
        units=2 if policy in ("split", "splitfarm") else 1,
    )
    if retry is None:
        retry = RetryPolicy(
            timeout_q1=10 * delta,
            timeout_q2=40 * delta,
            max_retries=3,
            backoff_base=delta / 2,
        )
    if adaptive is None:
        adaptive = adaptive_refusal(policy) is None
    return run_resilient(
        workload,
        policy,
        cmin,
        delta_c,
        delta,
        schedule=schedule,
        retry=retry,
        adaptive=adaptive,
        controller_config=controller_config,
        seed=seed,
        metrics=metrics,
        aqm=aqm,
        aqm_shared=aqm_shared,
        admission=admission,
    )
