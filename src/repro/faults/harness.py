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
exactly once.  :class:`~repro.serve.harness.ServiceHarness` serves its
fault mode on the same three steps: :func:`fault_stack` builds,
:func:`start_monitors` arms the injector, sampler and controller, and
:func:`fault_fields` packages the fault plane's part of the result.

With an empty schedule, no retry policy, and no controller, the run is
bit-identical to :func:`run_policy` on the same workload and admission
mode — the chaos machinery is structurally dormant
(``benchmarks/bench_faults.py`` keeps the <5% overhead promise honest).

:func:`run_chaos` derives a randomized schedule from a seed and runs
the full resilient stack — the unit of the chaos suite in CI.
"""

from __future__ import annotations

from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..obs.registry import MetricsRegistry
from ..obs.sampler import Sampler, attach_standard_probes
from ..shaping import RunConfig, RunResult, Stack, build_stack, run_result
from ..sim.engine import Simulator
from ..sim.source import WorkloadSource
from .controller import AdaptiveShaper, ControllerConfig, adaptive_refusal
from .injector import FaultInjector, FaultState, faulty_units
from .invariants import assert_conservation
from .retry import RetryPolicy
from .schedule import FaultSchedule, random_schedule

#: Policies the resilience experiment compares (the paper's four
#: recombiners; the classifier-free FCFS baseline cannot adapt).
RESILIENCE_POLICIES = ("fcfs", "split", "fairqueue", "miser")


def refuse_adaptive(policy: str, adaptive: bool) -> None:
    """Refuse ``adaptive=True`` where the controller cannot steer ``policy``."""
    refusal = adaptive_refusal(policy) if adaptive else None
    if refusal is not None:
        raise ConfigurationError(refusal)


def fault_stack(
    policy: str,
    config: RunConfig,
    sim: Simulator,
    schedule: FaultSchedule,
    retry: RetryPolicy | None = None,
    inflight: str = "requeue",
    seed: int = 0,
) -> tuple[Stack, FaultInjector]:
    """:func:`~repro.shaping.build_stack`'s stack on crash-capable units.

    The units come from :func:`~repro.faults.injector.faulty_units`; the
    returned :class:`FaultInjector` turns ``schedule`` into events on
    them once :func:`start_monitors` installs it.
    """
    state = FaultState()
    stack = build_stack(
        policy, config, sim, retry=retry, unit=faulty_units(state, seed, inflight)
    )
    injector = FaultInjector(
        sim, schedule, servers=stack.servers, state=state, metrics=config.metrics
    )
    return stack, injector


def start_monitors(
    sim: Simulator,
    stack: Stack,
    config: RunConfig,
    injector: FaultInjector | None,
    horizon: float,
    sample_interval: float | None = None,
    adaptive: bool = False,
    controller_config: ControllerConfig | None = None,
) -> tuple[Sampler | None, AdaptiveShaper | None]:
    """Install the injector, then the sampler and the adaptive controller.

    A sampler runs when ``sample_interval`` asks for one or the
    controller needs its cadence (every ``config.delta``, the stack's
    deadline, unless ``sample_interval`` says otherwise).  It keeps
    ticking 20 intervals past ``horizon``, the end of arrivals or
    faults, so the controller can observe the post-fault recovery and
    restore the planned bound.  Returns ``(sampler, controller)``, each
    ``None`` when not armed.
    """
    if injector is not None:
        injector.install()
    if not adaptive and sample_interval is None:
        return None, None
    interval = sample_interval if sample_interval is not None else config.delta
    sampler = Sampler(sim, interval)
    attach_standard_probes(sampler, stack.system)
    sampler.install(until=horizon + 20 * interval)
    controller = None
    if adaptive:
        controller = AdaptiveShaper(
            driver=stack.loop_driver,
            classifier=stack.system.classifier,
            config=controller_config,
            metrics=config.metrics,
            shed_from=stack.shed_from,
        ).install(sampler)
    return sampler, controller


def fault_fields(
    stack: Stack, delivered: list, controller: AdaptiveShaper | None
) -> dict:
    """The fault plane's :class:`~repro.shaping.RunResult` fields.

    Audits by identity that every ``delivered`` request ended in exactly
    one terminal list (:func:`assert_conservation`), and returns those
    lists with the audit, the demotions, failovers and the controller's
    statistics.  A topology builds each list afresh on every read, so
    each is read once.
    """
    system = stack.system
    completed, dropped, shed = system.completed, system.dropped, system.shed
    conservation = assert_conservation(
        delivered, completed, dropped=dropped, shed=shed
    )
    classifier = system.classifier
    return dict(
        completed=list(completed),
        dropped=list(dropped),
        shed=list(shed),
        conservation=conservation,
        demotions=system.demotions,
        failovers=getattr(system, "failovers", 0),
        degrades=controller.degrades if controller is not None else None,
        recoveries=controller.recoveries if controller is not None else None,
        final_limit=classifier.limit if classifier is not None else None,
    )


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
) -> RunResult:
    """Serve ``workload`` under ``policy`` on a fault-injected stack.

    Capacity allocation follows :func:`repro.shaping.run_policy`
    (Section 4.3), on :func:`fault_stack`'s stack.  ``schedule`` drives
    the injector; ``retry`` arms the driver's timeout/retry path;
    ``adaptive=True`` installs an :class:`AdaptiveShaper` on the sampler
    cadence (``sample_interval`` defaults to ``delta`` when unset).
    ``admission`` is the classifier's mode, ``"count"`` or ``"work"``,
    as in :class:`~repro.shaping.RunConfig`.  The conservation invariant
    is asserted before returning, and the sampler's records are the
    result's ``telemetry.samples``.

    ``aqm`` arms a driver-level in-flight window (:mod:`repro.server.
    aqm`): crash-requeues and retries then re-enter through the
    scheduler and must re-acquire a window slot — backpressure instead
    of instantaneous requeue.  The ledger gains a ``window`` residency
    bucket, checked drained (zero) at end of run.
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
    refuse_adaptive(policy, adaptive)
    schedule = schedule if schedule is not None else FaultSchedule()
    sim = Simulator()
    stack, injector = fault_stack(
        policy, config, sim, schedule, retry=retry, inflight=inflight, seed=seed
    )
    sampler, controller = start_monitors(
        sim,
        stack,
        config,
        injector,
        max(workload.duration, schedule.last_clear),
        sample_interval,
        adaptive,
        controller_config,
    )
    source = WorkloadSource(sim, workload, stack.system)
    source.start()
    sim.run()
    if sampler is not None:
        sampler.sample_now()
    return run_result(
        stack.system,
        policy,
        config,
        workload.name,
        len(source.requests),
        workload.duration,
        sampler=sampler,
        schedule=schedule,
        **fault_fields(stack, source.requests, controller),
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
) -> RunResult:
    """One chaos-suite run: derive a schedule from ``seed`` and go.

    ``adaptive`` defaults to True for every policy the controller can
    steer and False for the classifier-free ones (FCFS/SRPT/Nudge/Boost
    have no admission bound to steer) and for splitfarm (its Q1
    completions span both partitions): see
    :func:`~repro.faults.controller.adaptive_refusal`.  The retry policy
    defaults to generous per-class timeouts (``10·delta`` for Q1,
    ``40·delta`` for Q2) with three retries, once the plan is validated.
    ``admission`` is the classifier's mode, as for :func:`run_resilient`.
    """
    # Refuse a bad plan before the retry default below reads ``delta``.
    RunConfig(cmin, delta_c, delta)
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
