"""Closed-loop simulation runs: user populations driving live policies.

The open-loop entry point (:func:`repro.shaping.run_policy`) replays a
pre-materialized arrival column; this module is its closed-loop sibling:
a :class:`~repro.sim.source.ClosedLoopPopulation` submits requests whose
arrival instants depend on the policy's own completions, so there is no
workload to materialize up front — the trace is an *outcome* of the
run.

Conservation is the headline invariant: every submitted request must end
in exactly one ledger bucket (completed / dropped / shed), and on the
healthy path (no fault injection) everything completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.workload import Workload
from ..exceptions import ConfigurationError, SimulationError
from ..perf import engines
from ..server.aqm import resolve_aqm
from ..server.driver import serve_direct
from ..shaping import (
    RunConfig,
    _direct_supports,
    build_stack,
    check_policy,
    class_results,
)
from ..sim.engine import Simulator
from ..sim.source import ClosedLoopPopulation, ClosedLoopSource
from ..sim.stats import ResponseTimeCollector


@dataclass(frozen=True)
class ClosedLoopResult:
    """Outcome of one closed-loop population run.

    Attributes
    ----------
    policy, n_users, think_time, horizon:
        The run configuration.
    submitted:
        Requests the population issued (arrival order).
    overall, primary, overflow:
        Response-time collectors, as in
        :class:`~repro.shaping.PolicyRunResult`.
    primary_misses:
        Guaranteed-class completions later than ``arrival + delta``.
    ledger:
        Conservation buckets ``{"completed", "dropped", "shed"}`` (plus
        a ``"window"`` residency bucket, zero at end of run, when an
        AQM window was armed).
    engine:
        Path that served the population: ``"direct"``, the heap-free
        loop (:func:`repro.server.driver.serve_direct`) on one server or
        a topology's sides, or ``"scalar"``, the event loop.  Both give
        bit-identical results (certified by
        :func:`repro.check.differential.closed_loop_parity`).
    """

    policy: str
    n_users: int
    think_time: float
    horizon: float
    submitted: list = field(default_factory=list)
    overall: ResponseTimeCollector = None
    primary: ResponseTimeCollector = None
    overflow: ResponseTimeCollector = None
    primary_misses: int = 0
    ledger: dict = field(default_factory=dict)
    engine: str = "scalar"

    @property
    def throughput(self) -> float:
        """Completed requests per second of horizon."""
        return self.ledger.get("completed", 0) / self.horizon

    def fraction_within(self, bound: float) -> float:
        """Overall fraction of completions with response <= bound."""
        return self.overall.fraction_within(bound)

    def conserved(self) -> bool:
        """Whether every submitted request landed in exactly one bucket."""
        return sum(self.ledger.values()) == len(self.submitted)

    def observed_workload(self) -> Workload:
        """The arrival trace the population actually generated.

        Materializing it closes the loop back into the open-loop
        tooling: the observed trace can be decomposed, replayed, or
        golden-recorded like any other workload.
        """
        ordered = sorted(self.submitted, key=lambda r: (r.arrival, r.index))
        return Workload.from_requests(
            ordered, name=f"closed-loop-{self.policy}-{self.n_users}u"
        )


def run_closed_loop(
    policy: str,
    config: RunConfig,
    n_users: int,
    think_time: float,
    horizon: float,
    seed: int = 0,
    demand_sampler=None,
) -> ClosedLoopResult:
    """Drive ``policy`` with a closed-loop user population.

    ``config`` supplies the capacity plan (``cmin``, ``delta_c``,
    ``delta``), admission mode and AQM window.  Observability fields
    are rejected.  ``engine`` is resolved as
    :func:`~repro.shaping.run_policy` resolves it, so an unknown name
    raises, and ``batch`` is rejected rather than ignored: the batch
    engine needs the arrival column up front, and closed-loop traffic
    only yields it after the fact.  Under ``auto`` every policy with no
    window runs on the heap-free loop
    (:func:`repro.server.driver.serve_direct`, ``engine="direct"``): a
    single-server policy on its one server, ``split`` and ``splitfarm``
    on their front end's two single-unit sides.  ``scalar`` or a window
    runs on the event loop (``engine="scalar"``).  Both give
    bit-identical results.

    ``demand_sampler`` optionally sizes each request: any sampler from
    :mod:`repro.workload.sizes`, or any ``(rng) -> float`` callable,
    called in its scalar form ``sampler(rng)`` on each user's own stream
    once per submission.
    """
    check_policy(policy, config)
    requested = engines.resolve_engine(config.engine)
    if (
        config.record_rates is not None
        or config.metrics is not None
        or config.sample_interval is not None
        or requested == "batch"
    ):
        raise ConfigurationError(
            "closed-loop runs support neither observability options nor "
            "engine 'batch'; use a plain RunConfig(cmin, delta_c, delta)"
        )
    if requested != "scalar" and _direct_supports(config, resolve_aqm(config.aqm)):
        population = ClosedLoopPopulation(
            n_users, think_time, horizon, seed=seed, demand_sampler=demand_sampler
        )
        sides, route = build_stack(policy, config)
        served = serve_direct(population, *sides, route=route)
        submitted = population.requests
        ledger = served.ledger()
        primary_misses = served.primary_misses
        engine = "direct"
    else:
        sim = Simulator()
        served = build_stack(policy, config, sim).system
        source = ClosedLoopSource(
            sim,
            served,
            n_users=n_users,
            think_time=think_time,
            horizon=horizon,
            seed=seed,
            demand_sampler=demand_sampler,
        )
        source.start()
        sim.run()
        submitted = source.requests
        ledger = served.fault_ledger()
        primary_misses = served.primary_deadline_misses()
        engine = "scalar"

    if sum(ledger.values()) != len(submitted):
        raise SimulationError(
            f"closed-loop conservation violated: {len(submitted)} "
            f"submitted but ledger accounts {sum(ledger.values())}"
        )
    primary, overflow = class_results(policy, served.by_class)
    return ClosedLoopResult(
        policy=policy,
        n_users=n_users,
        think_time=think_time,
        horizon=horizon,
        submitted=submitted,
        overall=served.overall,
        primary=primary,
        overflow=overflow,
        primary_misses=primary_misses,
        ledger=ledger,
        engine=engine,
    )
