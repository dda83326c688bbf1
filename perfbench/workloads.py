"""The benchmark's three workloads: inputs from a seed, serving, outcomes.

Each workload has three steps:

* ``setup(seed)`` generates the trace and plans the capacity. It
  returns the generated inputs. The serving stack sees only these.
* ``serve(inputs)`` serves the inputs under every policy of the
  workload. It returns one :class:`RunOutcome` per policy run, with the
  host seconds that run took.
* ``check(inputs, outcomes)`` runs the checks that are too costly to
  repeat in every timed pass. It returns a list of problems, which is
  empty when all is well.

Only the public entry points of ``repro`` are called here, with every
engine, kernel and window selection left at its ``auto`` default.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.check.differential import engine_parity
from repro.core.request import QoSClass
from repro.experiments import tailbakeoff
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import random_schedule
from repro.sched.registry import CLASSIFIER_FREE_POLICIES
from repro.serve import AutoscalerConfig, ServiceHarness
from repro.serve.ingest import IngestServer
from repro.shaping import RunConfig, WorkloadShaper, run_policy
from repro.traces import library
from repro.workload import population
from repro.workload.closedloop import run_closed_loop


@dataclass(frozen=True)
class RunOutcome:
    """What one policy run did to its requests, in counts.

    ``responses`` holds the response time of every completed request;
    ``record`` is the per-request record the determinism digest hashes.
    """

    policy: str
    engine: str
    #: Host seconds the serving calls took.
    seconds: float
    attempted: int
    completed: int
    dropped: int
    shed: int
    rejected: int
    #: Whether the policy has an RTT classifier (Q1/Q2 classes).
    classified: bool
    #: Arrivals the classifier admitted to Q1.
    admitted: int
    #: Q1 admissions that completed within delta.
    q1_met: int
    #: Completions within delta.
    within: int
    responses: np.ndarray
    record: bytes
    #: Failed checks of this run, such as predict-then-verify violations.
    problems: tuple = ()

    @property
    def failed(self) -> int:
        return self.dropped + self.shed + self.rejected

    @property
    def terminal(self) -> int:
        return self.completed + self.failed

    @property
    def conserved(self) -> bool:
        return self.attempted == self.terminal


def _within(collector, delta: float) -> int:
    """Completions within ``delta``, by the collector's own predicate."""
    if len(collector) == 0:
        return 0
    return round(collector.fraction_within(delta) * len(collector))


def _collector_record(*collectors) -> bytes:
    """Completion-order responses per class: the open-loop record."""
    digest = hashlib.sha256()
    for collector in collectors:
        digest.update(np.ascontiguousarray(collector.samples, dtype=np.float64))
        digest.update(b"|")
    return digest.digest()


def _request_record(responses: np.ndarray, admitted: np.ndarray) -> bytes:
    """Per-request response time and admitted bit, in arrival order."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(responses, dtype=np.float64))
    digest.update(np.ascontiguousarray(admitted, dtype=np.bool_))
    return digest.digest()


def digest(outcomes: list[RunOutcome]) -> str:
    """One hash over every policy run's per-request record."""
    combined = hashlib.sha256()
    for outcome in outcomes:
        combined.update(outcome.policy.encode())
        combined.update(outcome.record)
    return combined.hexdigest()


class BenchWorkload:
    """Checks shared by every workload; subclasses add their own."""

    def check(self, inputs: dict, outcomes: list[RunOutcome]) -> list[str]:
        return []


class PaperOpen(BenchWorkload):
    """OpenMail stand-in, open loop, planned as in section 4.3 of the paper."""

    name = "paper-open"
    policies = ("fcfs", "split", "fairqueue", "miser")
    delta = 0.010
    fraction = 0.90

    def __init__(self, duration: float = 300.0):
        self.duration = duration

    def setup(self, seed: int) -> dict:
        workload = library.openmail(duration=self.duration, seed=seed)
        # WorkloadShaper's default surplus is the paper's delta_C = 1/delta.
        plan = WorkloadShaper(delta=self.delta, fraction=self.fraction).plan(workload)
        config = RunConfig(plan.cmin, plan.delta_c, self.delta)
        return {"workload": workload, "config": config}

    def serve(self, inputs: dict) -> list[RunOutcome]:
        workload, config = inputs["workload"], inputs["config"]
        outcomes = []
        for policy in self.policies:
            start = time.perf_counter()
            result = run_policy(workload, policy, config=config)
            seconds = time.perf_counter() - start
            outcomes.append(self.outcome(workload, result, seconds))
        return outcomes

    def outcome(self, workload, result, seconds: float) -> RunOutcome:
        primary = result.primary
        return RunOutcome(
            policy=result.policy,
            engine=result.engine,
            seconds=seconds,
            attempted=len(workload),
            completed=len(result.overall),
            dropped=0,
            shed=0,
            rejected=0,
            classified=result.policy not in CLASSIFIER_FREE_POLICIES,
            admitted=len(primary),
            q1_met=len(primary) - result.primary_misses,
            within=_within(result.overall, self.delta),
            responses=result.overall.samples,
            record=_collector_record(result.overall, primary, result.overflow),
        )

    def check(self, inputs: dict, outcomes: list[RunOutcome]) -> list[str]:
        """The batch engine must match a scalar replay of the trace bit for bit."""
        workload, config = inputs["workload"], inputs["config"]
        report = engine_parity(
            workload, config.cmin, config.delta_c, config.delta,
            policies=("fcfs", "split"),
        )
        if report.ok and report.bit_identical:
            return []
        return [f"engine_parity: {report.summary()}"]


class SizedClosed(BenchWorkload):
    """The tail bake-off's bimodal demand mix under a closed-loop population.

    The bake-off's 30 users think for 0.5 s on average, which keeps its
    server saturated; there the response time is the small difference of
    two large terms (users x demand / capacity - think time) and swings
    with the third digit of the plan. A 1 s think time leaves the server
    about 70% busy. The plan is made on a long profile of the open-loop
    population (``profile`` seconds) for the same reason.
    """

    name = "sized-closed"
    policies = ("srpt", "nudge", "boost", "edf", "splitfarm")
    delta = tailbakeoff.DELTA
    users = tailbakeoff.CLOSED_USERS
    think = 1.0

    def __init__(self, horizon: float = 600.0, profile: float = 3600.0):
        self.horizon = horizon
        self.profile = profile

    def setup(self, seed: int) -> dict:
        # The plan comes from the bake-off's open-loop population with the
        # same demand mix, rescaled to the work basis as the bake-off does.
        profile = population.poisson_poisson_workload(
            tailbakeoff.POPULATION,
            duration=self.profile,
            seed=seed,
            demand_sampler=tailbakeoff.DEMANDS,
            name="bimodal-tails",
        )
        plan = WorkloadShaper(
            delta=self.delta, fraction=tailbakeoff.FRACTION
        ).plan(profile)
        scale = profile.total_work / len(profile)
        config = RunConfig(
            plan.cmin * scale, plan.delta_c * scale, self.delta, admission="work"
        )
        return {"config": config, "seed": seed}

    def serve(self, inputs: dict) -> list[RunOutcome]:
        outcomes = []
        for policy in self.policies:
            start = time.perf_counter()
            result = run_closed_loop(
                policy,
                inputs["config"],
                n_users=self.users,
                think_time=self.think,
                horizon=self.horizon,
                seed=inputs["seed"],
                demand_sampler=tailbakeoff.DEMANDS,
            )
            seconds = time.perf_counter() - start
            outcomes.append(self.outcome(result, seconds))
        return outcomes

    def outcome(self, result, seconds: float) -> RunOutcome:
        submitted = result.submitted
        responses = np.full(len(submitted), np.nan)
        admitted = np.zeros(len(submitted), dtype=bool)
        for request in submitted:
            if request.completion is not None:
                responses[request.index] = request.completion - request.arrival
            admitted[request.index] = request.qos_class is QoSClass.PRIMARY
        primary = result.primary
        return RunOutcome(
            policy=result.policy,
            engine="scalar",
            seconds=seconds,
            attempted=len(submitted),
            completed=result.ledger["completed"],
            dropped=result.ledger["dropped"],
            shed=result.ledger["shed"],
            rejected=0,
            classified=result.policy not in CLASSIFIER_FREE_POLICIES,
            admitted=int(admitted.sum()),
            q1_met=len(primary) - result.primary_misses,
            within=_within(result.overall, self.delta),
            responses=result.overall.samples,
            record=_request_record(responses, admitted),
        )


class ChaosServe(BenchWorkload):
    """WebSearch stand-in ingested as JSON lines into a fault-mode harness.

    A crash of the primary server fails its Q1 arrivals over to the
    overflow server, whose backlog then sets the p99.9. One crash makes
    that tail depend on where the crash falls, so the schedule draws
    ``episodes`` crashes, droops and storms, one of each per slot of the
    horizon, and the tail averages over them. Every crash takes the
    primary (``units=1``), so every episode exercises failover.
    """

    name = "chaos-serve"
    policies = ("split",)
    delta = 0.050
    fraction = 0.95
    #: Virtual-time epochs per run; each boundary is a conservation audit.
    chunks = 8
    episodes = 10
    #: Caps every fault event below ``random_schedule``'s floor of 2% of
    #: its slot, so each lasts exactly that long.
    fault_length = 1e-4
    #: Largest slow-down factor of a droop or storm.
    fault_factor = 2.0

    def __init__(self, duration: float = 300.0):
        self.duration = duration

    def setup(self, seed: int) -> dict:
        workload = library.websearch(duration=self.duration, seed=seed)
        plan = WorkloadShaper(delta=self.delta, fraction=self.fraction).plan(workload)
        schedule = random_schedule(
            seed,
            horizon=workload.duration,
            crashes=self.episodes,
            droops=self.episodes,
            storms=self.episodes,
            units=1,
            max_crash_fraction=self.fault_length,
            max_factor=self.fault_factor,
        )
        lines = [json.dumps({"arrival": float(t)}) for t in workload.arrivals]
        inputs = {
            "plan": plan,
            "schedule": schedule,
            "lines": lines,
            "seed": seed,
        }
        # Build one stack here so its construction counts as set-up; a
        # harness serves one replay, so each pass builds its own.
        self.build(inputs)
        return inputs

    def build(self, inputs: dict) -> ServiceHarness:
        """One fault-mode serving stack (single use: one replay each)."""
        plan, delta = inputs["plan"], self.delta
        return ServiceHarness(
            "split",
            plan.cmin,
            plan.delta_c,
            delta,
            aqm="codel",
            # Refuse would-be demotions while the overflow window is full:
            # the admission service's reject path, and a bound on the
            # overflow backlog between crashes.
            reject_on_overload=True,
            autoscaler=AutoscalerConfig(
                interval=max(1.0, self.duration / 30),
                window=max(5.0, self.duration / 5),
                cmin_floor=plan.cmin,
                mode="shadow",
            ),
            faults=inputs["schedule"],
            # The chaos suite's retry policy (repro.faults.harness.run_chaos).
            retry=RetryPolicy(
                timeout_q1=10 * delta,
                timeout_q2=40 * delta,
                max_retries=3,
                backoff_base=delta / 2,
            ),
            adaptive=True,
            seed=inputs["seed"],
        )

    def serve(self, inputs: dict) -> list[RunOutcome]:
        harness = self.build(inputs)
        ingest = IngestServer(harness)
        start = time.perf_counter()
        refused = 0
        for line in inputs["lines"]:
            if not ingest.handle_line(line)["ok"]:
                refused += 1
        result = harness.run(chunks=self.chunks)
        seconds = time.perf_counter() - start
        problems = result.violations
        if refused:
            problems += (f"ingest refused {refused} generated lines",)
        return [self.outcome(harness, result, seconds, problems)]

    def outcome(self, harness, result, seconds: float, problems: tuple) -> RunOutcome:
        return RunOutcome(
            policy=result.policy,
            engine="scalar",
            seconds=seconds,
            attempted=len(harness.source.requests),
            completed=result.ledger["completed"],
            dropped=result.ledger["dropped"],
            shed=result.ledger["shed"],
            rejected=len(result.rejected),
            classified=True,
            # Demotions after admission (retries) still count as admitted.
            admitted=result.decisions["admit"],
            q1_met=len(result.primary) - result.primary_misses,
            within=_within(result.overall, self.delta),
            responses=result.overall.samples,
            record=_request_record(result.responses, result.admitted),
            problems=problems,
        )


#: The benchmark's workloads by name.
WORKLOADS = {w.name: w for w in (PaperOpen(), SizedClosed(), ChaosServe())}
