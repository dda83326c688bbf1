"""Serving-plane study: the online control plane vs the offline result.

Three questions, one per section of the rendered table:

1. **Parity** — replayed through the live :class:`~repro.serve.harness.
   ServiceHarness` (chunked virtual-time epochs, the admission service
   predicting every classification), is the serving plane *bit-identical*
   to ``run_policy`` on the paper's headline workload?  This is the
   :func:`repro.check.differential.serve_parity` certificate, run here
   on a real planned workload rather than fuzzed traces.
2. **Chaos** — under the chaos suite's randomized fault schedule with
   retry and adaptive shaping armed, does the *service* restore the
   guaranteed class once the faults clear, mirroring the offline
   resilience result?  Both sides run the identical schedule/seed; under
   ``split`` both must report 100% post-fault ``Q1`` compliance.
3. **Autoscaling** — with the provisioning loop in shadow mode over the
   live run, what capacity does the sliding-window re-plan recommend,
   and what does the digital twin (``run_policy`` replaying the window
   under ``split``) predict at the planned versus recommended provision?
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis.reporting import format_table
from ..check.differential import ParityReport, serve_parity
from ..faults import run_resilient
from ..faults.retry import RetryPolicy
from ..faults.schedule import random_schedule
from ..serve import AutoscalerConfig, ServiceHarness
from ..shaping import WorkloadShaper
from ..units import ms
from .common import ExperimentConfig

DELTA = ms(50)
FRACTION = 0.95
CHAOS_SEED = 2009  # ICDCS 2009
WORKLOAD = "websearch"

#: Parity is certified on the paper's recombiners plus both topologies.
PARITY_POLICIES = ("fcfs", "split", "fairqueue", "miser", "splitfarm")

#: Chaos comparison runs the topology the acceptance criterion names.
CHAOS_POLICY = "split"

#: Virtual-time epochs per replay (each boundary is a conservation audit).
CHUNKS = 8


@dataclass(frozen=True)
class ChaosComparison:
    """Offline ``run_resilient`` vs the serving plane, same schedule."""

    policy: str
    offline_post_fault_q1: float
    serve_post_fault_q1: float
    serve_violations: int
    serve_audits: int
    last_clear: float

    @property
    def mirrored(self) -> bool:
        if math.isnan(self.offline_post_fault_q1) or math.isnan(
            self.serve_post_fault_q1
        ):
            return False
        return (
            abs(self.offline_post_fault_q1 - self.serve_post_fault_q1) < 1e-12
            and self.serve_violations == 0
        )


@dataclass(frozen=True)
class ServeResult:
    workload_name: str
    cmin: float
    delta_c: float
    parity: ParityReport
    chaos: ChaosComparison
    #: (epochs, actuation-worthy epochs, recommended Cmin) in shadow mode.
    scaler_epochs: int
    scaler_actuations: int
    scaler_recommended: float
    #: Digital-twin verdicts at planned vs recommended provision.
    twin_planned: dict
    twin_recommended: dict


def run(config: ExperimentConfig | None = None) -> ServeResult:
    config = config or ExperimentConfig()
    workload = config.workload(WORKLOAD)
    plan = WorkloadShaper(delta=DELTA, fraction=FRACTION).plan(workload)

    parity = serve_parity(
        workload,
        plan.cmin,
        plan.delta_c,
        DELTA,
        policies=PARITY_POLICIES,
        chunks=CHUNKS,
    )

    seed = CHAOS_SEED + config.seed_offset
    schedule = random_schedule(
        seed, horizon=workload.duration, crashes=1, droops=1, storms=1, units=2
    )
    retry = RetryPolicy(
        timeout_q1=10 * DELTA,
        timeout_q2=40 * DELTA,
        max_retries=3,
        backoff_base=DELTA / 2,
    )
    offline = run_resilient(
        workload,
        CHAOS_POLICY,
        plan.cmin,
        plan.delta_c,
        DELTA,
        schedule=schedule,
        retry=retry,
        adaptive=True,
        seed=seed,
    )
    harness = ServiceHarness(
        CHAOS_POLICY,
        plan.cmin,
        plan.delta_c,
        DELTA,
        faults=schedule,
        retry=retry,
        adaptive=True,
        seed=seed,
        autoscaler=AutoscalerConfig(
            interval=max(1.0, workload.duration / 30),
            window=max(5.0, workload.duration / 5),
            cmin_floor=plan.cmin,
            mode="shadow",
        ),
    )
    served = harness.replay(workload, chunks=CHUNKS)
    chaos = ChaosComparison(
        policy=CHAOS_POLICY,
        offline_post_fault_q1=offline.q1_compliance_after(schedule.last_clear),
        serve_post_fault_q1=served.q1_compliance_after(schedule.last_clear),
        serve_violations=len(served.violations),
        serve_audits=len(served.audits),
        last_clear=schedule.last_clear,
    )

    scaler = harness.autoscaler
    recommended = scaler.recommend(workload.duration)
    now = workload.duration
    return ServeResult(
        workload_name=workload.name,
        cmin=plan.cmin,
        delta_c=plan.delta_c,
        parity=parity,
        chaos=chaos,
        scaler_epochs=len(scaler.decisions),
        scaler_actuations=scaler.actuations,
        scaler_recommended=recommended,
        twin_planned=scaler.what_if(plan.cmin + plan.delta_c, now),
        twin_recommended=scaler.what_if(recommended + plan.delta_c, now),
    )


def _pct(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.1%}"


def render(result: ServeResult) -> str:
    chaos = result.chaos
    rows = [
        [
            "serve == simulate",
            "bit-identical" if result.parity.bit_identical else "DRIFT",
            f"{len(result.parity.policies)} policies"
            + ("" if result.parity.ok else "; " + result.parity.summary()),
        ],
        [
            f"chaos post-fault Q1 ({chaos.policy})",
            f"serve {_pct(chaos.serve_post_fault_q1)} / "
            f"offline {_pct(chaos.offline_post_fault_q1)}",
            (
                f"mirrored, {chaos.serve_audits} audits clean, "
                f"0 prediction violations"
                if chaos.mirrored
                else f"NOT mirrored ({chaos.serve_violations} violations)"
            ),
        ],
        [
            "autoscaler (shadow)",
            f"recommends Cmin {result.scaler_recommended:.1f} "
            f"(planned {result.cmin:.1f})",
            f"{result.scaler_epochs} epochs, "
            f"{result.scaler_actuations} would-actuate",
        ],
        [
            "digital twin @ planned",
            f"q1 compliance {result.twin_planned['q1_compliance']:.1%}",
            f"{result.twin_planned['admitted']} of "
            f"{result.twin_planned['requests']} admitted",
        ],
        [
            "digital twin @ recommended",
            f"q1 compliance {result.twin_recommended['q1_compliance']:.1%}",
            f"{result.twin_recommended['admitted']} of "
            f"{result.twin_recommended['requests']} admitted",
        ],
    ]
    return format_table(
        ["check", "result", "detail"],
        rows,
        title=(
            f"Online serving plane vs offline simulator "
            f"({result.workload_name}, Cmin={result.cmin:.0f}, "
            f"dC={result.delta_c:.0f}, delta={DELTA * 1e3:.0f}ms; "
            f"faults clear at t={chaos.last_clear:.1f}s)"
        ),
    )
