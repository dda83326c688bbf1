"""Bufferbloat study: device-queue depth vs the graduated QoS contract.

A real storage stack interposes a device queue (NCQ slots, HBA queues,
cloud-volume in-flight caps) between the paper's scheduler and the
medium.  Requests pushed into that queue have *left* the scheduler: the
recombination policy can no longer reorder, demote, or shed them, so an
unbounded device queue silently converts any policy into FIFO — and
because completions crawl through the FIFO, admission slots stay
occupied longer and the classifier admits fewer guaranteed requests on
top of missing the deadlines of those it does admit.

This experiment drives one ordering policy (``fairqueue``) over a
steady-plus-bursts trace whose bursts are far deeper than any sane
device queue, across every ``aqm=`` window policy
(:mod:`repro.server.aqm`) and three scenarios:

* **open** — the trace replayed open-loop (:func:`repro.shaping.run_policy`);
* **closed** — a closed-loop population (self-throttling softens, but
  does not remove, the effect);
* **chaos** — the fault-injected stack with timeouts/retries armed, the
  regime where the window-entry timeout must catch device-queue rot.

The headline cells: ``aqm=None`` (no device queue — the paper's
idealization) sets the baseline, ``aqm=unbounded`` shows the bloat, and
``static`` / ``codel`` / ``adaptive`` show a bounded or managed window
recovering the ``Q1`` contract.  ``benchmarks/bench_aqm.py`` publishes
this table as ``BENCH_AQM.json``; the CI ``aqm-smoke`` job replays it at
a reduced horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.reporting import format_table
from ..core.workload import Workload
from ..faults.harness import run_chaos
from ..shaping import RunConfig, run_policy
from ..workload.closedloop import run_closed_loop
from .common import ExperimentConfig

#: Capacity plan shared by every cell (the tuned regime: ~45% mean
#: utilization with bursts transiently 10x beyond capacity).
CMIN, DELTA_C, DELTA = 30.0, 10.0, 0.2

#: Steady background arrival rate (requests / second).
STEADY_RATE = 10.0

#: Burst cadence, width, and size: every ``BURST_PERIOD`` seconds a
#: burst of ``BURST_SIZE`` requests lands within ``BURST_WIDTH`` seconds
#: — much deeper than the adaptive windows' initial depth of 64.
BURST_PERIOD = 10.0
BURST_WIDTH = 0.3
BURST_SIZE = 150

#: The ordering policy under study.  Fairqueue protects ``Q1`` by
#: ordering with real slack margins (Miser's just-in-time dispatch has
#: none to spare, so *any* device queue defeats it — see
#: ``tests/server/test_aqm.py``).
POLICY = "fairqueue"

#: Window policies compared; ``None`` is the no-device-queue baseline.
AQMS = (None, "unbounded", "static", "codel", "adaptive")

#: Scenario keys, in presentation order.
SCENARIOS = ("open", "closed", "chaos")

#: Closed-loop population scale.
CLOSED_USERS = 30
CLOSED_THINK = 0.5


def bloat_workload(duration: float, seed: int = 7) -> Workload:
    """Steady trickle plus periodic deep bursts (the bufferbloat trace)."""
    gen = np.random.default_rng(seed)
    steady = gen.uniform(0.0, duration, int(STEADY_RATE * duration))
    n_bursts = max(1, int(duration // BURST_PERIOD))
    centers = np.linspace(
        BURST_PERIOD / 2.0, duration - BURST_PERIOD / 2.0, n_bursts
    )
    bursts = np.concatenate(
        [c + gen.uniform(0.0, BURST_WIDTH, BURST_SIZE) for c in centers]
    )
    return Workload(
        np.sort(np.concatenate([steady, bursts])), name="bufferbloat"
    )


@dataclass(frozen=True)
class BloatCell:
    """One (aqm, scenario) run's QoS summary."""

    aqm: str  # "none" for the no-window baseline
    scenario: str
    completed: int
    q1_completed: int
    primary_misses: int
    fraction_within: float
    p99: float
    conserved: bool
    #: Final window depth (-1 = unbounded, 0 = no window).
    window_depth: int
    squeezes: int
    gated: int


@dataclass(frozen=True)
class BufferbloatResult:
    cells: list
    n_requests: int
    cmin: float
    delta_c: float
    delta: float
    policy: str


def _window_stats(snapshot: dict | None) -> tuple[int, int, int]:
    if snapshot is None:
        return 0, 0, 0
    if "policy" not in snapshot:  # per-driver dicts (split topologies)
        depths = [_window_stats(s) for s in snapshot.values()]
        return (
            max(d for d, _, _ in depths),
            sum(s for _, s, _ in depths),
            sum(g for _, _, g in depths),
        )
    depth = snapshot["depth"]
    return (
        -1 if depth is None else int(depth),
        int(snapshot["squeezes"]),
        int(snapshot["gated"]),
    )


def run(config: ExperimentConfig | None = None) -> BufferbloatResult:
    config = config or ExperimentConfig()
    workload = bloat_workload(config.duration, seed=7 + config.seed_offset)
    cells = []
    for aqm in AQMS:
        label = aqm or "none"

        open_run = run_policy(
            workload, POLICY, config=RunConfig(CMIN, DELTA_C, DELTA, aqm=aqm)
        )
        depth, squeezes, gated = _window_stats(open_run.window)
        cells.append(
            BloatCell(
                aqm=label,
                scenario="open",
                completed=len(open_run.overall),
                q1_completed=len(open_run.primary),
                primary_misses=open_run.primary_misses,
                fraction_within=open_run.overall.fraction_within(DELTA),
                p99=open_run.overall.percentile_exact(99),
                conserved=len(open_run.overall) == len(workload),
                window_depth=depth,
                squeezes=squeezes,
                gated=gated,
            )
        )

        closed = run_closed_loop(
            POLICY,
            RunConfig(CMIN, DELTA_C, DELTA, aqm=aqm),
            n_users=CLOSED_USERS,
            think_time=CLOSED_THINK,
            horizon=config.duration,
            seed=37 + config.seed_offset,
        )
        depth, squeezes, gated = _window_stats(closed.window)
        cells.append(
            BloatCell(
                aqm=label,
                scenario="closed",
                completed=len(closed.overall),
                q1_completed=len(closed.primary),
                primary_misses=closed.primary_misses,
                fraction_within=closed.overall.fraction_within(DELTA),
                p99=closed.overall.percentile_exact(99),
                conserved=sum(closed.ledger.values()) == len(closed.submitted),
                window_depth=depth,
                squeezes=squeezes,
                gated=gated,
            )
        )

        chaos = run_chaos(
            workload,
            POLICY,
            CMIN,
            DELTA_C,
            DELTA,
            seed=41 + config.seed_offset,
            aqm=aqm,
        )
        depth, squeezes, gated = _window_stats(chaos.window)
        accounted = (
            len(chaos.completed) + len(chaos.dropped) + len(chaos.shed)
        )
        cells.append(
            BloatCell(
                aqm=label,
                scenario="chaos",
                completed=len(chaos.completed),
                q1_completed=len(chaos.primary),
                primary_misses=chaos.primary_misses,
                fraction_within=chaos.overall.fraction_within(DELTA),
                p99=chaos.overall.percentile_exact(99),
                conserved=chaos.conservation.ok
                and accounted == len(workload),
                window_depth=depth,
                squeezes=squeezes,
                gated=gated,
            )
        )
    return BufferbloatResult(
        cells=cells,
        n_requests=len(workload),
        cmin=CMIN,
        delta_c=DELTA_C,
        delta=DELTA,
        policy=POLICY,
    )


def render(result: BufferbloatResult) -> str:
    rows = []
    for cell in result.cells:
        rows.append([
            cell.aqm,
            cell.scenario,
            cell.completed,
            cell.q1_completed,
            cell.primary_misses,
            f"{cell.fraction_within:.3f}",
            f"{cell.p99 * 1e3:.1f}",
            "inf" if cell.window_depth < 0 else cell.window_depth,
            cell.squeezes,
            cell.gated,
            "yes" if cell.conserved else "VIOLATED",
        ])
    header = (
        f"Bufferbloat study under {result.policy} ({result.n_requests} "
        f"requests: {STEADY_RATE:g}/s steady + {BURST_SIZE} every "
        f"{BURST_PERIOD:g}s; plan Cmin={result.cmin:g}, "
        f"deltaC={result.delta_c:g}, delta={result.delta * 1e3:g} ms; "
        f"aqm=none is the no-device-queue idealization)"
    )
    return format_table(
        ["aqm", "scenario", "done", "Q1 done", "Q1 misses",
         f"frac<={result.delta * 1e3:g}ms", "p99 (ms)", "depth",
         "squeezes", "gated", "conserved"],
        rows,
        title=header,
    )
