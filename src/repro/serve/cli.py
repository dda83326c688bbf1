"""``repro-serve``: run the online control plane from the command line.

Four subcommands:

* ``replay`` — feed a recorded workload (a golden-corpus JSON or a
  library workload by name) through the serving plane and report the
  ledger, compliance, and the serve-vs-simulate parity certificate;
* ``live`` — generate a Poisson workload from a seed (the
  "live-generated" path), plan ``Cmin + ΔC`` for it, and serve it with
  the autoscaler in shadow mode;
* ``chaos`` — the ``replay`` stack under a seeded random fault
  schedule with retry and adaptive shaping armed, reporting post-fault
  ``Q1`` compliance;
* ``place`` — plan topology-aware Q1/Q2 placement over a described
  farm and print the deadline accounting.

Everything runs under virtual time: the commands complete immediately
regardless of the trace's virtual duration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..check.corpus import load_golden
from ..check.differential import serve_parity
from ..core.workload import Workload
from ..exceptions import ReproError
from ..faults.retry import RetryPolicy
from ..faults.schedule import random_schedule
from ..shaping import WorkloadShaper
from ..traces.library import load as load_library
from ..units import q1_limit
from .autoscaler import AutoscalerConfig
from .harness import ServeRunResult, ServiceHarness
from .placement import Node, PlacementPlanner

#: Library workload names the ``replay``/``chaos`` commands accept.
LIBRARY = ("websearch", "fintrans", "openmail")


def _resolve_workload(spec: str, duration: float, seed: int):
    """A golden-trace path or a library name -> (workload, plan hints)."""
    path = Path(spec)
    if path.suffix == ".json" and path.exists():
        golden = load_golden(path)
        return golden.workload(), (golden.capacity, golden.delta_c, golden.delta)
    if spec in LIBRARY:
        return load_library(spec, duration=duration, seed=seed), None
    raise ReproError(
        f"unknown workload {spec!r}: pass a golden-trace .json path or "
        f"one of {list(LIBRARY)}"
    )


def _plan(workload, args) -> tuple[float, float, float]:
    if args.cmin is not None:
        return args.cmin, args.delta_c, args.delta
    plan = WorkloadShaper(delta=args.delta, fraction=args.fraction).plan(workload)
    return plan.cmin, plan.delta_c, args.delta


def _report(result: ServeRunResult, lines: list[str]) -> None:
    lines.append(
        f"{result.policy} on {result.workload_name}: "
        f"Cmin={result.cmin:g} dC={result.delta_c:g} "
        f"delta={result.delta * 1e3:g}ms"
    )
    lines.append(
        f"  ledger: {result.ledger}  rejected={len(result.rejected)}  "
        f"decisions={result.decisions}"
    )
    lines.append(
        f"  q1 compliance: {result.q1_compliance():.4f}  "
        f"overall within delta: {result.fraction_within():.4f}  "
        f"violations={len(result.violations)}  audits={len(result.audits)}"
    )
    if result.autoscaler_decisions:
        last = result.autoscaler_decisions[-1]
        lines.append(
            f"  autoscaler: {len(result.autoscaler_decisions)} epochs, "
            f"last recommendation Cmin={last.recommended:.1f} "
            f"(provisioned {last.provisioned:.1f})"
        )


def _cmd_replay(args) -> int:
    workload, hints = _resolve_workload(args.workload, args.duration, args.seed)
    if hints is not None and args.cmin is None:
        cmin, delta_c, delta = hints
    else:
        cmin, delta_c, delta = _plan(workload, args)
    lines: list[str] = []
    harness = ServiceHarness(
        args.policy, cmin, delta_c, delta, aqm=args.aqm
    )
    result = harness.replay(workload, chunks=args.chunks)
    _report(result, lines)
    status = 1 if result.violations else 0
    if not args.no_parity:
        report = serve_parity(
            workload, cmin, delta_c, delta, policies=(args.policy,),
            chunks=args.chunks,
        )
        lines.append("  " + report.summary())
        status = max(status, 0 if report.ok else 1)
    print("\n".join(lines))
    return status


def _cmd_live(args) -> int:
    rng = np.random.default_rng(args.seed)
    gaps = rng.exponential(1.0 / args.rate, size=max(1, int(args.rate * args.duration)))
    arrivals = np.cumsum(gaps)
    arrivals = arrivals[arrivals <= args.duration]
    if arrivals.size == 0:
        print("live: the generated trace is empty (rate too low)")
        return 1
    workload = Workload(name=f"live-poisson-{args.seed}", arrivals=arrivals)
    cmin, delta_c, delta = _plan(workload, args)
    harness = ServiceHarness(
        args.policy,
        cmin,
        delta_c,
        delta,
        autoscaler=AutoscalerConfig(
            interval=max(1.0, args.duration / 20),
            window=max(2.0, args.duration / 4),
            cmin_floor=cmin,
            mode="shadow",
        ),
    )
    result = harness.replay(workload, chunks=args.chunks)
    lines: list[str] = []
    _report(result, lines)
    print("\n".join(lines))
    return 1 if result.violations else 0


def _cmd_chaos(args) -> int:
    workload, hints = _resolve_workload(args.workload, args.duration, args.seed)
    if hints is not None and args.cmin is None:
        cmin, delta_c, delta = hints
    else:
        cmin, delta_c, delta = _plan(workload, args)
    schedule = random_schedule(
        args.seed,
        horizon=workload.duration,
        units=2 if args.policy in ("split", "splitfarm") else 1,
    )
    retry = RetryPolicy(
        timeout_q1=10 * delta,
        timeout_q2=40 * delta,
        max_retries=3,
        backoff_base=delta / 2,
    )
    adaptive = args.policy not in ("fcfs", "srpt", "nudge", "boost", "splitfarm")
    harness = ServiceHarness(
        args.policy,
        cmin,
        delta_c,
        delta,
        faults=schedule,
        retry=retry,
        adaptive=adaptive,
        seed=args.seed,
    )
    result = harness.replay(workload, chunks=args.chunks)
    lines: list[str] = []
    _report(result, lines)
    post = result.q1_compliance_after(schedule.last_clear)
    lines.append(
        f"  chaos: faults clear at t={schedule.last_clear:.1f}s, "
        f"post-fault q1 compliance {post:.4f}"
    )
    print("\n".join(lines))
    return 1 if result.violations else 0


def _parse_nodes(spec: str) -> list[Node]:
    nodes = []
    for part in spec.split(","):
        fields = part.strip().split(":")
        if len(fields) not in (2, 3):
            raise ReproError(
                f"bad node {part!r}: expected name:capacity[:latency]"
            )
        try:
            latency = float(fields[2]) if len(fields) == 3 else 0.0
            nodes.append(Node(fields[0], float(fields[1]), latency))
        except ValueError as exc:
            raise ReproError(f"bad node {part!r}: {exc}") from None
    return nodes


def _cmd_place(args) -> int:
    planner = PlacementPlanner(_parse_nodes(args.nodes))
    plan = planner.plan(args.cmin, args.delta_c, args.delta)
    print(plan.describe())
    print(
        f"latency tax: {plan.latency_tax:.1%} of the deadline budget; "
        f"admission bound {plan.admission_limit} "
        f"(unplaced: {q1_limit(plan.cmin, plan.delta)})"
    )
    return 0


def _add_capacity_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cmin", type=float, default=None,
                     help="decomposition capacity (default: plan it)")
    sub.add_argument("--delta-c", type=float, default=1.0,
                     help="overflow capacity (with --cmin)")
    sub.add_argument("--delta", type=float, default=0.05,
                     help="Q1 response-time bound in seconds")
    sub.add_argument("--fraction", type=float, default=0.95,
                     help="guaranteed fraction when planning")
    sub.add_argument("--chunks", type=int, default=8,
                     help="audited virtual-time epochs per run")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--duration", type=float, default=60.0,
                     help="library/live workload duration in seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run the online QoS control plane under virtual time.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    replay = commands.add_parser("replay", help="serve a recorded workload")
    replay.add_argument("workload", help="golden .json path or library name")
    replay.add_argument("--policy", default="split")
    replay.add_argument("--aqm", default=None)
    replay.add_argument("--no-parity", action="store_true",
                        help="skip the serve==simulate certificate")
    _add_capacity_args(replay)
    replay.set_defaults(func=_cmd_replay)

    live = commands.add_parser("live", help="serve a live-generated workload")
    live.add_argument("--policy", default="split")
    live.add_argument("--rate", type=float, default=50.0,
                      help="Poisson arrival rate (req/s)")
    _add_capacity_args(live)
    live.set_defaults(func=_cmd_live)

    chaos = commands.add_parser("chaos", help="serve under injected faults")
    chaos.add_argument("workload", help="golden .json path or library name")
    chaos.add_argument("--policy", default="split")
    _add_capacity_args(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    place = commands.add_parser("place", help="plan Q1/Q2 farm placement")
    place.add_argument("--nodes", required=True,
                       help="comma-separated name:capacity[:latency]")
    place.add_argument("--cmin", type=float, required=True)
    place.add_argument("--delta-c", type=float, default=1.0)
    place.add_argument("--delta", type=float, default=0.05)
    place.set_defaults(func=_cmd_place)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
