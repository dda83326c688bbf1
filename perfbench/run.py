"""Repository benchmark: simulated requests per host-second and QoS outcomes.

Run from the repository root::

    python3 perfbench/run.py --workload paper-open --seed 1 --seconds 25 --trace 0

The workloads are defined in ``perfbench/workloads.py`` and listed, with
why each was chosen, in ``BENCHMARK.json``. One run:

1. refuses to start when ``REPRO_ENGINE``, ``REPRO_KERNEL`` or
   ``REPRO_AQM`` is set, because each would swap the measured program;
2. finishes lazy set-up (imports, the native RTT kernel build, the first
   planner call), then sets the workload up several times from
   ``--seed`` and keeps the median set-up time;
3. with ``--trace 0``, serves the workload again and again for
   ``--seconds``, taking turns on the CPUs it may use, and reports the
   end-to-end metrics; with ``--trace 1``,
   serves it once untraced and once with every layer's entry points
   wrapped (``perfbench/layers.py``), and reports the per-layer metrics;
4. checks the outputs: every policy run conserves requests, the serving
   plane's predict-then-verify admission has no violations, repeated
   passes give the same determinism digest, and ``paper-open``'s batch
   engine runs equal a scalar replay bit for bit.

Lines before the last describe the pinned program, each policy run and
the determinism digest. The last line is one JSON object with the keys
``correct``, ``attempted`` (simulated requests), ``failed`` (requests in
policy runs that failed a check) and ``metrics``. A failed check prints
``"correct": false`` with no metrics and exits with code 1; a run that
cannot start exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Environment overrides that silently swap the measured program.
OVERRIDES = ("REPRO_ENGINE", "REPRO_KERNEL", "REPRO_AQM")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def end_to_end(outcomes, rate, setups, rss_mb) -> dict[str, float]:
    """The end-to-end figures of one run, pooled over its policy runs.

    ``completed_frac`` is one minus the failed share (dropped, shed and
    rejected over attempted): the failed share itself is 0 on two of the
    workloads, and a metric at 0 gives no base for a relative bound.
    """
    from repro.sim.stats import ResponseTimeCollector

    attempted = sum(o.attempted for o in outcomes)
    classified = [o for o in outcomes if o.classified]
    admitted = sum(o.admitted for o in classified)
    pooled = ResponseTimeCollector("pooled")
    for outcome in outcomes:
        pooled.extend_array(outcome.responses)
    return {
        "sim_req_per_s": rate,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "q1_admitted_frac": admitted / sum(o.attempted for o in classified),
        "q1_met_frac": sum(o.q1_met for o in classified) / admitted,
        "within_delta_frac": sum(o.within for o in outcomes) / attempted,
        "resp_p50_ms": pooled.percentile_exact(50) * 1e3,
        "resp_p999_ms": pooled.percentile_exact(99.9) * 1e3,
        "completed_frac": sum(o.completed for o in outcomes) / attempted,
    }


def gate(outcomes) -> tuple[list[str], int]:
    """Per-run checks: conservation and the run's own problems."""
    problems, failed = [], 0
    for o in outcomes:
        bad = list(o.problems[:3])
        if not o.conserved:
            bad.append(
                f"{o.attempted} attempted but {o.completed} completed + "
                f"{o.dropped} dropped + {o.shed} shed + {o.rejected} rejected"
            )
        if bad:
            failed += o.attempted
            problems.extend(f"{o.policy}: {p}" for p in bad)
    return problems, failed


def describe(name: str, seed: int, outcomes, digest: str) -> None:
    for o in outcomes:
        print(
            f"run {name} policy={o.policy} engine={o.engine} "
            f"attempted={o.attempted} completed={o.completed} "
            f"dropped={o.dropped} shed={o.shed} rejected={o.rejected}"
        )
    print(
        f"samples {name} completions={sum(len(o.responses) for o in outcomes)} "
        "(resp_p50_ms and resp_p999_ms are exact order statistics over them)"
    )
    print(f"digest {name} seed={seed} sha256={digest}")


def pin(cpus: list[int], turn: int) -> int:
    """Run on the ``turn``-th allowed CPU, round robin; returns that CPU.

    On a shared host each CPU goes through slow and fast spells lasting
    tens of seconds, independently of the other CPUs. Taking turns on
    every CPU averages over their spells within one run.
    """
    cpu = cpus[turn % len(cpus)]
    os.sched_setaffinity(0, {cpu})
    return cpu


def timed(bench, inputs, seconds: float, cpus: list[int]) -> tuple:
    """Serve ``inputs`` again and again for ``seconds``, untraced.

    Successive passes take turns on ``cpus``. Returns, among the rest,
    the simulated requests per host second over all passes.
    """
    import workloads

    served = seconds_served = attempted = failed = passes = 0
    problems = []
    first = digest = None
    started = time.perf_counter()
    while True:
        cpu = pin(cpus, passes)
        outcomes = bench.serve(inputs)
        passes += 1
        served += sum(o.terminal for o in outcomes)
        seconds_served += sum(o.seconds for o in outcomes)
        print(
            f"pass {passes} {bench.name} cpu={cpu} "
            + " ".join(f"{o.policy}={o.seconds:.4f}s" for o in outcomes)
        )
        attempted += sum(o.attempted for o in outcomes)
        pass_problems, pass_failed = gate(outcomes)
        problems += pass_problems
        failed += pass_failed
        if first is None:
            first, digest = outcomes, workloads.digest(outcomes)
        elif workloads.digest(outcomes) != digest:
            problems.append(f"pass {passes} digest differs from pass 1")
        if time.perf_counter() - started >= seconds:
            break
    return first, digest, served / seconds_served, attempted, failed, problems


def traced(bench, inputs, seed: int) -> tuple:
    """Serve once untraced, then set up and serve once with every layer wrapped.

    The workload's own checks run after the wrappers are removed, and
    must not reach any of them.
    """
    import layers
    import workloads

    outcomes = bench.serve(inputs)
    untraced_s = sum(o.seconds for o in outcomes)
    reference = workloads.digest(outcomes)
    tracer = layers.Tracer()
    tracer.install()
    try:
        outcomes = bench.serve(bench.setup(seed))
    finally:
        tracer.uninstall()
    traced_s = sum(o.seconds for o in outcomes)
    problems, failed = gate(outcomes)
    digest = workloads.digest(outcomes)
    if digest != reference:
        problems.append("the traced run's digest differs from the untraced run's")
    error = tracer.accounting_error()
    if error > 1e-6:
        problems.append(f"layer self times miss the loop time by {error:.3g}")
    calls = sum(tracer.calls.values())
    problems += bench.check(inputs, outcomes)
    if sum(tracer.calls.values()) != calls:
        problems.append("a wrapper stayed active after the traced run")
    print(
        f"trace {bench.name} untraced={untraced_s:.3f}s traced={traced_s:.3f}s "
        f"loop={tracer.loop_s:.3f}s"
    )
    metrics = tracer.metrics(outcomes, overhead=traced_s / untraced_s)
    attempted = sum(o.attempted for o in outcomes)
    return outcomes, digest, metrics, attempted, failed, problems


def measure(bench, seed: int, seconds: float, trace: bool) -> tuple[dict, str]:
    """Set up, serve, check and measure ``bench``.

    Returns the result object (metric values without units) and the
    determinism digest.
    """
    bench.setup(seed)  # lazy set-up: kernel build, first planner call
    cpus = sorted(os.sched_getaffinity(0))
    setups = []
    try:
        for turn in range(SETUPS):
            pin(cpus, turn)
            start = time.perf_counter()
            inputs = bench.setup(seed)
            setups.append(time.perf_counter() - start)
        print(f"setup {bench.name} setup_s=[{', '.join(f'{s:.4f}' for s in setups)}]")
        if not trace:
            outcomes, digest, rate, attempted, failed, problems = timed(
                bench, inputs, seconds, cpus
            )
    finally:
        os.sched_setaffinity(0, cpus)

    if trace:
        outcomes, digest, metrics, attempted, failed, problems = traced(
            bench, inputs, seed
        )
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += bench.check(inputs, outcomes)
        metrics = end_to_end(outcomes, rate, setups, rss_mb)
    describe(bench.name, seed, outcomes, digest)
    for problem in problems:
        print(f"FAILED {problem}")
    if problems and not failed:
        failed = attempted
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {} if problems else metrics,
    }
    return result, digest


def pinned() -> str:
    """The resolved program under test, for the record."""
    import numpy

    from repro.perf import engines, kernels
    from repro.server.aqm import resolve_aqm

    return (
        f"pinned kernel={kernels.active_backend()} engine={engines.active_engine()} "
        f"aqm={resolve_aqm(None) or 'none'} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


def bootstrap() -> str | None:
    """Make ``repro`` importable from the checkout; returns why it cannot."""
    overridden = [name for name in OVERRIDES if name in os.environ]
    if overridden:
        return (
            f"refusing to run: {', '.join(overridden)} set; each override swaps "
            "the program being measured"
        )
    if not (ROOT / "src" / "repro").is_dir():
        return f"no repro sources under {ROOT / 'src'}"
    # Keep the native kernel's build cache inside the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(ROOT / ".bench_build" / "repro-kernels")
    sys.path.insert(0, str(ROOT / "src"))
    return None


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def with_units(metrics: dict[str, float], trace: bool) -> dict[str, dict]:
    units = {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = bootstrap()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import workloads

    bench = workloads.WORKLOADS.get(args.workload)
    if bench is None:
        print(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    print(pinned())
    result, _ = measure(bench, args.seed, args.seconds, bool(args.trace))
    result["metrics"] = with_units(result["metrics"], bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
