"""Execution-engine benchmarks: every fast path against the path it replaces.

Two modes, mirroring ``bench_kernels.py``:

* Under pytest (``make bench``) these are pytest-benchmark cases, one
  per engine, on a mid-sized Poisson trace.
* As a script (``make bench-json`` /
  ``python benchmarks/bench_engine.py --output BENCH_engine.json``) it
  times, certifying bit-parity on every case, and writes the report as
  JSON:

  - the heap-free loop (:func:`repro.server.driver.serve_direct`
    through :func:`repro.shaping.build_stack`) against the event loop
    for the single-server policies, split in either admission mode and
    splitfarm at 10^4 and 10^5 requests (``direct``, :data:`DIRECT_CASES`);
  - the same loop fed a closed-loop population (the
    :data:`CLOSED_LOOP` population, ~4x10^4 requests) against the event
    loop for every policy (``closed_loop``);
  - the native closed loop (engine ``"native"``, what
    :func:`run_closed_loop` takes under ``auto``) against the direct
    loop on that population for srpt, nudge, boost, edf and splitfarm
    (``closed_native``).  Both paths build the same ``Request`` objects,
    about 0.65 µs each, so this speedup is held to
    :data:`MIN_QUICK_CLOSED_SPEEDUP`, not the open loops' 5x;
  - the native loops (engine ``"native"``) against the direct loop,
    the path ``auto`` takes without them, at 10^4, 10^5 and 10^6
    requests (``native``, :data:`NATIVE_CASES`): fcfs, split in either
    admission mode, fairqueue, wf2q and miser.  A policy keeps its
    second implementation only while this speedup holds at least
    :data:`MIN_QUICK_SPEEDUP` at 10^5.

  The two paths of a row run in alternation, the first of them flipped
  every rep, and each reports its median with its fastest and slowest
  rep beside it: host speed drifts over seconds, timing one path's reps
  back to back before the other's lets a row's speedup follow that
  drift, and the spread says how far a row can be trusted.

``--quick`` is the CI smoke gate: it fails (exit 1) if ``engine_parity``
reports any divergence on the 10^5-request reference trace — for every
policy on the path ``auto`` takes it to — if the direct loop and the
event loop disagree on split under work admission there, if
``closed_loop_parity`` reports any divergence on the closed-loop
population for any policy (on the path ``auto`` takes it to), if the
native loops lose bit parity with the direct loop or fall below
:data:`MIN_QUICK_SPEEDUP` over it on any of :data:`NATIVE_CASES`, or if
the native closed loop loses bit parity with the direct loop or falls
below :data:`MIN_QUICK_CLOSED_SPEEDUP` over it for any of its five
policies.  The direct path has no speed floor there, open or closed.

The committed ``BENCH_engine.json`` was produced by the script mode;
regenerate it with ``make bench-json`` after touching any engine.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time

if __name__ == "__main__":  # script mode works from a source checkout
    _src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    if os.path.isdir(_src):
        sys.path.insert(0, os.path.abspath(_src))

import numpy as np
import pytest

from repro.check.differential import closed_loop_parity
from repro.perf.native import CLOSED_POLICIES
from repro.sched.registry import ALL_POLICIES
from repro.server.driver import DirectRun, serve_direct
from repro.shaping import RunConfig, build_stack, class_results, run_policy
from repro.sim.source import ClosedLoopPopulation
from repro.traces.synthetic import poisson_workload
from repro.workload import BimodalDemand, run_closed_loop

#: Reference configuration: overloaded enough that Split exercises both
#: queues (same shape as the committed speedup measurements).
RATE = 350.0
CMIN = 300.0
DELTA_C = 60.0
DELTA = 0.05

#: Trace sizes for the native rows (requests, approximate — Poisson
#: draws the exact count).
SIZES = (10_000, 100_000, 1_000_000)

#: CI gate: minimum speedup of the native loops over the direct loop on
#: the 10^5-request reference trace.  A policy moves to a second
#: implementation only where it beats the path it replaces by this much.
MIN_QUICK_SPEEDUP = 5.0

#: CI gate: minimum speedup of the native closed loop over the direct
#: loop on the :data:`CLOSED_LOOP` population.  Both paths build the
#: same ``Request`` objects, about 0.65 µs each, which bounds this
#: speedup well below :data:`MIN_QUICK_SPEEDUP`.
MIN_QUICK_CLOSED_SPEEDUP = 2.5

#: The policies of the pytest-benchmark cases.
POLICIES = ("fcfs", "split")

#: ``(policy, admission)``: each configuration ``auto`` serves on the
#: native loops, measured against the direct loop, which serves it
#: without them.
NATIVE_CASES = (
    ("fcfs", "count"),
    ("split", "count"),
    ("split", "work"),
    ("fairqueue", "count"),
    ("wf2q", "count"),
    ("miser", "count"),
)

#: (policy, admission) cases measured on the heap-free loop (engine
#: "direct") against the event loop, the topologies on their two sides.
DIRECT_CASES = tuple(
    (policy, "count")
    for policy in (
        "fcfs", "fairqueue", "wf2q", "drr", "miser", "edf", "srpt", "nudge", "boost"
    )
) + (("split", "count"), ("split", "work"), ("splitfarm", "count"))

#: Trace sizes for the direct rows (the event loop needs ~10 s per
#: policy at 10^6).
DIRECT_SIZES = SIZES[:2]

#: The closed-loop rows' population: 36 users thinking 0.2 s on average
#: between requests from the tail bake-off's 1/8 demand mix keep the
#: reference server about 90% busy; 250 s of it is ~4x10^4 requests.
CLOSED_LOOP = {
    "n_users": 36,
    "think_time": 0.2,
    "horizon": 250.0,
    "seed": 17,
    "demand_sampler": BimodalDemand(short=1.0, long=8.0, long_fraction=0.12),
}


def reference_workload(n_requests: int, seed: int = 17):
    """A Poisson trace with ~``n_requests`` arrivals at :data:`RATE`."""
    duration = n_requests / RATE
    return poisson_workload(
        rate=RATE, duration=duration, seed=seed, name=f"poisson-{n_requests}"
    )


# ---------------------------------------------------------------------------
# pytest-benchmark mode
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_workload():
    return reference_workload(30_000)


@pytest.mark.parametrize("engine", ("scalar", "auto"))
@pytest.mark.parametrize("policy", POLICIES)
def test_run_policy_engine(benchmark, bench_workload, policy, engine):
    result = benchmark.pedantic(
        run_policy,
        args=(bench_workload, policy),
        kwargs={"config": RunConfig(CMIN, DELTA_C, DELTA, engine=engine)},
        rounds=3,
        iterations=1,
    )
    # auto takes the native loop where it builds, the direct loop else.
    assert (result.engine == "scalar") == (engine == "scalar")
    assert len(result.overall) == len(bench_workload)


# ---------------------------------------------------------------------------
# Script mode: the BENCH_engine.json report
# ---------------------------------------------------------------------------


def _timed_pair(first, second, reps: int = 1) -> tuple[list, list, object, object]:
    """Wall times of every rep of ``first()`` and ``second()``, plus results.

    The two run in alternation, and which one goes first flips every
    rep, so a slow or fast spell of the host lands on both.  Each call
    starts from a collected heap with the path's earlier result
    released: the collector's passes over earlier results (4x10^4
    ``Request`` objects per closed-loop run) would otherwise land on
    whichever rep crosses a threshold, up to doubling it.
    """
    times: tuple[list, list] = ([], [])
    results = [None, None]
    for rep in range(reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for which in order:
            results[which] = None
            gc.collect()
            start = time.perf_counter()
            results[which] = (first, second)[which]()
            times[which].append(time.perf_counter() - start)
    return times[0], times[1], results[0], results[1]


def _timings(names: tuple[str, str], first: list, second: list) -> dict:
    """A row's timing columns: each path's median with its min and max.

    ``names`` name the two paths, the one replaced first.  The speedup
    is the ratio of the medians; the spread says how far a slow or fast
    spell of the host could have moved it.
    """
    columns = {}
    for path, times in zip(names, (first, second)):
        columns[f"{path}_s"] = round(float(np.median(times)), 4)
        columns[f"{path}_min_s"] = round(min(times), 4)
        columns[f"{path}_max_s"] = round(max(times), 4)
    columns["speedup"] = round(float(np.median(first) / np.median(second)), 2)
    return columns


def _label(policy: str, admission: str) -> str:
    """A row's name: the policy, with its admission mode unless count."""
    return policy if admission == "count" else f"{policy}/{admission}"


def _runner(path: str, workload, policy: str, config: RunConfig):
    """One run of ``policy`` on ``path``, as a zero-argument callable.

    ``"scalar"`` is forced through ``run_policy``, ``"native"`` is what
    ``auto`` takes, and ``"direct"`` is
    :func:`~repro.server.driver.serve_direct` through ``build_stack``
    (``auto`` takes it only where the native loops do not qualify).
    """
    if path == "direct":

        def direct():
            sides, route = build_stack(policy, config)
            return serve_direct(workload, *sides, route=route)

        return direct
    engine = "auto" if path == "native" else path
    return lambda: run_policy(workload, policy, config=config.with_engine(engine))


def _served(run, policy: str) -> tuple:
    """The path a run took and what it served: samples per collector
    and primary misses, comparable across paths."""
    if isinstance(run, DirectRun):
        path, (primary, overflow) = "direct", class_results(policy, run.by_class)
    else:
        path, primary, overflow = run.engine, run.primary, run.overflow
    samples = [c.samples.tolist() for c in (run.overall, primary, overflow)]
    return path, samples, run.primary_misses


def _bench_paths(
    workload, policy: str, reps: int, slow: str, fast: str, admission: str = "count"
) -> dict:
    """Path ``slow`` vs path ``fast``, bit-parity checked."""
    config = RunConfig(CMIN, DELTA_C, DELTA, admission=admission)
    slow_times, fast_times, slow_run, fast_run = _timed_pair(
        _runner(slow, workload, policy, config),
        _runner(fast, workload, policy, config),
        reps,
    )
    slow_path, slow_samples, slow_misses = _served(slow_run, policy)
    fast_path, fast_samples, fast_misses = _served(fast_run, policy)
    return {
        "workload": workload.name,
        "policy": policy,
        "admission": admission,
        "n_requests": len(workload),
        **_timings((slow, fast), slow_times, fast_times),
        "bit_parity_ok": (slow_path, fast_path) == (slow, fast)
        and slow_samples == fast_samples
        and slow_misses == fast_misses,
    }


def _closed_runner(path: str, policy: str, config: RunConfig):
    """One run of ``policy`` on the :data:`CLOSED_LOOP` population on
    ``path``, as a zero-argument callable returning the run and its
    submitted requests.

    ``"scalar"`` is forced through ``run_closed_loop``, ``"native"`` is
    what ``auto`` takes, and ``"direct"`` is
    :func:`~repro.server.driver.serve_direct` through ``build_stack``,
    each with its population built inside the call.
    """
    if path == "direct":

        def direct():
            population = ClosedLoopPopulation(**CLOSED_LOOP)
            sides, route = build_stack(policy, config)
            return serve_direct(population, *sides, route=route), population.requests

        return direct

    def run():
        engine = "auto" if path == "native" else path
        result = run_closed_loop(policy, config.with_engine(engine), **CLOSED_LOOP)
        return result, result.submitted

    return run


def _bench_closed_paths(policy: str, reps: int, slow: str, fast: str) -> dict:
    """Path ``slow`` vs path ``fast`` on the :data:`CLOSED_LOOP`
    population: samples, misses and every submitted request must agree."""
    config = RunConfig(CMIN, DELTA_C, DELTA)
    slow_times, fast_times, (slow_run, slow_requests), (fast_run, fast_requests) = (
        _timed_pair(
            _closed_runner(slow, policy, config),
            _closed_runner(fast, policy, config),
            reps,
        )
    )
    slow_path, slow_samples, slow_misses = _served(slow_run, policy)
    fast_path, fast_samples, fast_misses = _served(fast_run, policy)
    return {
        "policy": policy,
        "n_requests": len(slow_requests),
        **_timings((slow, fast), slow_times, fast_times),
        "bit_parity_ok": (slow_path, fast_path) == (slow, fast)
        and slow_samples == fast_samples
        and slow_misses == fast_misses
        and slow_requests == fast_requests,
    }


def _quick_gate() -> int:
    """CI smoke: parity + speedup floor on the 10^5 reference trace."""
    from repro.check.differential import engine_parity

    workload = reference_workload(100_000)
    # The default policy set covers every policy on the path auto takes
    # it to (native or direct), the topologies included, under count
    # admission.
    parity = engine_parity(workload, CMIN, DELTA_C, DELTA)
    print(parity.summary())
    failed = not parity.ok
    # engine_parity runs under count admission: split under work
    # admission is checked here on the direct loop, and on the native
    # loop by its NATIVE_CASES row below.
    row = _bench_paths(workload, "split", 1, "scalar", "direct", admission="work")
    print(
        f"split/work @ n={row['n_requests']}: direct loop "
        + ("bit-identical" if row["bit_parity_ok"] else "FAIL: lost bit parity")
    )
    failed = failed or not row["bit_parity_ok"]
    for policy in ALL_POLICIES:
        problems = closed_loop_parity(policy, CMIN, DELTA_C, DELTA, **CLOSED_LOOP)
        print(f"closed-loop {policy}: " + ("; ".join(problems) or "bit-identical"))
        failed = failed or bool(problems)
    for policy in CLOSED_POLICIES:
        # Three alternations: a ~0.1 s row is at the mercy of one slow spell.
        row = _bench_closed_paths(policy, 3, "direct", "native")
        print(
            f"closed-loop {policy:>9s} @ n={row['n_requests']}: direct "
            f"{row['direct_s']:.3f}s  native {row['native_s']:.4f}s  speedup "
            f"{row['speedup']:.1f}x  parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
        )
        if not row["bit_parity_ok"]:
            print(f"FAIL: closed-loop {policy} lost bit parity on the native path")
            failed = True
        if row["speedup"] < MIN_QUICK_CLOSED_SPEEDUP:
            print(
                f"FAIL: closed-loop {policy} native speedup {row['speedup']:.1f}x "
                f"over direct is below the {MIN_QUICK_CLOSED_SPEEDUP}x floor"
            )
            failed = True
    for policy, admission in NATIVE_CASES:
        row = _bench_paths(workload, policy, 1, "direct", "native", admission=admission)
        label = _label(policy, admission)
        print(
            f"{label:>10s} @ n={row['n_requests']}: direct {row['direct_s']:.3f}s"
            f"  native {row['native_s']:.4f}s  speedup {row['speedup']:.1f}x"
            f"  parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
        )
        if not row["bit_parity_ok"]:
            print(f"FAIL: {label} lost bit parity on the native path")
            failed = True
        if row["speedup"] < MIN_QUICK_SPEEDUP:
            print(
                f"FAIL: {label} native speedup {row['speedup']:.1f}x over direct "
                f"is below the {MIN_QUICK_SPEEDUP:.0f}x floor"
            )
            failed = True
    print("engine smoke: " + ("FAIL" if failed else "PASS"))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI gate: parity + speedup floor on the 10^5 trace, no JSON",
    )
    args = parser.parse_args(argv)

    if args.quick:
        return _quick_gate()

    direct = []
    for n in DIRECT_SIZES:
        workload = reference_workload(n)
        for policy, admission in DIRECT_CASES:
            row = _bench_paths(
                workload, policy, args.reps, "scalar", "direct", admission=admission
            )
            direct.append(row)
            print(
                f"{_label(policy, admission):>10s} @ n={row['n_requests']:>7d}: "
                f"scalar {row['scalar_s']:8.3f}s  direct {row['direct_s']:7.3f}s  "
                f"speedup {row['speedup']:6.2f}x  "
                f"parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
            )

    closed = []
    for policy in ALL_POLICIES:
        row = _bench_closed_paths(policy, args.reps, "scalar", "direct")
        closed.append(row)
        print(
            f"closed-loop {policy:>9s} @ n={row['n_requests']:>6d}: "
            f"scalar {row['scalar_s']:7.3f}s  direct {row['direct_s']:7.3f}s  "
            f"speedup {row['speedup']:5.2f}x  "
            f"parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
        )

    closed_native = []
    for policy in CLOSED_POLICIES:
        row = _bench_closed_paths(policy, args.reps, "direct", "native")
        closed_native.append(row)
        print(
            f"closed-loop {policy:>9s} @ n={row['n_requests']:>6d}: "
            f"direct {row['direct_s']:7.3f}s  native {row['native_s']:7.4f}s  "
            f"speedup {row['speedup']:5.2f}x  "
            f"parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
        )

    native = []
    for n in SIZES:
        workload = reference_workload(n)
        for policy, admission in NATIVE_CASES:
            row = _bench_paths(
                workload, policy, args.reps, "direct", "native", admission=admission
            )
            native.append(row)
            print(
                f"{_label(policy, admission):>10s} @ n={row['n_requests']:>7d}: "
                f"direct {row['direct_s']:8.3f}s  native {row['native_s']:7.4f}s  "
                f"speedup {row['speedup']:6.1f}x  "
                f"parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
            )

    def at(rows, n):
        return [r for r in rows if 0.9 * n <= r["n_requests"] <= 1.1 * n]

    direct_largest = at(direct, DIRECT_SIZES[-1])
    native_1e5 = at(native, SIZES[1])
    summary = {
        "all_parity_ok": all(
            r["bit_parity_ok"] for r in direct + closed + closed_native + native
        ),
        "direct_speedup_at_1e5": {
            _label(r["policy"], r["admission"]): r["speedup"] for r in direct_largest
        },
        "min_direct_speedup_at_1e5": min(r["speedup"] for r in direct_largest),
        "closed_loop_speedup": {r["policy"]: r["speedup"] for r in closed},
        "min_closed_loop_speedup": min(r["speedup"] for r in closed),
        # The native closed loop over the direct loop, the path it replaces.
        "closed_native_speedup": {r["policy"]: r["speedup"] for r in closed_native},
        "min_closed_native_speedup": min(r["speedup"] for r in closed_native),
        # Each native case over the direct loop, the path it replaces.
        "native_speedup_at_1e5": {
            _label(r["policy"], r["admission"]): r["speedup"] for r in native_1e5
        },
        "min_native_speedup_at_1e5": min(r["speedup"] for r in native_1e5),
    }
    report = {
        "meta": {
            "rate": RATE,
            "cmin": CMIN,
            "delta_c": DELTA_C,
            "delta": DELTA,
            "closed_loop": {
                **CLOSED_LOOP,
                "demand_sampler": CLOSED_LOOP["demand_sampler"].describe(),
            },
            "reps": args.reps,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "direct": direct,
        "closed_loop": closed,
        "closed_native": closed_native,
        "native": native,
        "summary": summary,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0 if summary["all_parity_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
