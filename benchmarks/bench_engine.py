"""Execution-engine benchmarks: scalar event loop vs columnar batch.

Two modes, mirroring ``bench_kernels.py``:

* Under pytest (``make bench``) these are pytest-benchmark cases, one
  per engine, on a mid-sized Poisson trace.
* As a script (``make bench-json`` /
  ``python benchmarks/bench_engine.py --output BENCH_engine.json``) it
  times both engines end-to-end over a (trace size x policy) matrix
  from 10^4 to 10^6 requests, times the heap-free loop (engine
  ``"direct"``) against the event loop for every configuration the
  batch engine does not take — the single-server policies, split under
  work admission and splitfarm — at 10^4 and 10^5 requests, times the
  same loop fed a closed-loop population (:func:`run_closed_loop`,
  ~4x10^4 requests) against the event loop for every policy, times the
  columnar farm kernel against the event-driven ``ServerFarm`` from 1
  to 1000 units, certifies bit-parity on every case, and writes the
  report as JSON.  The two paths of a row run in alternation, the
  first of them flipped every rep, and each reports its median with
  its fastest and slowest rep beside it: host speed drifts over
  seconds, timing one path's reps back to back before the other's
  lets a row's speedup follow that drift, and the spread says how far
  a row can be trusted.

``--quick`` is the CI smoke gate: it fails (exit 1) if ``engine_parity``
reports any divergence on the 10^5-request reference trace — for the
batch policies and for every policy on the direct path — if the direct
loop and the event loop disagree on split under work admission there,
if ``closed_loop_parity`` reports any divergence on the closed-loop
population for any policy, or if the batch engine regresses below
:data:`MIN_QUICK_SPEEDUP` on either batch policy.  The direct path has
no speed floor there, open or closed.

The committed ``BENCH_engine.json`` was produced by the script mode;
regenerate it with ``make bench-json`` after touching either engine.
"""

from __future__ import annotations

import argparse
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
from repro.sched.registry import ALL_POLICIES
from repro.shaping import RunConfig, run_policy
from repro.sim import batch
from repro.traces.synthetic import poisson_workload
from repro.workload import BimodalDemand, run_closed_loop

#: Reference configuration: overloaded enough that Split exercises both
#: queues (same shape as the committed speedup measurements).
RATE = 350.0
CMIN = 300.0
DELTA_C = 60.0
DELTA = 0.05

#: Trace sizes for the end-to-end matrix (requests, approximate —
#: Poisson draws the exact count).
SIZES = (10_000, 100_000, 1_000_000)

#: Farm sizes for the columnar farm kernel vs the event-driven farm.
FARM_UNITS = (1, 10, 100, 1000)

#: CI gate: minimum batch speedup on the 10^5-request reference trace.
MIN_QUICK_SPEEDUP = 5.0

POLICIES = ("fcfs", "split")

#: (policy, admission) cases the batch engine does not take: ``auto``
#: serves them on the heap-free loop (engine "direct"), the topologies
#: on their two sides.
DIRECT_CASES = tuple(
    (policy, "count")
    for policy in ("fairqueue", "wf2q", "drr", "miser", "edf", "srpt", "nudge", "boost")
) + (("split", "work"), ("splitfarm", "count"))

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


@pytest.mark.parametrize("engine", ("scalar", "batch"))
@pytest.mark.parametrize("policy", POLICIES)
def test_run_policy_engine(benchmark, bench_workload, policy, engine):
    result = benchmark.pedantic(
        run_policy,
        args=(bench_workload, policy),
        kwargs={"config": RunConfig(CMIN, DELTA_C, DELTA, engine=engine)},
        rounds=3,
        iterations=1,
    )
    assert result.engine == engine
    assert len(result.overall) == len(bench_workload)


@pytest.mark.parametrize("units", (10, 1000))
def test_farm_kernel(benchmark, bench_workload, units):
    completions = benchmark.pedantic(
        batch.farm_fcfs_completions,
        args=(bench_workload.arrivals, units, CMIN),
        rounds=3,
        iterations=1,
    )
    assert completions.size == len(bench_workload)


# ---------------------------------------------------------------------------
# Script mode: the BENCH_engine.json report
# ---------------------------------------------------------------------------


def _timed_pair(first, second, reps: int = 1) -> tuple[list, list, object, object]:
    """Wall times of every rep of ``first()`` and ``second()``, plus results.

    The two run in alternation, and which one goes first flips every
    rep, so a slow or fast spell of the host lands on both.
    """
    times: tuple[list, list] = ([], [])
    results = [None, None]
    for rep in range(reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for which in order:
            start = time.perf_counter()
            results[which] = (first, second)[which]()
            times[which].append(time.perf_counter() - start)
    return times[0], times[1], results[0], results[1]


def _timings(name: str, first: list, second: list) -> dict:
    """A row's timing columns: each path's median with its min and max.

    ``name`` names the second path (the first is the event loop).  The
    speedup is the ratio of the medians; the spread says how far a slow
    or fast spell of the host could have moved it.
    """
    columns = {}
    for path, times in (("scalar", first), (name, second)):
        columns[f"{path}_s"] = round(float(np.median(times)), 4)
        columns[f"{path}_min_s"] = round(min(times), 4)
        columns[f"{path}_max_s"] = round(max(times), 4)
    columns["speedup"] = round(float(np.median(first) / np.median(second)), 2)
    return columns


def _label(policy: str, admission: str) -> str:
    """A row's name: the policy, with its admission mode unless count."""
    return policy if admission == "count" else f"{policy}/{admission}"


def _bench_end_to_end(
    workload, policy: str, reps: int, path: str = "batch", admission: str = "count"
) -> dict:
    """The event loop vs ``path``: "batch", or "direct", which ``auto`` picks."""
    config = RunConfig(CMIN, DELTA_C, DELTA, admission=admission)
    scalar = config.with_engine("scalar")
    fast = config.with_engine("batch" if path == "batch" else "auto")
    scalar_times, fast_times, scalar_run, fast_run = _timed_pair(
        lambda: run_policy(workload, policy, config=scalar),
        lambda: run_policy(workload, policy, config=fast),
        reps,
    )
    parity_ok = fast_run.engine == path and all(
        getattr(fast_run, name).samples.tolist()
        == getattr(scalar_run, name).samples.tolist()
        for name in ("overall", "primary", "overflow")
    )
    return {
        "workload": workload.name,
        "policy": policy,
        "admission": admission,
        "n_requests": len(workload),
        **_timings(path, scalar_times, fast_times),
        "bit_parity_ok": parity_ok and fast_run.primary_misses == scalar_run.primary_misses,
    }


def _bench_closed_loop(policy: str, reps: int) -> dict:
    """The event loop vs the direct loop on the :data:`CLOSED_LOOP` population."""
    config = RunConfig(CMIN, DELTA_C, DELTA)
    scalar_times, direct_times, scalar_run, direct_run = _timed_pair(
        lambda: run_closed_loop(policy, config.with_engine("scalar"), **CLOSED_LOOP),
        lambda: run_closed_loop(policy, config.with_engine("auto"), **CLOSED_LOOP),
        reps,
    )
    problems = closed_loop_parity(policy, CMIN, DELTA_C, DELTA, **CLOSED_LOOP)
    for problem in problems:
        print(f"FAIL: {problem}")
    return {
        "policy": policy,
        "n_requests": len(scalar_run.submitted),
        **_timings("direct", scalar_times, direct_times),
        "bit_parity_ok": direct_run.engine == "direct" and not problems,
    }


def _bench_farm(workload, units: int, reps: int) -> dict:
    from repro.sched.fcfs import FCFSScheduler
    from repro.server.driver import DeviceDriver
    from repro.server.farm import constant_rate_farm
    from repro.sim.engine import Simulator
    from repro.sim.source import WorkloadSource

    def event_farm():
        sim = Simulator()
        driver = DeviceDriver(
            sim, constant_rate_farm(sim, CMIN, units), FCFSScheduler()
        )
        WorkloadSource(sim, workload, driver).start()
        sim.run()
        completions = np.empty(len(workload))
        for request in driver.completed:
            completions[request.index] = request.completion
        return completions

    scalar_times, batch_times, event, columnar = _timed_pair(
        event_farm,
        lambda: batch.farm_fcfs_completions(workload.arrivals, units, CMIN),
        reps,
    )
    return {
        "workload": workload.name,
        "units": units,
        "n_requests": len(workload),
        **_timings("batch", scalar_times, batch_times),
        "bit_parity_ok": bool(np.array_equal(event, columnar)),
    }


def _quick_gate() -> int:
    """CI smoke: parity + speedup floor on the 10^5 reference trace."""
    from repro.check.differential import engine_parity

    workload = reference_workload(100_000)
    # The default policy set covers the batch pair and every policy on
    # the direct path, the topologies included, under count admission.
    parity = engine_parity(workload, CMIN, DELTA_C, DELTA)
    print(parity.summary())
    failed = not parity.ok
    # Split under work admission is the one direct case engine_parity
    # leaves to the batch engine's count-mode twin.
    row = _bench_end_to_end(workload, "split", reps=1, path="direct", admission="work")
    print(
        f"split/work @ n={row['n_requests']}: direct loop "
        + ("bit-identical" if row["bit_parity_ok"] else "FAIL: lost bit parity")
    )
    failed = failed or not row["bit_parity_ok"]
    for policy in ALL_POLICIES:
        problems = closed_loop_parity(policy, CMIN, DELTA_C, DELTA, **CLOSED_LOOP)
        print(f"closed-loop {policy}: " + ("; ".join(problems) or "bit-identical"))
        failed = failed or bool(problems)
    for policy in POLICIES:
        row = _bench_end_to_end(workload, policy, reps=1)
        print(
            f"{policy:>6s} @ n={row['n_requests']}: scalar {row['scalar_s']:.2f}s"
            f"  batch {row['batch_s']:.2f}s  speedup {row['speedup']:.1f}x"
            f"  parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
        )
        if not row["bit_parity_ok"]:
            print(f"FAIL: {policy} lost bit parity")
            failed = True
        if row["speedup"] < MIN_QUICK_SPEEDUP:
            print(
                f"FAIL: {policy} speedup {row['speedup']:.1f}x is below the "
                f"{MIN_QUICK_SPEEDUP:.0f}x floor"
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

    results = []
    for n in SIZES:
        workload = reference_workload(n)
        for policy in POLICIES:
            row = _bench_end_to_end(workload, policy, args.reps)
            results.append(row)
            print(
                f"{policy:>6s} @ n={row['n_requests']:>7d}: "
                f"scalar {row['scalar_s']:8.3f}s  batch {row['batch_s']:7.3f}s  "
                f"speedup {row['speedup']:6.1f}x  "
                f"parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
            )

    direct = []
    for n in DIRECT_SIZES:
        workload = reference_workload(n)
        for policy, admission in DIRECT_CASES:
            row = _bench_end_to_end(
                workload, policy, args.reps, path="direct", admission=admission
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
        row = _bench_closed_loop(policy, args.reps)
        closed.append(row)
        print(
            f"closed-loop {policy:>9s} @ n={row['n_requests']:>6d}: "
            f"scalar {row['scalar_s']:7.3f}s  direct {row['direct_s']:7.3f}s  "
            f"speedup {row['speedup']:5.2f}x  "
            f"parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
        )

    farm_workload = reference_workload(100_000)
    farms = []
    for units in FARM_UNITS:
        row = _bench_farm(farm_workload, units, args.reps)
        farms.append(row)
        print(
            f"farm x{units:>4d} @ n={row['n_requests']}: "
            f"event {row['scalar_s']:7.3f}s  columnar {row['batch_s']:7.3f}s  "
            f"speedup {row['speedup']:6.1f}x  "
            f"parity={'OK' if row['bit_parity_ok'] else 'FAIL'}"
        )

    largest = [r for r in results if r["n_requests"] >= 0.9 * SIZES[-1]]
    direct_largest = [r for r in direct if r["n_requests"] >= 0.9 * DIRECT_SIZES[-1]]
    summary = {
        "all_parity_ok": all(
            r["bit_parity_ok"] for r in results + direct + closed + farms
        ),
        "speedup_at_1e6": {r["policy"]: r["speedup"] for r in largest},
        "min_speedup_at_1e6": min(r["speedup"] for r in largest),
        "direct_speedup_at_1e5": {
            _label(r["policy"], r["admission"]): r["speedup"] for r in direct_largest
        },
        "min_direct_speedup_at_1e5": min(r["speedup"] for r in direct_largest),
        "closed_loop_speedup": {r["policy"]: r["speedup"] for r in closed},
        "min_closed_loop_speedup": min(r["speedup"] for r in closed),
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
        "end_to_end": results,
        "direct": direct,
        "closed_loop": closed,
        "farm": farms,
        "summary": summary,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0 if summary["all_parity_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
