"""Kernel backend benchmarks: scalar vs native RTT kernels.

Two modes:

* Under pytest (``make bench``) these are ordinary pytest-benchmark
  cases, one per backend, over the bundled traces.
* As a script (``make bench-json`` /
  ``python benchmarks/bench_kernels.py --output BENCH_kernels.json``)
  it times every backend over a (trace x capacity) matrix, verifies
  parity between all backends *and* against the Fraction-exact
  reference ``decompose_exact``, and writes the whole report as JSON.

The committed ``BENCH_kernels.json`` was produced by the script mode;
regenerate it with ``make bench-json`` after touching the kernels.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from fractions import Fraction

if __name__ == "__main__":  # script mode works from a source checkout
    _src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    if os.path.isdir(_src):
        sys.path.insert(0, os.path.abspath(_src))

import numpy as np
import pytest

from repro.core.rtt import decompose, decompose_exact
from repro.experiments.common import ExperimentConfig
from repro.perf import (
    admitted_per_batch,
    available_backends,
    count_admitted,
    count_admitted_sweep,
)

#: (trace, capacity) matrix for the JSON report.  Capacities bracket the
#: planner's operating range: near each trace's knee and well above it.
MATRIX = [
    ("websearch", 300.0),
    ("websearch", 900.0),
    ("fintrans", 900.0),
    ("openmail", 900.0),
    ("openmail", 2000.0),
]

DELTA = 0.010

# ---------------------------------------------------------------------------
# pytest-benchmark mode
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def batched(workloads):
    return {
        name: workloads[name].arrival_counts()
        for name in ("websearch", "fintrans", "openmail")
    }


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("trace", ["websearch", "openmail"])
def test_count_admitted_backend(benchmark, batched, trace, backend):
    instants, counts = batched[trace]
    result = benchmark(
        count_admitted, instants, counts, 900.0, DELTA, backend=backend
    )
    assert 0 < result <= int(counts.sum())


@pytest.mark.parametrize("backend", available_backends())
def test_admitted_per_batch_backend(benchmark, batched, backend):
    instants, counts = batched["websearch"]
    out = benchmark(
        admitted_per_batch, instants, counts, 900.0, DELTA, backend=backend
    )
    assert out.size == instants.size


@pytest.mark.parametrize("backend", available_backends())
def test_capacity_sweep_backend(benchmark, batched, backend):
    instants, counts = batched["fintrans"]
    caps = np.geomspace(50.0, 2000.0, 16)
    out = benchmark(
        count_admitted_sweep, instants, counts, caps, DELTA, backend=backend
    )
    assert np.all(np.diff(out) >= 0)  # admitted count monotone in capacity


# ---------------------------------------------------------------------------
# Script mode: the BENCH_kernels.json report
# ---------------------------------------------------------------------------


def _best_of(fn, *args, reps: int = 5, **kwargs) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return best


def _bench_case(workload, capacity: float, reps: int) -> dict:
    instants, counts = workload.arrival_counts()
    backends = available_backends()

    counts_admitted = {
        name: count_admitted(instants, counts, capacity, DELTA, backend=name)
        for name in backends
    }
    per_batch = {
        name: admitted_per_batch(instants, counts, capacity, DELTA, backend=name)
        for name in backends
    }
    parity_ok = len(set(counts_admitted.values())) == 1 and all(
        np.array_equal(per_batch["scalar"], per_batch[name]) for name in backends
    )

    exact = decompose_exact(workload, Fraction(capacity), Fraction(DELTA))
    # Each batch admits a prefix of its requests, so the exact mask
    # summed per batch is what every backend's per-batch counts must be.
    exact_per_batch = np.add.reduceat(exact.admitted, np.cumsum(counts) - counts)
    exact_ok = all(
        np.array_equal(per_batch[name], exact_per_batch) for name in backends
    ) and np.array_equal(decompose(workload, capacity, DELTA).admitted, exact.admitted)

    timings = {
        name: _best_of(
            count_admitted, instants, counts, capacity, DELTA,
            backend=name, reps=reps,
        )
        for name in backends
    }
    scalar_time = timings["scalar"]
    return {
        "workload": workload.name,
        "capacity": capacity,
        "delta": DELTA,
        "n_requests": len(workload),
        "n_batches": int(instants.size),
        "admitted": counts_admitted["scalar"],
        "parity_ok": parity_ok,
        "exact_parity_ok": exact_ok,
        "timings_ms": {k: round(v * 1e3, 4) for k, v in timings.items()},
        "speedup_vs_scalar": {
            k: round(scalar_time / v, 2) for k, v in timings.items() if k != "scalar"
        },
    }


def _bench_sweep(workload, reps: int) -> dict:
    """The planner's sweep primitive: 16 capacities in one call."""
    instants, counts = workload.arrival_counts()
    caps = np.geomspace(50.0, 2000.0, 16)
    timings = {
        name: _best_of(
            count_admitted_sweep, instants, counts, caps, DELTA,
            backend=name, reps=reps,
        )
        for name in available_backends()
    }
    scalar_time = timings["scalar"]
    return {
        "workload": workload.name,
        "n_capacities": int(caps.size),
        "delta": DELTA,
        "timings_ms": {k: round(v * 1e3, 4) for k, v in timings.items()},
        "speedup_vs_scalar": {
            k: round(scalar_time / v, 2) for k, v in timings.items() if k != "scalar"
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_kernels.json")
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)

    config = ExperimentConfig(duration=args.duration)
    results = []
    for trace, capacity in MATRIX:
        case = _bench_case(config.workload(trace), capacity, args.reps)
        results.append(case)
        print(
            f"{case['workload']:>10s} @ C={capacity:6.0f}: "
            + "  ".join(
                f"{k}={v:8.2f}ms" for k, v in case["timings_ms"].items()
            )
            + f"  parity={'OK' if case['parity_ok'] and case['exact_parity_ok'] else 'FAIL'}"
        )
    sweeps = [
        _bench_sweep(config.workload(name), args.reps)
        for name in ("websearch", "fintrans", "openmail")
    ]

    backends = [b for b in available_backends() if b != "scalar"]
    best = {
        b: max(r["speedup_vs_scalar"][b] for r in results) for b in backends
    }
    report = {
        "meta": {
            "duration_s": args.duration,
            "delta": DELTA,
            "backends": list(available_backends()),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "count_admitted": results,
        "capacity_sweep": sweeps,
        "summary": {
            "all_parity_ok": all(
                r["parity_ok"] and r["exact_parity_ok"] for r in results
            ),
            "best_speedup_vs_scalar": best,
        },
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0 if report["summary"]["all_parity_ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
