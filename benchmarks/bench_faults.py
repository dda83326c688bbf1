"""Fault-plane overhead: the no-faults path must stay near-free.

The resilience plane (:mod:`repro.faults`) threads through the driver's
hottest paths — dispatch and completion.  These benchmarks keep the
"structurally dormant when unused" promise honest:

* **bit-identical** — a `run_resilient` call with an empty schedule, no
  retry policy, and no controller produces exactly the response times of
  the plain `run_policy` stack;
* **bottom-up** — the dormant per-request cost (two ``retry is None``
  branch checks plus the always-on Q1 tallies) is < 5% of the measured
  per-request simulation cost;
* **end-to-end** — disabled vs. chaos-run wall time, with a tripwire so
  an accidentally-always-armed fault path shows up in CI.

The plain reference runs are pinned to the event loop, which is where
the fault plane's hooks live: by default ``run_policy`` serves these
runs on the heap-free single-server open loop, which has no hooks to
measure.  Their ratio to the default path is printed for information.
"""

from __future__ import annotations

import statistics
import time

from repro.faults import run_chaos, run_resilient
from repro.shaping import RunConfig, run_policy

#: Maximum tolerated share of per-request time spent in dormant fault
#: hooks on the no-faults path.
MAX_DORMANT_OVERHEAD = 0.05

#: Dormant fault-plane operations per completed request: the dispatch
#: path's ``retry is None`` check, the completion path's ``retry is
#: None`` check, and the always-on primary-class tally branch.
DORMANT_OPS_PER_REQUEST = 3

CMIN, DELTA_C, DELTA = 150.0, 30.0, 0.05

#: The plain reference: the event loop the fault hooks run on.
PLAIN = RunConfig(CMIN, DELTA_C, DELTA, engine="scalar")
#: What ``run_policy`` picks by default (reported, not bounded).
DEFAULT = RunConfig(CMIN, DELTA_C, DELTA)


def _median_seconds(fn, rounds: int = 5) -> float:
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _branch_check_seconds(iterations: int = 200_000) -> float:
    """Median cost of the dormant unit of work: one attribute load plus
    an ``is None`` branch."""

    class Holder:
        retry = None

    holder = Holder()

    def loop():
        for _ in range(iterations):
            if holder.retry is not None:
                pass

    return _median_seconds(loop) / iterations


def test_no_faults_bit_identical(workloads):
    """Empty schedule + no retry + no controller == run_policy, exactly."""
    w = workloads["fintrans"]
    for policy in ("fcfs", "split", "fairqueue", "miser"):
        plain = run_policy(w, policy, CMIN, DELTA_C, DELTA)
        resilient = run_resilient(w, policy, CMIN, DELTA_C, DELTA)
        assert list(plain.overall.samples) == list(resilient.overall.samples), (
            f"{policy}: no-fault resilient run diverged from run_policy"
        )
        assert plain.primary_misses == resilient.primary_misses


def test_dormant_overhead_under_bound(workloads):
    """Dormant fault hooks cost < 5% of per-request simulation time."""
    w = workloads["fintrans"]
    run_resilient(w, "miser", CMIN, DELTA_C, DELTA)  # warm-up
    per_request = _median_seconds(
        lambda: run_resilient(w, "miser", CMIN, DELTA_C, DELTA)
    ) / len(w)
    hook_cost = DORMANT_OPS_PER_REQUEST * _branch_check_seconds()
    overhead = hook_cost / per_request
    print(f"\ndormant fault-plane overhead: {overhead:.3%} of per-request time")
    assert overhead < MAX_DORMANT_OVERHEAD, (
        f"dormant fault hooks cost {overhead:.2%} of per-request time "
        f"(bound {MAX_DORMANT_OVERHEAD:.0%})"
    )


def test_no_faults_vs_plain_wall_time(benchmark, workloads):
    """End-to-end: the no-fault resilient stack must not be more than 50%
    slower than run_policy (generous — it adds a FaultyModel wrapper and
    the conservation audit, both O(n) small constants)."""
    w = workloads["fintrans"]
    plain = _median_seconds(lambda: run_policy(w, "miser", config=PLAIN))
    default = _median_seconds(lambda: run_policy(w, "miser", config=DEFAULT))

    def resilient():
        return run_resilient(w, "miser", CMIN, DELTA_C, DELTA)

    benchmark.pedantic(resilient, rounds=3, iterations=1)
    dormant = _median_seconds(resilient)
    ratio = dormant / plain
    print(
        f"\nno-fault resilient / plain wall-time ratio: {ratio:.2f}x "
        f"({dormant / default:.2f}x the default path, for information)"
    )
    assert ratio < 1.5, f"no-fault resilient stack is {ratio:.2f}x plain"


def test_chaos_run_bounded_slowdown(workloads):
    """A full chaos run (faults + retries + controller + sampler) stays
    within an order of magnitude of the plain run — a tripwire against
    quadratic blowups in the retry or sampling paths."""
    w = workloads["fintrans"]
    plain = _median_seconds(lambda: run_policy(w, "miser", config=PLAIN), rounds=3)
    default = _median_seconds(
        lambda: run_policy(w, "miser", config=DEFAULT), rounds=3
    )
    chaos = _median_seconds(
        lambda: run_chaos(w, "miser", CMIN, DELTA_C, DELTA, seed=1), rounds=3
    )
    ratio = chaos / plain
    print(
        f"\nchaos / plain wall-time ratio: {ratio:.2f}x "
        f"({chaos / default:.2f}x the default path, for information)"
    )
    assert ratio < 10.0, f"chaos run is {ratio:.2f}x plain"
