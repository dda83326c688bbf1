"""A run's kernel, engine and window are its arguments, never the environment.

No environment variable selects an RTT kernel backend, an execution
engine or an in-flight window.  With ``REPRO_KERNEL``, ``REPRO_ENGINE``
and ``REPRO_AQM`` exported, to values that would change or refuse a run
if anything read them, every entry point returns what it returns in a
clean environment.
"""

import numpy as np
import pytest

from repro.check.differential import engine_parity
from repro.core.rtt import decompose
from repro.core.workload import Workload
from repro.faults import run_resilient
from repro.perf import admitted_per_batch, count_admitted, count_admitted_sweep, native
from repro.serve import ServiceHarness
from repro.shaping import RunConfig, WorkloadShaper, run_policy
from repro.workload import run_closed_loop

EXPORTED = {"REPRO_KERNEL": "numpy", "REPRO_ENGINE": "quantum", "REPRO_AQM": "codel"}
WORKLOAD = Workload(
    np.sort(np.random.default_rng(5).uniform(0.0, 4.0, 120)), name="environment"
)
PLAN = (20.0, 10.0, 0.2)


def outcome(result) -> tuple:
    """What a run reports, in a form ``==`` compares bit for bit."""
    samples = tuple(
        getattr(result, name).samples.tobytes()
        for name in ("overall", "primary", "overflow")
    )
    reported = (result.engine, result.aqm, result.window, result.ledger)
    return reported + (result.primary_misses,) + samples


def replayed(policy: str) -> tuple:
    result = ServiceHarness(policy, *PLAN).replay(WORKLOAD)
    return outcome(result) + (result.responses.tobytes(), result.admitted.tobytes())


ENTRY_POINTS = {
    "run_policy-split": lambda: outcome(
        run_policy(WORKLOAD, "split", config=RunConfig(*PLAN))
    ),
    "run_policy-miser": lambda: outcome(
        run_policy(WORKLOAD, "miser", config=RunConfig(*PLAN))
    ),
    "run_policy-scalar": lambda: outcome(
        run_policy(WORKLOAD, "fcfs", config=RunConfig(*PLAN, engine="scalar"))
    ),
    "run_closed_loop": lambda: outcome(
        run_closed_loop(
            "miser", RunConfig(*PLAN), n_users=4, think_time=0.1, horizon=4.0, seed=3
        )
    ),
    "run_resilient": lambda: outcome(run_resilient(WORKLOAD, "split", *PLAN)),
    "ServiceHarness": lambda: replayed("split"),
    "engine_parity": lambda: engine_parity(WORKLOAD, *PLAN),
    "WorkloadShaper.plan": lambda: WorkloadShaper(PLAN[2], 0.9).plan(WORKLOAD),
    "decompose": lambda: decompose(WORKLOAD, PLAN[0], PLAN[2]).admitted.tobytes(),
    "count_admitted": lambda: count_admitted(
        *WORKLOAD.arrival_counts(), PLAN[0], PLAN[2]
    ),
    "admitted_per_batch": lambda: admitted_per_batch(
        *WORKLOAD.arrival_counts(), PLAN[0], PLAN[2]
    ).tobytes(),
    "count_admitted_sweep": lambda: count_admitted_sweep(
        *WORKLOAD.arrival_counts(), [5.0, PLAN[0], 40.0], PLAN[2]
    ).tobytes(),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_exported_selectors_change_nothing(entry, monkeypatch):
    for name in EXPORTED:
        monkeypatch.delenv(name, raising=False)
    clean = ENTRY_POINTS[entry]()
    for name, value in EXPORTED.items():
        monkeypatch.setenv(name, value)
    assert ENTRY_POINTS[entry]() == clean


def test_a_run_arms_what_it_names(monkeypatch):
    """Exported to values a switchboard would have obeyed, the variables
    still select nothing: each run takes the engine and window it names."""
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    monkeypatch.setenv("REPRO_ENGINE", "scalar")
    monkeypatch.setenv("REPRO_AQM", "static")
    plain = run_policy(WORKLOAD, "fcfs", config=RunConfig(*PLAN))
    engine = "native" if native.available() else "direct"
    assert (plain.engine, plain.aqm, plain.window) == (engine, None, None)
    windowed = run_policy(WORKLOAD, "fcfs", config=RunConfig(*PLAN, aqm="codel"))
    assert (windowed.engine, windowed.aqm) == ("scalar", "codel")
    assert windowed.window["policy"] == "codel"
