"""Soak: 10^5 virtual seconds of chaos with conservation every epoch.

Marked ``soak`` (see ``pyproject.toml``): the CI serve-smoke job runs it
explicitly with ``-m soak``; it also rides along in tier-1 because
virtual time keeps the wall-clock cost to about a second.
"""

from __future__ import annotations

import pytest

from repro.faults.retry import RetryPolicy
from repro.faults.schedule import random_schedule
from repro.serve import AutoscalerConfig, ServiceHarness
from repro.traces.synthetic import poisson_workload

HORIZON = 1e5
EPOCH = 1_000.0
DELTA = 0.5
SEED = 2009


@pytest.mark.soak
def test_service_survives_1e5_virtual_seconds_of_chaos():
    workload = poisson_workload(0.3, duration=HORIZON, seed=17)
    schedule = random_schedule(
        SEED, horizon=HORIZON, crashes=2, droops=2, storms=2, units=2
    )
    retry = RetryPolicy(
        timeout_q1=10 * DELTA,
        timeout_q2=40 * DELTA,
        max_retries=3,
        backoff_base=DELTA / 2,
    )
    harness = ServiceHarness(
        "split",
        2.0,
        2.0,
        DELTA,
        faults=schedule,
        retry=retry,
        adaptive=True,
        seed=SEED,
        sample_interval=50.0,
        autoscaler=AutoscalerConfig(
            interval=500.0,
            window=2_000.0,
            cmin_floor=2.0,
            mode="shadow",
        ),
    )
    harness.source.stage_workload(workload)
    # run_epochs raises SimulationError from the epoch audit the moment
    # any request goes missing, so a conservation leak is localized to
    # the 1000-virtual-second epoch that caused it.
    result = harness.run_epochs(epoch=EPOCH, horizon=HORIZON)

    assert len(result.audits) == int(HORIZON / EPOCH)
    assert all(outstanding >= 0 for _, outstanding in result.audits)
    assert result.audits[-1][1] == 0
    assert not result.violations

    # Identity-level conservation across the whole run, on top of the
    # per-epoch count audits.
    assert result.conservation is not None and result.conservation.ok
    terminal = (
        result.ledger["completed"]
        + result.ledger["dropped"]
        + result.ledger["shed"]
    )
    assert terminal == len(workload)

    # The service rides out every fault: once the schedule clears, the
    # guaranteed class is fully restored.
    assert result.q1_compliance_after(schedule.last_clear) == 1.0

    # The monitoring planes kept up for the whole horizon.
    assert len(result.autoscaler_decisions) == int(HORIZON / 500.0)
    assert result.telemetry.samples
