"""Shaping through a brownout: violations stay inside it, recovery is free.

A steady 40-IOPS workload on a 60-IOPS server that a
:class:`~repro.faults.schedule.RateDroop` slows to a third of its speed
during [8, 12), served by :func:`~repro.faults.harness.run_resilient`.
"""

import numpy as np
import pytest

from repro.analysis.monitor import ComplianceMonitor
from repro.core.request import QoSClass
from repro.core.workload import Workload
from repro.faults import FaultSchedule, RateDroop, run_resilient

BROWNOUT = FaultSchedule([RateDroop(8.0, 12.0, 3.0)])


@pytest.fixture(scope="module")
def run():
    gen = np.random.default_rng(4)
    workload = Workload(np.sort(gen.uniform(0.0, 30.0, 1200)), name="steady")
    results = {}

    def simulate(policy):
        if policy not in results:
            results[policy] = run_resilient(
                workload, policy, 50.0, 10.0, 0.2, schedule=BROWNOUT
            )
        return results[policy]

    return simulate


def test_all_served_despite_brownout(run):
    result = run("miser")
    assert len(result.completed) == 1200
    assert result.ledger == {"completed": 1200, "dropped": 0, "shed": 0}


def test_violations_confined_to_brownout(run):
    """Compliance collapses only in (and right after) the injected
    window; the system recovers on its own."""
    monitor = ComplianceMonitor(delta=0.2, target=0.8, window=1.0)
    monitor.record_requests(run("miser").completed)
    violations = monitor.violations()
    assert violations, "a 3x brownout must cause some violations"
    # All violated windows start within the brownout or its drain.
    for window in violations:
        assert 7.0 <= window.start <= 16.0, window
    # Steady state before and after is compliant.
    assert monitor.availability() > 0.7


def test_shaped_recovers_like_fcfs(run):
    """Work conservation: the shaped policy drains the brownout backlog
    in the same total time as FCFS."""
    miser, fcfs = run("miser"), run("fcfs")
    assert max(r.completion for r in miser.completed) == pytest.approx(
        max(r.completion for r in fcfs.completed)
    )


def test_primary_protected_relative_to_overflow(run):
    """During the brownout the guaranteed class is still served ahead
    of the overflow class."""
    during = [r for r in run("miser").completed if 8.0 <= r.arrival < 12.0]
    primary = [r.response_time for r in during if r.qos_class is QoSClass.PRIMARY]
    overflow = [
        r.response_time for r in during if r.qos_class is QoSClass.OVERFLOW
    ]
    assert primary and overflow
    assert np.mean(primary) < np.mean(overflow)
