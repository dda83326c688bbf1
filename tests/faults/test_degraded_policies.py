"""Every single-server policy against a drooping and a flaky server.

The shaping guarantees are proved for a healthy constant-rate server;
these tests check the *mechanisms* stay sound when the fault plane makes
the substrate under-deliver (a :class:`~repro.faults.schedule.RateDroop`
or a :class:`~repro.faults.schedule.SpikeStorm` on
:func:`~repro.faults.harness.fault_stack`'s stack): every policy still
serves every request (work conservation), per-class accounting still
balances, the classifier never admits past its ``C·δ`` bound, and
Miser's slack bookkeeping stays consistent while a droop inflates
service times mid-run.
"""

import numpy as np
import pytest

from repro.core.request import QoSClass
from repro.core.slack import is_unconstrained
from repro.core.workload import Workload
from repro.faults import FaultSchedule, RateDroop, SpikeStorm
from repro.faults.harness import fault_stack
from repro.sched.registry import CLASSIFIER_FREE_POLICIES, SINGLE_SERVER_POLICIES
from repro.shaping import RunConfig
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource

CMIN, DELTA_C, DELTA = 50.0, 10.0, 0.2

#: A 3x droop during [6, 9), and 5% x8 latency spikes over the whole run
#: and its drain.
DROOP = FaultSchedule([RateDroop(6.0, 9.0, 3.0)])
STORM = FaultSchedule([SpikeStorm(0.0, 40.0, 0.05, 8.0)])


@pytest.fixture(scope="module")
def workload():
    gen = np.random.default_rng(11)
    return Workload(np.sort(gen.uniform(0.0, 20.0, 800)), name="steady")


def _run(workload, policy, schedule, probe=None):
    """Serve ``workload`` on the fault plane's stack under ``schedule``.

    ``probe(system)`` runs every 50 ms of the arrival span when given.
    Returns the stack's system (a ``DeviceDriver``) and the source.
    """
    sim = Simulator()
    stack, injector = fault_stack(
        policy, RunConfig(CMIN, DELTA_C, DELTA), sim, schedule, seed=3
    )
    injector.install()
    if probe is not None:
        sim.every(0.05, lambda: probe(stack.system), until=20.0)
    source = WorkloadSource(sim, workload, stack.system)
    source.start()
    sim.run()
    return stack.system, source


@pytest.mark.parametrize("policy", SINGLE_SERVER_POLICIES)
@pytest.mark.parametrize("schedule", [DROOP, STORM], ids=["droop", "storm"])
class TestPoliciesUnderDegradation:
    def test_the_fault_slows_service(self, workload, policy, schedule):
        """The schedule takes effect: responses grow against a healthy run."""
        degraded, _ = _run(workload, policy, schedule)
        healthy, _ = _run(workload, policy, FaultSchedule())
        assert degraded.overall.stats.mean > healthy.overall.stats.mean

    def test_work_conserving(self, workload, policy, schedule):
        """Degradation slows service but loses nothing."""
        driver, source = _run(workload, policy, schedule)
        assert len(driver.completed) == len(workload)
        assert {id(r) for r in driver.completed} == {
            id(r) for r in source.requests
        }
        assert driver.fault_ledger() == {
            "completed": len(workload), "dropped": 0, "shed": 0
        }

    def test_class_accounting_balances(self, workload, policy, schedule):
        """Per-class collectors partition the completions exactly."""
        driver, _ = _run(workload, policy, schedule)
        by_class = sum(len(c) for c in driver.by_class.values())
        assert by_class == len(driver.overall) == len(workload)
        if policy not in CLASSIFIER_FREE_POLICIES:
            # Classifying policies put every request in Q1 or Q2.
            assert len(driver.by_class[QoSClass.UNCLASSIFIED]) == 0

    def test_admission_bound_respected(self, workload, policy, schedule):
        """Degradation never lets Q1 occupancy exceed the C·delta bound."""
        if policy in CLASSIFIER_FREE_POLICIES:
            pytest.skip(f"{policy} does not classify")
        occupancy: list[int] = []
        driver, _ = _run(
            workload,
            policy,
            schedule,
            probe=lambda system: occupancy.append(system.classifier.len_q1),
        )
        classifier = driver.classifier
        assert occupancy and max(occupancy) <= classifier.limit
        assert classifier.len_q1 == 0  # all slots released at the end
        assert len(driver.by_class[QoSClass.PRIMARY]) > 0


class TestMiserSlackUnderInflation:
    def test_slack_consistency_mid_droop(self, workload):
        """Sampled mid-run while a 3x droop is active, Miser's minimum
        slack stays a consistent non-negative count of deferrable
        dispatches, and ends unconstrained (empty Q1)."""
        observed: list[int] = []

        def probe(driver):
            slack = driver.scheduler.min_slack
            if not is_unconstrained(slack):
                observed.append(slack)

        driver, _ = _run(workload, "miser", DROOP, probe=probe)
        assert len(driver.completed) == len(workload)
        # Slack is a queue-position count: whenever Q1 was non-empty the
        # tracked minimum must be a sane machine-size integer >= 0.
        assert observed
        assert all(0 <= s < 10**6 for s in observed)
        assert is_unconstrained(driver.scheduler.min_slack)

    def test_slack_dispatches_still_safe(self, workload):
        """Every slack dispatch (Q2 served ahead of queued Q1) during the
        droop must still leave all Q1 requests completing."""
        driver, _ = _run(workload, "miser", DROOP)
        assert driver.scheduler.slack_dispatches >= 0
        primary = driver.by_class[QoSClass.PRIMARY]
        assert len(primary) + len(driver.by_class[QoSClass.OVERFLOW]) == len(
            driver.completed
        )
