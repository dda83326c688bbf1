"""Tests for the device driver and the Split topology."""

import numpy as np
import pytest

from repro.core.request import QoSClass
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.sched.fcfs import FCFSScheduler
from repro.server.cluster import SplitSystem
from repro.server.constant_rate import constant_rate_server
from repro.server.driver import DeviceDriver
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource


def run_fcfs(workload, capacity, record_rates=None):
    sim = Simulator()
    driver = DeviceDriver(
        sim,
        constant_rate_server(sim, capacity),
        FCFSScheduler(),
        record_rates=record_rates,
    )
    WorkloadSource(sim, workload, driver).start()
    sim.run()
    return driver


class TestDeviceDriver:
    def test_serves_everything(self, uniform_workload):
        driver = run_fcfs(uniform_workload, 50.0)
        assert len(driver.completed) == len(uniform_workload)

    def test_fcfs_order_preserved(self, uniform_workload):
        driver = run_fcfs(uniform_workload, 50.0)
        indices = [r.index for r in driver.completed]
        assert indices == sorted(indices)

    def test_response_times_recorded(self, uniform_workload):
        driver = run_fcfs(uniform_workload, 50.0)
        assert len(driver.overall) == len(uniform_workload)
        assert driver.overall.stats.min >= 1.0 / 50.0 - 1e-12

    def test_fraction_within(self, uniform_workload):
        driver = run_fcfs(uniform_workload, 1000.0)
        # Massive capacity: everything completes within ~1 ms.
        assert driver.fraction_within(0.01) == 1.0

    def test_unclassified_requests_counted_under_all(self, uniform_workload):
        driver = run_fcfs(uniform_workload, 50.0)
        assert len(driver.by_class[QoSClass.UNCLASSIFIED]) == len(uniform_workload)
        assert len(driver.by_class[QoSClass.PRIMARY]) == 0

    def test_rate_recording(self, uniform_workload):
        driver = run_fcfs(uniform_workload, 50.0, record_rates=1.0)
        starts, rates = driver.completion_rates.series()
        assert rates.sum() * 1.0 == pytest.approx(len(uniform_workload))

    def test_no_deadline_misses_without_classification(self, uniform_workload):
        driver = run_fcfs(uniform_workload, 50.0)
        assert driver.primary_deadline_misses() == 0


class TestSplitSystem:
    def _run(self, workload, cmin, delta_c, delta):
        sim = Simulator()
        system = SplitSystem(sim, cmin, delta_c, delta)
        WorkloadSource(sim, workload, system).start()
        sim.run()
        return system

    def test_requires_positive_overflow_capacity(self):
        with pytest.raises(ConfigurationError, match="positive"):
            SplitSystem(Simulator(), 10.0, 0.0, 0.1)

    def test_all_requests_served_once(self, bursty_workload):
        system = self._run(bursty_workload, 40.0, 10.0, 0.1)
        assert len(system.completed) == len(bursty_workload)

    def test_classes_routed_to_distinct_servers(self, bursty_workload):
        system = self._run(bursty_workload, 40.0, 10.0, 0.1)
        for r in system.primary_driver.completed:
            assert r.qos_class is QoSClass.PRIMARY
        for r in system.overflow_driver.completed:
            assert r.qos_class is QoSClass.OVERFLOW

    def test_primary_requests_meet_deadline(self, bursty_workload):
        """Q1 on a dedicated Cmin server must never miss (RTT guarantee)."""
        system = self._run(bursty_workload, 40.0, 10.0, 0.1)
        assert system.primary_deadline_misses() == 0

    def test_overflow_isolated_from_primary(self):
        """A huge burst diverted to Q2 must not delay later Q1 requests."""
        burst = Workload(np.concatenate([[0.0] * 50, np.arange(1, 21) * 0.5]))
        system = self._run(burst, 10.0, 1.0, 0.2)
        # Steady 2-IOPS tail arrivals all fit in Q1 and meet 200 ms.
        late = [r for r in system.primary_driver.completed if r.arrival >= 1.0]
        assert late, "steady tail should be admitted to Q1"
        assert all(r.met_deadline for r in late)

    def test_fraction_within_weighs_both_servers(self, bursty_workload):
        system = self._run(bursty_workload, 40.0, 10.0, 0.1)
        n = len(bursty_workload)
        manual = (
            sum(1 for r in system.completed if r.response_time <= 0.1 + 1e-12) / n
        )
        assert system.fraction_within(0.1) == pytest.approx(manual)

    def test_by_class_view(self, bursty_workload):
        system = self._run(bursty_workload, 40.0, 10.0, 0.1)
        by_class = system.by_class
        total = len(by_class[QoSClass.PRIMARY]) + len(by_class[QoSClass.OVERFLOW])
        assert total == len(bursty_workload)


class TestSlotReleasingFCFS:
    def test_releases_only_a_q1_slot(self):
        """One class serves every topology side: a completion outside Q1
        (a demoted request on the primary side, an overflow request on a
        splitfarm side) leaves the classifier's occupancy alone."""
        from repro.core.request import Request
        from repro.sched.classifier import OnlineRTTClassifier
        from repro.server.cluster import SlotReleasingFCFS

        classifier = OnlineRTTClassifier(4.0, 0.5)  # bound 2
        fcfs = SlotReleasingFCFS(classifier, "q1.fcfs")
        admitted = Request(arrival=0.0, index=0)
        assert classifier.classify(admitted) is QoSClass.PRIMARY
        demoted = Request(arrival=0.0, index=1)
        demoted.qos_class = QoSClass.OVERFLOW
        fcfs.on_completion(demoted)
        assert classifier.len_q1 == 1
        fcfs.on_completion(admitted)
        assert classifier.len_q1 == 0

    @pytest.mark.parametrize(
        "policy,names",
        [("split", ("q1.fcfs", "q2.fcfs")), ("splitfarm", ("small.fcfs", "large.fcfs"))],
    )
    def test_each_side_counts_under_its_own_name(self, policy, names):
        from repro.obs.registry import MetricsRegistry
        from repro.shaping import RunConfig, run_policy

        rng = np.random.default_rng(3)
        workload = Workload(
            np.sort(rng.uniform(0.0, 5.0, 200)),
            sizes=rng.choice([0.5, 1.0, 8.0], size=200),
        )
        registry = MetricsRegistry()
        run_policy(workload, policy, config=RunConfig(40.0, 10.0, 0.1, metrics=registry))
        arrivals = [registry.value(f"sched.{name}.arrivals") for name in names]
        assert all(count > 0 for count in arrivals)
        assert sum(arrivals) == len(workload)
