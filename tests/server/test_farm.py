"""Tests for the multi-unit server farm."""

import pytest

from repro.core.workload import Workload
from repro.exceptions import ConfigurationError, SchedulerError
from repro.sched.fcfs import FCFSScheduler
from repro.server.constant_rate import ConstantRateModel
from repro.server.driver import DeviceDriver
from repro.server.farm import ServerFarm, constant_rate_farm
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource
from repro.traces.synthetic import poisson_workload


def run_farm(workload, total_capacity, units):
    sim = Simulator()
    farm = constant_rate_farm(sim, total_capacity, units)
    driver = DeviceDriver(sim, farm, FCFSScheduler())
    WorkloadSource(sim, workload, driver).start()
    sim.run()
    return driver, farm


class TestConstruction:
    def test_needs_units(self):
        with pytest.raises(ConfigurationError):
            ServerFarm(Simulator(), [])
        with pytest.raises(ConfigurationError):
            constant_rate_farm(Simulator(), 100.0, 0)

    def test_size(self):
        farm = constant_rate_farm(Simulator(), 100.0, 4)
        assert farm.size == 4


class TestDispatch:
    def test_busy_only_when_all_units_taken(self):
        sim = Simulator()
        farm = ServerFarm(sim, [ConstantRateModel(10.0)] * 2)
        from repro.core.request import Request

        farm.dispatch(Request(arrival=0.0))
        assert not farm.busy
        assert farm.in_service == 1
        farm.dispatch(Request(arrival=0.0))
        assert farm.busy
        with pytest.raises(SchedulerError, match="all units busy"):
            farm.dispatch(Request(arrival=0.0))

    def test_parallelism_speeds_up_batch(self):
        """A batch of k requests completes k times faster on k equal-rate
        units than queued behind one unit of the same per-unit rate."""
        batch = Workload([0.0] * 4)
        single, _ = run_farm(batch, 10.0, 1)  # one 10-IOPS unit
        quad, _ = run_farm(batch, 40.0, 4)  # four 10-IOPS units
        assert max(r.completion for r in quad.completed) == pytest.approx(0.1)
        assert max(r.completion for r in single.completed) == pytest.approx(0.4)

    def test_all_requests_served(self, bursty_workload):
        driver, farm = run_farm(bursty_workload, 60.0, 3)
        assert len(driver.completed) == len(bursty_workload)
        assert farm.completed == len(bursty_workload)

    def test_farm_beats_equivalent_single_unit_on_bursts(self, bursty_workload):
        """At equal aggregate capacity, a farm is never better than the
        single fast server (service times are k times longer per unit) —
        the classic M/D/k vs M/D/1 comparison; sanity-check direction."""
        single, _ = run_farm(bursty_workload, 60.0, 1)
        farm, _ = run_farm(bursty_workload, 60.0, 4)
        assert farm.overall.stats.mean >= single.overall.stats.mean * 0.99

    def test_utilization_reported(self, uniform_workload):
        driver, farm = run_farm(uniform_workload, 40.0, 2)
        assert 0.0 < farm.utilization() <= 1.0


class TestShapingOnFarm:
    def test_classifier_with_aggregate_capacity(self, bursty_workload):
        """RTT classification against the aggregate farm capacity keeps
        primary response times near delta (one extra quantum of
        discretization allowed)."""
        from repro.core.request import QoSClass
        from repro.sched.registry import make_scheduler

        sim = Simulator()
        cmin, delta = 40.0, 0.1
        farm = constant_rate_farm(sim, cmin + 10.0, 4)
        driver = DeviceDriver(sim, farm, make_scheduler("miser", cmin, 10.0, delta))
        WorkloadSource(sim, bursty_workload, driver).start()
        sim.run()
        primary = driver.by_class[QoSClass.PRIMARY]
        assert len(primary) > 0
        per_unit_quantum = 4.0 / (cmin + 10.0)
        assert primary.stats.max <= delta + 2 * per_unit_quantum


class TestFCFSRecurrence:
    @pytest.mark.parametrize("units", (1, 3, 4))
    def test_completions_follow_the_k_lagged_recurrence(self, units):
        """FCFS on k equal units: request i starts once it has arrived and
        request i-k has left, ``D_i = max(t_i, D_{i-k}) + s``, to the bit."""
        workload = poisson_workload(rate=120.0, duration=2.0, seed=5)
        driver, _ = run_farm(workload, 100.0, units)
        service = 1.0 / (100.0 / units)
        expected: list[float] = []
        for i, t in enumerate(workload.arrivals.tolist()):
            free = expected[i - units] if i >= units else 0.0
            expected.append((free if free > t else t) + service)
        served = [None] * len(workload)
        for request in driver.completed:
            served[request.index] = request.completion
        assert served == expected
