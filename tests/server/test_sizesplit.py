"""Tests for the SPLIT-style size-threshold farm (SizeSplitSystem)."""

import numpy as np
import pytest

from repro.core.request import QoSClass
from repro.core.workload import Workload
from repro.server.sizesplit import THRESHOLD, SizeSplitSystem
from repro.shaping import RunConfig, run_policy
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource


def sized_workload(seed=0, n=50, horizon=10.0):
    rng = np.random.default_rng(seed)
    arrivals = np.sort(rng.uniform(0.0, horizon, n))
    sizes = rng.choice([0.5, 1.0, 8.0], size=n, p=[0.4, 0.4, 0.2])
    return Workload(arrivals, name="sized", sizes=sizes)


def run_farm(workload, cmin=4.0, delta_c=4.0, delta=0.5):
    sim = Simulator()
    system = SizeSplitSystem(sim, cmin, delta_c, delta)
    WorkloadSource(sim, workload, system).start()
    sim.run()
    return system


class TestRouting:
    def test_placement_is_by_size(self):
        workload = sized_workload()
        system = run_farm(workload)
        for request in system.small_driver.completed:
            assert request.service_demand <= THRESHOLD
        for request in system.large_driver.completed:
            assert request.service_demand > THRESHOLD
        assert system.routed_small + system.routed_large == len(workload)

    def test_unit_workload_all_small(self):
        workload = Workload(np.linspace(0, 5, 20), name="unit")
        system = run_farm(workload)
        assert system.routed_large == 0
        assert len(system.small_driver.completed) == 20

    def test_conservation(self):
        workload = sized_workload(seed=3)
        system = run_farm(workload)
        ledger = system.fault_ledger()
        assert ledger == {"completed": len(workload), "dropped": 0, "shed": 0}


class TestClassifierIntegration:
    def test_q1_slots_release_on_both_sides(self):
        workload = sized_workload(seed=5)
        system = run_farm(workload)
        # Every admitted slot was released: occupancy returns to zero.
        assert system.classifier.len_q1 == 0

    def test_classes_mix_on_both_partitions(self):
        # Primaries land on whichever side their size dictates.
        workload = sized_workload(seed=7, n=80)
        system = run_farm(workload)
        small_classes = {r.qos_class for r in system.small_driver.completed}
        large_classes = {r.qos_class for r in system.large_driver.completed}
        assert QoSClass.PRIMARY in small_classes
        assert QoSClass.PRIMARY in large_classes

    def test_by_class_merges_partitions(self):
        workload = sized_workload(seed=9)
        system = run_farm(workload)
        by_class = system.by_class
        total = sum(len(c) for c in by_class.values())
        assert total == len(system.completed)


class TestRunLayer:
    def test_run_policy_splitfarm(self):
        workload = sized_workload(seed=11)
        result = run_policy(
            workload, "splitfarm", config=RunConfig(4.0, 4.0, 0.5)
        )
        assert len(result.overall) == len(workload)

    def test_fraction_within_weighted(self):
        workload = sized_workload(seed=13)
        system = run_farm(workload)
        f = system.fraction_within(0.5)
        assert 0.0 <= f <= 1.0
        hits = sum(1 for r in system.completed if r.response_time <= 0.5 + 1e-12)
        assert f == pytest.approx(hits / len(system.completed))
