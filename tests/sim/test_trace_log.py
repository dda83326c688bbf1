"""Tests for the lifecycle tracer."""

import pytest

from repro.exceptions import ConfigurationError
from repro.sched.fcfs import FCFSScheduler
from repro.sched.registry import make_scheduler
from repro.server.constant_rate import constant_rate_server
from repro.server.driver import DeviceDriver
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource
from repro.sim.trace_log import LifecycleTracer, Phase


def run_traced(workload, scheduler_factory, capacity=50.0, tracer_capacity=100_000):
    sim = Simulator()
    tracer = LifecycleTracer(sim, scheduler_factory(), capacity=tracer_capacity)
    driver = DeviceDriver(sim, constant_rate_server(sim, capacity), tracer)
    WorkloadSource(sim, workload, driver).start()
    sim.run()
    return tracer


class TestTracer:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            LifecycleTracer(Simulator(), FCFSScheduler(), capacity=0)

    def test_three_events_per_request(self, uniform_workload):
        tracer = run_traced(uniform_workload, FCFSScheduler)
        assert len(tracer.events) == 3 * len(uniform_workload)
        for index in (0, 50, 99):
            phases = [e.phase for e in tracer.for_request(index)]
            assert phases == [Phase.ARRIVE, Phase.DISPATCH, Phase.COMPLETE]

    def test_dispatch_order_fcfs(self, uniform_workload):
        tracer = run_traced(uniform_workload, FCFSScheduler)
        order = tracer.dispatch_order()
        assert order == sorted(order)

    def test_event_times_monotone_per_request(self, uniform_workload):
        tracer = run_traced(uniform_workload, FCFSScheduler)
        for index in range(0, 100, 10):
            times = [e.time for e in tracer.for_request(index)]
            assert times == sorted(times)

    def test_classification_captured(self, bursty_workload):
        tracer = run_traced(
            bursty_workload, lambda: make_scheduler("miser", 40.0, 10.0, 0.1)
        )
        arrive = [e for e in tracer.events if e.phase is Phase.ARRIVE]
        classes = {e.qos_class for e in arrive}
        assert classes == {"PRIMARY", "OVERFLOW"}

    def test_miser_reorders_dispatch(self, bursty_workload):
        """Miser dispatches overflow requests ahead of queued primaries
        when slack allows — visible as out-of-index-order dispatches."""
        tracer = run_traced(
            bursty_workload, lambda: make_scheduler("miser", 40.0, 40.0, 0.1)
        )
        order = tracer.dispatch_order()
        assert order != sorted(order)

    def test_bounded_log_evicts_oldest(self, uniform_workload):
        tracer = run_traced(
            uniform_workload, FCFSScheduler, tracer_capacity=50
        )
        assert len(tracer.events) == 50
        # The survivors are the most recent events.
        assert tracer.events[-1].phase is Phase.COMPLETE

    def test_to_text(self, uniform_workload):
        tracer = run_traced(uniform_workload, FCFSScheduler)
        text = tracer.to_text(limit=6)
        assert len(text.splitlines()) == 6
        assert "COMPLETE" in text

    def test_pending_passthrough(self):
        tracer = LifecycleTracer(Simulator(), FCFSScheduler())
        assert tracer.pending() == 0
