"""Crash/recover/abort semantics of the faultable server and injector."""

import pytest

from repro.core.request import Request
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError, SchedulerError
from repro.faults import (
    Crash,
    FaultInjector,
    FaultSchedule,
    FaultState,
    FaultableServer,
    FaultyModel,
    RateDroop,
    SpikeStorm,
    run_resilient,
)
from repro.server.constant_rate import ConstantRateModel
from repro.sim.engine import Simulator


def _server(sim, rate=10.0, inflight="requeue"):
    return FaultableServer(
        sim, ConstantRateModel(rate), name="srv", inflight=inflight
    )


class TestCrashRecover:
    def test_inflight_validation(self):
        with pytest.raises(ConfigurationError):
            _server(Simulator(), inflight="explode")

    def test_down_reports_busy_and_refuses_dispatch(self):
        sim = Simulator()
        server = _server(sim)
        server.crash()
        assert server.busy
        with pytest.raises(SchedulerError):
            server.dispatch(Request(arrival=0.0))

    def test_idempotent(self):
        server = _server(Simulator())
        server.crash()
        server.crash()
        assert server.crashes == 1
        server.recover()
        server.recover()
        assert server.repairs == 1
        assert not server.down

    def test_crash_requeues_inflight(self):
        sim = Simulator()
        server = _server(sim)
        requeued = []
        server.on_requeue = requeued.append
        request = Request(arrival=0.0)
        server.dispatch(request)
        sim.schedule(0.05, server.crash)
        sim.run()
        assert requeued == [request]
        assert server.requeues == 1
        assert request.dispatch is None  # ready for re-dispatch
        assert request.completion is None  # never completed

    def test_crash_drops_inflight(self):
        sim = Simulator()
        server = _server(sim, inflight="drop")
        lost = []
        server.on_loss = lost.append
        request = Request(arrival=0.0)
        server.dispatch(request)
        sim.schedule(0.05, server.crash)
        sim.run()
        assert lost == [request]
        assert server.losses == 1

    def test_busy_time_refunded(self):
        """Utilization counts only service actually delivered."""
        sim = Simulator()
        server = _server(sim, rate=10.0)  # 0.1 s per request
        server.on_requeue = lambda r: None
        server.dispatch(Request(arrival=0.0))
        sim.schedule(0.04, server.crash)
        sim.run()
        assert server.busy_time == pytest.approx(0.04)

    def test_recovery_callback(self):
        sim = Simulator()
        server = _server(sim)
        pings = []
        server.on_recovery = lambda: pings.append(sim.now)
        sim.schedule(1.0, server.crash)
        sim.schedule(2.0, server.recover)
        sim.run()
        assert pings == [2.0]
        assert server.fault_counters()["repairs"] == 1


class TestAbort:
    def test_abort_inflight(self):
        sim = Simulator()
        server = _server(sim)
        request = Request(arrival=0.0)
        server.dispatch(request)
        assert server.abort(request)
        assert not server.busy
        assert server.aborts == 1
        sim.run()  # cancelled completion must not fire
        assert request.completion is None

    def test_abort_misses_completed(self):
        sim = Simulator()
        server = _server(sim)
        request = Request(arrival=0.0)
        server.dispatch(request)
        sim.run()
        assert request.completion is not None
        assert not server.abort(request)
        assert server.aborts == 0


class TestFaultyModel:
    def test_healthy_passthrough(self):
        state = FaultState()
        model = FaultyModel(ConstantRateModel(10.0), state)
        request = Request(arrival=0.0)
        assert model.service_time(request) == pytest.approx(0.1)
        assert not state.degraded

    def test_droop_inflates(self):
        state = FaultState()
        model = FaultyModel(ConstantRateModel(10.0), state)
        state.droop_factor = 3.0
        assert state.degraded
        assert model.service_time(Request(arrival=0.0)) == pytest.approx(0.3)

    def test_storm_spikes_reproducibly(self):
        request = Request(arrival=0.0)

        def draws(seed):
            state = FaultState()
            state.spike_probability = 0.5
            state.spike_factor = 10.0
            model = FaultyModel(ConstantRateModel(10.0), state, seed=seed)
            return [model.service_time(request) for _ in range(100)]

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)
        spiked = sum(1 for d in draws(1) if d > 0.5)
        assert 20 <= spiked <= 80

    def test_counts_injected_spikes(self):
        state = FaultState()
        state.spike_probability = 0.25
        state.spike_factor = 10.0
        model = FaultyModel(ConstantRateModel(10.0), state, seed=0)
        samples = [model.service_time(Request(arrival=0.0)) for _ in range(2000)]
        spikes = sum(1 for s in samples if s > 0.5)
        assert spikes == model.spikes_injected
        assert 0.18 < spikes / 2000 < 0.32


class TestWindowsOnTheServedPath:
    @pytest.mark.parametrize(
        "event",
        [RateDroop(1.0, 2.0, 4.0), SpikeStorm(1.0, 2.0, 1.0, 4.0)],
        ids=["droop", "storm"],
    )
    def test_service_inflates_only_inside_the_window(self, event):
        """On an idle 10-IOPS server, a request arriving before, inside
        and after the window takes 0.1, 0.4 and 0.1 s."""
        result = run_resilient(
            Workload([0.5, 1.5, 2.5]), "fcfs", 8.0, 2.0, 1.0,
            schedule=FaultSchedule([event]),
        )
        responses = sorted((r.arrival, r.response_time) for r in result.completed)
        assert [r for _, r in responses] == pytest.approx([0.1, 0.4, 0.1])


class TestFaultInjector:
    def test_crash_needs_server(self):
        with pytest.raises(ConfigurationError, match="crashable"):
            FaultInjector(Simulator(), FaultSchedule([Crash(1.0, 1.0)]))

    def test_crash_unit_out_of_range(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError, match="unit 3"):
            FaultInjector(
                sim,
                FaultSchedule([Crash(1.0, 1.0, unit=3)]),
                servers=[_server(sim)],
            )

    def test_droop_needs_state(self):
        with pytest.raises(ConfigurationError, match="FaultState"):
            FaultInjector(Simulator(), FaultSchedule([RateDroop(1.0, 2.0, 2.0)]))

    def test_windows_flip_state_at_instants(self):
        sim = Simulator()
        state = FaultState()
        server = _server(sim)
        injector = FaultInjector(
            sim,
            FaultSchedule([
                Crash(1.0, 1.0),
                RateDroop(2.0, 3.0, 2.5),
                SpikeStorm(4.0, 5.0, 0.3, 4.0),
            ]),
            servers=[server],
            state=state,
        )
        injector.install()
        trace = []

        def observe():
            trace.append((
                sim.now, server.down, state.droop_factor, state.spike_probability
            ))

        for t in (0.5, 1.5, 2.5, 3.5, 4.5, 5.5):
            sim.schedule(t + 1e-6, observe)
        sim.run()
        assert trace == [
            (pytest.approx(0.5 + 1e-6), False, 1.0, 0.0),
            (pytest.approx(1.5 + 1e-6), True, 1.0, 0.0),
            (pytest.approx(2.5 + 1e-6), False, 2.5, 0.0),
            (pytest.approx(3.5 + 1e-6), False, 1.0, 0.0),
            (pytest.approx(4.5 + 1e-6), False, 1.0, 0.3),
            (pytest.approx(5.5 + 1e-6), False, 1.0, 0.0),
        ]
        assert server.crashes == 1 and server.repairs == 1
