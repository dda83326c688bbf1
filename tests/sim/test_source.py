"""Tests for the workload replay source."""

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.rng import make_rng, spawn
from repro.sim.source import WorkloadSource


class _Recorder:
    def __init__(self):
        self.requests = []

    def on_arrival(self, request):
        self.requests.append(request)


class TestWorkloadSource:
    def test_replays_all_arrivals_in_order(self, uniform_workload):
        sim = Simulator()
        sink = _Recorder()
        source = WorkloadSource(sim, uniform_workload, sink)
        source.start()
        sim.run()
        assert len(sink.requests) == len(uniform_workload)
        arrivals = [r.arrival for r in sink.requests]
        assert arrivals == sorted(arrivals)
        assert source.exhausted

    def test_request_fields(self, toy_workload):
        sim = Simulator()
        sink = _Recorder()
        WorkloadSource(sim, toy_workload, sink, client_id=3).start()
        sim.run()
        assert [r.index for r in sink.requests] == [0, 1, 2, 3, 4]
        assert all(r.client_id == 3 for r in sink.requests)

    def test_arrival_time_matches_sim_clock(self, toy_workload):
        sim = Simulator()
        seen = []

        class ClockSink:
            def on_arrival(self, request):
                seen.append((sim.now, request.arrival))

        WorkloadSource(sim, toy_workload, ClockSink()).start()
        sim.run()
        assert all(now == arrival for now, arrival in seen)

    def test_on_request_hook(self, toy_workload):
        sim = Simulator()
        hooked = []
        source = WorkloadSource(
            sim, toy_workload, _Recorder(), on_request=hooked.append
        )
        source.start()
        sim.run()
        assert len(hooked) == 5

    def test_empty_workload(self, empty_workload):
        sim = Simulator()
        source = WorkloadSource(sim, empty_workload, _Recorder())
        source.start()
        sim.run()
        assert source.exhausted


class TestRng:
    def test_make_rng_from_int(self):
        a = make_rng(7)
        b = make_rng(7)
        assert a.random() == b.random()

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_spawn_independent(self):
        children = spawn(make_rng(0), 3)
        assert len(children) == 3
        draws = [c.random() for c in children]
        assert len(set(draws)) == 3
