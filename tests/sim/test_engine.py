"""Tests for the simulation engine."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_ARRIVAL, PRIORITY_MONITOR


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.schedule(0.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.5, 1.5]

    def test_never_goes_backwards(self):
        sim = Simulator()
        times = []

        def record():
            times.append(sim.now)

        for t in (3.0, 1.0, 2.0, 1.0):
            sim.schedule(t, record)
        sim.run()
        assert times == sorted(times)


class TestScheduling:
    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="clock"):
            sim.schedule(1.0, lambda: None)

    def test_schedule_after(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule_after(0.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.5]

    def test_schedule_after_negative_delay(self):
        with pytest.raises(SimulationError, match="delay"):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_cancel_via_returned_event(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(1.0, lambda: seen.append("fired"))
        event.cancel()
        sim.run()
        assert seen == []

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule_after(1.0, lambda: chain(depth + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestRunControls:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        sim.run()  # resume
        assert seen == [1, 5]

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(2))
        sim.run(until=2.0)
        assert seen == [2]

    def test_until_with_drained_queue_lands_on_until(self):
        """Both exit paths of run(until) leave the clock at ``until``:
        the queue draining early must not strand ``now`` at the last
        event time."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=3.0)
        assert sim.now == 3.0

    def test_until_never_moves_clock_backwards(self):
        sim = Simulator()
        sim.schedule(4.0, lambda: None)
        sim.run()
        assert sim.now == 4.0
        sim.run(until=2.0)  # horizon already passed: no-op
        assert sim.now == 4.0

    def test_until_behind_clock_with_later_event_keeps_clock(self):
        """Regression: stopping on a later pending event used to set
        ``now = until`` even when ``until`` was behind the clock, after
        which ``schedule`` accepted times in the simulated past."""
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(5.0))
        sim.schedule(6.0, lambda: seen.append(6.0))
        sim.run(until=5.0)
        sim.run(until=1.0)
        assert sim.now == 5.0
        assert seen == [5.0]
        with pytest.raises(SimulationError, match="clock"):
            sim.schedule(2.0, lambda: seen.append(2.0))
        sim.run()
        assert seen == [5.0, 6.0]

    def test_drained_until_exit_allows_scheduling_at_horizon(self):
        """After an early-drain exit the clock is at ``until``, so a
        monitoring tick installed next starts relative to the horizon —
        consistent with the stopped-on-later-event exit path."""
        sim = Simulator()
        sim.schedule(0.5, lambda: None)
        sim.run(until=2.0)
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), until=4.5)
        sim.run()
        assert ticks == [3.0, 4.0]

    def test_max_events_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule_after(1.0, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=50)

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0):
            sim.schedule(t, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        error = {}

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                error["e"] = exc

        sim.schedule(1.0, reenter)
        sim.run()
        assert "e" in error


class TestEvery:
    def test_periodic_callback(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), until=3.5)
        sim.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_invalid_interval(self):
        with pytest.raises(SimulationError, match="interval"):
            Simulator().every(0.0, lambda: None, until=1.0)

    def test_installed_mid_simulation(self):
        """Regression: the first tick is interval after *now*, not at the
        absolute instant ``interval`` (which is in the past mid-run)."""
        sim = Simulator()
        ticks = []
        sim.schedule(
            5.0, lambda: sim.every(1.0, lambda: ticks.append(sim.now), until=8.5)
        )
        sim.run()
        assert ticks == [6.0, 7.0, 8.0]

    def test_installed_mid_run_after_advance(self):
        """Also valid when the clock advanced before installation."""
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), until=4.5)
        sim.run()
        assert ticks == [3.0, 4.0]

    def test_single_reusable_tick_object(self):
        """Regression: ``every`` reschedules ONE callback object instead
        of allocating fresh closures per tick (hot-loop garbage)."""
        sim = Simulator()
        sim.every(1.0, lambda: None, until=10.5)
        # Heap entries are (time, priority, sequence, event) tuples.
        ((_, _, _, first),) = sim._queue._heap
        sim.run(until=5.0)
        (pending,) = [e for (*_, e) in sim._queue._heap if not e.cancelled]
        assert pending.callback is first.callback

    def test_tick_interacts_with_until_exit(self):
        """Ticks exactly at ``until`` fire; the grid resumes unshifted."""
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), until=5.5)
        sim.run(until=3.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.now == 3.0
        sim.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_monitor_fires_after_arrival_at_same_instant(self):
        """At identical timestamps PRIORITY_ARRIVAL (10) precedes
        PRIORITY_MONITOR (20) regardless of scheduling order — samplers
        observe a state that already includes the instant's arrivals."""
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("monitor"), priority=PRIORITY_MONITOR)
        sim.schedule(1.0, lambda: order.append("arrival"), priority=PRIORITY_ARRIVAL)
        sim.run()
        assert order == ["arrival", "monitor"]
