"""Tests for the event queue primitives."""

import pytest

from repro.sim.events import (
    PRIORITY_ARRIVAL,
    PRIORITY_COMPLETION,
    EventQueue,
)
from repro.exceptions import SimulationError


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        fired = []
        q.push(2.0, PRIORITY_ARRIVAL, lambda: fired.append("b"))
        q.push(1.0, PRIORITY_ARRIVAL, lambda: fired.append("a"))
        q.push(3.0, PRIORITY_ARRIVAL, lambda: fired.append("c"))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == ["a", "b", "c"]

    def test_priority_breaks_time_ties(self):
        q = EventQueue()
        fired = []
        q.push(1.0, PRIORITY_ARRIVAL, lambda: fired.append("arrival"))
        q.push(1.0, PRIORITY_COMPLETION, lambda: fired.append("completion"))
        while (e := q.pop()) is not None:
            e.callback()
        # Completions fire before arrivals at the same instant.
        assert fired == ["completion", "arrival"]

    def test_fifo_within_same_key(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.push(1.0, PRIORITY_ARRIVAL, lambda i=i: fired.append(i))
        while (e := q.pop()) is not None:
            e.callback()
        assert fired == [0, 1, 2, 3, 4]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        fired = []
        event = q.push(1.0, PRIORITY_ARRIVAL, lambda: fired.append("x"))
        event.cancel()
        assert q.pop() is None
        assert fired == []

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        first = q.push(1.0, PRIORITY_ARRIVAL, lambda: None)
        q.push(2.0, PRIORITY_ARRIVAL, lambda: None)
        first.cancel()
        assert q.peek_time() == 2.0

    def test_pop_due_stops_at_horizon(self):
        q = EventQueue()
        first = q.push(1.0, PRIORITY_ARRIVAL, lambda: None)
        at_horizon = q.push(2.0, PRIORITY_ARRIVAL, lambda: None)
        later = q.push(3.0, PRIORITY_ARRIVAL, lambda: None)
        first.cancel()
        # Events exactly at the horizon are due; later ones stay queued.
        assert q.pop_due(2.0) is at_horizon
        assert q.pop_due(2.0) is None
        assert q.peek_time() == 3.0
        assert q.pop() is later

    def test_len_counts_entries(self):
        q = EventQueue()
        q.push(1.0, PRIORITY_ARRIVAL, lambda: None)
        q.push(2.0, PRIORITY_ARRIVAL, lambda: None)
        assert len(q) == 2


class TestValidation:
    def test_nan_time_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError, match="NaN"):
            q.push(float("nan"), PRIORITY_ARRIVAL, lambda: None)

    def test_peek_empty(self):
        assert EventQueue().peek_time() is None

    def test_pop_empty(self):
        assert EventQueue().pop() is None
