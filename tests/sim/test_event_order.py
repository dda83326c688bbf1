"""Property test: the engine fires events in ``(time, priority, insertion)``
order, checked against a sorted-list reference model.

Times come from a coarse grid and priorities from the three standard
levels, so most examples are dense with ties in both.  Callbacks may
schedule a follow-up event (possibly at the current instant), which
exercises insertion during a run.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.events import PRIORITY_ARRIVAL, PRIORITY_COMPLETION, PRIORITY_MONITOR

PRIORITIES = st.sampled_from([PRIORITY_COMPLETION, PRIORITY_ARRIVAL, PRIORITY_MONITOR])
#: Offsets from the clock on a 0.5 s grid: ties in time are the common case.
OFFSETS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])
#: Optional follow-up an event schedules when it fires: (delay, priority).
FOLLOW_UPS = st.none() | st.tuples(OFFSETS, PRIORITIES)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), OFFSETS, PRIORITIES, FOLLOW_UPS),
        st.tuples(st.just("after"), OFFSETS, PRIORITIES, FOLLOW_UPS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
        # A negative horizon is behind the clock: the run must be a no-op.
        st.tuples(st.just("run"), st.none() | OFFSETS | st.just(-1.0)),
    ),
    max_size=60,
)


def child_id(event_id: int) -> int:
    """Id of the follow-up ``event_id`` schedules (follow-ups have none)."""
    return -1 - event_id


class Reference:
    """The engine's contract, written as a sorted list of pending keys."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sequence = 0
        #: [time, priority, sequence, event_id, follow_up] per pending event.
        self.pending: list[list] = []
        self.fired: list[int] = []

    def schedule(self, time, priority, event_id, follow_up) -> None:
        self.pending.append([time, priority, self.sequence, event_id, follow_up])
        self.sequence += 1

    def cancel(self, event_id) -> None:
        self.pending = [p for p in self.pending if p[3] != event_id]

    def run(self, until) -> None:
        while self.pending:
            self.pending.sort(key=lambda p: (p[0], p[1], p[2]))
            time, _, _, event_id, follow_up = self.pending[0]
            if until is not None and time > until:
                break
            self.pending.pop(0)
            self.now = max(self.now, time)
            self.fired.append(event_id)
            if follow_up is not None:
                delay, priority = follow_up
                self.schedule(self.now + delay, priority, child_id(event_id), None)
        if until is not None and until > self.now:
            self.now = until


@given(OPERATIONS)
def test_events_fire_in_key_order_and_cancelled_never_fire(operations):
    sim = Simulator()
    ref = Reference()
    fired: list[int] = []
    handles: dict[int, object] = {}
    cancelled: set[int] = set()

    def callback(event_id, follow_up):
        def fire():
            fired.append(event_id)
            if follow_up is not None:
                delay, priority = follow_up
                child = child_id(event_id)
                handles[child] = sim.schedule_after(
                    delay, callback(child, None), priority=priority
                )

        return fire

    for event_id, op in enumerate(operations):
        kind = op[0]
        if kind in ("schedule", "after"):
            _, offset, priority, follow_up = op
            time = sim.now + offset
            if kind == "schedule":
                handle = sim.schedule(
                    time, callback(event_id, follow_up), priority=priority
                )
            else:
                handle = sim.schedule_after(
                    offset, callback(event_id, follow_up), priority=priority
                )
            handles[event_id] = handle
            ref.schedule(time, priority, event_id, follow_up)
        elif kind == "cancel":
            live = [p[3] for p in ref.pending]
            if not live:
                continue
            victim = live[op[1] % len(live)]
            handles[victim].cancel()
            cancelled.add(victim)
            ref.cancel(victim)
        else:
            until = None if op[1] is None else sim.now + op[1]
            ref.run(until)
            sim.run(until=until)
            assert fired == ref.fired
            assert sim.now == ref.now

    ref.run(None)
    sim.run()
    assert fired == ref.fired
    assert not cancelled & set(fired)
    assert sim.events_processed == len(fired)
    assert sim.now == ref.now
