"""Event primitives for the discrete-event simulation engine.

An :class:`Event` couples a firing time with a callback.  Ordering is by
``(time, priority, sequence)``: ties in time break by explicit priority
(lower fires first), then by scheduling order, which makes simulations
deterministic for a fixed input — a property the reproduction tests rely
on.

The heap holds ``(time, priority, sequence, event)`` tuples rather than
the events themselves, so every sift compares the ordering key in C.
``sequence`` is unique, so a comparison never reaches the event.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Callable

from ..exceptions import SimulationError

#: Standard priorities.  Completions fire before arrivals at the same
#: instant so that a request arriving exactly as the server frees up sees
#: an empty server — matching the convention of the analytic model, where
#: a departure at ``t`` is counted before an arrival at ``t``.
PRIORITY_COMPLETION = 0
PRIORITY_ARRIVAL = 10
PRIORITY_MONITOR = 20


class Event:
    """A scheduled callback; ``cancel()`` makes the engine skip it."""

    __slots__ = ("time", "priority", "sequence", "callback", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class EventQueue:
    """A cancellable min-heap of events.

    Entries are ``(time, priority, sequence, event)``; cancelled events
    stay in the heap until they reach the top and are discarded there.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, priority: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at ``time``; returns the (cancellable) event."""
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        sequence = next(self._counter)
        event = Event(time, priority, sequence, callback)
        heappush(self._heap, (time, priority, sequence, event))
        return event

    def pop_due(self, horizon: float) -> Event | None:
        """Next live event firing at or before ``horizon``, removed.

        Cancelled entries reaching the top are discarded on the way.
        Returns ``None`` when the queue is drained or the next live
        event is later than ``horizon``; that event stays queued.
        """
        heap = self._heap
        while heap:
            time, _, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
            elif time > horizon:
                return None
            else:
                heappop(heap)
                return event
        return None

    def pop(self) -> Event | None:
        """Next non-cancelled event, or ``None`` if the queue is drained."""
        return self.pop_due(math.inf)

    def peek_time(self) -> float | None:
        """Firing time of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None
