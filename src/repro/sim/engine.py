"""Discrete-event simulation engine.

A deliberately small, deterministic DES core: a clock, a cancellable event
heap, and a run loop.  Entities (servers, drivers, workload sources)
schedule callbacks; the engine advances time monotonically.  This is the
substrate standing in for DiskSim in the reproduction — the paper hooked
its shaper into DiskSim's device-driver layer; here the equivalent hook is
:class:`repro.server.driver.DeviceDriver` running on this engine.
"""

from __future__ import annotations

import math
from typing import Callable

from ..exceptions import SimulationError
from .events import PRIORITY_ARRIVAL, PRIORITY_MONITOR, EventQueue


class Simulator:
    """The simulation kernel: clock + event loop.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("fired at", sim.now))
        sim.run()

    Tracing
    -------
    Two optional hooks observe the event loop itself (both ``None`` by
    default, costing one identity check per event when disabled):

    * ``on_event_scheduled(time, priority)`` — fires when an event is
      pushed onto the queue;
    * ``on_event_fired(time, priority)`` — fires just before an event's
      callback runs.

    They feed the :mod:`repro.obs` metric plane (event counts, queue
    pressure) without the engine knowing anything about registries.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        #: Optional trace hooks; see class docstring.
        self.on_event_scheduled: Callable[[float, int], None] | None = None
        self.on_event_fired: Callable[[float, int], None] | None = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed so far (monitoring/debugging aid)."""
        return self._events_processed

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_ARRIVAL,
    ):
        """Schedule ``callback`` at absolute ``time``.

        Returns the event, whose ``cancel()`` unschedules it.

        Raises
        ------
        SimulationError
            If ``time`` is in the simulated past.
        """
        now = self._now
        if time < now - 1e-12:
            raise SimulationError(
                f"cannot schedule at {time}: clock already at {now}"
            )
        if time < now:
            time = now
        if self.on_event_scheduled is not None:
            self.on_event_scheduled(time, priority)
        return self._queue.push(time, priority, callback)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_ARRIVAL,
    ):
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self._now + delay
        if self.on_event_scheduled is not None:
            self.on_event_scheduled(time, priority)
        return self._queue.push(time, priority, callback)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event is strictly later than this instant
            (events exactly at ``until`` still fire).  The clock lands
            on ``until`` whether the loop stops on a later event or on
            an empty queue — both exits leave ``now == until``.  An
            ``until`` the clock has already passed fires nothing and
            leaves the clock where it is: the clock never runs
            backwards, so :meth:`schedule` keeps refusing the past.
        max_events:
            Safety valve for runaway simulations.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        pop_due = self._queue.pop_due
        horizon = math.inf if until is None else until
        try:
            while True:
                if max_events is not None and self._events_processed >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                event = pop_due(horizon)
                if event is None:
                    # Drained, or the next event is later than ``until``.
                    if until is not None and until > self._now:
                        self._now = until
                    break
                time = event.time
                now = self._now
                if time < now - 1e-12:
                    raise SimulationError(f"time went backwards: {time} < {now}")
                if time > now:
                    self._now = time
                self._events_processed += 1
                if self.on_event_fired is not None:
                    self.on_event_fired(time, event.priority)
                event.callback()
        finally:
            self._running = False

    def every(
        self, interval: float, callback: Callable[[], None], until: float
    ) -> None:
        """Schedule ``callback`` periodically (monitoring hooks).

        The first tick fires ``interval`` seconds after the *current*
        simulated time, so ``every`` may be installed mid-run (e.g. from
        another event) without trying to schedule into the past.  Ticks
        ride on a single reschedulable callback object — periodic
        samplers used to allocate two fresh closures per tick on the hot
        loop (see ``benchmarks/bench_obs.py`` for the overhead bound).
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        tick = _PeriodicTick(self, interval, callback, until)
        self.schedule(tick.next_time, tick, priority=PRIORITY_MONITOR)


class _PeriodicTick:
    """Reusable event callback implementing :meth:`Simulator.every`.

    The nominal tick instant advances by ``interval`` from the *previous
    nominal instant* (not from ``sim.now``), so the grid stays drift-free
    no matter what fires in between.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_until", "next_time")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        until: float,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._until = until
        self.next_time = sim.now + interval

    def __call__(self) -> None:
        self._callback()
        nxt = self.next_time + self._interval
        if nxt <= self._until:
            self.next_time = nxt
            self._sim.schedule(nxt, self, priority=PRIORITY_MONITOR)
