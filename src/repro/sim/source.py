"""Workload sources: feed arrival streams into the simulation.

A :class:`WorkloadSource` replays a :class:`~repro.core.workload.Workload`
into a sink (normally a :class:`~repro.server.driver.DeviceDriver`),
creating one :class:`~repro.core.request.Request` per arrival.  Arrivals
are injected lazily — one pending event at a time — so memory stays O(1)
in the trace length beyond the trace itself.

:class:`ClosedLoopPopulation` is the other traffic shape: instead of
replaying a pre-materialized arrival array (open loop), it models N users
in think-time loops — each user submits a request, waits for its
completion, thinks for an exponentially distributed pause, and submits
again.  Arrival times therefore *depend on completions*, which is the
defining property of closed-loop traffic: a slow server self-throttles
its own arrival stream.  :class:`ClosedLoopSource` runs a population on
the event engine, observing completions through the sink's
``add_completion_hook`` callback registry
(:meth:`repro.server.driver.DeviceDriver.add_completion_hook`).
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from ..core.request import Request
from ..core.workload import Workload
from ..exceptions import ConfigurationError
from .engine import Simulator
from .events import PRIORITY_ARRIVAL
from .rng import derive_seed, make_rng


class RequestSink(Protocol):
    """Anything that accepts arriving requests (drivers, schedulers)."""

    def on_arrival(self, request: Request) -> None: ...


class WorkloadSource:
    """Replays a workload's arrivals into a sink at their trace instants.

    Sized workloads are honored: when the workload carries a ``sizes``
    column, each materialized request gets the matching
    ``service_demand``.  Unsized workloads produce the default demand of
    1.0 — the identical requests this source always produced.

    This is the one open-loop delivery path: one pending arrival event
    at a time, the next armed before the current one is delivered.
    :class:`repro.serve.harness.StagedSource` feeds it records staged
    while the clock runs.
    """

    def __init__(
        self,
        sim: Simulator,
        workload: Workload,
        sink: RequestSink,
        client_id: int = 0,
        on_request: Callable[[Request], None] | None = None,
    ):
        self.sim = sim
        self.workload = workload
        self.sink = sink
        self.client_id = client_id
        self.on_request = on_request
        self._arrivals = workload.arrivals
        self._sizes = workload.sizes
        self._next = 0
        self.requests: list[Request] = []

    def start(self) -> None:
        """Arm the source; call before ``sim.run()``."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        """Arm the next arrival, at its instant or now if that is later.

        A workload's arrivals are sorted and non-negative, so only a
        record staged behind the clock is ever moved up to now.
        """
        index = self._next
        if index < len(self._arrivals):
            t = float(self._arrivals[index])
            now = self.sim.now
            self.sim.schedule(now if now > t else t, self._fire, PRIORITY_ARRIVAL)

    def _fire(self) -> None:
        index = self._next
        size = None if self._sizes is None else self._sizes[index]
        if size is None:
            request = Request(
                arrival=float(self._arrivals[index]),
                index=index,
                client_id=self.client_id,
            )
        else:
            request = Request(
                arrival=float(self._arrivals[index]),
                index=index,
                client_id=self.client_id,
                service_demand=float(size),
            )
        self.requests.append(request)
        self._next += 1
        # Schedule the next arrival *before* delivering this one so a sink
        # that drains the queue synchronously cannot starve the source.
        self._schedule_next()
        if self.on_request is not None:
            self.on_request(request)
        self.sink.on_arrival(request)

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._arrivals)


def user_stream(seed: int, user: int) -> np.random.Generator:
    """User ``user``'s own random stream: its think pauses and demands."""
    return make_rng(derive_seed(seed, "closed-loop", user))


class ClosedLoopPopulation:
    """The rules of N users in think-time loops, apart from any engine.

    Each user ``u`` draws from its own stream (:func:`user_stream`), so
    populations are reproducible per user regardless of interleaving
    (and regardless of how many worker processes share the simulation
    batch):

    1. think for ``Exp(think_time)`` seconds (:meth:`next_arrival`),
    2. submit one request, ``client_id = u`` (:meth:`submit`),
    3. block until that request completes,
    4. go to 1.

    Submission stops at ``horizon``: a think pause that would land at or
    past it retires the user.  Step 3 is the serving engine's business:
    :class:`ClosedLoopSource` schedules the steps on a
    :class:`~repro.sim.engine.Simulator`, and
    :func:`repro.server.driver.serve_direct` runs them without one.

    Parameters
    ----------
    demand_sampler:
        Optional ``(rng) -> float`` drawing a positive service demand per
        request from the user's stream; ``None`` issues unit-demand
        requests.
    """

    def __init__(
        self,
        n_users: int,
        think_time: float,
        horizon: float,
        seed: int = 0,
        demand_sampler: Callable[[np.random.Generator], float] | None = None,
    ):
        if n_users <= 0:
            raise ConfigurationError(f"n_users must be positive, got {n_users}")
        if think_time <= 0:
            raise ConfigurationError(
                f"think_time must be positive, got {think_time}"
            )
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon}")
        self.n_users = int(n_users)
        self.think_time = float(think_time)
        self.horizon = float(horizon)
        self.seed = seed
        self.demand_sampler = demand_sampler
        self._rngs = [user_stream(seed, u) for u in range(self.n_users)]
        #: Every submitted request, in submission order (``index`` order).
        self.requests: list[Request] = []

    def next_arrival(self, user: int, now: float) -> float | None:
        """``user`` thinks from ``now``: its next arrival, or ``None`` if retired."""
        t = now + self._rngs[user].exponential(self.think_time)
        return None if t >= self.horizon else t

    def submit(self, user: int, at: float) -> Request:
        """``user``'s request arriving at ``at``, sized from its stream."""
        demand = 1.0
        if self.demand_sampler is not None:
            demand = float(self.demand_sampler(self._rngs[user]))
        request = Request(
            arrival=at,
            index=len(self.requests),
            client_id=user,
            service_demand=demand,
        )
        self.requests.append(request)
        return request


class ClosedLoopSource:
    """A :class:`ClosedLoopPopulation` on the event engine.

    Every user's first think starts at time 0; each arrival is an event
    at ``PRIORITY_ARRIVAL``, and each completion the sink reports draws
    that user's next think.  Because that step observes the *sink's*
    completion callback, arrival order genuinely depends on service
    order — the closed-loop property the open-loop
    :class:`WorkloadSource` cannot express.  A request the sink drops
    without completing (fault shedding) permanently idles its user,
    mirroring a real user stuck waiting.

    ``population`` is served as given: each user draws from the
    population's own stream, and its ``requests`` fill as users submit.
    """

    def __init__(
        self, sim: Simulator, sink: RequestSink, population: ClosedLoopPopulation
    ):
        add_hook = getattr(sink, "add_completion_hook", None)
        if add_hook is None:
            raise ConfigurationError(
                "closed-loop traffic needs a sink with add_completion_hook "
                "(DeviceDriver or SplitSystem)"
            )
        self.sim = sim
        self.sink = sink
        self.population = population
        self._inflight: dict[int, int] = {}  # request index -> user
        #: The population's submitted requests, in submission order.
        self.requests = population.requests
        add_hook(self._on_completion)

    def start(self) -> None:
        """Arm every user's first arrival; call before ``sim.run()``."""
        for user in range(self.population.n_users):
            self._schedule_user(user, now=0.0)

    def _schedule_user(self, user: int, now: float) -> None:
        t = self.population.next_arrival(user, now)
        if t is None:
            return
        self.sim.schedule(
            t, lambda u=user, at=t: self._submit(u, at), priority=PRIORITY_ARRIVAL
        )

    def _submit(self, user: int, at: float) -> None:
        request = self.population.submit(user, at)
        self._inflight[request.index] = user
        self.sink.on_arrival(request)

    def _on_completion(self, request: Request) -> None:
        user = self._inflight.pop(request.index, None)
        if user is None:
            return  # not ours (mixed open/closed traffic) or a replay
        self._schedule_user(user, now=float(request.completion))

    @property
    def inflight(self) -> int:
        """Requests submitted and not yet completed."""
        return len(self._inflight)
