"""Server abstraction: a resource that serves one request at a time.

A :class:`Server` pulls nothing on its own — a driver (or test) calls
:meth:`Server.dispatch` with a request, and the server schedules the
completion event according to its :class:`ServiceTimeModel`.  When the
request finishes, the server invokes its ``on_completion`` callback
(typically the driver's), which is the moment schedulers make their next
dispatch decision — mirroring how the paper hooks its recombiner into the
disk driver's "need next request" upcall.
"""

from __future__ import annotations

from typing import Callable, Protocol

from ..core.request import Request
from ..exceptions import SchedulerError, SimulationError
from ..sim.engine import Simulator
from ..sim.events import PRIORITY_COMPLETION


class ServiceTimeModel(Protocol):
    """Maps a request to its service duration in seconds."""

    def service_time(self, request: Request) -> float: ...


class Server:
    """A single service station processing one request at a time.

    Parameters
    ----------
    sim:
        The simulation engine.
    model:
        Service-time model consulted per request.
    name:
        Label for error messages and reports.
    """

    def __init__(self, sim: Simulator, model: ServiceTimeModel, name: str = "server"):
        self.sim = sim
        self.model = model
        self.name = name
        self.on_completion: Callable[[Request], None] | None = None
        self._current: Request | None = None
        self._busy_time = 0.0
        self._completed = 0
        # Completion bookkeeping kept so fault-capable subclasses can
        # cancel an in-flight service (crash/abort) and refund the
        # unserved remainder of the busy-time accounting.
        self._completion_event = None
        self._service_end = 0.0

    @property
    def busy(self) -> bool:
        return self._current is not None

    @property
    def concurrency(self) -> int:
        """Service units (an AQM window must floor at this, or it idles them)."""
        return 1

    @property
    def current(self) -> Request | None:
        """The request in service, if any."""
        return self._current

    @property
    def completed(self) -> int:
        """Number of requests fully served."""
        return self._completed

    @property
    def busy_time(self) -> float:
        """Cumulative seconds of committed service (basis of utilization)."""
        return self._busy_time

    def utilization(self, horizon: float | None = None) -> float:
        """Fraction of time busy over ``horizon`` (defaults to sim.now)."""
        horizon = horizon if horizon is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_time / horizon)

    def dispatch(self, request: Request) -> None:
        """Begin serving ``request`` immediately.

        Raises
        ------
        SchedulerError
            If the server is already busy — drivers must only dispatch to
            idle servers.
        """
        if self._current is not None:
            raise SchedulerError(
                f"{self.name}: dispatch while serving request "
                f"{self._current.index}"
            )
        if request.remaining_service is not None:
            # Resuming a preempted request: serve exactly the unserved
            # remainder, never a fresh model draw.
            duration = request.remaining_service
            request.remaining_service = None
        else:
            duration = self.model.service_time(request)
        if duration <= 0:
            raise SimulationError(
                f"{self.name}: non-positive service time {duration}"
            )
        now = self.sim.now
        request.dispatch = now
        self._current = request
        self._busy_time += duration
        self._service_end = now + duration
        self._completion_event = self.sim.schedule_after(
            duration, self._complete, priority=PRIORITY_COMPLETION
        )

    def remaining_seconds(self) -> float:
        """Unserved seconds of the in-flight request (0.0 when idle)."""
        if self._current is None:
            return 0.0
        return max(0.0, self._service_end - self.sim.now)

    def preempt(self) -> Request:
        """Stop the in-flight request and return it with its remainder.

        The unserved remainder of the service is refunded from the
        busy-time accounting and stored on the request as
        ``remaining_service`` so a later :meth:`dispatch` resumes it
        exactly where it stopped.

        Raises
        ------
        SchedulerError
            If the server is idle.
        """
        if self._current is None:
            raise SchedulerError(f"{self.name}: preempt with no request in service")
        request = self._current
        remaining = max(0.0, self._service_end - self.sim.now)
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        self._current = None
        self._busy_time -= remaining
        request.remaining_service = remaining
        request.dispatch = None
        return request

    def _complete(self) -> None:
        request = self._current
        if request is None:  # pragma: no cover - defensive
            raise SimulationError(f"{self.name}: completion with no request")
        self._current = None
        self._completion_event = None
        self._completed += 1
        request.completion = self.sim.now
        if self.on_completion is not None:
            self.on_completion(request)
