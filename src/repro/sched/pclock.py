"""pClock-style arrival-curve scheduling for multiple clients.

The paper's FairQueue recombiner cites pClock [Gulati, Merchant, Varman;
SIGMETRICS 2007] as one of the proportional-share schedulers usable at
the server.  pClock assigns every request a *deadline* from its flow's
SLA — a token-bucket arrival curve ``(sigma, rho)`` plus a latency bound
``delta`` — and serves in earliest-deadline order:

* a flow that stays within its arrival curve (bursts of at most ``sigma``
  above rate ``rho``) has every request tagged ``arrival + delta`` and,
  if the server admits a feasible set of SLAs, meets that latency no
  matter how other flows behave (isolation);
* a flow exceeding its curve has the excess requests' deadlines pushed
  out to when its bucket refills — it only competes for *spare* capacity
  and cannot hurt conforming flows.

This implementation keeps per-flow token buckets exactly and dispatches
by earliest deadline (ties by arrival).  It is the multi-client
counterpart of the single-client shaping stack: in
:class:`repro.tenancy.SharedServer` each tenant's guaranteed class is a
pClock flow sized from its capacity plan.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from ..core.request import Request
from ..exceptions import ConfigurationError, SchedulerError
from ..units import EPS
from .base import Scheduler

#: Deadline assigned to best-effort requests: never beats a real SLA tag.
BEST_EFFORT_DEADLINE = math.inf


@dataclass(frozen=True)
class FlowSLA:
    """Token-bucket SLA of one flow.

    Attributes
    ----------
    sigma:
        Burst allowance (requests): how far the flow may run ahead of its
        long-term rate and still get the latency bound.
    rho:
        Reserved throughput (requests/second).
    delta:
        Latency bound (seconds) for conforming requests.
    """

    sigma: float
    rho: float
    delta: float

    def __post_init__(self) -> None:
        if self.sigma < 1:
            raise ConfigurationError(f"sigma must be >= 1, got {self.sigma}")
        if self.rho <= 0:
            raise ConfigurationError(f"rho must be positive, got {self.rho}")
        if self.delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {self.delta}")


class _FlowState:
    """Token bucket: ``tokens`` in [~-inf, sigma], refilled at rho."""

    __slots__ = ("sla", "tokens", "last_update")

    def __init__(self, sla: FlowSLA):
        self.sla = sla
        self.tokens = sla.sigma
        self.last_update = 0.0

    def deadline_for(self, arrival: float) -> float:
        """Tag one request arriving at ``arrival``; consumes a token."""
        elapsed = arrival - self.last_update
        self.tokens = min(self.sla.sigma, self.tokens + elapsed * self.sla.rho)
        self.last_update = arrival
        self.tokens -= 1.0
        if self.tokens >= 0.0:
            return arrival + self.sla.delta
        # Non-conforming: deadline deferred to when the bucket refills.
        deficit = -self.tokens
        return arrival + deficit / self.sla.rho + self.sla.delta


class PClockScheduler(Scheduler):
    """Deadline scheduler over token-bucket flow SLAs.

    Parameters
    ----------
    flows:
        Mapping of flow id to :class:`FlowSLA`.  Requests are routed by
        ``request.client_id``; unknown client ids are served best-effort
        (infinite deadline) unless ``strict`` is set.
    strict:
        Raise on requests from unknown flows instead of serving them
        best-effort.
    """

    name = "pclock"

    def __init__(self, flows: dict[int, FlowSLA], strict: bool = False):
        if not flows:
            raise ConfigurationError("at least one flow SLA is required")
        self._flows = {fid: _FlowState(sla) for fid, sla in flows.items()}
        self._heap: list[tuple[float, int, Request]] = []
        self._counter = itertools.count()
        self.strict = strict

    def on_arrival(self, request: Request) -> None:
        state = self._flows.get(request.client_id)
        if state is None:
            if self.strict:
                raise SchedulerError(
                    f"request from unknown flow {request.client_id}"
                )
            deadline = BEST_EFFORT_DEADLINE
        else:
            deadline = state.deadline_for(request.arrival)
        request.deadline = None if deadline == BEST_EFFORT_DEADLINE else deadline
        heapq.heappush(self._heap, (deadline, next(self._counter), request))
        self._note_arrival(request)

    def select(self, now: float) -> Request | None:
        if not self._heap:
            return None
        _, _, request = heapq.heappop(self._heap)
        self._note_dispatch(request)
        return request

    def pending(self) -> int:
        return len(self._heap)

    def tokens(self, flow_id: int) -> float:
        """Current bucket level of a flow (diagnostics)."""
        try:
            return self._flows[flow_id].tokens
        except KeyError:
            raise SchedulerError(f"unknown flow {flow_id}") from None


def feasible(flows: dict[int, FlowSLA], capacity: float) -> bool:
    """Schedulability check: aggregate reservations fit the server.

    Sufficient (not tight) condition: the total reserved rate fits, and
    every flow's burst can drain within its latency bound using the
    capacity left over by the other flows' reserved rates:

        sum(rho_i) <= C   and   sigma_i <= (C - sum_{j!=i} rho_j) * delta_i
    """
    total_rho = sum(sla.rho for sla in flows.values())
    if total_rho > capacity + EPS:
        return False
    for sla in flows.values():
        residual = capacity - (total_rho - sla.rho)
        if sla.sigma > residual * sla.delta + EPS:
            return False
    return True
