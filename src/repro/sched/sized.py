"""Size-aware tail-scheduling policies: SRPT, Nudge, and Boost.

The paper's recombination policies (FCFS/fair/Miser/EDF) never look at a
request's cost; once requests carry a
:attr:`~repro.core.request.Request.service_demand` the modern
tail-latency literature becomes applicable:

``SRPTScheduler``
    Shortest-Remaining-Processing-Time, the classic mean-optimal M/G/1
    policy and the size-aware baseline of every bakeoff.  Preemptive: an
    arrival with less work than the in-flight remainder interrupts it
    (:meth:`~repro.sched.base.Scheduler.should_preempt`), and the
    preempted request re-queues on its remaining work.

``NudgeScheduler``
    The FCFS-with-one-swap policy of Grosof, Yang, Scully &
    Harchol-Balter, shown by Yu & Scully to beat FCFS's tail constant in
    light-tailed M/G/1 (PAPERS.md).  An arriving *small* request swaps
    ahead of the queue tail when that tail is *large* and has never been
    nudged before; everything else is FCFS.  Non-preemptive; each
    request participates in at most one swap (the ``swap-once``
    invariant audited by :class:`repro.check.invariants.CheckingScheduler`).

``BoostScheduler``
    Yu & Scully's ``boost`` family: serve in order of *boosted arrival
    time* ``arrival - b(demand)`` with ``b`` decreasing in demand, so
    small requests are nudged forward by a bounded head start instead of
    starving large ones.  Non-preemptive.

None of the three classifies: they leave requests ``UNCLASSIFIED`` and
carry no ``Q1`` deadline machinery, which is exactly what makes them
honest baselines for the decomposition policies to beat.
"""

from __future__ import annotations

import heapq
from collections import deque

from ..core.request import Request
from ..exceptions import ConfigurationError
from ..units import EPS
from .base import Scheduler


class SRPTScheduler(Scheduler):
    """Preemptive shortest-remaining-processing-time.

    Parameters
    ----------
    service_rate:
        Work units per second of the server this scheduler drives (the
        run layer passes ``Cmin + ΔC``); converts the server's
        remaining *seconds* into remaining *work* for comparisons.
    """

    name = "srpt"
    preemptive = True

    def __init__(self, service_rate: float):
        if service_rate <= 0:
            raise ConfigurationError(
                f"service_rate must be positive, got {service_rate}"
            )
        self.service_rate = service_rate
        self._heap: list[tuple[float, int, Request]] = []
        self._seq = 0

    def remaining_work(self, request: Request) -> float:
        """Unserved work of ``request`` in demand units."""
        if request.remaining_service is not None:
            return request.remaining_service * self.service_rate
        return request.service_demand

    def min_remaining(self) -> float | None:
        """Smallest queued remaining work, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def _push(self, request: Request) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.remaining_work(request), self._seq, request))

    def on_arrival(self, request: Request) -> None:
        self._note_arrival(request)
        self._push(request)

    def on_preempt(self, request: Request) -> None:
        # Not an arrival: re-queue on the remainder without re-counting.
        self._push(request)

    def should_preempt(self, current: Request, remaining: float, now: float) -> bool:
        # An arrival must beat the in-flight remainder by more than EPS
        # work units, so equal-work requests never thrash.
        if not self._heap:
            return False
        return self._heap[0][0] < remaining * self.service_rate - EPS

    def select(self, now: float) -> Request | None:
        if not self._heap:
            return None
        _, _, request = heapq.heappop(self._heap)
        self._note_dispatch(request)
        return request

    def pending(self) -> int:
        return len(self._heap)


class NudgeScheduler(Scheduler):
    """FCFS with a single small-over-large swap at arrival (Nudge).

    Parameters
    ----------
    small_threshold:
        Demand cutoff separating *small* from *large* requests.  The
        default of 2.0 puts unit-cost requests below and the long side of
        the stock bimodal (demand 8) above.
    """

    name = "nudge"

    def __init__(self, small_threshold: float = 2.0):
        if small_threshold <= 0:
            raise ConfigurationError(
                f"small_threshold must be positive, got {small_threshold}"
            )
        self.small_threshold = small_threshold
        self._queue: deque[Request] = deque()
        #: Indexes of requests that already took part in a swap (a large
        #: request may be nudged at most once; the nudging small request
        #: is burned too).
        self._swapped: set[int] = set()
        #: Ledger of executed swaps as ``(small_index, large_index)``.
        self.swaps: list[tuple[int, int]] = []

    def is_small(self, request: Request) -> bool:
        return request.service_demand <= self.small_threshold

    def on_arrival(self, request: Request) -> None:
        self._note_arrival(request)
        if self._queue and self.is_small(request):
            tail = self._queue[-1]
            if (
                not self.is_small(tail)
                and tail.index not in self._swapped
                and request.index not in self._swapped
            ):
                self._swapped.add(tail.index)
                self._swapped.add(request.index)
                self.swaps.append((request.index, tail.index))
                self._queue.insert(len(self._queue) - 1, request)
                return
        self._queue.append(request)

    def on_requeue(self, request: Request) -> None:
        # Fault-plane retries join the tail plainly — a stale retry must
        # not be treated as a fresh arrival eligible for a nudge.
        self._queue.append(request)

    def select(self, now: float) -> Request | None:
        if not self._queue:
            return None
        request = self._queue.popleft()
        self._note_dispatch(request)
        return request

    def pending(self) -> int:
        return len(self._queue)


class BoostScheduler(Scheduler):
    """Serve in boosted-arrival order: ``arrival - scale / demand``.

    ``b(d) = scale / d`` is decreasing in demand, so small requests get a
    larger (but bounded) head start — Yu & Scully's boost shape in its
    simplest closed form.  ``scale`` defaults to the run's ``δ`` at the
    registry layer: a unit request may jump at most one deadline budget
    ahead of its arrival position.
    """

    name = "boost"

    def __init__(self, scale: float):
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = scale
        self._heap: list[tuple[float, int, Request]] = []
        self._seq = 0

    def key_of(self, request: Request) -> float:
        """Boosted arrival instant of ``request`` (heap order key)."""
        return request.arrival - self.scale / request.service_demand

    def min_key(self) -> float | None:
        """Smallest queued boost key, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def on_arrival(self, request: Request) -> None:
        self._note_arrival(request)
        self._seq += 1
        heapq.heappush(self._heap, (self.key_of(request), self._seq, request))

    def select(self, now: float) -> Request | None:
        if not self._heap:
            return None
        _, _, request = heapq.heappop(self._heap)
        self._note_dispatch(request)
        return request

    def pending(self) -> int:
        return len(self._heap)
