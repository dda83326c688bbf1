"""RTT decomposition (Algorithm 1 of the paper).

RTT partitions an arriving request stream into a primary class ``Q1``
(guaranteed response time ``delta`` on a rate-``C`` server) and an
overflow class ``Q2``.  The paper states the rule as a bounded queue: the
primary queue holds at most ``maxQ1 = C * delta`` requests and an arrival
that finds it full is diverted to ``Q2``.

Because a queue-*length* test over-counts a request that is already partly
through service, we implement the rule in its equivalent deadline form:

    admit the arrival at ``t`` iff ``max(F, t) + 1/C <= t + delta``

where ``F`` is the finish instant of the last admitted request.  When
``C * delta`` is an integer the two forms admit exactly the same requests
(``lenQ1 <= C*delta - 1  <=>  finish - t <= delta``); when ``C * delta``
is fractional the deadline form is strictly more permissive and restores
the optimality property (the integer-queue form can reject a request that
would in fact meet its deadline).  The test suite verifies optimality
against an exhaustive offline search in both server models.

Three implementations are provided:

* :func:`decompose` — the production path.  Discrete server model (one
  request in service at a time, each taking ``1/C`` seconds), processed
  batch-by-batch in O(number of distinct arrival instants).
* :func:`decompose_fluid` — fluid server model (service accrues
  continuously at rate ``C``), the model in which the paper's Lemmas 1-3
  are stated.  Used by the theory tests.
* :func:`decompose_exact` — request-by-request reference implementation
  over :class:`fractions.Fraction`; immune to floating-point error.  Used
  to cross-validate :func:`decompose` in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..perf import kernels as _kernels
from ..units import EPS
from .workload import Workload


def _validate(capacity: float, delta: float) -> None:
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of decomposing a workload at a given capacity and deadline.

    Attributes
    ----------
    workload:
        The input workload.
    capacity:
        Server capacity ``C`` (IOPS) used for the decomposition.
    delta:
        Response-time bound (seconds) for the primary class.
    admitted:
        Boolean mask over ``workload.arrivals``: ``True`` for requests
        placed in ``Q1``, ``False`` for overflow (``Q2``).
    """

    workload: Workload
    capacity: float
    delta: float
    admitted: np.ndarray

    @property
    def n_requests(self) -> int:
        return int(self.admitted.size)

    @property
    def n_admitted(self) -> int:
        return int(np.count_nonzero(self.admitted))

    @property
    def n_overflow(self) -> int:
        return self.n_requests - self.n_admitted

    @property
    def fraction_admitted(self) -> float:
        """Fraction of requests guaranteed the response-time bound."""
        if self.n_requests == 0:
            return 1.0
        return self.n_admitted / self.n_requests

    @property
    def max_queue(self) -> float:
        """The paper's queue bound ``maxQ1 = C * delta``."""
        return self.capacity * self.delta

    def primary_workload(self) -> Workload:
        """The ``Q1`` sub-stream as a workload."""
        return Workload(
            self.workload.arrivals[self.admitted],
            name=f"{self.workload.name}.Q1",
        )

    def overflow_workload(self) -> Workload:
        """The ``Q2`` sub-stream as a workload."""
        return Workload(
            self.workload.arrivals[~self.admitted],
            name=f"{self.workload.name}.Q2",
        )


def _batched(arrivals: np.ndarray) -> tuple[list[float], list[int]]:
    """Collapse a sorted arrival array into (distinct instants, counts)."""
    instants, counts = np.unique(arrivals, return_counts=True)
    return instants.tolist(), counts.tolist()


def count_admitted(
    instants: Sequence[float],
    counts: Sequence[int],
    capacity: float,
    delta: float,
) -> int:
    """Number of requests RTT admits to ``Q1`` (discrete server model).

    This is the hot path of the capacity planner: it runs once per
    candidate capacity inside a binary search, so it works on the batched
    ``(a_i, n_i)`` representation and allocates nothing.

    A batch of ``n`` simultaneous arrivals at ``t`` admits the largest
    ``k <= n`` whose last member still meets its deadline:
    ``k = floor((t + delta - max(F, t)) * C)``.

    Parameters
    ----------
    instants, counts:
        Distinct arrival instants (sorted) and the number of requests
        arriving at each — i.e. the output of
        :meth:`Workload.arrival_counts`.
    capacity:
        Server capacity ``C`` (IOPS).
    delta:
        Primary-class response-time bound (seconds).

    The actual recurrence runs in the ``auto`` kernel backend (see
    :mod:`repro.perf`): the compiled kernel when it builds, else the
    pure-Python reference loop.
    """
    _validate(capacity, delta)
    return _kernels.count_admitted(instants, counts, capacity, delta)


def decompose(
    workload: Workload, capacity: float, delta: float
) -> DecompositionResult:
    """Run RTT decomposition and return the per-request admission mask.

    Discrete server model: the dedicated ``Q1`` server completes one
    request every ``1/C`` seconds while its queue is non-empty.  A request
    is admitted iff it would still meet ``arrival + delta`` behind the
    already-admitted backlog; otherwise it is diverted to ``Q2``.

    Within a batch of simultaneous arrivals the earliest requests in trace
    order are admitted first, exactly as Algorithm 1 would process them.

    The per-batch admitted counts come from the active kernel backend
    (:mod:`repro.perf`); the per-request mask is then assembled with two
    vectorized passes.
    """
    _validate(capacity, delta)
    arrivals = workload.arrivals
    if arrivals.size == 0:
        return DecompositionResult(
            workload, capacity, delta, np.zeros(0, dtype=bool)
        )
    instants, counts = np.unique(arrivals, return_counts=True)
    k = _kernels.admitted_per_batch(instants, counts, capacity, delta)
    # Request r of batch i (0-based within the batch) is admitted iff
    # r < k_i: expand both sides to per-request arrays and compare.
    offsets = np.cumsum(counts) - counts
    rank = np.arange(arrivals.size, dtype=np.int64) - np.repeat(offsets, counts)
    mask = rank < np.repeat(k, counts)
    return DecompositionResult(workload, capacity, delta, mask)


def decompose_fluid(
    workload: Workload, capacity: float, delta: float
) -> DecompositionResult:
    """RTT under the paper's fluid service model.

    Service accrues continuously at rate ``C`` whenever the primary queue
    backlog is positive, so the backlog is a real number.  An arrival is
    admitted iff the post-admission backlog drains within ``delta``:
    ``backlog + 1 <= C * delta``.  This is the model in which Lemmas 1-3
    are exact (see :mod:`repro.core.bounds`).
    """
    _validate(capacity, delta)
    arrivals = workload.arrivals
    mask = np.zeros(arrivals.size, dtype=bool)
    if arrivals.size == 0:
        return DecompositionResult(workload, capacity, delta, mask)
    max_queue = capacity * delta
    instants, counts = _batched(arrivals)
    backlog = 0.0  # fluid backlog of Q1 (requests, fractional)
    prev_t = 0.0
    pos = 0
    eps = EPS
    floor = math.floor
    for t, n in zip(instants, counts):
        backlog = max(0.0, backlog - (t - prev_t) * capacity)
        prev_t = t
        room = floor(max_queue - backlog + eps)
        if room > 0:
            k = n if n < room else room
            mask[pos : pos + k] = True
            backlog += k
        pos += n
    return DecompositionResult(workload, capacity, delta, mask)


def decompose_exact(
    workload: Workload,
    capacity: int | Fraction,
    delta: Fraction | float,
    tie_tolerance: int | float | Fraction = 0,
) -> DecompositionResult:
    """Request-by-request RTT over exact rational arithmetic.

    Mirrors the admission rule literally, one request at a time: admit iff
    ``max(F, t) + 1/C <= t + delta``.  ``capacity`` and ``delta`` are
    converted to :class:`~fractions.Fraction` (floats convert exactly, so
    ``delta=0.05`` means the binary float, not 1/20 — pass a ``Fraction``
    for exact decimal deadlines).

    ``tie_tolerance`` widens the deadline by that many room units, i.e.
    ``tie_tolerance / C`` seconds, as the float kernels' ``floor(room +
    EPS)`` does and as :mod:`repro.check.oracle`'s tie relation does.
    The default 0 is the literal rule.

    Intended for validation; runs in O(N) but with Fraction overhead.
    """
    capacity = Fraction(capacity)
    delta_f = Fraction(delta)
    if capacity <= 0 or delta_f <= 0:
        raise ConfigurationError("capacity and delta must be positive")
    arrivals = workload.arrivals
    mask = np.zeros(arrivals.size, dtype=bool)
    if arrivals.size == 0:
        return DecompositionResult(workload, float(capacity), float(delta_f), mask)
    service = 1 / capacity
    window = delta_f + Fraction(tie_tolerance) / capacity
    finish = Fraction(0)
    for i, t_float in enumerate(arrivals):
        t = Fraction(float(t_float))
        candidate = max(finish, t) + service
        if candidate <= t + window:
            mask[i] = True
            finish = candidate
    return DecompositionResult(workload, float(capacity), float(delta_f), mask)


def primary_response_times(result: DecompositionResult) -> np.ndarray:
    """Response time of every admitted request on a dedicated ``C`` server.

    Uses the vectorized Lindley recursion for an FCFS queue with constant
    service time ``1/C``:

    ``finish_k = s*(k+1) + max_{j<=k} (a_j - s*j)``

    Returns an array aligned with the admitted requests, in arrival order.
    Every value is ``<= delta`` (up to float tolerance) — that is RTT's
    guarantee, and the test suite asserts it.
    """
    arrivals = result.workload.arrivals[result.admitted]
    if arrivals.size == 0:
        return np.array([])
    s = 1.0 / result.capacity
    k = np.arange(arrivals.size)
    finish = s * (k + 1) + np.maximum.accumulate(arrivals - s * k)
    return finish - arrivals
