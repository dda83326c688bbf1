"""Theoretical bounds from Section 3.1 (Lemmas 1-3) and exact checkers.

These functions exist to *verify* the optimality claims of the paper
against the implementation, and are used heavily by the test suite:

* :func:`lemma1_lower_bound` — the paper's Lemma 1: within a busy period
  starting at time 0, at least ``max_k sgn(A(a_k) - S(a_k + delta))``
  requests must miss their deadline.
* :func:`lower_bound_drops` — a busy-period-aware extension (the Lemma 3
  argument): the Lemma 1 bound applied inside each busy period of the
  full workload, summed.  Valid for any scheduling algorithm, online or
  offline.
* :func:`subset_feasible` / :func:`max_admissible_bruteforce` — exhaustive
  offline optimum for small workloads, in both the discrete and fluid
  server models.  The test suite checks RTT admits exactly this many.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..units import EPS
from .curves import ArrivalCurve
from .workload import Workload


def sgn(x: float) -> int:
    """The paper's ``sgn``: ``ceil(x)`` for ``x >= 0`` and ``0`` otherwise."""
    if x < 0:
        return 0
    return math.ceil(x)


def lemma1_lower_bound(workload: Workload, capacity: float, delta: float) -> int:
    """Lemma 1: minimum deadline misses assuming the server is busy from 0.

    ``max_{1<=k<=N} sgn(A(a_k) - S(a_k + delta))`` with ``S(t) = C*t``.

    Exact for workloads forming a single busy period from time 0; a lower
    bound (possibly loose) otherwise — use :func:`lower_bound_drops` for
    workloads with idle gaps.
    """
    if capacity <= 0 or delta <= 0:
        raise ConfigurationError("capacity and delta must be positive")
    curve = ArrivalCurve(workload)
    if curve.total == 0:
        return 0
    excess = curve.cumulative - capacity * (curve.instants + delta)
    worst = float(excess.max())
    return sgn(worst - EPS) if worst > EPS else 0


def _busy_period_slices(arrivals: np.ndarray, capacity: float) -> list[slice]:
    """Index ranges of arrivals falling in each fluid busy period.

    A new busy period starts when an arrival finds zero backlog in a
    rate-``C`` fluid server that serves *every* request.
    """
    slices: list[slice] = []
    if arrivals.size == 0:
        return slices
    start = 0
    backlog = 0.0
    prev_t = float(arrivals[0])
    backlog = 1.0
    for i in range(1, arrivals.size):
        t = float(arrivals[i])
        backlog -= (t - prev_t) * capacity
        if backlog <= EPS:
            slices.append(slice(start, i))
            start = i
            backlog = 0.0
        backlog += 1.0
        prev_t = t
    slices.append(slice(start, arrivals.size))
    return slices


def lower_bound_drops(workload: Workload, capacity: float, delta: float) -> int:
    """Busy-period-aware lower bound on deadline misses (any algorithm).

    Within each busy period of the *full* workload (fluid rate-``C``
    server), no algorithm can have served any of the period's requests
    before the period starts, so Lemma 1 applies with the clock re-based
    to the period start.  Bounds from disjoint periods add up.
    """
    if capacity <= 0 or delta <= 0:
        raise ConfigurationError("capacity and delta must be positive")
    arrivals = workload.arrivals
    total = 0
    for sl in _busy_period_slices(arrivals, capacity):
        chunk = arrivals[sl.start : sl.stop]
        base = float(chunk[0])
        sub = Workload(chunk - base)
        total += lemma1_lower_bound(sub, capacity, delta)
    return total


def subset_feasible(
    arrivals: Sequence[float],
    capacity: float,
    delta: float,
    discrete: bool = True,
) -> bool:
    """Can every request in ``arrivals`` meet deadline ``arrival + delta``?

    ``arrivals`` must be sorted.  FCFS order is optimal for uniform
    relative deadlines, so feasibility is checked with the Lindley
    recursion.

    With ``discrete=True`` the server takes exactly ``1/C`` per request
    (the simulation model); with ``discrete=False`` service is fluid, i.e.
    a backlog of ``q`` requests drains in ``q / C`` seconds regardless of
    request boundaries — the model of the paper's lemmas.  The two differ
    only when ``C * delta`` is non-integral.
    """
    service = 1.0 / capacity
    if discrete:
        finish = 0.0
        for t in arrivals:
            finish = max(finish, t) + service
            if finish > t + delta + EPS:
                return False
        return True
    backlog = 0.0
    prev = 0.0
    for t in arrivals:
        backlog = max(0.0, backlog - (t - prev) * capacity)
        backlog += 1.0
        prev = t
        if backlog > capacity * delta + EPS:
            return False
    return True


def max_admissible_bruteforce(
    workload: Workload,
    capacity: float,
    delta: float,
    discrete: bool = True,
) -> int:
    """Offline-optimal number of requests that can meet their deadlines.

    Exhaustive search over subsets — O(2^N); for test workloads only
    (raises for N > 20).
    """
    arrivals = [float(t) for t in workload.arrivals]
    n = len(arrivals)
    if n > 20:
        raise ConfigurationError(f"brute force limited to 20 requests, got {n}")
    if subset_feasible(arrivals, capacity, delta, discrete):
        return n
    for size in range(n - 1, 0, -1):
        for keep in combinations(range(n), size):
            subset = [arrivals[i] for i in keep]
            if subset_feasible(subset, capacity, delta, discrete):
                return size
    return 0
