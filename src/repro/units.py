"""Unit helpers and conventions used throughout the library.

Conventions
-----------
* **Time** is measured in *seconds* as ``float`` everywhere in the public
  API.  The paper quotes response-time bounds in milliseconds; use
  :data:`MILLISECOND` (or :func:`ms`) to convert.
* **Capacity** (service rate) is measured in IOPS (requests per second).
* A server of capacity ``C`` completes one request every ``1 / C`` seconds.

The helpers in this module exist so that experiment code reads like the
paper ("a response time of 10 ms" becomes ``ms(10)``) instead of a soup of
magic constants.

Tolerances
----------
The paper's guarantee rests on two rules, and each has one home here:

* **Met δ.**  A request meets its bound if it completes by
  ``arrival + δ`` (or, in response form, responds within ``δ``), up to
  :data:`DEADLINE_SLACK` seconds: :func:`met_deadline` and its numpy
  form :func:`count_within`.
* **Fits in C·δ.**  RTT admits while fewer than ``⌊C·δ⌋`` requests wait
  in ``Q1`` (Algorithm 1's ``maxQ1``): :func:`q1_limit`.  Room, work
  and capacity comparisons add :data:`EPS` in their own units.

The two tolerances stay two values: they are in different units, and
keeping both leaves every comparison's value as it was.  Merging them
would be a semantic change, to be made and documented on its own.
"""

from __future__ import annotations

import math

import numpy as np

#: One millisecond expressed in seconds.
MILLISECOND: float = 1e-3

#: One microsecond expressed in seconds.
MICROSECOND: float = 1e-6

#: Deadline tolerance in seconds: a completion this late still meets it.
DEADLINE_SLACK: float = 1e-12

#: Room, work and capacity tolerance (requests, demand units, IOPS):
#: ``floor(room + EPS)`` lets one-ulp noise on a decimal-grid arrival
#: count a knife-edge slot as free.  Far below any real gap, far above
#: the rounding error of realistic trace lengths.
EPS: float = 1e-9

#: Request sizes the serving plane's ingest accepts, in units of the
#: unit-cost request: within a factor 2**20 (about a million) of it
#: either way.  Inside this range every path serves a workload alike.
MIN_SIZE: float = 2.0**-20
MAX_SIZE: float = 2.0**20


def met_deadline(value: float, limit: float) -> bool:
    """Whether ``value`` is within ``limit``: ``value <= limit + DEADLINE_SLACK``.

    Takes a completion and its deadline (``arrival + δ``) or a response
    time and ``δ``; the two forms round differently, so each caller
    keeps its own.
    """
    return value <= limit + DEADLINE_SLACK


def count_within(values: np.ndarray, limits) -> int:
    """How many ``values`` are within ``limits`` (:func:`met_deadline`, vectorized).

    ``limits`` is one bound or an array aligned with ``values``.
    """
    return int(np.count_nonzero(values <= limits + DEADLINE_SLACK))


def q1_limit(capacity: float, delta: float) -> int:
    """Algorithm 1's ``maxQ1`` in whole requests: ``⌊C·δ⌋``, up to :data:`EPS`.

    ``q1_limit(90, 0.7) == 63`` although ``90 * 0.7`` is ``62.99…`` in
    binary.
    """
    return math.floor(capacity * delta + EPS)


def ms(value: float) -> float:
    """Convert milliseconds to seconds: ``ms(10) == 0.01``."""
    return value * MILLISECOND


def us(value: float) -> float:
    """Convert microseconds to seconds: ``us(250) == 0.00025``."""
    return value * MICROSECOND


def to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds: ``to_ms(0.01) == 10.0``."""
    return seconds / MILLISECOND


def iops(value: float) -> float:
    """Identity helper that documents a value as a rate in IOPS."""
    return float(value)


def service_time(capacity_iops: float) -> float:
    """Per-request service time (seconds) of a constant-rate server.

    Raises
    ------
    ValueError
        If ``capacity_iops`` is not strictly positive.
    """
    if capacity_iops <= 0:
        raise ValueError(f"capacity must be positive, got {capacity_iops}")
    return 1.0 / capacity_iops
