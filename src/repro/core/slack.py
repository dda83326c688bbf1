"""Slack bookkeeping for the Miser scheduler (Algorithm 2).

Miser assigns every primary-queue request a *slack*: the number of service
slots that may be diverted to the overflow class before this request risks
missing its deadline.  Algorithm 2 needs three operations:

* insert a request with its initial slack,
* ``decrement_all`` — one service slot was given to the overflow class,
* ``min_slack`` / ``remove`` — gate overflow dispatch and retire served
  requests.

The naive pseudocode decrements every queued request individually (O(n)
per overflow dispatch).  :class:`SlackTracker` keeps the same semantics in
O(log n) amortized per operation using a global offset plus a lazy-deletion
min-heap: a request inserted with slack ``s`` while the offset is ``o`` is
stored as ``s + o``, and its *effective* slack is ``stored - offset``.
Decrementing everyone is then just ``offset += amount``.

Slack is measured in *work units* (multiples of the unit-cost request),
not queue slots: an overflow dispatch of demand ``w`` decrements every
slack by ``w``.  Unit-demand workloads keep every quantity an
exact-integer-valued float, so the arithmetic — and every gate decision —
is bit-identical to the historical integer implementation.
"""

from __future__ import annotations

import heapq
import math

from ..exceptions import SchedulerError
from ..units import EPS


class SlackTracker:
    """Multiset of per-request slacks with O(log n) bulk decrement."""

    def __init__(self) -> None:
        self._offset = 0.0
        self._heap: list[tuple[float, int]] = []  # (stored_slack, key)
        self._stored: dict[int, float] = {}  # key -> stored_slack

    def __len__(self) -> int:
        return len(self._stored)

    def __contains__(self, key: int) -> bool:
        return key in self._stored

    def insert(self, key: int, slack: float) -> None:
        """Track ``key`` with effective slack ``slack``.

        Raises
        ------
        SchedulerError
            If ``key`` is already tracked.
        """
        if key in self._stored:
            raise SchedulerError(f"slack key {key} already tracked")
        stored = slack + self._offset
        self._stored[key] = stored
        heapq.heappush(self._heap, (stored, key))

    def slack_of(self, key: int) -> float:
        """Current effective slack of ``key``."""
        try:
            return self._stored[key] - self._offset
        except KeyError:
            raise SchedulerError(f"slack key {key} not tracked") from None

    def remove(self, key: int) -> None:
        """Stop tracking ``key`` (lazy: heap entry expires on pop)."""
        if key not in self._stored:
            raise SchedulerError(f"slack key {key} not tracked")
        del self._stored[key]

    def decrement_all(self, amount: float = 1) -> None:
        """Subtract ``amount`` (work units served) from every slack (O(1))."""
        self._offset += amount

    def min_slack(self) -> float:
        """Smallest effective slack; ``math.inf``-like sentinel when empty.

        Returns
        -------
        float
            The minimum slack, or a very large value when nothing is
            tracked (an empty primary queue constrains nothing).
        """
        while self._heap:
            stored, key = self._heap[0]
            if self._stored.get(key) != stored:
                heapq.heappop(self._heap)  # removed or superseded entry
                continue
            return stored - self._offset
        return _NO_CONSTRAINT


#: Sentinel min-slack when no primary request is queued.  Large enough to
#: pass any ``>= 1`` gate, small enough to stay an exact int.
_NO_CONSTRAINT = 2**31


def no_constraint() -> int:
    """The sentinel returned by :meth:`SlackTracker.min_slack` when empty."""
    return _NO_CONSTRAINT


def is_unconstrained(slack: float) -> bool:
    """True when ``slack`` is the empty-tracker sentinel."""
    return slack >= _NO_CONSTRAINT


def initial_slack(max_queue: float, occupancy: float) -> int:
    """Slack assigned on admission: ``floor(maxQ1 - workQ1)`` (Algorithm 2).

    ``occupancy`` is the primary-queue work *including* the request being
    admitted, matching the pseudocode's post-increment read.  For
    unit-demand workloads the work equals the queue length and this is
    exactly the paper's ``floor(maxQ1 - lenQ1)``.
    """
    return max(0, math.floor(max_queue - occupancy + EPS))
