"""Capacity provisioning (Section 2.2): binary search for ``Cmin``.

Given a response-time bound ``delta`` and a target fraction ``f``, the
planner finds the minimum server capacity ``Cmin`` such that RTT admits at
least a fraction ``f`` of the workload into the guaranteed class, then
provisions ``Cmin + delta_C`` with the paper's ``delta_C = 1 / delta``
surplus to keep the overflow class from starving.

The search is the paper's deterministic bisection: evaluate the admitted
fraction at a candidate capacity (one O(N) RTT pass), halve the bracket,
repeat — ``O(log C)`` RTT passes in total.  Evaluations are memoized, and
because the admitted count is monotone in capacity every cached
evaluation doubles as a bracket: planning several fractions over the
same workload starts each bisection from the tightest (lo, hi) pair the
cache already proves.  :meth:`CapacityPlanner.prefill` batches many
candidates through the kernel sweep (one native call) to seed that
cache, which :meth:`CapacityPlanner.capacity_curve` uses to cut the
per-fraction searches to a handful of evaluations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import CapacityError, ConfigurationError
from ..perf import kernels as _kernels
from ..units import EPS
from .rtt import count_admitted
from .workload import Workload

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CapacityPlan:
    """A provisioning decision for one client workload.

    Attributes
    ----------
    workload_name:
        Label of the planned workload.
    delta:
        Response-time bound (seconds) of the guaranteed class.
    fraction:
        Target fraction of requests guaranteed ``delta``.
    cmin:
        Minimum capacity (IOPS) at which RTT admits ``fraction``.
    delta_c:
        Surplus capacity (IOPS) reserved for the overflow class.
    achieved_fraction:
        Fraction RTT actually admits at ``cmin`` (>= ``fraction``).
    """

    workload_name: str
    delta: float
    fraction: float
    cmin: float
    delta_c: float
    achieved_fraction: float

    @property
    def total_capacity(self) -> float:
        """Provisioned capacity ``Cmin + delta_C``."""
        return self.cmin + self.delta_c


@dataclass
class CapacityPlanner:
    """Binary-search capacity planner for a single workload and deadline.

    Parameters
    ----------
    workload:
        The client workload to plan for.
    delta:
        Response-time bound (seconds) of the guaranteed class.
    integral:
        When ``True`` (default) capacities are whole IOPS, matching the
        paper's tables; otherwise the search bisects reals down to
        ``tolerance``.
    tolerance:
        Bracket width at which a real-valued search stops.
    device_depth:
        Depth of the driver-level in-flight window the served stack will
        run with (:mod:`repro.server.aqm`).  A depth-``k`` device queue
        holds up to ``k`` requests the scheduler can no longer reorder,
        so a freshly admitted request may wait ``k·E[S]`` behind them —
        time spent *inside* the deadline budget.  When set, admission is
        evaluated against the effective bound
        ``δ_eff(C) = δ − k·mean_demand / C`` (see
        :meth:`effective_delta`) instead of raw ``δ``.  ``None``
        (default) plans against ``δ`` exactly as before.
    mean_demand:
        Mean per-request service demand used in the δ_eff correction;
        defaults to the workload's own mean (``total_work / n``).
    """

    workload: Workload
    delta: float
    integral: bool = True
    tolerance: float = 0.25
    device_depth: int | None = None
    mean_demand: float | None = None
    _instants: np.ndarray = field(init=False, repr=False)
    _counts: np.ndarray = field(init=False, repr=False)
    _cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {self.delta}")
        if self.device_depth is not None and self.device_depth < 1:
            raise ConfigurationError(
                f"device_depth must be >= 1, got {self.device_depth}"
            )
        if self.mean_demand is None:
            n = len(self.workload)
            self.mean_demand = self.workload.total_work / n if n else 1.0
        if self.mean_demand <= 0:
            raise ConfigurationError(
                f"mean_demand must be positive, got {self.mean_demand}"
            )
        # Keep the batched representation as contiguous arrays: the
        # kernel backends consume them zero-copy (the scalar fallback
        # converts internally).
        instants, counts = self.workload.arrival_counts()
        self._instants = np.ascontiguousarray(instants, dtype=np.float64)
        self._counts = np.ascontiguousarray(counts, dtype=np.int64)

    # ------------------------------------------------------------------

    @property
    def n_requests(self) -> int:
        return len(self.workload)

    def effective_delta(self, capacity: float) -> float:
        """The deadline budget left after the device queue's share.

        ``δ_eff(C) = δ − device_depth·mean_demand / C``, clamped at
        zero.  Monotone increasing in ``C`` (a faster server drains the
        device queue faster), so the admitted count stays monotone in
        capacity and every cached evaluation still brackets correctly.
        With no ``device_depth`` this is just ``δ``.
        """
        if self.device_depth is None or capacity <= 0:
            return self.delta
        return max(0.0, self.delta - self.device_depth * self.mean_demand / capacity)

    def admitted_at(self, capacity: float) -> int:
        """Requests RTT admits at ``capacity`` (memoized)."""
        if capacity <= 0:
            return 0
        cached = self._cache.get(capacity)
        if cached is None:
            delta_eff = self.effective_delta(capacity)
            if delta_eff <= 0.0:
                # The device queue alone eats the whole budget: nothing
                # can be guaranteed at this capacity.
                cached = 0
            else:
                cached = count_admitted(
                    self._instants, self._counts, capacity, delta_eff
                )
            self._cache[capacity] = cached
        return cached

    def fraction_at(self, capacity: float) -> float:
        """Fraction of the workload RTT admits at ``capacity``."""
        if self.n_requests == 0:
            return 1.0
        return self.admitted_at(capacity) / self.n_requests

    def prefill(self, capacities) -> None:
        """Evaluate many candidate capacities in one kernel sweep.

        All results land in the memo cache, where they tighten the warm
        brackets of every later :meth:`min_capacity` call.  The native
        backend runs the whole sweep in a single C call.
        """
        fresh = sorted(
            {float(c) for c in capacities if c > 0} - self._cache.keys()
        )
        if not fresh:
            return
        if self.device_depth is not None:
            # δ_eff varies per capacity, which the single-delta kernel
            # sweep cannot express; evaluate (and memoize) one by one.
            for capacity in fresh:
                self.admitted_at(capacity)
            return
        counts = _kernels.count_admitted_sweep(
            self._instants, self._counts, fresh, self.delta
        )
        self._cache.update(zip(fresh, (int(c) for c in counts)))

    def _bracket(self, required: int) -> tuple[float, float | None]:
        """Tightest (failing, sufficient) capacity pair the cache proves.

        Relies on the admitted count being monotone in capacity.  ``hi``
        is None when no cached capacity admits ``required`` yet.
        """
        lo, hi = 0.0, None
        for capacity, admitted in self._cache.items():
            if admitted >= required:
                if hi is None or capacity < hi:
                    hi = capacity
            elif capacity > lo:
                lo = capacity
        return lo, hi

    # ------------------------------------------------------------------

    def min_capacity(self, fraction: float) -> float:
        """Minimum capacity admitting at least ``fraction`` of requests.

        Raises
        ------
        CapacityError
            If no capacity below an astronomically large cap suffices
            (cannot happen for finite workloads and ``fraction <= 1``).
        """
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        if self.n_requests == 0:
            return 1.0 if self.integral else self.tolerance
        required = self._required_count(fraction)

        # Start from whatever bracket earlier evaluations already prove;
        # grow the upper end exponentially if none admits enough yet.
        lo, hi = self._bracket(required)
        if hi is None:
            # The mean rate overflows to inf when every arrival is
            # subnormal-early; the doubling below finds the bracket anyway.
            rate = self.workload.mean_rate
            hi = max(1.0, rate if math.isfinite(rate) else 1.0, 2.0 * lo)
            for _ in range(80):
                if self.admitted_at(hi) >= required:
                    break
                lo, hi = hi, hi * 2.0
            else:  # pragma: no cover - defensive
                raise CapacityError(
                    f"no feasible capacity below {hi:g} IOPS for fraction {fraction}"
                )

        if self.integral:
            lo_i, hi_i = int(math.floor(lo)), int(math.ceil(hi))
            while lo_i + 1 < hi_i:
                mid = (lo_i + hi_i) // 2
                if self.admitted_at(float(mid)) >= required:
                    hi_i = mid
                else:
                    lo_i = mid
            logger.debug(
                "min_capacity(%s, f=%.4f) = %d IOPS (%d RTT evaluations)",
                self.workload.name, fraction, hi_i, len(self._cache),
            )
            return float(hi_i)

        while hi - lo > self.tolerance:
            mid = (lo + hi) / 2.0
            if self.admitted_at(mid) >= required:
                hi = mid
            else:
                lo = mid
        return hi

    def _required_count(self, fraction: float) -> int:
        """Admission count needed to certify ``fraction`` (exact at f=1)."""
        if fraction >= 1.0:
            return self.n_requests
        return math.ceil(fraction * self.n_requests - EPS)

    # ------------------------------------------------------------------

    def plan(self, fraction: float, delta_c: float | None = None) -> CapacityPlan:
        """Full provisioning decision: ``Cmin`` plus the ``delta_C`` surplus.

        ``delta_c`` defaults to the paper's ``1 / delta``.
        """
        cmin = self.min_capacity(fraction)
        if delta_c is None:
            delta_c = 1.0 / self.delta
        return CapacityPlan(
            workload_name=self.workload.name,
            delta=self.delta,
            fraction=fraction,
            cmin=cmin,
            delta_c=delta_c,
            achieved_fraction=self.fraction_at(cmin),
        )

    def capacity_curve(self, fractions: list[float]) -> dict[float, float]:
        """``Cmin`` for each fraction, sharing cached RTT evaluations.

        The strictest target is planned first and its ``Cmin`` anchors a
        log-spaced candidate grid evaluated in one kernel sweep
        (:meth:`prefill`); every laxer fraction then bisects inside a
        bracket at most one grid step wide.
        """
        if not fractions:
            return {}
        ordered = sorted(set(fractions), reverse=True)
        anchor = self.min_capacity(ordered[0])
        if len(ordered) > 1 and self.n_requests and anchor > 1.0:
            grid = np.geomspace(max(self.tolerance, anchor / 1024.0), anchor, num=24)
            if self.integral:
                grid = np.unique(np.ceil(grid))
            self.prefill(grid.tolist())
        result = {f: self.min_capacity(f) for f in ordered}
        return {f: result[f] for f in fractions}


def min_capacity(
    workload: Workload,
    delta: float,
    fraction: float = 1.0,
    integral: bool = True,
) -> float:
    """One-shot convenience wrapper around :class:`CapacityPlanner`."""
    return CapacityPlanner(workload, delta, integral=integral).min_capacity(fraction)
