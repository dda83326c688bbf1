"""Response-time analysis: closed forms and distribution views.

The FCFS response-time distribution on a constant-rate server has a
closed form (the Lindley recursion), which this module vectorizes; it is
used both as a fast path for the FCFS experiments (Figures 4-5) and as an
independent oracle to validate the event-driven simulator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..units import count_within


def fcfs_response_times(workload: Workload, capacity: float) -> np.ndarray:
    """Response time of every request under FCFS at a rate-``C`` server.

    Vectorized Lindley recursion for constant service time ``s = 1/C``:
    ``finish_k = s*(k+1) + max_{j<=k}(a_j - s*j)``.  Exactly matches the
    event-driven simulation (asserted in the test suite).
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    arrivals = workload.arrivals
    if arrivals.size == 0:
        return np.array([])
    s = 1.0 / capacity
    k = np.arange(arrivals.size)
    finish = s * (k + 1) + np.maximum.accumulate(arrivals - s * k)
    return finish - arrivals


def compliance(response_times: Sequence[float], bound: float) -> float:
    """Fraction of responses within ``bound`` (:func:`repro.units.met_deadline`)."""
    samples = np.asarray(response_times, dtype=float)
    if samples.size == 0:
        return 1.0
    return count_within(samples, bound) / samples.size


def cdf_points(response_times: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF as (sorted values, cumulative fractions)."""
    samples = np.sort(np.asarray(response_times, dtype=float))
    if samples.size == 0:
        return np.array([]), np.array([])
    return samples, np.arange(1, samples.size + 1) / samples.size


def cdf_at(response_times: Sequence[float], grid: Sequence[float]) -> np.ndarray:
    """CDF evaluated on an explicit grid (for table/figure output)."""
    samples = np.sort(np.asarray(response_times, dtype=float))
    grid = np.asarray(grid, dtype=float)
    if samples.size == 0:
        return np.ones_like(grid)
    return np.searchsorted(samples, grid, side="right") / samples.size


def time_to_compliance(response_times: Sequence[float], fraction: float) -> float:
    """Smallest bound that ``fraction`` of responses meet.

    The paper reads Figure 4 this way: "the unpartitioned workload
    reaches 90% compliance only around 200 ms".
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    samples = np.sort(np.asarray(response_times, dtype=float))
    if samples.size == 0:
        return 0.0
    index = int(np.ceil(fraction * samples.size)) - 1
    return float(samples[index])


def log_grid_ms(lo_ms: float = 1.0, hi_ms: float = 10000.0, points: int = 60):
    """Logarithmic response-time grid in *seconds* (axis of Figures 4-5)."""
    if lo_ms <= 0 or hi_ms <= lo_ms or points < 2:
        raise ConfigurationError("need 0 < lo < hi and points >= 2")
    return np.logspace(np.log10(lo_ms), np.log10(hi_ms), points) / 1000.0
