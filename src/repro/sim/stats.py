"""Statistics collection for simulations.

Provides numerically-stable online moments (Welford), response-time
collectors with CDF/percentile/histogram views (the shapes the paper's
Figures 4-6 report), and a rate recorder for arrival/completion time
series (Figure 2).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..exceptions import SimulationError
from ..obs.registry import validate_edges
from ..units import count_within


class OnlineStats:
    """Streaming count/mean/variance/min/max (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, x: float) -> None:
        self.extend((x,))

    def extend(self, values) -> None:
        """Fold ``values`` in one at a time, in order (sequential Welford).

        :meth:`add` is the one-value case, so a batch gets exactly the
        float operations of adding its values one by one; the running
        moments stay in locals for the length of the loop.
        """
        count, mean, m2 = self.count, self.mean, self._m2
        low, high = self.min, self.max
        for x in values:
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
            if x < low:
                low = x
            if x > high:
                high = x
        self.count, self.mean, self._m2 = count, mean, m2
        self.min, self.max = low, high

    @property
    def variance(self) -> float:
        """Population variance; 0 for fewer than two samples."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Combine two streams (parallel Welford merge)."""
        merged = OnlineStats()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self.count * other.count / merged.count
        )
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def add_array(self, values) -> None:
        """Fold a whole array in at once (vectorized Welford merge).

        One numpy pass over ``values`` followed by the same combine step
        as :meth:`merge`.  Counts, min and max are exact; ``mean`` and
        ``variance`` may differ from sample-at-a-time :meth:`add` by
        float re-association (~1e-15 relative) — same caveat as any
        parallel Welford merge.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        count = int(values.size)
        mean = float(values.mean())
        m2 = float(np.square(values - mean).sum())
        total = self.count + count
        delta = mean - self.mean
        self.mean = self.mean + delta * count / total
        self._m2 += m2 + delta * delta * self.count * count / total
        self.count = total
        low = float(values.min())
        high = float(values.max())
        if low < self.min:
            self.min = low
        if high > self.max:
            self.max = high


class ResponseTimeCollector:
    """Accumulates response-time samples and reports distribution views.

    :meth:`add` only validates and stores a sample; the Welford moments
    in :attr:`stats` catch up on the samples added since the last read
    when they are next read, in arrival order, so they are bit-identical
    to folding each sample in as it arrives.
    """

    def __init__(self, name: str = "all"):
        self.name = name
        self._samples: list[float] = []
        self._stats = OnlineStats()
        #: Samples already folded into ``_stats``.
        self._folded = 0

    def add(self, response_time: float) -> None:
        if response_time < 0:
            raise SimulationError(
                f"negative response time {response_time} in {self.name}"
            )
        self._samples.append(response_time)

    @property
    def stats(self) -> OnlineStats:
        """Streaming moments of every sample added so far."""
        self._fold()
        return self._stats

    def _fold(self) -> None:
        samples = self._samples
        if self._folded < len(samples):
            self._stats.extend(samples[self._folded:])
            self._folded = len(samples)

    def extend(self, response_times: Sequence[float]) -> None:
        """:meth:`add` every value, in order, in one pass.

        The stored samples, and so the lazily folded moments, are those
        of adding the values one by one; a negative value raises before
        any is stored.
        """
        values = np.asarray(response_times, dtype=np.float64)
        negative = values < 0
        if negative.any():
            raise SimulationError(
                f"negative response time {float(values[negative.argmax()])} "
                f"in {self.name}"
            )
        self._samples.extend(values.tolist())

    def extend_array(self, response_times) -> None:
        """Bulk ingestion for columnar runs (:mod:`repro.sim.batch`).

        The stored samples are bit-identical to feeding :meth:`add` in a
        loop; the Welford moments take the vectorized
        :meth:`OnlineStats.add_array` path (see its float caveat).
        """
        values = np.asarray(response_times, dtype=np.float64)
        if values.size == 0:
            return
        if float(values.min()) < 0:
            raise SimulationError(
                f"negative response time {float(values.min())} in {self.name}"
            )
        self._fold()
        self._samples.extend(values.tolist())
        self._stats.add_array(values)
        self._folded = len(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> np.ndarray:
        return np.asarray(self._samples)

    def fraction_within(self, bound: float) -> float:
        """Fraction of samples ``<= bound`` (deadline compliance).

        An empty collector has *no* compliance to report and returns
        ``NaN`` — returning 1.0 here used to let FCFS runs claim perfect
        per-class compliance for classes that collected nothing.
        Callers that aggregate must weight by :func:`len` (zero-sample
        collectors then drop out; see ``SplitSystem.fraction_within``).
        """
        if not self._samples:
            return float("nan")
        return float(count_within(self.samples, bound)) / len(self)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (``p`` in [0, 100])."""
        if not self._samples:
            return 0.0
        return float(np.percentile(self.samples, p))

    def percentile_exact(self, p: float) -> float:
        """The ``p``-th percentile as an exact order statistic.

        ``np.percentile`` interpolates between neighbors, which
        manufactures response times no request ever saw — visibly wrong
        for deep-tail quantiles (p99.9 of 1000 samples interpolates
        between the two worst observations).  This variant returns the
        smallest sample ``x`` with at least ``p`` percent of the mass at
        or below ``x``: ``sorted[max(0, ceil(p/100 * n) - 1)]``.  For
        tail percentiles it is conservative (never below the
        interpolated value's floor sample) and always an observed value.
        """
        if not 0.0 <= p <= 100.0:
            raise SimulationError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        ordered = np.sort(self.samples)
        rank = max(0, math.ceil(p / 100.0 * ordered.size) - 1)
        return float(ordered[rank])

    def cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Empirical CDF: sorted samples and cumulative fractions."""
        if not self._samples:
            return np.array([]), np.array([])
        xs = np.sort(self.samples)
        ys = np.arange(1, xs.size + 1) / xs.size
        return xs, ys

    def binned_fractions(self, edges: Sequence[float]) -> dict[str, float]:
        """Fractions in the paper's Figure 6 style bins.

        ``edges=[a, b, c]`` yields keys ``<=a``, ``<=b``, ``<=c``, ``>c``
        with *cumulative* fractions for the ``<=`` bins and the residual
        tail mass for ``>c`` — exactly how Figure 6's bars read.

        Raises
        ------
        ConfigurationError
            If ``edges`` is empty or not strictly increasing (an empty
            list used to emit a bogus ``">0"`` key).
        """
        validate_edges(edges, context="binned_fractions edges")
        result: dict[str, float] = {}
        for edge in edges:
            result[f"<={edge:g}"] = self.fraction_within(edge)
        last = edges[-1]
        result[f">{last:g}"] = 1.0 - self.fraction_within(last)
        return result

    def summary(self) -> dict:
        stats = self.stats
        return {
            "name": self.name,
            "count": stats.count,
            "mean": stats.mean,
            "std": stats.std,
            "min": stats.min if stats.count else 0.0,
            "max": stats.max if stats.count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class RateRecorder:
    """Counts events into fixed-width time bins (rate time series)."""

    def __init__(self, bin_width: float = 0.1):
        if bin_width <= 0:
            raise SimulationError(f"bin_width must be positive, got {bin_width}")
        self.bin_width = bin_width
        self._counts: dict[int, int] = {}

    def record(self, time: float) -> None:
        if time < 0:
            raise SimulationError(f"cannot record negative time {time}")
        # floor, not int(): truncation toward zero would fold times in
        # (-bin_width, 0) into bin 0 — and compute the index once.
        index = math.floor(time / self.bin_width)
        self._counts[index] = self._counts.get(index, 0) + 1

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        """(bin_starts, rates in events/second), dense from bin 0."""
        if not self._counts:
            return np.array([]), np.array([])
        n_bins = max(self._counts) + 1
        counts = np.zeros(n_bins)
        for idx, c in self._counts.items():
            counts[idx] = c
        starts = np.arange(n_bins) * self.bin_width
        return starts, counts / self.bin_width

    def peak_rate(self) -> float:
        _, rates = self.series()
        return float(rates.max()) if rates.size else 0.0
