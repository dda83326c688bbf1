"""Workload container: an arrival sequence plus analysis helpers.

A workload in the paper is the sequence ``(a_i, n_i)`` of arrival instants
and batch counts.  We store the flat, sorted array of per-request arrival
times (a batch of ``n`` requests at instant ``a`` appears ``n`` times),
which is both the most convenient form for simulation and the natural form
of real block traces.

Workloads may additionally carry a columnar ``sizes`` array — one service
demand per arrival, in units of the unit-cost request.  An unsized
workload (the default, and the paper's model) is exactly equivalent to
all-ones demands; every code path treats the two identically, bit for
bit.  Sized workloads feed the work-based service model
(:mod:`repro.server.constant_rate`) and work-bound admission
(:mod:`repro.sched.classifier`).

The class is immutable by convention: transformation methods (:meth:`shift`,
:meth:`merge`, :meth:`window`, ...) return new instances.  Each derived
instance records the transformation in ``metadata["lineage"]`` so generator
parameters and provenance survive into reports.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..exceptions import WorkloadError
from .request import IOKind, Request


def _as_sizes(sizes, n: int) -> Optional[np.ndarray]:
    """Validate and freeze a demand column (``None`` means unit sizes)."""
    if sizes is None:
        return None
    array = np.ascontiguousarray(sizes, dtype=np.float64)
    if array.ndim != 1:
        raise WorkloadError(f"sizes must be 1-D, got shape {array.shape}")
    if array.size != n:
        raise WorkloadError(
            f"sizes length {array.size} does not match {n} arrivals"
        )
    if array.size and not np.isfinite(array).all():
        raise WorkloadError("sizes must be finite (no NaN or infinity)")
    if array.size and array.min() <= 0:
        raise WorkloadError("sizes must be positive")
    array.flags.writeable = False
    return array


class Workload:
    """A sorted sequence of request arrival instants (seconds).

    Parameters
    ----------
    arrivals:
        Per-request arrival times.  Must be non-negative and sorted
        (ties allowed — they model the paper's batch arrivals ``n_i > 1``).
    name:
        Human-readable label used in reports.
    metadata:
        Optional free-form dictionary (trace provenance, generator
        parameters, ...).  Shallow-copied on construction.
    sizes:
        Optional per-request service demands aligned with ``arrivals``
        (positive, in units of the unit-cost request).  ``None`` — the
        default — is the paper's unit-cost model and is treated
        identically to an all-ones column everywhere.
    """

    def __init__(
        self,
        arrivals: Sequence[float] | np.ndarray,
        name: str = "workload",
        metadata: dict | None = None,
        sizes: Sequence[float] | np.ndarray | None = None,
    ):
        array = np.asarray(arrivals, dtype=np.float64)
        if array.ndim != 1:
            raise WorkloadError(f"arrivals must be 1-D, got shape {array.shape}")
        # NaN passes both checks below, so every engine would then read
        # it differently (a NaN mean, a miss, or an event-time error).
        if array.size and not np.isfinite(array).all():
            raise WorkloadError("arrivals must be finite (no NaN or infinity)")
        if array.size and array[0] < 0:
            raise WorkloadError(f"arrivals must be non-negative, first is {array[0]}")
        if array.size > 1 and np.any(np.diff(array) < 0):
            raise WorkloadError("arrivals must be sorted non-decreasing")
        self._arrivals = array
        self._arrivals.flags.writeable = False
        self._sizes = _as_sizes(sizes, array.size)
        self.name = name
        self.metadata = dict(metadata or {})

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_counts(
        cls,
        instants: Sequence[float],
        counts: Sequence[int],
        name: str = "workload",
        metadata: dict | None = None,
    ) -> "Workload":
        """Build from the paper's ``(a_i, n_i)`` representation."""
        instants = np.asarray(instants, dtype=np.float64)
        counts = np.asarray(counts, dtype=np.int64)
        if instants.shape != counts.shape:
            raise WorkloadError(
                f"instants and counts differ in shape: {instants.shape} vs {counts.shape}"
            )
        if counts.size and counts.min() < 0:
            raise WorkloadError("counts must be non-negative")
        arrivals = np.repeat(instants, counts)
        return cls(arrivals, name=name, metadata=metadata)

    @classmethod
    def from_requests(
        cls, requests: Iterable[Request], name: str = "workload"
    ) -> "Workload":
        """Build from an iterable of :class:`Request` (sorted by arrival).

        Service demands are preserved: the result carries a ``sizes``
        column iff any request's ``service_demand`` differs from 1.0.
        """
        materialized = list(requests)
        demands = [r.service_demand for r in materialized]
        sizes = demands if any(d != 1.0 for d in demands) else None
        return cls([r.arrival for r in materialized], name=name, sizes=sizes)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def arrivals(self) -> np.ndarray:
        """The read-only array of per-request arrival times."""
        return self._arrivals

    @property
    def sizes(self) -> Optional[np.ndarray]:
        """Per-request service demands, or ``None`` for unit sizes.

        ``None`` (not an all-ones array) is the canonical unsized form so
        the unit-cost fast paths stay allocation-free; use
        :meth:`demands` when an array is needed unconditionally.
        """
        return self._sizes

    @property
    def has_sizes(self) -> bool:
        """Whether the workload carries an explicit demand column."""
        return self._sizes is not None

    def demands(self) -> np.ndarray:
        """The demand column, materializing ones for unsized workloads."""
        if self._sizes is not None:
            return self._sizes
        return np.ones(len(self), dtype=np.float64)

    @property
    def total_work(self) -> float:
        """Sum of service demands (equals ``len(self)`` when unsized)."""
        if self._sizes is None:
            return float(len(self))
        return float(self._sizes.sum())

    def with_sizes(
        self, sizes: Sequence[float] | np.ndarray | None
    ) -> "Workload":
        """A copy carrying ``sizes`` as its demand column (``None`` clears)."""
        return Workload(
            self._arrivals,
            name=self.name,
            metadata=self._derived_metadata(
                "with_sizes", sized=sizes is not None
            ),
            sizes=sizes,
        )

    def __len__(self) -> int:
        return int(self._arrivals.size)

    def __iter__(self):
        return iter(self._arrivals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workload(name={self.name!r}, n={len(self)}, "
            f"duration={self.duration:.3f}s, mean_rate={self.mean_rate:.1f} IOPS)"
        )

    @property
    def duration(self) -> float:
        """Span from time 0 to the last arrival (seconds)."""
        return float(self._arrivals[-1]) if len(self) else 0.0

    @property
    def mean_rate(self) -> float:
        """Average arrival rate (IOPS) over the workload duration."""
        if self.duration <= 0:
            return 0.0
        return len(self) / self.duration

    def peak_rate(self, bin_width: float = 0.1) -> float:
        """Maximum arrival rate (IOPS) over windows of ``bin_width`` seconds.

        Matches the paper's presentation (Figure 2 uses 100 ms windows).
        """
        _, rates = self.rate_series(bin_width)
        return float(rates.max()) if rates.size else 0.0

    def peak_to_mean(self, bin_width: float = 0.1) -> float:
        """Burstiness indicator: peak rate divided by mean rate."""
        mean = self.mean_rate
        return self.peak_rate(bin_width) / mean if mean > 0 else 0.0

    def interarrivals(self) -> np.ndarray:
        """Gaps between consecutive arrivals (length ``n - 1``)."""
        if len(self) < 2:
            return np.array([])
        return np.diff(self._arrivals)

    def interarrival_cv(self) -> float:
        """Coefficient of variation of the inter-arrival times.

        1.0 for Poisson, 0 for perfectly paced traffic, > 1 for bursty
        streams — the simplest burstiness scalar.
        """
        gaps = self.interarrivals()
        if gaps.size < 2:
            return 0.0
        mean = gaps.mean()
        return float(gaps.std() / mean) if mean > 0 else 0.0

    # ------------------------------------------------------------------
    # Representations
    # ------------------------------------------------------------------

    def arrival_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the paper's ``(a_i, n_i)``: unique instants and counts."""
        return np.unique(self._arrivals, return_counts=True)

    def rate_series(self, bin_width: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
        """Arrival rate time series.

        Returns
        -------
        (bin_starts, rates):
            ``bin_starts[i]`` is the left edge of bin ``i`` in seconds and
            ``rates[i]`` the arrival rate in that bin, in IOPS.
        """
        if bin_width <= 0:
            raise WorkloadError(f"bin_width must be positive, got {bin_width}")
        if not len(self):
            return np.array([]), np.array([])
        n_bins = int(np.floor(self.duration / bin_width)) + 1
        indices = np.minimum(
            (self._arrivals / bin_width).astype(np.int64), n_bins - 1
        )
        counts = np.bincount(indices, minlength=n_bins)
        starts = np.arange(n_bins) * bin_width
        return starts, counts / bin_width

    def to_requests(self, client_id: int = 0) -> list[Request]:
        """Materialize one :class:`Request` per arrival, in order."""
        if self._sizes is None:
            return [
                Request(
                    arrival=float(t), index=i, client_id=client_id, kind=IOKind.READ
                )
                for i, t in enumerate(self._arrivals)
            ]
        return [
            Request(
                arrival=float(t),
                index=i,
                client_id=client_id,
                kind=IOKind.READ,
                service_demand=float(d),
            )
            for i, (t, d) in enumerate(zip(self._arrivals, self._sizes))
        ]

    # ------------------------------------------------------------------
    # Transformations (all return new Workload instances)
    # ------------------------------------------------------------------

    def _derived_metadata(self, op: str, **params) -> dict:
        """Source metadata plus one appended ``lineage`` entry.

        The transformation chain accumulates in ``metadata["lineage"]`` —
        a list of ``{"op": ..., **params}`` dicts, oldest first — so
        generator parameters recorded by synthetic sources survive
        shifts, windows, and merges into reports.
        """
        derived = dict(self.metadata)
        lineage = list(derived.get("lineage", ()))
        lineage.append({"op": op, **params})
        derived["lineage"] = lineage
        return derived

    def shift(self, offset: float, wrap: bool = False) -> "Workload":
        """Shift all arrivals later by ``offset`` seconds.

        With ``wrap=True`` the shift is circular over the workload duration,
        matching the paper's "Shift-1s" / "Shift-100s" multiplexing
        experiments: arrivals pushed past the end re-enter at the start, so
        the workload keeps its duration and rate.
        """
        if offset < 0:
            raise WorkloadError(f"offset must be non-negative, got {offset}")
        if not len(self) or offset == 0:
            return Workload(
                self._arrivals,
                name=self.name,
                metadata=self.metadata,
                sizes=self._sizes,
            )
        if not wrap:
            return Workload(
                self._arrivals + offset,
                name=f"{self.name}+{offset:g}s",
                metadata=self._derived_metadata("shift", offset=offset, wrap=False),
                sizes=self._sizes,
            )
        period = self.duration
        if period <= 0:
            return Workload(
                self._arrivals,
                name=self.name,
                metadata=self.metadata,
                sizes=self._sizes,
            )
        wrapped = np.mod(self._arrivals + offset, period)
        if self._sizes is None:
            shifted = np.sort(wrapped)
            sizes = None
        else:
            # Stable argsort keeps each demand glued to its arrival; for
            # unsized workloads plain sort is bit-identical and cheaper.
            order = np.argsort(wrapped, kind="stable")
            shifted = wrapped[order]
            sizes = self._sizes[order]
        return Workload(
            shifted,
            name=f"{self.name}~{offset:g}s",
            metadata=self._derived_metadata("shift", offset=offset, wrap=True),
            sizes=sizes,
        )

    def merge(self, *others: "Workload", name: str | None = None) -> "Workload":
        """Superpose this workload with ``others`` (multiplexed stream).

        The merged metadata records every part's name and metadata under
        a ``merge`` lineage entry, fixing the historical provenance loss
        where merge dropped all source metadata.
        """
        parts = [self] + list(others)
        arrays = [p._arrivals for p in parts]
        concatenated = np.concatenate(arrays)
        any_sized = any(p._sizes is not None for p in parts)
        if any_sized:
            demand_parts = [p.demands() for p in parts]
            order = np.argsort(concatenated, kind="stable")
            merged = concatenated[order]
            sizes = np.concatenate(demand_parts)[order]
        else:
            merged = np.sort(concatenated)
            sizes = None
        label = name or "+".join(p.name for p in parts)
        metadata = self._derived_metadata(
            "merge",
            parts=[{"name": p.name, "metadata": dict(p.metadata)} for p in parts],
        )
        return Workload(merged, name=label, metadata=metadata, sizes=sizes)

    def window(self, start: float, end: float) -> "Workload":
        """Restrict to arrivals in ``[start, end)``, re-based to time 0."""
        if end < start:
            raise WorkloadError(f"window end {end} before start {start}")
        mask = (self._arrivals >= start) & (self._arrivals < end)
        return Workload(
            self._arrivals[mask] - start,
            name=f"{self.name}[{start:g},{end:g})",
            metadata=self._derived_metadata("window", start=start, end=end),
            sizes=None if self._sizes is None else self._sizes[mask],
        )

    def scale_rate(self, factor: float) -> "Workload":
        """Speed the workload up (``factor > 1``) or slow it down.

        Arrival instants are divided by ``factor`` so the mean rate is
        multiplied by it; burst structure is preserved.
        """
        if factor <= 0:
            raise WorkloadError(f"factor must be positive, got {factor}")
        return Workload(
            self._arrivals / factor,
            name=f"{self.name}x{factor:g}",
            metadata=self._derived_metadata("scale_rate", factor=factor),
            sizes=self._sizes,
        )

    def head(self, n: int) -> "Workload":
        """First ``n`` requests."""
        return Workload(
            self._arrivals[:n],
            name=self.name,
            metadata=self._derived_metadata("head", n=n),
            sizes=None if self._sizes is None else self._sizes[:n],
        )

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------

    def describe(self, bin_width: float = 0.1) -> dict:
        """Summary statistics dictionary (used by reports and examples)."""
        summary = {
            "name": self.name,
            "requests": len(self),
            "duration_s": self.duration,
            "mean_rate_iops": self.mean_rate,
            "peak_rate_iops": self.peak_rate(bin_width),
            "peak_to_mean": self.peak_to_mean(bin_width),
        }
        if self._sizes is not None:
            summary["total_work"] = self.total_work
            summary["mean_demand"] = self.total_work / len(self) if len(self) else 0.0
        return summary
