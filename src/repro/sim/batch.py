"""Columnar batch execution engine: the ``REPRO_ENGINE=batch`` fast path.

The scalar engine (:mod:`repro.sim.engine`) pays one heapq push/pop and
one Python ``Request`` object per arrival and per completion.  For the
policies whose single-server dynamics reduce to a Lindley-style
recurrence — FCFS on one server, and Split's FCFS-per-queue pair — the
whole simulation is determined by the arrival column alone, so this
module executes it columnar: struct-of-arrays storage (numpy arrays for
arrival, class, completion — no per-request objects), an epoch-batched
sweep that processes :data:`EPOCH`-sized runs of arrivals per pass, and
vectorized assembly of responses, deadlines, and statistics.

Bit-exactness contract
----------------------
The scalar engine is the reference; the chaos harness and the golden
corpus pin its outputs *exactly*, so the fast path must not drift — not
even by one ulp.  The closed-form Lindley solution
(``s*(k+1) + cummax(a_j - s*j)``) reassociates float additions and does
drift, so the recurrences here run as tight sequential Python loops that
replay the event engine's float operations in the same order:

* service completion: ``base = finish if finish > t else t`` then
  ``finish = base + s`` — exactly ``Server.dispatch`` followed by
  ``schedule_after`` (a completion at ``t`` fires before an arrival at
  ``t`` because ``PRIORITY_COMPLETION < PRIORITY_ARRIVAL``, so an
  arrival finding ``finish == t`` sees an idle server);
* Split admission: the classifier admits iff ``len_q1 < limit`` where
  ``len_q1`` counts admitted-but-unfinished requests.  Q1 finish times
  are strictly increasing, so occupancy at an arrival instant ``t`` is
  ``count - (# finishes <= t)`` and admission reduces to a ring-buffer
  test against the finish ``limit`` positions back (O(1) per arrival,
  no event queue).

Everything *around* the recurrences — response times, deadline-miss
counts, per-class masks, statistics ingestion — is vectorized numpy,
which is where the 10-60x end-to-end speedup comes from.  Parity is
certified by :func:`repro.check.differential.engine_parity` and fuzzed
by ``repro-check --differential``.

The streaming entry points (:func:`fcfs_stream`,
:func:`split_stream`) consume an iterator of arrival chunks and keep
only O(:data:`EPOCH`) state, so multi-hour traces aggregate in O(1)
memory.  :func:`farm_fcfs_completions` extends the same recurrence to
k-server farms by decomposing FCFS-on-k-equal-servers into k independent
Lindley recursions over the residue classes ``i mod k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ..exceptions import ConfigurationError
from ..units import count_within
from .stats import OnlineStats

#: Arrivals processed per sweep.  Each epoch converts one array slice to
#: a Python list for the sequential recurrence and hands the results
#: back to numpy, bounding peak Python-object population regardless of
#: trace length.
EPOCH = 65536

#: Policies with a columnar kernel.  The other single-server policies
#: (fairqueue, wf2q, drr, miser) interleave the classes through one
#: shared server with dynamic, state-dependent pick order, and ``edf``
#: re-sorts by live slack — none reduce to a statically-determined
#: Lindley recurrence, so ``auto`` serves them on the heap-free loop
#: (:func:`repro.server.driver.serve_direct`) instead.
SUPPORTED_POLICIES = ("fcfs", "split")


def supports(
    policy: str,
    record_rates: float | None = None,
    metrics=None,
    sample_interval: float | None = None,
    admission: str = "count",
    aqm: str | None = None,
) -> tuple[bool, str]:
    """Whether the batch engine can run this configuration, and why not.

    Eligibility mirrors what the columnar kernels can express: a
    Lindley-reducible policy with no observability attached (rate
    recording, metrics registry, and periodic samplers all hook the
    event loop per-event, which the batch engine does not have).  The
    fault plane (crash injection, retry) never reaches ``run_policy``
    without a registry-bearing harness, so it is excluded transitively.
    Sized workloads are eligible under count-bound admission (the
    Lindley recurrences generalize to per-request demands); work-bound
    admission tracks fractional outstanding work the ring-buffer test
    cannot express, so the batch engine never takes it.
    """
    if policy not in SUPPORTED_POLICIES:
        return False, f"policy {policy!r} does not reduce to a Lindley recurrence"
    if record_rates is not None:
        return False, "rate recording hooks per-completion events"
    if metrics is not None:
        return False, "a metrics registry hooks per-event instrumentation"
    if sample_interval is not None:
        return False, "periodic samplers tick on the event loop"
    if admission != "count":
        return False, "work-bound admission needs the classifier's work ledger"
    if aqm is not None:
        return False, "an AQM window gates dispatch per-event at the driver"
    return True, "eligible"


def _check_arrivals(arrivals: np.ndarray) -> np.ndarray:
    arrivals = np.ascontiguousarray(arrivals, dtype=np.float64)
    if arrivals.ndim != 1:
        raise ConfigurationError("arrivals must be one-dimensional")
    if arrivals.size and float(arrivals[0]) < 0.0:
        raise ConfigurationError(
            f"negative arrival time {float(arrivals[0])}"
        )
    return arrivals


def _admission_limit(cmin: float, delta: float) -> int:
    """The classifier's ``maxQ1`` bound, read off the real classifier.

    Instantiating :class:`~repro.sched.classifier.OnlineRTTClassifier`
    (rather than calling :func:`repro.units.q1_limit` here) keeps a
    single source of truth: any change — or injected bug — in the
    classifier's bound is replayed identically by both engines.
    Imported lazily to keep :mod:`repro.sim` importable before
    :mod:`repro.sched`.
    """
    from ..sched.classifier import OnlineRTTClassifier

    return OnlineRTTClassifier(cmin, delta).limit


def _check_demands(demands, n: int) -> np.ndarray | None:
    """Validate an optional demand column (``None`` means unit demands)."""
    if demands is None:
        return None
    demands = np.ascontiguousarray(demands, dtype=np.float64)
    if demands.ndim != 1:
        raise ConfigurationError("demands must be one-dimensional")
    if demands.size != n:
        raise ConfigurationError(
            f"demands length {demands.size} does not match {n} arrivals"
        )
    if demands.size and float(demands.min()) <= 0.0:
        raise ConfigurationError("demands must be positive")
    return demands


def _serve_chunk(chunk: list, service: float, finish: float) -> tuple[list, float]:
    """FCFS-serve one epoch of arrivals; returns (finish times, carry).

    This is the bit-exact replay of the event engine's dispatch
    arithmetic (see module docstring); ``finish`` carries across epochs.
    """
    out = [0.0] * len(chunk)
    for i, t in enumerate(chunk):
        base = finish if finish > t else t
        finish = base + service
        out[i] = finish
    return out, finish


def _serve_chunk_sized(
    chunk: list, demands: list, service: float, finish: float
) -> tuple[list, float]:
    """Sized variant of :func:`_serve_chunk`: per-request ``d * (1/C)``.

    ``d * service`` replays ``ConstantRateModel.service_time`` exactly
    (the event engine computes ``request.service_demand * (1.0 / C)``),
    so sized batch runs keep the bit-exactness contract too.
    """
    out = [0.0] * len(chunk)
    for i, t in enumerate(chunk):
        base = finish if finish > t else t
        finish = base + demands[i] * service
        out[i] = finish
    return out, finish


def fcfs_completions(
    arrivals: np.ndarray, capacity: float, demands: np.ndarray | None = None
) -> np.ndarray:
    """Completion instants of an FCFS constant-rate server (columnar).

    Bit-identical to running the arrivals through ``DeviceDriver`` +
    ``constant_rate_server`` on the scalar engine; completion order
    equals arrival order under FCFS, so index ``i`` is request ``i``.
    ``demands`` optionally gives per-request service demands (``None``
    is the unit-cost model).
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    arrivals = _check_arrivals(arrivals)
    demands = _check_demands(demands, arrivals.size)
    service = 1.0 / float(capacity)
    completions = np.empty(arrivals.size, dtype=np.float64)
    finish = 0.0
    for start in range(0, arrivals.size, EPOCH):
        chunk = arrivals[start:start + EPOCH].tolist()
        if demands is None:
            served, finish = _serve_chunk(chunk, service, finish)
        else:
            dchunk = demands[start:start + EPOCH].tolist()
            served, finish = _serve_chunk_sized(chunk, dchunk, service, finish)
        completions[start:start + len(served)] = served
    return completions


@dataclass(frozen=True)
class SplitColumns:
    """Struct-of-arrays outcome of one columnar Split run.

    ``admitted[i]`` is True when arrival ``i`` was admitted to ``Q1``;
    ``q1_completions`` aligns with ``arrivals[admitted]`` and
    ``q2_completions`` with ``arrivals[~admitted]``, both in FCFS
    (arrival) order — which is also completion order per queue.
    """

    admitted: np.ndarray
    q1_completions: np.ndarray
    q2_completions: np.ndarray
    limit: int


def split_columns(
    arrivals: np.ndarray,
    cmin: float,
    delta_c: float,
    delta: float,
    demands: np.ndarray | None = None,
) -> SplitColumns:
    """Columnar Split run: RTT admission + two dedicated FCFS servers.

    Replays ``SplitSystem`` exactly: the classifier admits iff the
    number of outstanding ``Q1`` requests is below
    ``q1_limit(cmin, delta)``, where a ``Q1`` completion at the
    arrival's own instant has already released its slot (completions
    fire first at a tie).  Admitted requests are served FCFS at rate
    ``cmin``, the rest FCFS at rate ``delta_c``.  ``demands`` gives
    per-request service demands; the ring-buffer occupancy test stays
    valid because ``Q1`` finishes remain strictly increasing for any
    positive demands.  (Work-bound admission is scalar-only — see
    :func:`supports`.)
    """
    if delta_c <= 0:
        raise ConfigurationError(
            f"Split needs a positive overflow capacity, got {delta_c}"
        )
    arrivals = _check_arrivals(arrivals)
    demands = _check_demands(demands, arrivals.size)
    limit = _admission_limit(cmin, delta)
    s1 = 1.0 / float(cmin)
    n = arrivals.size
    flags = bytearray(n)
    q1_fin: list[float] = []
    if limit > 0:
        append = q1_fin.append
        count = 0
        finish = 0.0
        pos = 0
        dlist = None
        for start in range(0, n, EPOCH):
            if demands is not None:
                dlist = demands[start:start + EPOCH].tolist()
            for i, t in enumerate(arrivals[start:start + EPOCH].tolist()):
                # Occupancy below the bound iff fewer than ``limit``
                # admitted requests are still unfinished at ``t``: the
                # finish ``limit`` positions back has cleared (<= t
                # because a completion at t fires before an arrival at
                # t), or fewer than ``limit`` were ever admitted.
                if count < limit or q1_fin[count - limit] <= t:
                    base = finish if finish > t else t
                    finish = base + s1 if dlist is None else base + dlist[i] * s1
                    append(finish)
                    count += 1
                    flags[pos] = 1
                pos += 1
    admitted = np.frombuffer(bytes(flags), dtype=np.uint8).astype(bool)
    q1_completions = np.asarray(q1_fin, dtype=np.float64)
    q2_demands = None if demands is None else demands[~admitted]
    q2_completions = fcfs_completions(arrivals[~admitted], delta_c, q2_demands)
    return SplitColumns(
        admitted=admitted,
        q1_completions=q1_completions,
        q2_completions=q2_completions,
        limit=limit,
    )


@dataclass(frozen=True)
class BatchRun:
    """Columnar equivalent of one ``run_policy`` simulation.

    Response arrays are ordered the way the scalar engine's collectors
    ingest samples (completion order), so a collector filled from them
    is bit-identical to its event-driven counterpart.
    """

    policy: str
    #: Response times in the scalar engine's ``overall`` sample order.
    overall: np.ndarray
    #: Per-class responses (empty under FCFS, which classifies nothing).
    primary: np.ndarray
    overflow: np.ndarray
    #: Primary completions that missed ``arrival + delta``
    #: (:func:`repro.units.met_deadline`).
    primary_misses: int
    #: Boolean admission mask over arrival indices (all-False for FCFS).
    admitted: np.ndarray


def run_batch(
    arrivals: np.ndarray,
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
    demands: np.ndarray | None = None,
) -> BatchRun:
    """Run one eligible policy configuration on the batch engine.

    ``repro.shaping.run_policy`` calls this and repackages the arrays
    into its normal ``RunResult``; tests and benchmarks may call
    it directly for array-level access.  ``demands`` optionally sizes
    each request (``None`` is the unit-cost model).
    """
    if cmin <= 0 or delta_c < 0 or delta <= 0:
        raise ConfigurationError(
            f"bad configuration: cmin={cmin}, delta_c={delta_c}, delta={delta}"
        )
    arrivals = _check_arrivals(arrivals)
    demands = _check_demands(demands, arrivals.size)
    if policy == "fcfs":
        completions = fcfs_completions(arrivals, cmin + delta_c, demands)
        overall = completions - arrivals
        empty = np.empty(0, dtype=np.float64)
        return BatchRun(
            policy=policy,
            overall=overall,
            primary=empty,
            overflow=empty,
            primary_misses=0,
            admitted=np.zeros(arrivals.size, dtype=bool),
        )
    if policy == "split":
        cols = split_columns(arrivals, cmin, delta_c, delta, demands)
        q1_arrivals = arrivals[cols.admitted]
        primary = cols.q1_completions - q1_arrivals
        overflow = cols.q2_completions - arrivals[~cols.admitted]
        # Request.met_deadline, on the completion form.
        misses = q1_arrivals.size - count_within(
            cols.q1_completions, q1_arrivals + delta
        )
        # SplitSystem.overall concatenates the primary driver's samples
        # before the overflow driver's (not time-interleaved).
        overall = np.concatenate((primary, overflow))
        return BatchRun(
            policy=policy,
            overall=overall,
            primary=primary,
            overflow=overflow,
            primary_misses=misses,
            admitted=cols.admitted,
        )
    raise ConfigurationError(
        f"policy {policy!r} has no batch kernel; supported: {SUPPORTED_POLICIES}"
    )


# ----------------------------------------------------------------------
# Streaming (O(1)-memory) aggregation
# ----------------------------------------------------------------------


@dataclass
class StreamSummary:
    """One-pass aggregate of a streamed columnar run."""

    stats: OnlineStats
    #: Completions whose response is within ``bound``
    #: (:func:`repro.units.met_deadline`); 0 when no bound.
    within: int = 0
    bound: float | None = None

    @property
    def count(self) -> int:
        return self.stats.count

    @property
    def fraction_within(self) -> float:
        """Deadline compliance; NaN when nothing completed."""
        if self.stats.count == 0:
            return float("nan")
        return self.within / self.stats.count


def _ingest(summary: StreamSummary, responses: np.ndarray) -> None:
    summary.stats.add_array(responses)
    if summary.bound is not None and responses.size:
        summary.within += count_within(responses, summary.bound)


def fcfs_stream(
    chunks: Iterable[np.ndarray], capacity: float, bound: float | None = None
) -> StreamSummary:
    """FCFS-serve an arrival stream chunk by chunk in O(chunk) memory.

    ``chunks`` yields consecutive slices of one non-decreasing arrival
    sequence; only the running server state and Welford moments are
    retained, so arbitrarily long traces aggregate without ever holding
    the full columns.
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    service = 1.0 / float(capacity)
    summary = StreamSummary(stats=OnlineStats(), bound=bound)
    finish = 0.0
    for chunk in chunks:
        chunk = _check_arrivals(chunk)
        served, finish = _serve_chunk(chunk.tolist(), service, finish)
        _ingest(summary, np.asarray(served, dtype=np.float64) - chunk)
    return summary


def split_stream(
    chunks: Iterable[np.ndarray],
    cmin: float,
    delta_c: float,
    delta: float,
    bound: float | None = None,
) -> tuple[StreamSummary, StreamSummary]:
    """Streamed Split run; returns ``(q1_summary, q2_summary)``.

    Same recurrences as :func:`split_columns`, but the ``Q1`` finish
    ring keeps only the last ``limit`` entries and per-chunk columns are
    released after ingestion — O(limit + chunk) memory.
    """
    if delta_c <= 0:
        raise ConfigurationError(
            f"Split needs a positive overflow capacity, got {delta_c}"
        )
    limit = _admission_limit(cmin, delta)
    s1 = 1.0 / float(cmin)
    s2 = 1.0 / float(delta_c)
    q1 = StreamSummary(stats=OnlineStats(), bound=bound)
    q2 = StreamSummary(stats=OnlineStats(), bound=bound)
    ring = [0.0] * limit  # last ``limit`` Q1 finishes, cyclic by count
    count = 0
    f1 = 0.0
    f2 = 0.0
    for chunk in chunks:
        chunk = _check_arrivals(chunk)
        q1_t: list[float] = []
        q1_f: list[float] = []
        q2_t: list[float] = []
        q2_f: list[float] = []
        for t in chunk.tolist():
            if limit > 0 and (count < limit or ring[count % limit] <= t):
                base = f1 if f1 > t else t
                f1 = base + s1
                ring[count % limit] = f1
                count += 1
                q1_t.append(t)
                q1_f.append(f1)
            else:
                base = f2 if f2 > t else t
                f2 = base + s2
                q2_t.append(t)
                q2_f.append(f2)
        _ingest(q1, np.asarray(q1_f) - np.asarray(q1_t))
        _ingest(q2, np.asarray(q2_f) - np.asarray(q2_t))
    return q1, q2


def chunked(arrivals: np.ndarray, size: int = EPOCH) -> Iterator[np.ndarray]:
    """Slice an arrival column into stream chunks (testing convenience)."""
    if size <= 0:
        raise ConfigurationError(f"chunk size must be positive, got {size}")
    for start in range(0, len(arrivals), size):
        yield arrivals[start:start + size]


# ----------------------------------------------------------------------
# Server farms
# ----------------------------------------------------------------------


def farm_fcfs_completions(
    arrivals: np.ndarray, units: int, total_capacity: float
) -> np.ndarray:
    """Completion instants of an FCFS farm of ``units`` equal servers.

    With deterministic equal service ``s = units / total_capacity``,
    departures of an FCFS ``k``-server queue leave in arrival order and
    request ``i`` starts service exactly when it has arrived *and* the
    ``i-k``-th departure has freed a unit: ``D_i = max(t_i, D_{i-k}) +
    s``.  That k-lagged recurrence couples index ``i`` only with ``i -
    k``, so the farm decomposes into ``units`` independent single-server
    recurrences over the residue classes ``i mod units`` — each replayed
    with the same bit-exact arithmetic as :func:`fcfs_completions`.
    Matches ``constant_rate_farm`` driven by ``DeviceDriver`` on the
    scalar engine.
    """
    if units <= 0:
        raise ConfigurationError(f"units must be positive, got {units}")
    if total_capacity <= 0:
        raise ConfigurationError(
            f"capacity must be positive, got {total_capacity}"
        )
    arrivals = _check_arrivals(arrivals)
    per_unit = total_capacity / units  # constant_rate_farm's split
    service = 1.0 / per_unit
    completions = np.empty(arrivals.size, dtype=np.float64)
    for unit in range(min(units, arrivals.size)):
        lane = arrivals[unit::units]
        served = np.empty(lane.size, dtype=np.float64)
        finish = 0.0
        for start in range(0, lane.size, EPOCH):
            chunk = lane[start:start + EPOCH].tolist()
            out, finish = _serve_chunk(chunk, service, finish)
            served[start:start + len(out)] = out
        completions[unit::units] = served
    return completions
