"""Columnar batch execution engine: the ``RunConfig(engine="batch")`` fast path.

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
counts, per-class masks, the check that refuses a non-positive service
time as the direct loop does — is vectorized numpy, and the run's
collectors adopt the response columns as they are, so their moments
fold as the event loop's do.  That is where the 10-60x end-to-end
speedup over the event loop comes from.  Parity is certified by
:func:`repro.check.differential.engine_parity` and fuzzed by
``repro-check --differential``.

``auto`` takes fcfs and split to the native loops of
:mod:`repro.perf.native` first; this engine serves them where those do
not build or the sizes leave their range, and wherever
``engine="batch"`` is forced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..units import count_within

#: Arrivals processed per sweep.  Each epoch converts one array slice to
#: a Python list for the sequential recurrence and hands the results
#: back to numpy, bounding peak Python-object population regardless of
#: trace length.
EPOCH = 65536

#: Policies with a columnar kernel.  The other single-server policies
#: (fairqueue, wf2q, drr, miser) interleave the classes through one
#: shared server with dynamic, state-dependent pick order, and ``edf``
#: re-sorts by live slack — none reduce to a statically-determined
#: Lindley recurrence.  ``auto`` tries the native loops
#: (:mod:`repro.perf.native`: fcfs, split, fairqueue, wf2q and miser),
#: then batch, then the heap-free loop
#: (:func:`repro.server.driver.serve_direct`), then the event loop
#: (:func:`repro.shaping.select_engine`).
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


def _service_times(demands: np.ndarray | None, n: int, capacity: float) -> np.ndarray:
    """Every request's ``d * (1/C)`` on a rate-``capacity`` server."""
    service = 1.0 / float(capacity)
    return np.full(n, service) if demands is None else demands * service


def _first_nonpositive(
    name: str,
    positions: np.ndarray,
    arrivals: np.ndarray,
    completions: np.ndarray,
    durations: np.ndarray,
) -> tuple | None:
    """Where one FIFO server first dispatches a non-positive service time.

    The columns are the server's, in its order; ``positions`` are its
    requests' places in the trace.  Request ``k`` is dispatched at the
    later of its arrival and the completion before it.  Returns
    ``((dispatch instant, trace position), name, service time)``, or
    ``None`` when every service time is positive.
    """
    bad = np.flatnonzero(durations <= 0)
    if not bad.size:
        return None
    k = int(bad[0])
    start = max(arrivals[k], completions[k - 1]) if k else arrivals[k]
    return (float(start), int(positions[k])), name, float(durations[k])


def _refuse_nonpositive(name: str, duration: float) -> None:
    """The direct loop's error for a non-positive service time."""
    raise SimulationError(f"{name}: non-positive service time {duration}")


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
    n = arrivals.size
    if policy == "fcfs":
        # One FIFO server dispatches in arrival order: the direct loop
        # refuses the first non-positive service time.
        durations = _service_times(demands, n, cmin + delta_c)
        bad = np.flatnonzero(durations <= 0)
        if bad.size:
            _refuse_nonpositive("fcfs", float(durations[bad[0]]))
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
        q1_times = _service_times(demands, n, cmin)
        q2_times = _service_times(demands, n, delta_c)
        if (q1_times <= 0).any() or (q2_times <= 0).any():
            # The direct loop refuses the earliest such dispatch, at one
            # instant the earlier arrival's, on whichever side it falls.
            q1, q2 = cols.admitted, ~cols.admitted
            found = [
                f
                for f in (
                    _first_nonpositive(
                        "primary", np.flatnonzero(q1), q1_arrivals,
                        cols.q1_completions, q1_times[q1],
                    ),
                    _first_nonpositive(
                        "overflow", np.flatnonzero(q2), arrivals[q2],
                        cols.q2_completions, q2_times[q2],
                    ),
                )
                if f is not None
            ]
            if found:
                _refuse_nonpositive(*min(found)[1:])
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
