"""Native (C, via the system compiler) RTT kernels and serve loops.

The RTT recurrence is a data-dependent scalar loop — the regime where
CPython interpreter overhead dominates by two orders of magnitude and
numpy cannot help directly.  This module carries a ~40-line C rendition
of the exact same double-precision expression tree as the scalar
backend, compiles it once with the system ``cc`` into a cached shared
object, and binds it through :mod:`ctypes`.  Because the operation order
is identical (and contraction into FMAs is disabled), the native kernels
are **bit-identical** to the pure-Python reference on every input.

The same build carries the native serve loops, the heap-free loop of
:func:`repro.server.driver.serve_direct` for an open loop under all four
of the paper's recombiners: :func:`serve_fifo` for ``fcfs`` on one
server and ``split`` (the classifier, then a FIFO server per class),
and :func:`serve_recombined` for one server under ``fairqueue`` (SFQ),
``wf2q`` (WF²Q+) and ``miser``.  They keep the direct loop's event
order (a completion fires before an arrival at its instant, so a Q1
completion due by an arrival releases its slot first; an idle server
selects once per event) and the float operations of the classifier in
both admission modes, the fair queue's tags and virtual time, Miser's
slack gate, the constant-rate service time ``d * (1/C)`` and the
deadline rule, and refuse a non-positive service time where the direct
loop does.  Their tolerances and sentinels are arguments, read from the
Python modules that own them.  Each returns its responses as one
float64 column, which the run's collectors adopt as their sample store.
``auto`` takes them first where :func:`serves` says so
(:func:`repro.shaping.select_engine`).

Everything degrades gracefully: no compiler, a failed compile, or an
unwritable cache directory simply mean :func:`available` returns False,
kernel ``auto`` falls back to the scalar backend and runs to the direct
loop.  Set ``REPRO_NATIVE_CACHE`` to relocate the
build cache (default ``~/.cache/repro-kernels``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from ..exceptions import SimulationError
from ..units import DEADLINE_SLACK, EPS, MAX_SIZE, MIN_SIZE

_C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>

typedef long long i64;

/* The deadline-form RTT admission rule, batch by batch.  Must mirror
 * repro/perf/scalar.py operation-for-operation: any re-ordering or FMA
 * contraction would break bit-parity with the Python reference. */

i64 repro_count_admitted(const double *t, const i64 *n, i64 nb,
                         double capacity, double delta, double eps)
{
    double service = 1.0 / capacity;
    double finish = 0.0;
    i64 admitted = 0;
    for (i64 i = 0; i < nb; ++i) {
        double ti = t[i];
        double base = finish > ti ? finish : ti;
        double room = floor((ti + delta - base) * capacity + eps);
        if (room > 0.0) {
            double ni = (double)n[i];
            double k = ni < room ? ni : room;
            admitted += (i64)k;
            finish = base + k * service;
        }
    }
    return admitted;
}

void repro_admitted_per_batch(const double *t, const i64 *n, i64 nb,
                              double capacity, double delta, double eps,
                              i64 *out)
{
    double service = 1.0 / capacity;
    double finish = 0.0;
    for (i64 i = 0; i < nb; ++i) {
        double ti = t[i];
        double base = finish > ti ? finish : ti;
        double room = floor((ti + delta - base) * capacity + eps);
        if (room > 0.0) {
            double ni = (double)n[i];
            double k = ni < room ? ni : room;
            out[i] = (i64)k;
            finish = base + k * service;
        } else {
            out[i] = 0;
        }
    }
}

void repro_count_admitted_sweep(const double *t, const i64 *n, i64 nb,
                                const double *caps, i64 nc,
                                double delta, double eps, i64 *out)
{
    for (i64 c = 0; c < nc; ++c)
        out[c] = repro_count_admitted(t, n, nb, caps[c], delta, eps);
}

/* The heap-free loop (repro/server/driver.py serve_direct) for an open
 * loop on one server under fairqueue (SFQ), wf2q (WF2Q+) or miser.  Must
 * mirror, in the same event order and operation for operation:
 * OnlineRTTClassifier.classify and on_completion, FairQueue.add and
 * select, MiserScheduler.select with initial_slack and
 * SlackTracker.min_slack, ConstantRateModel.service_time and
 * Request.met_deadline.  Every tolerance and sentinel is an argument:
 * Python owns them. */

enum { SERVE_SFQ = 0, SERVE_WF2Q = 1, SERVE_MISER = 2 };

/* A queued request: its index, and its start and finish tags (a fair
 * queue) or its stored slack in `start` (Miser's Q1). */
typedef struct { i64 req; double start, finish; } queued;

/* Returns the completions (n), -1 when the scratch cannot be allocated,
 * or -2 with *bad set when a service time is not positive. */
i64 repro_serve_recombined(
    const double *arrival, const double *size, i64 n, i64 policy,
    double capacity, double delta, i64 limit, i64 by_work,
    double work_limit, double max_queue,
    double w1, double w2, double total_weight,
    double eps, double deadline_slack, double eligibility_slack,
    double no_constraint,
    double *response, unsigned char *klass, i64 *misses, double *bad)
{
    /* Each queue is a FIFO on a ring of `slots`; the heads and tails only
     * grow.  Slots past the largest backlog are never written.  `low`
     * holds Q1 positions whose stored slacks rise from head to tail:
     * Miser's Q1 leaves in FIFO order, so its head is the minimum the
     * SlackTracker's heap would give. */
    i64 slots = 1;
    while (slots < n)
        slots <<= 1;
    i64 mask = slots - 1;
    queued *q1 = malloc(slots * sizeof *q1);
    queued *q2 = malloc(slots * sizeof *q2);
    i64 *low = malloc(slots * sizeof *low);
    if (!q1 || !q2 || !low) {
        free(q1); free(q2); free(low);
        return -1;
    }
    i64 h1 = 0, t1 = 0, h2 = 0, t2 = 0, lh = 0, lt = 0;
    double service = 1.0 / capacity;
    double step1 = 1.0 / w1, step2 = 1.0 / w2;
    i64 len_q1 = 0;
    double work_q1 = 0.0;
    double v = 0.0, max_finish = 0.0, last1 = 0.0, last2 = 0.0;
    double offset = 0.0;
    i64 next = 0, done = 0, missed = 0, cur = -1, status = 0;
    int cur_q1 = 0;
    double t = n > 0 ? arrival[0] : INFINITY, end = 0.0, now;
    for (;;) {
        if (cur >= 0 && end <= t) {
            /* Server._complete; the scheduler's on_completion. */
            now = end;
            if (cur_q1) {
                double left = work_q1 - (size ? size[cur] : 1.0);
                len_q1 -= 1;
                work_q1 = left > 0.0 ? left : 0.0;
                if (!(now <= arrival[cur] + delta + deadline_slack))
                    missed += 1;
            }
            response[done] = now - arrival[cur];
            klass[done] = cur_q1 ? 1 : 2;
            done += 1;
            cur = -1;
        } else if (next < n) {
            /* WorkloadSource._fire; the scheduler's on_arrival. */
            i64 r = next++;
            double d = size ? size[r] : 1.0;
            now = t;
            t = next < n ? arrival[next] : INFINITY;
            int admit = by_work ? work_q1 + d <= work_limit + eps : len_q1 < limit;
            if (admit) {
                len_q1 += 1;
                work_q1 += d;
            }
            if (policy == SERVE_MISER) {
                if (admit) {
                    double s = floor(max_queue - work_q1 + eps);
                    double stored = (s > 0.0 ? s : 0.0) + offset;
                    while (lt > lh && q1[low[(lt - 1) & mask] & mask].start > stored)
                        lt -= 1;
                    low[lt++ & mask] = t1;
                    q1[t1++ & mask] = (queued){r, stored, 0.0};
                } else {
                    q2[t2++ & mask] = (queued){r, 0.0, 0.0};
                }
            } else {
                double *last = admit ? &last1 : &last2;
                double start = *last > v ? *last : v;
                double finish = start + (admit ? step1 : step2);
                *last = finish;
                if (finish > max_finish)
                    max_finish = finish;
                if (admit)
                    q1[t1++ & mask] = (queued){r, start, finish};
                else
                    q2[t2++ & mask] = (queued){r, start, finish};
            }
        } else {
            break;
        }
        if (cur >= 0)
            continue;
        /* An idle server selects once per event: pick 1 (Q1), 2 or none. */
        int pick = 0, b1 = h1 < t1, b2 = h2 < t2;
        queued *e1 = &q1[h1 & mask], *e2 = &q2[h2 & mask];
        if (policy == SERVE_MISER) {
            if (b2) {
                double d2 = size ? size[e2->req] : 1.0;
                double slack = lh < lt ? q1[low[lh & mask] & mask].start - offset
                                       : no_constraint;
                if (slack + eps >= d2) {
                    offset += d2;
                    pick = 2;
                }
            }
            if (!pick && b1) {
                pick = 1;
                if (lh < lt && low[lh & mask] == h1)
                    lh += 1;
            } else if (!pick && b2) {
                pick = 2;
            }
        } else if (!b1 && !b2) {
            /* End of a busy period: v rises to the largest finish tag. */
            if (max_finish > v)
                v = max_finish;
        } else if (policy == SERVE_SFQ) {
            /* Minimum (start, finish); flow 1 wins ties. */
            pick = !b1 ? 2 : !b2 ? 1
                 : (e2->start == e1->start ? e2->finish < e1->finish
                                           : e2->start < e1->start) ? 2 : 1;
            double s = pick == 1 ? e1->start : e2->start;
            if (s > v)
                v = s;
        } else {
            /* The minimum finish tag among eligible heads. */
            double lo = b1 ? e1->start : e2->start;
            if (b1 && b2 && e2->start < lo)
                lo = e2->start;
            if (lo > v)
                v = lo;
            int ok1 = b1 && e1->start <= v + eligibility_slack;
            int ok2 = b2 && e2->start <= v + eligibility_slack;
            pick = ok2 && (!ok1 || e2->finish < e1->finish) ? 2 : 1;
        }
        if (!pick)
            continue;
        queued e = pick == 1 ? q1[h1++ & mask] : q2[h2++ & mask];
        if (policy == SERVE_WF2Q)
            v += (e.finish - e.start) * (pick == 1 ? w1 : w2) / total_weight;
        /* Server.dispatch. */
        double duration = (size ? size[e.req] : 1.0) * service;
        if (duration <= 0.0) {
            *bad = duration;
            status = -2;
            break;
        }
        cur = e.req;
        cur_q1 = pick == 1;
        end = now + duration;
    }
    free(q1);
    free(q2);
    free(low);
    *misses = missed;
    return status < 0 ? status : done;
}

/* The heap-free loop for an open loop under fcfs (one FIFO server of rate
 * `rate1`) or split (OnlineRTTClassifier.classify sends Q1 to a FIFO
 * server of rate `rate1` and Q2 to one of rate `rate2`).  Must mirror,
 * operation for operation: the classifier's rule and on_completion,
 * ConstantRateModel.service_time and Request.met_deadline.  A FIFO server
 * starts a request at the later of its arrival and the finish before it
 * (a completion fires before an arrival at its instant), and the Q1
 * completions due by an arrival release their slots before it is
 * classified, in completion order.  Responses are written in completion
 * order: all of them under fcfs; split's Q1 side, then its Q2 side, as
 * the sides merge.  Returns the Q1 completions (the first server's under
 * fcfs), -1 when the scratch cannot be allocated, or -2 (first server)
 * or -3 (second) with *bad set when a service time is not positive: the
 * one the direct loop dispatches first, at one instant the earlier
 * arrival's. */
i64 repro_serve_fifo(
    const double *arrival, const double *size, i64 n, i64 split,
    double rate1, double rate2, double delta, i64 limit, i64 by_work,
    double work_limit, double eps, double deadline_slack,
    double *response, i64 *misses, double *bad)
{
    /* Split's unreleased Q1 finishes and demands, a FIFO on a ring of
     * `slots`: at most `limit` wait under count admission, at most n
     * under work admission. */
    typedef struct { double finish, d; } held;
    i64 slots = 1, cap = by_work ? n : limit + 1;
    while (slots < cap)
        slots <<= 1;
    i64 mask = slots - 1;
    held *q1 = NULL;
    if (split && !(q1 = malloc(slots * sizeof *q1)))
        return -1;
    double s1 = 1.0 / rate1, s2 = 1.0 / rate2;
    double f1 = 0.0, f2 = 0.0, work_q1 = 0.0, refused = 0.0;
    i64 n1 = 0, n2 = 0, head = 0, len_q1 = 0, missed = 0, status = 0;
    for (i64 i = 0; i < n; ++i) {
        double t = arrival[i], d = size ? size[i] : 1.0;
        /* No later arrival dispatches before the refused request. */
        if (status < 0 && t > refused)
            break;
        int first = 1;
        if (split) {
            while (head < n1 && q1[head & mask].finish <= t) {
                double left = work_q1 - q1[head++ & mask].d;
                len_q1 -= 1;
                work_q1 = left > 0.0 ? left : 0.0;
            }
            first = by_work ? work_q1 + d <= work_limit + eps : len_q1 < limit;
        }
        double duration = d * (first ? s1 : s2);
        double start = first ? (f1 > t ? f1 : t) : (f2 > t ? f2 : t);
        if (duration <= 0.0 && (status == 0 || start < refused)) {
            *bad = duration;
            refused = start;
            status = first ? -2 : -3;
        }
        if (first) {
            f1 = start + duration;
            response[n1] = f1 - t;
            if (split) {
                len_q1 += 1;
                work_q1 += d;
                q1[n1 & mask] = (held){f1, d};
                if (!(f1 <= t + delta + deadline_slack))
                    missed += 1;
            }
            n1 += 1;
        } else {
            /* Q2's responses fill the column from its end, reversed. */
            f2 = start + duration;
            response[n - 1 - n2++] = f2 - t;
        }
    }
    for (i64 lo = n1, hi = n - 1; status == 0 && lo < hi; ++lo, --hi) {
        double swap = response[lo];
        response[lo] = response[hi];
        response[hi] = swap;
    }
    free(q1);
    *misses = missed;
    return status < 0 ? status : n1;
}
"""

#: Compiler candidates, first hit wins.
_COMPILERS = ("cc", "gcc", "clang")

#: Flag sets to try, best first.  ``-march=native`` lets ``floor`` inline
#: to a single rounding instruction; ``-ffp-contract=off`` keeps the
#: expression tree bit-identical to the Python reference either way.
_FLAG_SETS = (
    ["-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off"],
    ["-O2", "-fPIC", "-shared", "-ffp-contract=off"],
)

_lib = None
_load_attempted = False


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(xdg, "repro-kernels")


def _compile(compiler: str, flags: list[str], so_path: str) -> bool:
    cache = os.path.dirname(so_path)
    try:
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = os.path.join(tmp, "rtt.c")
            out = os.path.join(tmp, "rtt.so")
            with open(src, "w", encoding="utf-8") as handle:
                handle.write(_C_SOURCE)
            subprocess.run(
                [compiler, *flags, "-o", out, src, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(out, so_path)  # atomic vs concurrent builders
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def _build() -> ctypes.CDLL | None:
    compiler = next((c for c in _COMPILERS if shutil.which(c)), None)
    if compiler is None:
        return None
    lib = None
    cache = _cache_dir()
    for flags in _FLAG_SETS:
        tag = hashlib.sha256(
            "\0".join([_C_SOURCE, compiler, *flags]).encode()
        ).hexdigest()[:16]
        so_path = os.path.join(cache, f"librepro_rtt_{tag}.so")
        if os.path.exists(so_path) or _compile(compiler, flags, so_path):
            try:
                lib = ctypes.CDLL(so_path)
                break
            except OSError:
                continue
    if lib is None:
        return None
    i64 = ctypes.c_longlong
    dbl = ctypes.c_double
    pd = ctypes.POINTER(ctypes.c_double)
    pi = ctypes.POINTER(ctypes.c_longlong)
    lib.repro_count_admitted.argtypes = [pd, pi, i64, dbl, dbl, dbl]
    lib.repro_count_admitted.restype = i64
    lib.repro_admitted_per_batch.argtypes = [pd, pi, i64, dbl, dbl, dbl, pi]
    lib.repro_admitted_per_batch.restype = None
    lib.repro_count_admitted_sweep.argtypes = [pd, pi, i64, pd, i64, dbl, dbl, pi]
    lib.repro_count_admitted_sweep.restype = None
    lib.repro_serve_recombined.argtypes = [
        pd, pd, i64, i64, dbl, dbl, i64, i64, dbl, dbl, dbl, dbl, dbl,
        dbl, dbl, dbl, dbl, pd, ctypes.POINTER(ctypes.c_ubyte), pi, pd,
    ]
    lib.repro_serve_recombined.restype = i64
    lib.repro_serve_fifo.argtypes = [
        pd, pd, i64, i64, dbl, dbl, dbl, i64, i64, dbl, dbl, dbl, pd, pi, pd,
    ]
    lib.repro_serve_fifo.restype = i64
    return lib


def _get_lib() -> ctypes.CDLL | None:
    global _lib, _load_attempted
    if not _load_attempted:
        _load_attempted = True
        _lib = _build()
    return _lib


def available() -> bool:
    """True when the compiled kernels loaded (builds on first call)."""
    return _get_lib() is not None


def _as_c_arrays(instants, counts):
    t = np.ascontiguousarray(instants, dtype=np.float64)
    n = np.ascontiguousarray(counts, dtype=np.int64)
    pd = ctypes.POINTER(ctypes.c_double)
    pi = ctypes.POINTER(ctypes.c_longlong)
    return t, n, t.ctypes.data_as(pd), n.ctypes.data_as(pi)


def count_admitted(instants, counts, capacity: float, delta: float) -> int:
    lib = _get_lib()
    t, n, tp, np_ = _as_c_arrays(instants, counts)
    if t.size == 0:
        return 0
    return int(lib.repro_count_admitted(tp, np_, t.size, capacity, delta, EPS))


def admitted_per_batch(instants, counts, capacity: float, delta: float) -> np.ndarray:
    lib = _get_lib()
    t, n, tp, np_ = _as_c_arrays(instants, counts)
    out = np.zeros(t.size, dtype=np.int64)
    if t.size:
        lib.repro_admitted_per_batch(
            tp, np_, t.size, capacity, delta, EPS,
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong)),
        )
    return out


def count_admitted_sweep(instants, counts, capacities, delta: float) -> np.ndarray:
    lib = _get_lib()
    t, n, tp, np_ = _as_c_arrays(instants, counts)
    caps = np.ascontiguousarray(capacities, dtype=np.float64)
    out = np.zeros(caps.size, dtype=np.int64)
    if t.size and caps.size:
        lib.repro_count_admitted_sweep(
            tp, np_, t.size,
            caps.ctypes.data_as(ctypes.POINTER(ctypes.c_double)), caps.size,
            delta, EPS,
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_longlong)),
        )
    return out


#: The policies the FIFO loop (:func:`serve_fifo`) runs.
FIFO_POLICIES = ("fcfs", "split")
#: The policies the recombined loop (:func:`serve_recombined`) runs, in
#: its C numbering.
RECOMBINED_POLICIES = ("fairqueue", "wf2q", "miser")
#: Every policy a native loop serves.
SERVE_POLICIES = FIFO_POLICIES + RECOMBINED_POLICIES


def serves(policy: str, sizes: np.ndarray | None) -> bool:
    """Whether a native loop runs ``policy`` on an open loop.

    ``policy`` must be one of :data:`SERVE_POLICIES`, the build must have
    succeeded, and the workload's ``sizes`` must be unit (``None``) or
    within [:data:`~repro.units.MIN_SIZE`, :data:`~repro.units.MAX_SIZE`],
    where the direct loop raises nothing the C loops would have to copy.
    """
    if policy not in SERVE_POLICIES or not available():
        return False
    return sizes is None or not sizes.size or bool(
        MIN_SIZE <= sizes.min() and sizes.max() <= MAX_SIZE
    )


def _columns(arrivals, sizes):
    """The arrival and size columns as C sees them (``None``: unit sizes)."""
    t = np.ascontiguousarray(arrivals, dtype=np.float64)
    d = None if sizes is None else np.ascontiguousarray(sizes, dtype=np.float64)
    if t.ndim != 1 or (d is not None and d.shape != t.shape):
        raise ValueError("arrivals and sizes must be one column of equal length")
    pd = ctypes.POINTER(ctypes.c_double)
    return t, d, t.ctypes.data_as(pd), None if d is None else d.ctypes.data_as(pd)


def serve_fifo(
    arrivals: np.ndarray,
    sizes: np.ndarray | None,
    servers: list[tuple[float, str]],
    classifier=None,
) -> tuple[np.ndarray, int, int]:
    """Serve an open loop on FIFO servers, in C.

    ``servers`` are ``(capacity, name)`` pairs: fcfs's one server, or
    split's primary and overflow sides, whose fresh
    :class:`~repro.sched.classifier.OnlineRTTClassifier` ``classifier``
    gives the bound, work budget and ``delta`` the loop admits by.
    Returns the responses in the order the direct loop's ``overall``
    holds them (split's Q1 side, then its Q2 side), how many lead from
    the first server, and the primary deadline misses: what
    :func:`repro.server.driver.serve_direct` collects from the same
    stack, bit for bit.  A non-positive service time raises the direct
    loop's :class:`~repro.exceptions.SimulationError`, naming the server.
    """
    lib = _get_lib()
    t, d, tp, dp = _columns(arrivals, sizes)
    split = classifier is not None
    (rate1, name1), *rest = servers
    rate2, name2 = rest[0] if rest else (rate1, name1)
    responses = np.empty(t.size, dtype=np.float64)
    misses = ctypes.c_longlong(0)
    bad = ctypes.c_double(0.0)
    first = lib.repro_serve_fifo(
        tp,
        dp,
        t.size,
        split,
        rate1,
        rate2,
        classifier.delta if split else 0.0,
        # Occupancy stays below n, so a larger bound admits alike.
        min(classifier.limit, t.size) if split else 0,
        split and classifier.mode == "work",
        classifier.work_limit if split else 0.0,
        EPS,
        DEADLINE_SLACK,
        responses.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        ctypes.byref(misses),
        ctypes.byref(bad),
    )
    if first == -1:
        raise MemoryError(f"{name1}: no memory for the native loop's queues")
    if first < -1:
        name = name1 if first == -2 else name2
        raise SimulationError(f"{name}: non-positive service time {bad.value}")
    return responses, first, misses.value


def serve_recombined(
    arrivals: np.ndarray,
    sizes: np.ndarray | None,
    policy: str,
    capacity: float,
    weights: tuple[float, float],
    classifier,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Serve an open loop on one rate-``capacity`` server, in C.

    ``policy`` is one of :data:`RECOMBINED_POLICIES`; ``weights`` are its
    fair queue's ``(Q1, Q2)`` flow weights (unused by miser), and
    ``classifier`` is a fresh
    :class:`~repro.sched.classifier.OnlineRTTClassifier` whose bound,
    work budget, ``maxQ1`` and ``delta`` the loop admits by.  Returns
    the responses in completion order, each one's class (1 for ``Q1``,
    2 for ``Q2``) and the primary deadline misses: what
    :func:`repro.server.driver.serve_direct` collects from the same
    stack, bit for bit.
    """
    from ..core.slack import no_constraint
    from ..sched.fair import ELIGIBILITY_SLACK

    lib = _get_lib()
    t, d, tp, dp = _columns(arrivals, sizes)
    n = t.size
    responses = np.empty(n, dtype=np.float64)
    classes = np.empty(n, dtype=np.uint8)
    misses = ctypes.c_longlong(0)
    bad = ctypes.c_double(0.0)
    done = lib.repro_serve_recombined(
        tp,
        dp,
        n,
        RECOMBINED_POLICIES.index(policy),
        capacity,
        classifier.delta,
        # Occupancy stays below n, so a larger bound admits alike.
        min(classifier.limit, n),
        classifier.mode == "work",
        classifier.work_limit,
        classifier.max_queue,
        *weights,
        sum(weights),
        EPS,
        DEADLINE_SLACK,
        ELIGIBILITY_SLACK,
        no_constraint(),
        responses.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        classes.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
        ctypes.byref(misses),
        ctypes.byref(bad),
    )
    if done == -1:
        raise MemoryError(f"{policy}: no memory for the native loop's queues")
    if done == -2:
        raise SimulationError(f"{policy}: non-positive service time {bad.value}")
    return responses, classes, misses.value
