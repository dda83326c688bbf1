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

The build also carries :func:`serve_closed`, the direct loop for a
closed-loop population under ``srpt``, ``nudge``, ``boost``, ``edf`` and
``splitfarm``, where :func:`serves_closed` says so.  Its arrivals
depend on its completions, so it keeps each thinking user in a heap and
draws every think pause and demand through that user's own numpy
generator, calling numpy's own C distributions: the source is compiled
against ``numpy/random/bitgen.h`` and linked with numpy's static
``libnpyrandom``.  Where that link fails the source is built without
the closed loop (:func:`closed_available` is False); the kernels and
the open loops never depend on it.  The cache tag covers numpy's
version and the library's hash, since NEP 19 lets the streams change
between numpy versions.

Everything degrades gracefully: no compiler, a failed compile, or an
unwritable cache directory simply mean :func:`available` returns False,
kernel ``auto`` falls back to the scalar backend and runs to the direct
loop.  Set ``REPRO_NATIVE_CACHE`` to relocate the
build cache (default ``~/.cache/repro-kernels``).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import os
import shutil
import subprocess
import tempfile

import numpy as np

from ..core.request import IOKind, QoSClass, Request
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

#ifdef REPRO_CLOSED
#include <limits.h>
#include <numpy/random/bitgen.h>

/* numpy's own distributions (numpy/random/lib/libnpyrandom.a): one draw
 * of Generator.exponential(scale) and of Generator.random(). */
double random_exponential(bitgen_t *bitgen_state, double scale);
double random_standard_uniform(bitgen_t *bitgen_state);

enum { CLOSED_SRPT = 0, CLOSED_NUDGE = 1, CLOSED_BOOST = 2, CLOSED_EDF = 3,
       CLOSED_SPLITFARM = 4 };

/* A closed loop's output columns, grown by doubling: per request in
 * submission order (its class 0, 1 or 2 as QoSClass numbers it, and the
 * side that served it), and per completion in completion order (the
 * response and the request's index). */
typedef struct {
    i64 n, cap;
    double *arrival, *demand, *deadline, *dispatch, *completion, *response;
    i64 *user, *order;
    unsigned char *klass, *side;
} closed_run;

void repro_closed_free(closed_run *run)
{
    free(run->arrival); free(run->demand); free(run->deadline);
    free(run->dispatch); free(run->completion); free(run->response);
    free(run->user); free(run->order); free(run->klass); free(run->side);
    run->n = run->cap = 0;
}

/* Doubles every column; returns 0, the columns intact, when it cannot. */
static int closed_grow(closed_run *run)
{
    i64 cap = run->cap ? run->cap << 1 : 4096;
#define GROW(column) do { \
        void *grown = realloc(run->column, cap * sizeof *run->column); \
        if (!grown) \
            return 0; \
        run->column = grown; \
    } while (0)
    GROW(arrival); GROW(demand); GROW(deadline); GROW(dispatch);
    GROW(completion); GROW(response); GROW(user); GROW(order);
    GROW(klass); GROW(side);
#undef GROW
    run->cap = cap;
    return 1;
}

/* A heap entry: its key and push number, the user or request it holds,
 * and a preempted request's remaining seconds (0: never preempted). */
typedef struct { double key; i64 seq, item; double rem; } keyed;

/* heapq's order on (key, push number) tuples. */
static int keyed_before(const keyed *a, const keyed *b)
{
    return a->key < b->key || (a->key == b->key && a->seq < b->seq);
}

static void heap_push(keyed *heap, i64 *len, keyed e)
{
    i64 i = (*len)++;
    while (i > 0) {
        i64 parent = (i - 1) >> 1;
        if (!keyed_before(&e, &heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

static keyed heap_pop(keyed *heap, i64 *len)
{
    keyed top = heap[0], last = heap[--*len];
    i64 i = 0, n = *len;
    for (;;) {
        i64 c = (i << 1) + 1;
        if (c >= n)
            break;
        if (c + 1 < n && keyed_before(&heap[c + 1], &heap[c]))
            c += 1;
        if (!keyed_before(&heap[c], &last))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = last;
    return top;
}

/* A FIFO slot: a request, and whether it took part in a Nudge swap. */
typedef struct { i64 req; int swapped; } slot;

/* The heap-free loop (repro/server/driver.py serve_direct) for a closed
 * loop under srpt, nudge, boost or edf on one server of rate `rate1`, or
 * splitfarm (SizeSplitFrontEnd.route classifies, then sends a request of
 * demand <= `size_threshold` to its small side of rate `rate1`, the
 * rest to its large side of rate `rate2`).  Must mirror, in the same
 * event order and operation for operation: ClosedLoopPopulation's
 * next_arrival and submit (with BimodalDemand's scalar draw when
 * `sized`, drawing through each user's own generator `streams[u]`),
 * OnlineRTTClassifier.classify and on_completion, SRPTScheduler,
 * NudgeScheduler, BoostScheduler, EDFScheduler, the slot-releasing FCFS
 * sides, ConstantRateModel.service_time, Server.preempt and
 * Request.met_deadline.  Every tolerance is an argument: Python owns
 * them.  At most n_users requests are outstanding, so every queue and
 * the users' heap fit in n_users slots.  Returns the completions, -1
 * when memory runs out, or -2 - k with *bad set when side k's service
 * time is not positive. */
i64 repro_serve_closed(
    void *const *streams, i64 n_users, double think_time, double horizon,
    i64 sized, double short_demand, double long_demand, double long_fraction,
    i64 policy, double rate1, double rate2, double srpt_rate,
    double small_threshold, double boost_scale, double size_threshold,
    i64 classified, double delta, i64 limit, i64 by_work, double work_limit,
    double edf_service, double edf_tolerance, double eps,
    double deadline_slack, closed_run *run, i64 *misses, i64 *preemptions,
    double *bad)
{
    i64 slots = 1;
    while (slots <= n_users)
        slots <<= 1;
    i64 mask = slots - 1;
    keyed *users = malloc(n_users * sizeof *users);
    keyed *heap = malloc(slots * sizeof *heap);
    slot *rings[2] = {malloc(slots * sizeof(slot)), malloc(slots * sizeof(slot))};
    if (!users || !heap || !rings[0] || !rings[1]) {
        free(users); free(heap); free(rings[0]); free(rings[1]);
        return -1;
    }
    i64 heads[2] = {0, 0}, tails[2] = {0, 0};
    i64 waiting = 0, queued = 0, pushes = 0, seq = 0, len_q1 = 0;
    double work_q1 = 0.0;
    double service[2] = {1.0 / rate1, 1.0 / rate2};
    int routed = policy == CLOSED_SPLITFARM;
    /* Each side's request in service (-1: idle) and its completion key,
     * (instant, dispatch number); an idle side's key sorts last.  The
     * loop serves side k, whose completion fires first: `busy` and `due`
     * are its. */
    i64 inflight[2] = {-1, -1}, number[2] = {LLONG_MAX, LLONG_MAX};
    double dues[2] = {INFINITY, INFINITY};
    i64 dispatches = 0, k = 0, busy = -1, done = 0, missed = 0, preempted = 0;
    i64 status = 0;
    double due = 0.0, now;
    /* Every user thinks from time 0, in id order. */
    for (i64 u = 0; u < n_users; ++u) {
        double at = 0.0 + random_exponential(streams[u], think_time);
        if (!(at >= horizon))
            heap_push(users, &waiting, (keyed){at, pushes++, u, 0.0});
    }
    double next_t = waiting ? users[0].key : INFINITY;
    for (;;) {
        int recheck = 0;
        if (busy >= 0 && due <= next_t) {
            /* Server._complete, then DeviceDriver._on_completion. */
            i64 r = busy;
            now = due;
            busy = -1;
            run->completion[r] = now;
            if (run->klass[r] == 1) {
                /* The side's on_completion releases the Q1 slot. */
                double left = work_q1 - run->demand[r];
                len_q1 -= 1;
                work_q1 = left > 0.0 ? left : 0.0;
                if (!(now <= run->deadline[r] + deadline_slack))
                    missed += 1;
            }
            run->response[done] = now - run->arrival[r];
            run->order[done++] = r;
            /* ClosedLoopSource._on_completion: the user thinks again. */
            i64 u = run->user[r];
            double at = now + random_exponential(streams[u], think_time);
            if (!(at >= horizon))
                heap_push(users, &waiting, (keyed){at, pushes++, u, 0.0});
            next_t = waiting ? users[0].key : INFINITY;
        } else if (waiting) {
            /* ClosedLoopSource._submit. */
            keyed top = heap_pop(users, &waiting);
            i64 u = top.item;
            now = top.key;
            next_t = waiting ? users[0].key : INFINITY;
            if (run->n == run->cap && !closed_grow(run)) {
                status = -1;
                break;
            }
            i64 r = run->n++;
            double d = 1.0;
            if (sized)
                d = random_standard_uniform(streams[u]) < long_fraction
                    ? long_demand : short_demand;
            run->arrival[r] = now;
            run->demand[r] = d;
            run->user[r] = u;
            run->klass[r] = 0;
            run->deadline[r] = 0.0;
            run->side[r] = 0;
            if (classified) {
                int admit = by_work ? work_q1 + d <= work_limit + eps : len_q1 < limit;
                if (admit) {
                    len_q1 += 1;
                    work_q1 += d;
                    run->klass[r] = 1;
                    run->deadline[r] = now + delta;
                } else {
                    run->klass[r] = 2;
                }
            }
            if (routed) {
                i64 side = d <= size_threshold ? 0 : 1;
                run->side[r] = side;
                if (side != k) {
                    k = side;
                    busy = inflight[k];
                    due = dues[k];
                }
            }
            /* DeviceDriver.on_arrival: the scheduler queues it. */
            if (policy == CLOSED_SRPT) {
                heap_push(heap, &queued, (keyed){d, seq++, r, 0.0});
                recheck = 1;
            } else if (policy == CLOSED_BOOST) {
                heap_push(heap, &queued, (keyed){now - boost_scale / d, seq++, r, 0.0});
            } else {
                i64 q = policy == CLOSED_EDF ? run->klass[r] != 1 : k;
                slot *ring = rings[q];
                slot *tail = &ring[(tails[q] - 1) & mask];
                /* Nudge: a small arrival swaps ahead of a large tail
                 * that never swapped. */
                if (policy == CLOSED_NUDGE && tails[q] > heads[q]
                    && d <= small_threshold
                    && !(run->demand[tail->req] <= small_threshold)
                    && !tail->swapped) {
                    ring[tails[q]++ & mask] = (slot){tail->req, 1};
                    *tail = (slot){r, 1};
                } else {
                    ring[tails[q]++ & mask] = (slot){r, 0};
                }
            }
        } else {
            break;
        }
        /* DeviceDriver._try_dispatch and, after an arrival, _maybe_preempt. */
        for (;;) {
            if (busy < 0) {
                i64 r = -1;
                double left = 0.0;
                if (policy == CLOSED_SRPT || policy == CLOSED_BOOST) {
                    if (queued) {
                        keyed e = heap_pop(heap, &queued);
                        r = e.item;
                        left = e.rem;
                    }
                } else {
                    i64 q = k;
                    if (policy == CLOSED_EDF) {
                        /* Q2 goes first while every queued Q1 request
                         * still meets its deadline behind it. */
                        int b1 = heads[0] < tails[0], b2 = heads[1] < tails[1];
                        int safe = b2;
                        if (b1 && b2) {
                            double cumulative = run->demand[rings[1][heads[1] & mask].req];
                            for (i64 i = heads[0]; i < tails[0]; ++i) {
                                i64 p = rings[0][i & mask].req;
                                cumulative += run->demand[p];
                                double finish = now + cumulative * edf_service;
                                if (finish > run->deadline[p] + edf_tolerance) {
                                    safe = 0;
                                    break;
                                }
                            }
                        }
                        q = safe ? 1 : 0;
                    }
                    if (heads[q] < tails[q])
                        r = rings[q][heads[q]++ & mask].req;
                }
                if (r < 0)
                    break;
                /* Server.dispatch: a preempted request resumes its
                 * remainder. */
                double duration = left > 0.0 ? left : run->demand[r] * service[k];
                if (duration <= 0.0) {
                    *bad = duration;
                    status = -2 - k;
                    break;
                }
                run->dispatch[r] = now;
                busy = r;
                due = now + duration;
            }
            if (!recheck)
                break;
            recheck = 0;
            double remaining = due - now;
            remaining = remaining > 0.0 ? remaining : 0.0;
            if (remaining <= 0.0 || !queued
                || !(heap[0].key < remaining * srpt_rate - eps))
                break;
            /* Server.preempt; SRPT re-queues it on its remaining work. */
            heap_push(heap, &queued, (keyed){remaining * srpt_rate, seq++, busy, remaining});
            busy = -1;
            preempted += 1;
        }
        if (status < 0)
            break;
        if (routed) {
            if (busy != inflight[k]) {
                /* Side k completed or dispatched: a dispatch's completion
                 * takes the next number. */
                inflight[k] = busy;
                dues[k] = busy < 0 ? INFINITY : due;
                number[k] = busy < 0 ? LLONG_MAX : dispatches;
                dispatches += 1;
            }
            i64 side = dues[1] < dues[0] || (dues[1] == dues[0] && number[1] < number[0]);
            if (side != k) {
                k = side;
                busy = inflight[k];
                due = dues[k];
            }
        }
    }
    free(users);
    free(heap);
    free(rings[0]);
    free(rings[1]);
    *misses = missed;
    *preemptions = preempted;
    return status < 0 ? status : done;
}
#endif
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


class _ClosedRun(ctypes.Structure):
    """The closed loop's output columns (``closed_run`` in the C source)."""

    _fields_ = [
        ("n", ctypes.c_longlong),
        ("cap", ctypes.c_longlong),
        *(
            (name, ctypes.POINTER(ctypes.c_double))
            for name in (
                "arrival", "demand", "deadline", "dispatch", "completion", "response"
            )
        ),
        ("user", ctypes.POINTER(ctypes.c_longlong)),
        ("order", ctypes.POINTER(ctypes.c_longlong)),
        ("klass", ctypes.POINTER(ctypes.c_ubyte)),
        ("side", ctypes.POINTER(ctypes.c_ubyte)),
    ]


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return os.path.join(xdg, "repro-kernels")


def _compile(compiler: str, flags: list[str], link: list[str], so_path: str) -> bool:
    cache = os.path.dirname(so_path)
    try:
        os.makedirs(cache, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache) as tmp:
            src = os.path.join(tmp, "rtt.c")
            out = os.path.join(tmp, "rtt.so")
            with open(src, "w", encoding="utf-8") as handle:
                handle.write(_C_SOURCE)
            subprocess.run(
                [compiler, *flags, "-o", out, src, *link, "-lm"],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(out, so_path)  # atomic vs concurrent builders
    except (OSError, subprocess.SubprocessError):
        return False
    return True


def _numpy_random() -> tuple[list[str], list[str], list[str]] | None:
    """How to build the closed loop against numpy's own distributions.

    Returns the compile flags, the link flags and what identifies the
    linked code (numpy's version and its static random library's hash:
    NEP 19 lets the streams change between versions), or ``None`` when
    the installed numpy ships no ``libnpyrandom.a``.
    """
    lib_dir = os.path.join(os.path.dirname(np.__file__), "random", "lib")
    try:
        with open(os.path.join(lib_dir, "libnpyrandom.a"), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None
    return (
        ["-DREPRO_CLOSED", f"-I{np.get_include()}"],
        [f"-L{lib_dir}", "-lnpyrandom"],
        [np.__version__, digest],
    )


def _build() -> ctypes.CDLL | None:
    compiler = next((c for c in _COMPILERS if shutil.which(c)), None)
    if compiler is None:
        return None
    # The source with the closed loop, numpy's random library linked,
    # first; where that link fails, the source without it.
    closed = _numpy_random()
    variants = ([closed] if closed is not None else []) + [([], [], [])]
    lib = None
    cache = _cache_dir()
    for (defines, link, linked), flags in itertools.product(variants, _FLAG_SETS):
        tag = hashlib.sha256(
            "\0".join([_C_SOURCE, compiler, *flags, *defines, *linked]).encode()
        ).hexdigest()[:16]
        so_path = os.path.join(cache, f"librepro_rtt_{tag}.so")
        if os.path.exists(so_path) or _compile(
            compiler, [*flags, *defines], link, so_path
        ):
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
    try:
        closed = lib.repro_serve_closed
    except AttributeError:  # built without numpy's random library
        return lib
    closed.argtypes = [
        ctypes.POINTER(ctypes.c_void_p), i64, dbl, dbl, i64, dbl, dbl, dbl,
        i64, dbl, dbl, dbl, dbl, dbl, dbl, i64, dbl, i64, i64, dbl, dbl, dbl,
        dbl, dbl, ctypes.POINTER(_ClosedRun), pi, pi, pd,
    ]
    closed.restype = i64
    lib.repro_closed_free.argtypes = [ctypes.POINTER(_ClosedRun)]
    lib.repro_closed_free.restype = None
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


def closed_available() -> bool:
    """True when the build carries the closed loop (:func:`serve_closed`).

    It does where numpy's static ``libnpyrandom`` linked; the kernels
    and the open loops never depend on it.
    """
    lib = _get_lib()
    return lib is not None and hasattr(lib, "repro_serve_closed")


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


#: The policies the closed loop (:func:`serve_closed`) runs, in its C
#: numbering.
CLOSED_POLICIES = ("srpt", "nudge", "boost", "edf", "splitfarm")

#: The QoS classes by the number the closed loop writes for them.
_CLASSES = np.array(sorted(QoSClass), dtype=object)

#: ``PyCapsule_GetPointer``, typed for a bit generator's capsule (a
#: private prototype: ``ctypes.pythonapi``'s own is shared).
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p
)(("PyCapsule_GetPointer", ctypes.pythonapi))


def _closed_demands(sampler) -> tuple[bool, float, float, float] | None:
    """How the closed loop draws ``sampler``'s demands, or ``None``.

    ``None`` issues unit demands.  A
    :class:`~repro.workload.sizes.BimodalDemand` (that exact type, with a
    plain number for its ``long_fraction``) whose ``short`` and ``long``
    lie in [:data:`~repro.units.MIN_SIZE`, :data:`~repro.units.MAX_SIZE`]
    is drawn as its scalar form draws it.  Any other sampler is not.
    """
    from ..workload.sizes import BimodalDemand

    if sampler is None:
        return False, 1.0, 1.0, 0.0
    if type(sampler) is not BimodalDemand or not isinstance(
        sampler.long_fraction, (int, float)
    ):
        return None
    short, long = float(sampler.short), float(sampler.long)
    if not (MIN_SIZE <= short <= MAX_SIZE and MIN_SIZE <= long <= MAX_SIZE):
        return None
    return True, short, long, float(sampler.long_fraction)


def serves_closed(policy: str, population) -> bool:
    """Whether the closed loop runs ``policy`` on ``population``.

    ``policy`` must be one of :data:`CLOSED_POLICIES`, the build must
    carry the closed loop (:func:`closed_available`), the population's
    demand sampler must be one it draws (:func:`_closed_demands`), and
    every user's stream a numpy ``Generator``, through whose bit
    generator it draws.
    """
    if policy not in CLOSED_POLICIES or not closed_available():
        return False
    if _closed_demands(population.demand_sampler) is None:
        return False
    return all(type(stream) is np.random.Generator for stream in population.streams)


def serve_closed(
    population, policy: str, sides, classifier=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Serve a closed-loop ``population`` under ``policy``, in C.

    ``policy`` is one of :data:`CLOSED_POLICIES` and
    :func:`serves_closed` holds.  ``sides`` are the
    :class:`~repro.server.driver.Side` s that
    :func:`repro.shaping.build_stack` builds for the direct loop: one
    server, or splitfarm's small and large sides.  ``classifier`` is the
    fresh :class:`~repro.sched.classifier.OnlineRTTClassifier` that
    edf's scheduler or splitfarm's front end holds (``None`` for the
    classifier-free policies).  The loop reads every rule's parameters
    off these objects: the side rates, srpt's ``service_rate``, nudge's
    ``small_threshold``, boost's ``scale``, edf's ``service_time`` and
    ``tie_tolerance``, the classifier's bounds and mode, and
    :data:`repro.server.sizesplit.THRESHOLD`.

    Each user's think pauses and demands are drawn through that user's
    own generator, under its lock, so every generator ends where the
    direct loop leaves it.  The submitted requests are appended to
    ``population.requests``, equal field for field to the direct loop's.
    Returns the responses in completion order, each one's class (its
    :class:`~repro.core.request.QoSClass` number) and side, the primary
    deadline misses and the preemptions: what
    :func:`repro.server.driver.serve_direct` collects from the same
    stack, bit for bit.  A non-positive service time raises the direct
    loop's :class:`~repro.exceptions.SimulationError`, naming the side.
    """
    from ..server.sizesplit import THRESHOLD

    lib = _get_lib()
    sized, short, long, fraction = _closed_demands(population.demand_sampler)
    (scheduler, model, _), *rest = sides
    streams = population.streams
    n_users = len(streams)
    pointers = (ctypes.c_void_p * n_users)(
        *(_capsule_pointer(s.bit_generator.capsule, b"BitGenerator") for s in streams)
    )
    classified = classifier is not None
    run = _ClosedRun()
    misses = ctypes.c_longlong(0)
    preemptions = ctypes.c_longlong(0)
    bad = ctypes.c_double(0.0)
    with contextlib.ExitStack() as held:
        # ctypes releases the GIL: no other thread may draw meanwhile.
        for stream in streams:
            held.enter_context(stream.bit_generator.lock)
        done = lib.repro_serve_closed(
            pointers,
            n_users,
            population.think_time,
            population.horizon,
            sized,
            short,
            long,
            fraction,
            CLOSED_POLICIES.index(policy),
            model.capacity,
            rest[0].model.capacity if rest else model.capacity,
            # Each policy's own parameters (0 where it has none).
            getattr(scheduler, "service_rate", 0.0),
            getattr(scheduler, "small_threshold", 0.0),
            getattr(scheduler, "scale", 0.0),
            THRESHOLD,
            classified,
            classifier.delta if classified else 0.0,
            # Occupancy stays below n_users, so a larger bound admits alike.
            min(classifier.limit, n_users) if classified else 0,
            classified and classifier.mode == "work",
            classifier.work_limit if classified else 0.0,
            getattr(scheduler, "service_time", 0.0),
            getattr(scheduler, "tie_tolerance", 0.0),
            EPS,
            DEADLINE_SLACK,
            ctypes.byref(run),
            ctypes.byref(misses),
            ctypes.byref(preemptions),
            ctypes.byref(bad),
        )
    try:
        if done == -1:
            raise MemoryError(f"{policy}: no memory for the native loop's columns")
        if done < -1:
            name = sides[-2 - done].name
            raise SimulationError(f"{name}: non-positive service time {bad.value}")
        n = run.n
        column = {
            name: np.ctypeslib.as_array(getattr(run, name), (n,))
            if n
            else np.empty(0, pointer._type_)
            for name, pointer in _ClosedRun._fields_[2:]
        }
        klass, order = column["klass"], column["order"][:done]
        deadlines = itertools.repeat(None)
        if classified:
            stamped = column["deadline"].astype(object)
            stamped[klass != QoSClass.PRIMARY] = None
            deadlines = stamped.tolist()
        # The loop writes `short` or `long` (1.0 when unsized): each
        # request takes that float itself, as the scalar draw returns it.
        demands = np.array([short, long], dtype=object).take(column["demand"] != short)
        base = len(population.requests)
        # Request's fields in their declared order; the untouched ones at
        # their defaults (size, lba, kind, then retries).
        fields = (
            column["arrival"].tolist(),
            range(base, base + n),
            itertools.repeat(0),
            itertools.repeat(0),
            itertools.repeat(IOKind.READ),
            column["user"].tolist(),
            _CLASSES[klass].tolist(),
            deadlines,
            column["dispatch"].tolist(),
            column["completion"].tolist(),
            itertools.repeat(0),
            demands.tolist(),
        )
        responses = column["response"][:done].copy()
        classes, where = klass[order], column["side"][order]
    finally:
        lib.repro_closed_free(ctypes.byref(run))
    population.requests.extend(map(Request, *fields))
    return responses, classes, where, misses.value, preemptions.value
