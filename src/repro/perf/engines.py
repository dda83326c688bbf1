"""Execution engines: the event loop, and ``auto``'s choice of fast path.

The kernel backends (:mod:`repro.perf.kernels`) are implementations of
the RTT admission recurrence; the *execution engine* is the path
:func:`repro.shaping.run_policy` serves a workload on:

``scalar``
    The discrete-event simulation loop (:mod:`repro.sim.engine`) — one
    heapq event per arrival/completion, one ``Request`` object per
    arrival.  Reference semantics; always applicable.
``auto``
    The first path that qualifies, per configuration
    (:func:`repro.shaping.select_engine`), for a run with no rate
    recording, metrics, sampler or in-flight window: the native loops
    (:mod:`repro.perf.native`, C renditions of the heap-free loop) for
    an open loop under ``fcfs``, ``split``, ``fairqueue``, ``wf2q`` or
    ``miser`` in either admission mode, whose sizes are unit or within
    [:data:`~repro.units.MIN_SIZE`, :data:`~repro.units.MAX_SIZE`], where
    the C code builds; then the heap-free loop
    (:func:`repro.server.driver.serve_direct`) for every other such run
    — a single-server policy on one server, ``split`` and
    ``splitfarm`` on their front end's two single-unit sides.  Any run
    with one of those attached takes the event loop.  The default.
    Closed-loop populations
    (:func:`repro.workload.closedloop.run_closed_loop`) share the same
    run body (:func:`repro.shaping.serve_feed`): under the same
    condition, a population under ``srpt``, ``nudge``, ``boost``,
    ``edf`` or ``splitfarm`` with unit demands or an in-range
    :class:`~repro.workload.sizes.BimodalDemand` takes the native
    closed loop (:func:`repro.perf.native.serve_closed`) where the build
    linked numpy's ``libnpyrandom``, and every other one the direct
    loop.  Neither the native nor the
    direct loop is an engine name: nothing needs to force them, and
    ``scalar`` against ``auto`` is their A/B.  Results record the path
    taken in ``RunResult.engine`` (``"scalar"``, ``"native"`` or
    ``"direct"``).

The native loops mirror, in the direct loop's event order and with FMA
contraction off, :class:`~repro.sched.classifier.OnlineRTTClassifier`
in both admission modes, FIFO service on one server or on Split's two
sides, :class:`~repro.sched.fair.FairQueue`'s SFQ and WF²Q+ tags,
:class:`~repro.sched.miser.MiserScheduler`'s slack gate,
:class:`~repro.server.constant_rate.ConstantRateModel`'s service time
and :func:`repro.units.met_deadline`.  Their response column becomes
the collectors' sample store as it is
(:meth:`~repro.sim.stats.ResponseTimeCollector.adopting`).  A policy
keeps them only while they beat the direct loop, the path they replace,
at least 5x at 10^5 requests (``BENCH_engine.json``'s ``native`` rows;
the CI floor ``MIN_QUICK_SPEEDUP``).  The native closed loop also
mirrors :class:`~repro.sched.sized.SRPTScheduler`'s preemption,
Nudge's swap, Boost's key, :class:`~repro.sched.edf.EDFScheduler`'s
deferral and the SPLIT farm's routing, and draws through each user's
own generator; both it and the direct loop build every ``Request``, so
it is held to 2.5x over the direct loop (``closed_native`` rows,
``MIN_QUICK_CLOSED_SPEEDUP``).

A run names its engine in ``RunConfig.engine`` (``None`` means
``auto``), which :class:`~repro.shaping.RunConfig` validates; nothing
else selects one.

Parity of every fast path with the event loop is certified by
:func:`repro.check.differential.engine_parity` (bit-identical response
samples per class, primary misses and completion counts) on the path
``auto`` takes each policy to, and fuzzed continuously by
``repro-check --differential``; run without a C compiler on ``PATH``,
the same command certifies the direct loop for every policy.
"""

from __future__ import annotations

#: Engines a run may name (``auto`` is a selection rule, not an engine).
ENGINES = ("scalar",)


def active_engine() -> str:
    """The engine a run with ``RunConfig.engine=None`` asks for: ``auto``."""
    return "auto"
