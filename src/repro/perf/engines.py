"""Execution engines: scalar event loop vs columnar batch.

The kernel backends (:mod:`repro.perf.kernels`) are implementations of
the RTT admission recurrence; the *execution engine* is the path
:func:`repro.shaping.run_policy` serves a workload on:

``scalar``
    The discrete-event simulation loop (:mod:`repro.sim.engine`) — one
    heapq event per arrival/completion, one ``Request`` object per
    arrival.  Reference semantics; always applicable.
``batch``
    The columnar fast path (:mod:`repro.sim.batch`) — struct-of-arrays
    storage and sequential Lindley recurrences that replay the event
    engine's float arithmetic bit-for-bit, with numpy for everything
    around them.  Only applicable to configurations whose dynamics
    reduce to the Lindley form (see :func:`repro.sim.batch.supports`);
    requesting it for an ineligible configuration is an error.
``auto``
    The first path that qualifies, per configuration: batch; then the
    heap-free loop (:func:`repro.server.driver.serve_direct`) for every
    other run with no rate recording, metrics, sampler or in-flight
    window — a single-server policy on one server, ``split`` and
    ``splitfarm`` on their front end's two single-unit sides; then the
    event loop.  The default.  Closed-loop populations
    (:func:`repro.workload.closedloop.run_closed_loop`) share the same
    run body (:func:`repro.shaping.serve_feed`), so they take the same
    loop under the same condition; only ``batch`` is refused for them.
    The direct loop is not an engine name: nothing needs to force it,
    and ``scalar`` against ``auto`` is its A/B.  Results record the path
    taken in ``RunResult.engine`` (``"scalar"``, ``"batch"`` or
    ``"direct"``; a closed loop's is never ``"batch"``).

A run names its engine in ``RunConfig.engine`` (``None`` means
``auto``), which :class:`~repro.shaping.RunConfig` validates; nothing
else selects one.

Parity of both fast paths with the event loop is certified by
:func:`repro.check.differential.engine_parity` (identical admitted sets,
bit-identical response samples, conservation ledger agreement) and
fuzzed continuously by ``repro-check --differential``.
"""

from __future__ import annotations

#: Engines a run may name (``auto`` is a selection rule, not an engine).
ENGINES = ("scalar", "batch")


def active_engine() -> str:
    """The engine a run with ``RunConfig.engine=None`` asks for: ``auto``."""
    return "auto"
