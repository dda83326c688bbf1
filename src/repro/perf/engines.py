"""Execution-engine registry: scalar event loop vs columnar batch.

The kernel registry (:mod:`repro.perf.kernels`) swaps implementations of
the RTT admission recurrence; this registry swaps the *execution engine*
that :func:`repro.shaping.run_policy` uses to serve a workload:

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

Selection, highest priority first (mirroring ``REPRO_KERNEL``):

1. the ``engine=`` argument of :func:`repro.shaping.run_policy`,
2. :func:`set_engine` / :func:`use_engine` (programmatic),
3. the ``REPRO_ENGINE`` environment variable,
4. ``auto``.

The selection chain itself is one :class:`repro.core.registry.Registry`
instance — the same helper behind the kernel backends and the scheduling
policy factory — with ``auto`` declared as a virtual selector.

Parity of both fast paths with the event loop is certified by
:func:`repro.check.differential.engine_parity` (identical admitted sets,
bit-identical response samples, conservation ledger agreement) and
fuzzed continuously by ``repro-check --differential``.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..core.registry import Registry

#: Environment variable naming the engine ("scalar", "batch", or "auto").
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: The selection registry (``auto`` is a selection rule, not an engine).
REGISTRY: Registry[str] = Registry(
    "execution engine",
    env_var=ENGINE_ENV_VAR,
    default="auto",
    virtual=("auto",),
)
REGISTRY.register("scalar", "repro.sim.engine")
REGISTRY.register("batch", "repro.sim.batch")

#: Engines that exist (``auto`` is a selection rule, not an engine).
ENGINES = REGISTRY.names()


def available_engines() -> tuple[str, ...]:
    """Names of the execution engines usable in this environment."""
    return REGISTRY.names()


def resolve_engine(name: str | None = None) -> str:
    """Resolve a request to ``"scalar"``, ``"batch"``, or ``"auto"``.

    ``auto`` is returned as-is — whether it lands on the batch path, the
    heap-free loop or the event loop is a per-configuration
    decision made by :func:`repro.shaping.run_policy` (or
    :func:`repro.workload.closedloop.run_closed_loop`), not a
    process-wide one.
    """
    return REGISTRY.resolve(name)


def active_engine() -> str:
    """Resolved engine request the next :func:`run_policy` call will see."""
    return resolve_engine()


def set_engine(name: str | None) -> None:
    """Select an engine for the whole process (None restores auto)."""
    REGISTRY.set_override(name)


@contextmanager
def use_engine(name: str):
    """Temporarily select an engine (primarily for tests/benchmarks)."""
    with REGISTRY.use(name):
        yield
