"""Performance layer: interchangeable RTT kernel backends.

The capacity planner evaluates the RTT admission recurrence once per
bisection candidate, which makes :func:`count_admitted` the hottest loop
in the library.  This package provides two implementations — ``scalar``
(reference) and ``native`` (compiled C, bit-identical to scalar) — plus
a multi-capacity sweep kernel used to prefill the planner's bisection
cache.  Every kernel takes ``backend=``; the default ``auto`` runs
``native`` when it compiles and ``scalar`` otherwise.

See :mod:`repro.perf.kernels` for the dispatch rule and
``benchmarks/bench_kernels.py`` (or ``make bench-json``) for measured
speedups on the bundled traces.

The package also names the *execution engines*
(:mod:`repro.perf.engines`): ``RunConfig(engine="scalar"|"auto")``
selects between the discrete-event loop and the fast paths — the
native serve loops of :mod:`repro.perf.native` and the heap-free loop —
for one :func:`repro.shaping.run_policy` simulation; see
``benchmarks/bench_engine.py`` / ``BENCH_engine.json``.
"""

from .engines import ENGINES, active_engine
from .kernels import (
    KernelBackend,
    active_backend,
    admitted_per_batch,
    available_backends,
    count_admitted,
    count_admitted_sweep,
)

__all__ = [
    "ENGINES",
    "KernelBackend",
    "active_backend",
    "active_engine",
    "admitted_per_batch",
    "available_backends",
    "count_admitted",
    "count_admitted_sweep",
]
