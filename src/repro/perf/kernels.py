"""Kernel backends and dispatch.

Two interchangeable implementations of the RTT hot-path kernels:

``scalar``
    The original pure-Python per-batch loop (reference semantics).
``native``
    A C rendition compiled on demand with the system compiler,
    bit-identical to ``scalar`` (:mod:`repro.perf.native`).  Only
    offered when a compiler is present and the build succeeds.

Every kernel takes a ``backend`` argument.  ``None`` (the default) and
``"auto"`` mean ``native`` when it compiles and ``scalar`` otherwise;
``"scalar"`` or ``"native"`` names one, as the kernel parity check
(:func:`repro.check.differential.kernel_parity`), the kernel tests and
``benchmarks/bench_kernels.py`` do.  Nothing else selects a backend.

Every kernel takes the batched ``(instants, counts)`` workload
representation (:meth:`repro.core.workload.Workload.arrival_counts`),
as plain sequences or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.registry import Registry
from ..exceptions import ConfigurationError
from . import native, scalar


@dataclass(frozen=True)
class KernelBackend:
    """One implementation of the RTT kernel trio."""

    name: str
    count: Callable
    per_batch: Callable
    sweep: Callable


#: The backends by name.
REGISTRY: Registry[KernelBackend] = Registry("kernel backend")
REGISTRY.register(
    "scalar",
    KernelBackend(
        "scalar",
        scalar.count_admitted,
        scalar.admitted_per_batch,
        scalar.count_admitted_sweep,
    ),
)
REGISTRY.register(
    "native",
    KernelBackend(
        "native",
        native.count_admitted,
        native.admitted_per_batch,
        native.count_admitted_sweep,
    ),
)


def available_backends() -> tuple[str, ...]:
    """Names of the backends usable in this environment."""
    return ("scalar", "native") if native.available() else ("scalar",)


def _resolve(name: str | None = None) -> KernelBackend:
    if name is None or name == "auto":
        name = "native" if native.available() else "scalar"
    elif name == "native" and not native.available():
        raise ConfigurationError(
            "native kernel backend requested but no working C compiler "
            "was found (use backend='scalar' or install cc/gcc/clang)"
        )
    return REGISTRY.get(name)


def active_backend() -> str:
    """Name of the backend ``auto`` runs: ``native`` or ``scalar``."""
    return _resolve().name


def _validate(capacity: float, delta: float) -> None:
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")


def count_admitted(
    instants, counts, capacity: float, delta: float, backend: str | None = None
) -> int:
    """Requests RTT admits to Q1 over the batched stream."""
    _validate(capacity, delta)
    return _resolve(backend).count(instants, counts, capacity, delta)


def admitted_per_batch(
    instants, counts, capacity: float, delta: float, backend: str | None = None
) -> np.ndarray:
    """Admitted count ``k_i`` for every batch (mask-building primitive)."""
    _validate(capacity, delta)
    return _resolve(backend).per_batch(instants, counts, capacity, delta)


def count_admitted_sweep(
    instants, counts, capacities, delta: float, backend: str | None = None
) -> np.ndarray:
    """Admitted counts at many candidate capacities in one call.

    The native backend runs the whole sweep inside one C call; the
    scalar one makes one kernel pass per capacity.  Capacities need not
    be sorted; the result aligns with the input order.
    """
    _validate(1.0, delta)  # delta only; capacities checked below
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.size and caps.min() <= 0:
        raise ConfigurationError("capacities must be positive")
    return _resolve(backend).sweep(instants, counts, caps, delta)
