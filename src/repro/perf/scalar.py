"""Pure-Python reference kernels (the original per-batch loops).

These are the semantics the faster backends must reproduce: the
deadline-form RTT admission rule from :mod:`repro.core.rtt`, processed
batch-by-batch with double-precision arithmetic and the
:data:`repro.units.EPS` floor tolerance.  The native backend replays the exact same sequence of
floating-point operations (and is therefore bit-identical); the numpy
backend is allowed to reassociate sums inside provably-safe stretches,
which can only matter for knife-edge ties far finer than ``EPS``.
"""

from __future__ import annotations

import math

import numpy as np

from ..units import EPS


def _as_iteration_lists(instants, counts):
    """Coerce the batched representation to plain lists for the loop.

    Iterating numpy arrays yields numpy scalars whose arithmetic is
    several times slower than built-in floats, so the scalar backend
    converts up front (one vectorized pass) when handed arrays.
    """
    if isinstance(instants, np.ndarray):
        instants = instants.tolist()
    if isinstance(counts, np.ndarray):
        counts = counts.tolist()
    return instants, counts


def count_admitted(instants, counts, capacity: float, delta: float) -> int:
    """Admitted-request count over the batched ``(a_i, n_i)`` stream."""
    instants, counts = _as_iteration_lists(instants, counts)
    service = 1.0 / capacity
    admitted = 0
    finish = 0.0  # completion instant of the last admitted request
    eps = EPS
    floor = math.floor
    for t, n in zip(instants, counts):
        base = finish if finish > t else t
        room = floor((t + delta - base) * capacity + eps)
        if room > 0:
            k = n if n < room else room
            admitted += k
            finish = base + k * service
    return admitted


def admitted_per_batch(instants, counts, capacity: float, delta: float) -> np.ndarray:
    """Per-batch admitted counts ``k_i`` (the mask-building primitive)."""
    instants, counts = _as_iteration_lists(instants, counts)
    out = np.zeros(len(instants), dtype=np.int64)
    service = 1.0 / capacity
    finish = 0.0
    eps = EPS
    floor = math.floor
    for i, (t, n) in enumerate(zip(instants, counts)):
        base = finish if finish > t else t
        room = floor((t + delta - base) * capacity + eps)
        if room > 0:
            k = n if n < room else room
            out[i] = k
            finish = base + k * service
    return out


def count_admitted_sweep(instants, counts, capacities, delta: float) -> np.ndarray:
    """Admitted counts at each candidate capacity (one loop per capacity)."""
    instants, counts = _as_iteration_lists(instants, counts)
    return np.array(
        [count_admitted(instants, counts, float(c), delta) for c in capacities],
        dtype=np.int64,
    )
