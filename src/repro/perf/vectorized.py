"""Numpy-vectorized RTT kernels (safe-run compression).

The RTT recurrence is sequential — each batch's admission depends on the
finish instant left by the previous one — so it cannot be replayed as a
single array expression.  What *can* be vectorized is deciding, ahead of
time, which batches cannot possibly be clamped:

Two facts bound the finish state ``phi_j`` after batch ``j`` without
running the recurrence:

* the admission rule never fills past the batch's own deadline, so
  ``phi_j <= t_j + delta`` (the *ceiling* invariant), and
* clamping only removes work, so ``phi_j`` is dominated by the
  admit-everything Lindley trajectory
  ``L_j = S_j + cummax(t - S_prev)`` (``S`` = cumulative service
  demand), computable in one vectorized pass.

Batch ``j`` is therefore **provably safe** — fully admitted from any
reachable state — whenever the bound ``w = min(t + delta, L)`` on its
entry backlog leaves room for all ``n_j`` of its requests::

    n_j + margin <= floor((t_j + delta - max(w_{j-1}, t_j)) * C + eps)

(``margin`` is a full service slot plus a capacity-scaled guard, which
dwarfs every source of floating-point slop in the bound).
Inside a maximal run of safe batches every admission decision is known,
and the exit state follows the Lindley recursion
``finish = max(finish, t_l) + n_l * service``, whose end value collapses
to the closed form ``max(finish_in + R, E)`` with per-run constants

    R = sum_l n_l * service                (total service demand)
    E = max_l (t_l + suffix service sum)   (latest busy-period anchor)

computed for *all* runs in a handful of ``cumsum``/``reduceat`` passes.
The Python-level walk then touches only run summaries and the unsafe
batches (processed with the exact scalar expression tree, so decisions
on unsafe batches are bit-identical to the scalar backend given the same
entry state).

Accuracy: within safe runs sums are reassociated, so the exit ``finish``
can differ from the scalar backend's by ~1e-11 relative.  Runs are
chunked at ``_CHUNK`` batches to keep that error orders of magnitude
below the ``EPS`` floor tolerance; a decision could only ever flip for a
workload engineered to sit within ~1e-10 of the eps-shifted admission
boundary.  The native backend is bit-exact; use it (or ``scalar``) if
that matters.
"""

from __future__ import annotations

import math

import numpy as np

from ..units import EPS, q1_limit
from . import scalar

#: Maximum batches per safe-run chunk.  Bounds the reassociation error of
#: the prefix-sum closed form (~chunk * ulp(total service time)) far
#: below the EPS admission tolerance.
_CHUNK = 2048

#: Below this fraction of provably-safe batches the compressed walk
#: cannot beat the plain loop, so the kernels delegate to the scalar
#: backend instead of paying the segment machinery on top of it.
_MIN_SAFE_FRACTION = 0.25


def _as_arrays(instants, counts) -> tuple[np.ndarray, np.ndarray]:
    t = np.ascontiguousarray(instants, dtype=np.float64)
    n = np.ascontiguousarray(counts, dtype=np.int64)
    return t, n


def _safety(t: np.ndarray, n: np.ndarray, capacity: float, delta: float):
    """Mark the provably-safe batches for one ``(C, delta)``.

    Returns ``(safe, s, cum_s)`` with the per-batch service demand and
    its prefix sum (reused by the segment constants).
    """
    service = 1.0 / capacity
    s = n * service  # per-batch service demand, one rounding per batch
    cum_s = np.cumsum(s)
    # Admit-everything Lindley bound: L_j = S_j + cummax(t_j - S_{j-1}).
    # Clamping only sheds work, so the true finish state never exceeds
    # it; the deadline rule additionally caps it at the batch's ceiling.
    # Built with in-place ops — the pure memory traffic of these passes
    # is what bounds the kernel's fixed cost.
    w = np.subtract(t, cum_s)
    w += s  # t_j - S_{j-1}
    np.maximum.accumulate(w, out=w)
    w += cum_s  # the Lindley trajectory L
    ceiling = t + delta
    np.minimum(w, ceiling, out=w)
    room = np.empty(t.size, dtype=np.float64)
    room[0] = q1_limit(capacity, delta)  # entry state is idle
    if t.size > 1:
        scratch = np.maximum(w[:-1], t[1:])  # worst entry base per batch
        np.subtract(ceiling[1:], scratch, out=scratch)
        scratch *= capacity
        scratch += EPS
        np.floor(scratch, out=room[1:])
    # One full service slot of margin, plus a capacity-proportional guard,
    # dominates the float slop of both the bound and the walked state.
    room -= 1.0 + 1e-6 * capacity
    safe = n <= room
    return safe, s, cum_s


def _segments(t: np.ndarray, safe: np.ndarray, s: np.ndarray, cum_s: np.ndarray):
    """Compress the safety mask into an alternating segment walk.

    Returns ``(starts, ends, seg_safe, R, E)`` where segments
    ``[starts[i], ends[i])`` alternate between safe runs (``seg_safe``)
    and unsafe stretches, and ``R``/``E`` are the safe-run transfer
    constants (meaningless for unsafe segments).
    """
    nb = safe.size
    # Segment boundaries: safety flips plus chunk splits of long runs.
    flips = np.flatnonzero(safe[1:] != safe[:-1]) + 1
    bounds = np.concatenate(
        (np.array([0], dtype=np.int64), flips, np.array([nb], dtype=np.int64))
    )  # already sorted
    gaps = np.diff(bounds)
    if gaps.size and gaps.max() > _CHUNK:
        extra = [
            np.arange(a + _CHUNK, b, _CHUNK, dtype=np.int64)
            for a, b in zip(bounds[:-1], bounds[1:])
            if b - a > _CHUNK
        ]
        bounds = np.unique(np.concatenate([bounds] + extra))
    starts, ends = bounds[:-1], bounds[1:]

    # Chain anchor h_l = t_l + s_l - S_l; run max + S_end gives the
    # latest-busy-period candidate E of the Lindley closed form.
    h = t + s - cum_s
    seg_end_s = cum_s[ends - 1]
    E = np.maximum.reduceat(h, starts) + seg_end_s
    seg_start_s = np.where(starts > 0, cum_s[starts - 1], 0.0)
    R = seg_end_s - seg_start_s
    return starts, ends, safe[starts], R, E


def admitted_per_batch(instants, counts, capacity: float, delta: float) -> np.ndarray:
    """Per-batch admitted counts ``k_i`` — vectorized backend."""
    t, n = _as_arrays(instants, counts)
    if t.size == 0:
        return np.zeros(0, dtype=np.int64)
    k_out = n.copy()  # safe batches admit fully; unsafe overwritten below
    _walk(t, n, capacity, delta, k_out)
    return k_out


def count_admitted(instants, counts, capacity: float, delta: float) -> int:
    """Admitted-request count — vectorized backend."""
    t, n = _as_arrays(instants, counts)
    if t.size == 0:
        return 0
    return _walk(t, n, capacity, delta, None)


def count_admitted_sweep(instants, counts, capacities, delta: float) -> np.ndarray:
    """Admitted counts for many candidate capacities (shared arrays)."""
    t, n = _as_arrays(instants, counts)
    if t.size == 0:
        return np.zeros(len(capacities), dtype=np.int64)
    return np.array(
        [_walk(t, n, float(c), delta, None) for c in capacities], dtype=np.int64
    )


def _walk(
    t: np.ndarray,
    n: np.ndarray,
    capacity: float,
    delta: float,
    k_out: np.ndarray | None,
) -> int:
    """Run the compressed recurrence; fill ``k_out`` per batch if given.

    Returns the total admitted count.
    """
    safe, s, cum_s = _safety(t, n, capacity, delta)
    covered = int(np.count_nonzero(safe))
    if covered < _MIN_SAFE_FRACTION * t.size:
        # Compression will not pay for itself; run the reference loop.
        if k_out is None:
            return scalar.count_admitted(t, n, capacity, delta)
        k = scalar.admitted_per_batch(t, n, capacity, delta)
        k_out[:] = k
        return int(k.sum())
    starts, ends, seg_safe, R, E = _segments(t, safe, s, cum_s)
    unsafe = ~safe
    # Pre-extract unsafe batches as plain Python lists: the inner loop
    # then runs entirely on built-in floats/ints, like the scalar kernel.
    ut = t[unsafe].tolist()
    un = n[unsafe].tolist()
    uk: list[int] = [0] * len(ut) if k_out is not None else []

    service = 1.0 / capacity
    eps = EPS
    floor = math.floor
    finish = 0.0
    admitted = int(n[safe].sum())  # safe batches admit fully, by construction
    up = 0  # cursor into the unsafe extracts
    seg_len = (ends - starts).tolist()
    R_l = R.tolist()
    E_l = E.tolist()
    safe_l = seg_safe.tolist()
    for i, m in enumerate(seg_len):
        if safe_l[i]:
            cand = finish + R_l[i]
            e = E_l[i]
            finish = cand if cand > e else e
        elif k_out is None:
            for j in range(up, up + m):
                tj = ut[j]
                base = finish if finish > tj else tj
                room = floor((tj + delta - base) * capacity + eps)
                if room > 0:
                    nj = un[j]
                    k = nj if nj < room else room
                    admitted += k
                    finish = base + k * service
            up += m
        else:
            for j in range(up, up + m):
                tj = ut[j]
                base = finish if finish > tj else tj
                room = floor((tj + delta - base) * capacity + eps)
                if room > 0:
                    nj = un[j]
                    k = nj if nj < room else room
                    uk[j] = k
                    admitted += k
                    finish = base + k * service
            up += m
    if k_out is not None and uk:
        k_out[unsafe] = uk
    return admitted
