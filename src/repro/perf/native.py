"""Native (C, via the system compiler) RTT kernels.

The RTT recurrence is a data-dependent scalar loop — the regime where
CPython interpreter overhead dominates by two orders of magnitude and
numpy cannot help directly.  This module carries a ~40-line C rendition
of the exact same double-precision expression tree as the scalar
backend, compiles it once with the system ``cc`` into a cached shared
object, and binds it through :mod:`ctypes`.  Because the operation order
is identical (and contraction into FMAs is disabled), the native kernels
are **bit-identical** to the pure-Python reference on every input.

Everything degrades gracefully: no compiler, a failed compile, or an
unwritable cache directory simply mean :func:`available` returns False
and the registry falls back to the numpy backend.  Set
``REPRO_NATIVE_CACHE`` to relocate the build cache (default
``~/.cache/repro-kernels``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

import numpy as np

from ..units import EPS

_C_SOURCE = r"""
#include <math.h>

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
