"""Cross-validation of the RTT kernel backends (repro.perf).

Property-based parity suite: the scalar reference and (when a compiler
is present) the native C backend must agree on admission counts,
per-batch admitted counts and per-request masks — including against the
Fraction-exact reference ``decompose_exact`` — across random bursty
workloads, fractional ``C * delta`` products, simultaneous-arrival
batches and empty traces.

Inputs follow the repo's property-test conventions (millisecond arrival
grid, dyadic capacities/deadlines) so that admission decisions sit far
from the EPS floor boundary and every backend is exactly comparable.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rtt import decompose, decompose_exact
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.perf import (
    KernelBackend,
    active_backend,
    admitted_per_batch,
    available_backends,
    count_admitted,
    count_admitted_sweep,
    kernels,
    native,
    scalar,
)

BACKENDS = available_backends()

#: The kernel trio, each called on a batched stream with ``backend=`` passed through.
KERNELS = {
    "count_admitted": lambda stream, **kw: count_admitted(*stream, 8.0, 0.5, **kw),
    "admitted_per_batch": lambda stream, **kw: admitted_per_batch(
        *stream, 8.0, 0.5, **kw
    ),
    "count_admitted_sweep": lambda stream, **kw: count_admitted_sweep(
        *stream, [4.0, 8.0], 0.5, **kw
    ),
}

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Batched arrival streams on a millisecond grid: sorted distinct
#: instants, each with 1..40 simultaneous arrivals (bursty by design).
batched_streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=20000), st.integers(1, 40)),
    min_size=0,
    max_size=60,
    unique_by=lambda pair: pair[0],
).map(
    lambda pairs: (
        np.array(sorted(p[0] for p in pairs), dtype=float) / 1000.0,
        np.array([p[1] for p in sorted(pairs)], dtype=np.int64),
    )
)

#: Dyadic capacities, deliberately including values whose ``C * delta``
#: is fractional (the regime where the deadline form and the paper's
#: integer-queue form differ).
capacities = st.integers(min_value=1, max_value=96).map(lambda k: k / 8.0)

#: Dyadic response-time bounds.
deltas = st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0])


def _consistent(instants, counts, capacity, delta):
    """Assert every available backend agrees; return the common answer."""
    reference = count_admitted(instants, counts, capacity, delta, backend="scalar")
    per_batch = admitted_per_batch(instants, counts, capacity, delta, backend="scalar")
    for name in BACKENDS:
        assert count_admitted(instants, counts, capacity, delta, backend=name) == reference
        np.testing.assert_array_equal(
            admitted_per_batch(instants, counts, capacity, delta, backend=name),
            per_batch,
            err_msg=f"backend {name} per-batch mismatch",
        )
    assert int(per_batch.sum()) == reference
    assert np.all(per_batch <= counts)
    return reference


# ---------------------------------------------------------------------------
# Backend parity
# ---------------------------------------------------------------------------


@given(batched_streams, capacities, deltas)
@settings(max_examples=150, deadline=None)
def test_backends_agree_on_random_bursty_streams(stream, capacity, delta):
    instants, counts = stream
    _consistent(instants, counts, capacity, delta)


@given(batched_streams, st.lists(capacities, min_size=1, max_size=6), deltas)
@settings(max_examples=60, deadline=None)
def test_sweep_matches_individual_calls(stream, caps, delta):
    instants, counts = stream
    expected = [
        count_admitted(instants, counts, c, delta, backend="scalar") for c in caps
    ]
    for name in BACKENDS:
        got = count_admitted_sweep(instants, counts, caps, delta, backend=name)
        assert got.tolist() == expected, f"backend {name} sweep mismatch"


@given(capacities, deltas)
@settings(max_examples=20, deadline=None)
def test_empty_trace(capacity, delta):
    empty_t = np.array([], dtype=float)
    empty_n = np.array([], dtype=np.int64)
    for name in BACKENDS:
        assert count_admitted(empty_t, empty_n, capacity, delta, backend=name) == 0
        assert admitted_per_batch(empty_t, empty_n, capacity, delta, backend=name).size == 0
        assert count_admitted_sweep(
            empty_t, empty_n, [capacity], delta, backend=name
        ).tolist() == [0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_accepts_plain_sequences(backend):
    # Kernels take lists as well as arrays (the public count_admitted
    # contract predates the perf layer).
    assert count_admitted([0.0, 0.5, 1.0], [2, 2, 2], 4.0, 0.5, backend=backend) == 6


def test_single_giant_batch():
    # One batch larger than C * delta: exactly floor(C * delta) admitted.
    instants = np.array([1.0])
    counts = np.array([1000], dtype=np.int64)
    for name in BACKENDS:
        assert count_admitted(instants, counts, 8.0, 2.5, backend=name) == 20


# ---------------------------------------------------------------------------
# Parity with the Fraction-exact reference
# ---------------------------------------------------------------------------


@given(batched_streams, capacities, deltas)
@settings(max_examples=60, deadline=None)
def test_mask_matches_decompose_exact(stream, capacity, delta):
    instants, counts = stream
    arrivals = np.repeat(instants, counts)
    workload = Workload(arrivals)
    exact = decompose_exact(workload, Fraction(capacity), Fraction(delta))
    # Within a batch the earliest requests are admitted first, so the
    # exact mask admits a prefix of each batch.
    exact_per_batch = np.add.reduceat(exact.admitted, np.cumsum(counts) - counts)
    for name in BACKENDS:
        np.testing.assert_array_equal(
            admitted_per_batch(instants, counts, capacity, delta, backend=name),
            exact_per_batch,
            err_msg=f"backend {name} vs exact",
        )
    np.testing.assert_array_equal(
        decompose(workload, capacity, delta).admitted,
        exact.admitted,
        err_msg="decompose under auto vs exact",
    )


# ---------------------------------------------------------------------------
# Registry behavior
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_scalar_always_available(self):
        assert "scalar" in BACKENDS
        assert set(BACKENDS) <= {"scalar", "native"}

    @pytest.mark.parametrize(
        "backend", ["cuda", " Scalar "], ids=["cuda", "padded-mixed-case"]
    )
    def test_unknown_backend_rejected(self, backend):
        """Backend names match exactly: no case folding, no trimming."""
        with pytest.raises(ConfigurationError, match="unknown kernel backend"):
            count_admitted([0.0], [1], 1.0, 1.0, backend=backend)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            count_admitted([0.0], [1], 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            count_admitted([0.0], [1], 1.0, -1.0)
        with pytest.raises(ConfigurationError):
            count_admitted_sweep([0.0], [1], [1.0, -2.0], 1.0)


def stream(batches: int):
    """``batches`` batches of two simultaneous arrivals, 1 ms apart."""
    return np.arange(batches) / 1000.0, np.full(batches, 2, dtype=np.int64)


@pytest.fixture
def ran():
    """Names of the backends the kernels ran, in call order.

    Both registered backends are replaced by doubles that record their
    name and answer with the scalar trio, so dispatch is observable
    without a compiler; the real entries are registered again after.
    """
    calls = []
    originals = {name: kernels.REGISTRY.get(name) for name in kernels.REGISTRY}

    def recorded(name, fn):
        def kernel(*args):
            calls.append(name)
            return fn(*args)

        return kernel

    for name in originals:
        kernels.REGISTRY.register(
            name,
            KernelBackend(
                name,
                recorded(name, scalar.count_admitted),
                recorded(name, scalar.admitted_per_batch),
                recorded(name, scalar.count_admitted_sweep),
            ),
        )
    yield calls
    for name, backend in originals.items():
        kernels.REGISTRY.register(name, backend)


class TestAuto:
    """``auto`` runs native when it compiles and scalar otherwise."""

    def test_auto_is_native_when_it_compiles(self, monkeypatch):
        monkeypatch.setattr(native, "available", lambda: True)
        assert active_backend() == "native"

    def test_auto_falls_back_to_scalar(self, monkeypatch):
        monkeypatch.setattr(native, "available", lambda: False)
        assert active_backend() == "scalar"
        assert count_admitted([0.0, 0.25, 0.5], [4, 4, 4], 8.0, 0.5) == count_admitted(
            [0.0, 0.25, 0.5], [4, 4, 4], 8.0, 0.5, backend="scalar"
        )
        with pytest.raises(ConfigurationError, match="no working C compiler"):
            count_admitted([0.0], [1], 1.0, 1.0, backend="native")

    def test_small_inputs_dispatch_to_scalar(self, monkeypatch, ran):
        monkeypatch.setattr(native, "available", lambda: False)
        for batches in (0, 1):
            count_admitted(*stream(batches), 8.0, 0.5)
        assert ran == ["scalar", "scalar"]

    def test_large_inputs_dispatch_to_scalar(self, monkeypatch, ran):
        """No size rule: without native, auto is scalar at any size."""
        monkeypatch.setattr(native, "available", lambda: False)
        count_admitted(*stream(40_000), 8.0, 0.5)
        assert ran == ["scalar"]

    def test_native_ignores_size_threshold(self, monkeypatch, ran):
        monkeypatch.setattr(native, "available", lambda: True)
        for batches in (0, 1, 40_000):
            count_admitted(*stream(batches), 8.0, 0.5)
        assert ran == ["native"] * 3

    def test_explicit_backend_beats_auto(self, monkeypatch, ran):
        """A named backend is honored whatever the size and the build."""
        monkeypatch.setattr(native, "available", lambda: True)
        for batches in (1, 40_000):
            count_admitted(*stream(batches), 8.0, 0.5, backend="scalar")
        assert ran == ["scalar", "scalar"]

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_every_kernel_dispatches_alike(self, kernel, monkeypatch, ran):
        """``None``, ``"auto"`` and a named backend reach the same entry
        from each kernel of the trio, with and without a native build."""
        for compiled in (True, False):
            monkeypatch.setattr(native, "available", lambda compiled=compiled: compiled)
            for backend in (None, "auto", "scalar"):
                KERNELS[kernel](stream(3), backend=backend)
        assert ran == ["native", "native", "scalar"] + ["scalar"] * 3

    def test_small_call_still_correct_under_auto(self):
        """The auto rule changes speed, never answers."""
        small = ([0.0, 0.25, 0.5], [4, 4, 4])
        for kernel in KERNELS.values():
            auto = kernel(small)
            for name in BACKENDS:
                np.testing.assert_array_equal(kernel(small, backend=name), auto)
