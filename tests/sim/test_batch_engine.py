"""Columnar batch engine: parity with the event loop, selection, edges.

The batch engine's contract is *bit-identical samples* — not "close":
every parity assertion here uses exact equality.  Satellite edge cases
(zero-gap arrival batches, the negative-time guard, epoch-boundary
carry) are parametrized over both engines where applicable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.exceptions import ConfigurationError, SimulationError
from repro.perf import engines, native
from repro.shaping import RunConfig, run_policy
from repro.sim import batch
from repro.sim.stats import ResponseTimeCollector
from repro.traces.synthetic import poisson_workload

ENGINES = ("scalar", "batch")

#: One bursty trace with zero-gap batches and exact timestamp ties.
ZERO_GAP = Workload(
    [0.0, 0.0, 0.0, 0.01, 0.01, 0.5, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0],
    name="zero-gap",
)

#: Overloaded config: cmin=200 admits floor(200*0.05)=10 outstanding.
CONFIG = dict(cmin=200.0, delta_c=40.0, delta=0.05)


def run_both(workload, policy, **config):
    scalar = run_policy(workload, policy, config=RunConfig(engine="scalar", **config))
    columnar = run_policy(workload, policy, config=RunConfig(engine="batch", **config))
    return scalar, columnar


# ---------------------------------------------------------------------------
# run_policy parity
# ---------------------------------------------------------------------------


class TestRunPolicyParity:
    @pytest.mark.parametrize("policy", batch.SUPPORTED_POLICIES)
    def test_zero_gap_batches_bit_identical(self, policy):
        scalar, columnar = run_both(ZERO_GAP, policy, **CONFIG)
        assert columnar.engine == "batch"
        assert scalar.engine == "scalar"
        assert columnar.overall.samples.tolist() == scalar.overall.samples.tolist()
        assert columnar.primary.samples.tolist() == scalar.primary.samples.tolist()
        assert columnar.overflow.samples.tolist() == scalar.overflow.samples.tolist()
        assert columnar.primary_misses == scalar.primary_misses

    @pytest.mark.parametrize("policy", batch.SUPPORTED_POLICIES)
    def test_moments_equal_the_event_loops(self, policy):
        """The collectors adopt the batch columns and fold their moments
        lazily, in sample order: ``stats`` is the event loop's, bit for
        bit."""
        workload = poisson_workload(rate=400.0, duration=3.0, seed=7)
        scalar, columnar = run_both(workload, policy, **CONFIG)
        for name in ("overall", "primary", "overflow"):
            mine, theirs = getattr(columnar, name), getattr(scalar, name)
            assert vars(mine.stats) == vars(theirs.stats), name

    @pytest.mark.parametrize("policy", batch.SUPPORTED_POLICIES)
    def test_poisson_trace_bit_identical(self, policy):
        workload = poisson_workload(rate=400.0, duration=3.0, seed=7)
        scalar, columnar = run_both(workload, policy, **CONFIG)
        assert columnar.overall.samples.tolist() == scalar.overall.samples.tolist()
        assert columnar.primary_misses == scalar.primary_misses
        assert columnar.fraction_within() == scalar.fraction_within()

    def test_empty_workload(self):
        scalar, columnar = run_both(Workload([], name="empty"), "fcfs", **CONFIG)
        assert columnar.overall.samples.tolist() == []
        assert scalar.overall.samples.tolist() == []

    def test_single_arrival_at_zero(self):
        scalar, columnar = run_both(Workload([0.0]), "split", **CONFIG)
        assert columnar.overall.samples.tolist() == scalar.overall.samples.tolist()


# ---------------------------------------------------------------------------
# Engine selection
# ---------------------------------------------------------------------------


class TestEngineSelection:
    def test_defaults_to_auto(self):
        assert engines.active_engine() == "auto"

    def test_auto_takes_batch_path_when_eligible(self, monkeypatch):
        """With no native build, ``auto`` takes fcfs to the batch engine."""
        monkeypatch.setattr(native, "available", lambda: False)
        result = run_policy(ZERO_GAP, "fcfs", **CONFIG)
        assert result.engine == "batch"

    @pytest.mark.parametrize(
        ("engine", "path"), [("auto", "native"), ("batch", "batch"), ("scalar", "scalar")]
    )
    def test_argument_selects_engine(self, engine, path):
        """``auto`` takes the native loop where it builds, else the batch
        engine; a forced ``batch`` runs the batch engine either way."""
        if path == "native" and not native.available():
            path = "batch"
        config = RunConfig(engine=engine, **CONFIG)
        assert run_policy(ZERO_GAP, "fcfs", config=config).engine == path

    def test_run_config_validates_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown execution engine 'quantum'"):
            RunConfig(engine="quantum", **CONFIG)
        with pytest.raises(ConfigurationError, match="unknown execution engine 'quantum'"):
            RunConfig(**CONFIG).with_engine("quantum")


# ---------------------------------------------------------------------------
# Eligibility and fallback
# ---------------------------------------------------------------------------


class TestEligibility:
    @pytest.mark.parametrize("policy", ("fairqueue", "wf2q", "drr", "miser", "edf"))
    def test_auto_falls_back_for_other_policies(self, policy, monkeypatch):
        # fairqueue, wf2q and miser take the native loop where it
        # builds; the other single-server policies, and those three
        # without a build, fall back to the heap-free open loop.  Both
        # are bit-identical to the event loop.
        reference = run_policy(
            ZERO_GAP, policy, config=RunConfig(engine="scalar", **CONFIG)
        )
        result = run_policy(ZERO_GAP, policy, **CONFIG)
        built = policy in native.SERVE_POLICIES and native.available()
        assert result.engine == ("native" if built else "direct")
        monkeypatch.setattr(native, "available", lambda: False)
        fallback = run_policy(ZERO_GAP, policy, **CONFIG)
        assert fallback.engine == "direct"
        for run in (result, fallback):
            assert np.array_equal(run.overall.samples, reference.overall.samples)

    def test_auto_falls_back_when_observed(self):
        from repro.obs import MetricsRegistry

        result = run_policy(
            ZERO_GAP, "fcfs", config=RunConfig(metrics=MetricsRegistry(), **CONFIG)
        )
        assert result.engine == "scalar"
        assert result.telemetry is not None

    def test_auto_falls_back_for_sampler(self):
        result = run_policy(
            ZERO_GAP, "split", config=RunConfig(sample_interval=0.5, **CONFIG)
        )
        assert result.engine == "scalar"

    def test_auto_falls_back_for_rate_recording(self):
        result = run_policy(
            ZERO_GAP, "fcfs", config=RunConfig(record_rates=0.1, **CONFIG)
        )
        assert result.engine == "scalar"
        assert result.completion_series is not None

    def test_forced_batch_rejects_ineligible_policy(self):
        with pytest.raises(ConfigurationError, match="cannot run this configuration"):
            run_policy(ZERO_GAP, "miser", config=RunConfig(engine="batch", **CONFIG))

    def test_forced_batch_rejects_observability(self):
        with pytest.raises(ConfigurationError, match="cannot run this configuration"):
            run_policy(
                ZERO_GAP,
                "fcfs",
                config=RunConfig(engine="batch", sample_interval=0.5, **CONFIG),
            )

    def test_unknown_policy_still_rejected_under_batch(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            run_policy(ZERO_GAP, "lifo", config=RunConfig(engine="batch", **CONFIG))

    def test_supports_reports_reasons(self):
        ok, reason = batch.supports("fcfs")
        assert ok and reason == "eligible"
        assert not batch.supports("edf")[0]
        assert not batch.supports("fcfs", metrics=object())[0]
        assert not batch.supports("split", sample_interval=1.0)[0]
        assert not batch.supports("fcfs", record_rates=0.1)[0]


# ---------------------------------------------------------------------------
# Columnar kernels
# ---------------------------------------------------------------------------


class TestColumnarKernels:
    def test_fcfs_matches_closed_form_lindley(self):
        """Same recurrence as the closed form, up to reassociation."""
        arrivals = poisson_workload(rate=300.0, duration=2.0, seed=3).arrivals
        service = 1.0 / 250.0
        completions = batch.fcfs_completions(arrivals, 250.0)
        n = arrivals.size
        closed = service * (np.arange(n) + 1.0) + np.maximum.accumulate(
            arrivals - service * np.arange(n)
        )
        np.testing.assert_allclose(completions, closed, rtol=0, atol=1e-9)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ConfigurationError, match="negative arrival"):
            batch.fcfs_completions(np.array([-1.0, 0.0]), 10.0)
        with pytest.raises(ConfigurationError, match="negative arrival"):
            batch.run_batch(np.array([-0.5]), "split", 10.0, 5.0, 1.0)

    def test_non_1d_rejected(self):
        with pytest.raises(ConfigurationError, match="one-dimensional"):
            batch.fcfs_completions(np.zeros((2, 2)), 10.0)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            batch.fcfs_completions(np.array([0.0]), 0.0)
        with pytest.raises(ConfigurationError, match="overflow capacity"):
            batch.split_columns(np.array([0.0]), 10.0, 0.0, 1.0)

    def test_epoch_boundary_carry(self, monkeypatch):
        """Finish times carry across epochs: shrinking EPOCH to force
        many sweeps must not change a single bit."""
        arrivals = poisson_workload(rate=500.0, duration=1.0, seed=11).arrivals
        reference = batch.fcfs_completions(arrivals, 300.0)
        ref_cols = batch.split_columns(arrivals, 300.0, 60.0, 0.02)
        monkeypatch.setattr(batch, "EPOCH", 7)
        np.testing.assert_array_equal(
            batch.fcfs_completions(arrivals, 300.0), reference
        )
        small = batch.split_columns(arrivals, 300.0, 60.0, 0.02)
        np.testing.assert_array_equal(small.admitted, ref_cols.admitted)
        np.testing.assert_array_equal(small.q1_completions, ref_cols.q1_completions)
        np.testing.assert_array_equal(small.q2_completions, ref_cols.q2_completions)

    def test_run_batch_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="no batch kernel"):
            batch.run_batch(np.array([0.0]), "edf", 10.0, 5.0, 1.0)


# ---------------------------------------------------------------------------
# Collector array ingestion
# ---------------------------------------------------------------------------


class TestExtendArray:
    def test_samples_bit_identical_to_scalar_adds(self):
        values = np.abs(np.random.default_rng(2).normal(0.05, 0.02, 257))
        loop = ResponseTimeCollector("loop")
        for v in values.tolist():
            loop.add(v)
        bulk = ResponseTimeCollector("bulk")
        bulk.extend_array(values)
        assert bulk.samples.tolist() == loop.samples.tolist()
        assert bulk.stats.count == loop.stats.count
        assert bulk.stats.min == loop.stats.min
        assert bulk.stats.max == loop.stats.max

    def test_negative_response_rejected(self):
        collector = ResponseTimeCollector("guard")
        with pytest.raises(SimulationError, match="negative"):
            collector.extend_array(np.array([0.1, -0.2]))

    def test_empty_array_is_noop(self):
        collector = ResponseTimeCollector("empty")
        collector.extend_array(np.empty(0))
        assert collector.samples.tolist() == []
