"""Tests for RunConfig, run_policy's flat capacity form, and size-aware runs."""

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.perf import native
from repro.shaping import RunConfig, run_policy
from repro.workload import BimodalDemand, attach_demands


@pytest.fixture
def workload(rng):
    return Workload(np.sort(rng.uniform(0.0, 20.0, 400)), name="rc")


class TestRunConfig:
    def test_holds_the_plan(self):
        config = RunConfig(3.0, 2.0, 0.5)
        assert (config.cmin, config.delta_c, config.delta) == (3.0, 2.0, 0.5)
        assert config.admission == "count"
        assert config.engine is None

    @pytest.mark.parametrize(
        "args", [(0.0, 1.0, 0.5), (3.0, -1.0, 0.5), (3.0, 1.0, 0.0)]
    )
    def test_validates_capacities(self, args):
        with pytest.raises(ConfigurationError, match="bad configuration"):
            RunConfig(*args)

    def test_validates_admission(self):
        with pytest.raises(ConfigurationError, match="unknown admission mode"):
            RunConfig(3.0, 2.0, 0.5, admission="bytes")

    def test_with_engine_copies(self):
        config = RunConfig(3.0, 2.0, 0.5)
        scalar = config.with_engine("scalar")
        assert scalar.engine == "scalar" and config.engine is None
        assert scalar.cmin == config.cmin

    def test_is_hashable(self):
        assert hash(RunConfig(3.0, 2.0, 0.5)) == hash(RunConfig(3.0, 2.0, 0.5))


class TestRunPolicyShim:
    def test_config_and_flat_kwargs_conflict(self, workload):
        with pytest.raises(ConfigurationError, match="not both"):
            run_policy(workload, "split", 3.0, 2.0, 0.5,
                       config=RunConfig(3.0, 2.0, 0.5))

    def test_missing_capacities_rejected(self, workload):
        with pytest.raises(ConfigurationError, match="needs cmin"):
            run_policy(workload, "split", 3.0, 2.0)

    def test_flat_capacities_alone_do_not_warn(self, workload, recwarn):
        result = run_policy(workload, "split", 3.0, 2.0, 0.5)
        assert len(result.overall) == len(workload)
        assert not [w for w in recwarn if w.category is DeprecationWarning]

    def test_config_path_equals_flat_path_bitwise(self, workload):
        flat = run_policy(workload, "split", 3.0, 2.0, 0.5)
        via_config = run_policy(workload, "split", config=RunConfig(3.0, 2.0, 0.5))
        assert np.array_equal(flat.overall.samples, via_config.overall.samples)
        assert flat.primary_misses == via_config.primary_misses


class TestUnitSizeBitParity:
    """sizes=ones must be bit-identical to the unsized canonical form."""

    @pytest.mark.parametrize("policy", ["split", "fcfs", "miser"])
    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    def test_unit_sizes_bit_identical(self, workload, policy, engine):
        unit = workload.with_sizes(np.ones(len(workload)))
        config = RunConfig(3.0, 2.0, 0.5, engine=engine)
        plain = run_policy(workload, policy, config=config)
        sized = run_policy(unit, policy, config=config)
        assert np.array_equal(plain.overall.samples, sized.overall.samples)
        assert np.array_equal(plain.primary.samples, sized.primary.samples)
        assert plain.primary_misses == sized.primary_misses


class TestWorkAdmissionRuns:
    @pytest.fixture
    def sized(self, workload):
        return attach_demands(
            workload, BimodalDemand(short=1.0, long=6.0, long_fraction=0.2),
            seed=3,
        )

    @pytest.mark.parametrize("policy", ["split", "miser"])
    def test_count_vs_work_diverge_on_heterogeneous_demands(self, sized, policy):
        count = run_policy(sized, policy, config=RunConfig(4.0, 2.0, 0.5))
        work = run_policy(
            sized, policy, config=RunConfig(4.0, 2.0, 0.5, admission="work")
        )
        assert count.admission == "count" and work.admission == "work"
        # Conservation either way.
        assert len(count.overall) == len(sized)
        assert len(work.overall) == len(sized)
        # The admitted class genuinely differs under a long/short mix.
        assert len(count.primary) != len(work.primary)

    def test_auto_engine_serves_work_split_off_the_event_loop(self, sized, monkeypatch):
        """Under work admission auto takes the native loop where it
        builds and the direct loop without it, and both must match the
        event loop."""
        config = RunConfig(4.0, 2.0, 0.5, admission="work", engine="auto")
        scalar = run_policy(sized, "split", config=config.with_engine("scalar"))
        assert scalar.engine == "scalar"
        runs = [run_policy(sized, "split", config=config)]
        assert runs[0].engine == ("native" if native.available() else "direct")
        monkeypatch.setattr(native, "available", lambda: False)
        runs.append(run_policy(sized, "split", config=config))
        assert runs[1].engine == "direct"
        for result in runs:
            for collector in ("overall", "primary", "overflow"):
                assert np.array_equal(
                    getattr(result, collector).samples,
                    getattr(scalar, collector).samples,
                ), collector

    def test_sized_split_bit_identical_across_engines(self, workload, monkeypatch):
        # Count-bound sized runs take the native loop where it builds and
        # the direct loop without it; demands <= 1 keep the split Q1
        # guarantee intact.
        sized = workload.with_sizes(
            np.where(np.arange(len(workload)) % 3 == 0, 0.5, 1.0)
        )
        config = RunConfig(3.0, 2.0, 0.5)
        scalar = run_policy(sized, "split", config=config.with_engine("scalar"))
        runs = [run_policy(sized, "split", config=config)]
        assert runs[0].engine == ("native" if native.available() else "direct")
        monkeypatch.setattr(native, "available", lambda: False)
        runs.append(run_policy(sized, "split", config=config))
        assert runs[1].engine == "direct"
        for result in runs:
            assert np.array_equal(scalar.overall.samples, result.overall.samples)
            assert scalar.primary_misses == result.primary_misses
