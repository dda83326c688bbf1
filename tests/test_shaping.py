"""Integration tests for the shaping facade (run_policy, WorkloadShaper)."""

import numpy as np
import pytest

from repro.core.capacity import CapacityPlanner
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry
from repro.perf import engines, native
from repro.server.aqm import AQM_POLICIES
from repro.shaping import RunConfig, RunResult, WorkloadShaper, run_policy

POLICIES = ("fcfs", "split", "fairqueue", "wf2q", "miser")


def change_id(change: dict) -> str:
    """``key=value`` for a one-key config change; a registry's repr holds
    its address, so it is named by type to keep the id stable."""
    ((key, value),) = change.items()
    if isinstance(value, MetricsRegistry):
        value = type(value).__name__
    return f"{key}={value}"


@pytest.fixture(scope="module")
def workload():
    gen = np.random.default_rng(3)
    floor = gen.uniform(0.0, 20.0, 500)
    burst = 9.0 + gen.uniform(0.0, 0.4, 250)
    return Workload(np.sort(np.concatenate([floor, burst])), name="itest")


@pytest.fixture(scope="module")
def plan(workload):
    return CapacityPlanner(workload, 0.1).plan(0.9)


class TestRunPolicy:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_request_served_once(self, workload, plan, policy):
        result = run_policy(workload, policy, plan.cmin, plan.delta_c, plan.delta)
        assert len(result.overall) == len(workload)

    @pytest.mark.parametrize("policy", ("split", "fairqueue", "wf2q", "miser"))
    def test_shaped_policies_hit_target(self, workload, plan, policy):
        """Decomposition-based policies achieve ~90% within delta while
        FCFS at the same capacity falls short (the paper's Figure 6)."""
        result = run_policy(workload, policy, plan.cmin, plan.delta_c, plan.delta)
        assert result.fraction_within() >= 0.86

    def test_fcfs_below_target(self, workload, plan):
        fcfs = run_policy(workload, "fcfs", plan.cmin, plan.delta_c, plan.delta)
        shaped = run_policy(workload, "split", plan.cmin, plan.delta_c, plan.delta)
        assert fcfs.fraction_within() < shaped.fraction_within()

    @pytest.mark.parametrize("policy", ("split", "fairqueue", "wf2q", "miser"))
    def test_classification_counts(self, workload, plan, policy):
        result = run_policy(workload, policy, plan.cmin, plan.delta_c, plan.delta)
        assert len(result.primary) + len(result.overflow) == len(workload)
        # The online classifier admits roughly the planned fraction.
        assert len(result.primary) / len(workload) >= 0.85

    def test_split_primary_never_misses(self, workload, plan):
        result = run_policy(workload, "split", plan.cmin, plan.delta_c, plan.delta)
        assert result.primary_misses == 0

    def test_fcfs_has_no_classes(self, workload, plan):
        result = run_policy(workload, "fcfs", plan.cmin, plan.delta_c, plan.delta)
        assert len(result.primary) == 0
        assert len(result.overflow) == 0

    def test_binned_fractions(self, workload, plan):
        result = run_policy(workload, "miser", plan.cmin, plan.delta_c, plan.delta)
        bins = result.binned_fractions([0.05, 0.1, 0.5, 1.0])
        values = list(bins.values())
        assert values[:-1] == sorted(values[:-1])  # cumulative
        assert values[-1] == pytest.approx(1.0 - values[-2], abs=1e-9)

    def test_rate_recording(self, workload, plan):
        result = run_policy(
            workload,
            "miser",
            config=RunConfig(plan.cmin, plan.delta_c, plan.delta, record_rates=1.0),
        )
        starts, rates = result.completion_series
        assert rates.sum() * 1.0 == pytest.approx(len(workload))

    def test_rate_recording_rejected_for_split(self, workload, plan):
        with pytest.raises(ConfigurationError, match="single-server"):
            run_policy(
                workload,
                "split",
                config=RunConfig(plan.cmin, plan.delta_c, plan.delta, record_rates=1.0),
            )

    def test_unknown_policy(self, workload, plan):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            run_policy(workload, "lifo", plan.cmin, plan.delta_c, plan.delta)

    def test_bad_configuration(self, workload):
        with pytest.raises(ConfigurationError):
            run_policy(workload, "fcfs", 0.0, 1.0, 0.1)

    def test_total_capacity(self, workload, plan):
        result = run_policy(workload, "fcfs", plan.cmin, plan.delta_c, plan.delta)
        assert result.total_capacity == plan.cmin + plan.delta_c


class TestEngineRouting:
    """Which path ``auto`` takes, as recorded in ``RunResult.engine``."""

    @pytest.fixture
    def config(self, plan):
        return RunConfig(plan.cmin, plan.delta_c, plan.delta)

    @staticmethod
    def assert_same_samples(a, b):
        for collector in ("overall", "primary", "overflow"):
            assert np.array_equal(
                getattr(a, collector).samples, getattr(b, collector).samples
            ), collector
        assert a.primary_misses == b.primary_misses

    @pytest.mark.parametrize("policy", ("fairqueue", "miser", "srpt", "edf"))
    def test_default_single_server_runs_leave_the_event_loop(
        self, workload, config, policy, monkeypatch
    ):
        """fairqueue and miser take the native loop where it builds, and
        the direct loop without it; srpt and edf always take the direct
        loop.  Every path gives the event loop's samples."""
        reference = run_policy(workload, policy, config=config.with_engine("scalar"))
        assert reference.engine == "scalar"
        result = run_policy(workload, policy, config=config)
        built = policy in native.SERVE_POLICIES and native.available()
        assert result.engine == ("native" if built else "direct")
        self.assert_same_samples(result, reference)
        monkeypatch.setattr(native, "available", lambda: False)
        fallback = run_policy(workload, policy, config=config)
        assert fallback.engine == "direct"
        self.assert_same_samples(fallback, reference)

    @pytest.mark.parametrize("admission", ("count", "work"))
    @pytest.mark.parametrize("policy", ("fcfs", "split"))
    def test_fcfs_and_split_take_the_native_loop(
        self, workload, plan, policy, admission, monkeypatch
    ):
        """fcfs and split take the native loop where it builds, in either
        admission mode, and the direct loop without it.  Every path gives
        the event loop's samples, and its collectors the event loop's
        moments."""
        config = RunConfig(plan.cmin, plan.delta_c, plan.delta, admission=admission)
        reference = run_policy(workload, policy, config=config.with_engine("scalar"))
        result = run_policy(workload, policy, config=config)
        assert result.engine == ("native" if native.available() else "direct")
        assert result.admission == admission
        if policy == "fcfs":
            assert len(result.primary) == len(result.overflow) == 0
        self.assert_same_samples(result, reference)
        monkeypatch.setattr(native, "available", lambda: False)
        slower = run_policy(workload, policy, config=config)
        assert slower.engine == "direct"
        self.assert_same_samples(slower, reference)
        for run in (result, slower):
            for name in ("overall", "primary", "overflow"):
                mine, theirs = getattr(run, name), getattr(reference, name)
                assert vars(mine.stats) == vars(theirs.stats), name

    @pytest.mark.parametrize(
        ("policy", "admission"), [("splitfarm", "count"), ("splitfarm", "work")]
    )
    def test_topologies_take_direct_path(self, workload, plan, policy, admission):
        config = RunConfig(plan.cmin, plan.delta_c, plan.delta, admission=admission)
        result = run_policy(workload, policy, config=config)
        assert result.engine == "direct"
        reference = run_policy(workload, policy, config=config.with_engine("scalar"))
        assert reference.engine == "scalar"
        self.assert_same_samples(result, reference)

    @pytest.mark.parametrize(
        ("policy", "change"),
        [
            pytest.param(policy, change, id=f"{policy}-{change_id(change)}")
            for policy in native.SERVE_POLICIES
            for change in [
                {"engine": "scalar"},
                {"record_rates": 1.0},
                {"metrics": MetricsRegistry()},
                {"sample_interval": 1.0},
            ]
            + [{"aqm": aqm} for aqm in sorted(AQM_POLICIES)]
            # A topology refuses rate recording
            # (test_rate_recording_rejected_for_split).
            if not (policy == "split" and "record_rates" in change)
        ],
    )
    def test_event_loop_configs_stay_scalar(self, workload, plan, change, policy):
        """A hook or a window keeps even the native loop's policies on
        the event loop."""
        config = RunConfig(plan.cmin, plan.delta_c, plan.delta, **change)
        assert run_policy(workload, policy, config=config).engine == "scalar"



#: One bursty trace with zero-gap bursts and exact timestamp ties.
ZERO_GAP = Workload(
    [0.0, 0.0, 0.0, 0.01, 0.01, 0.5, 0.5, 0.5, 0.5, 1.0, 2.0, 2.0],
    name="zero-gap",
)

#: Overloaded config: cmin=200 admits floor(200*0.05)=10 outstanding.
CONFIG = dict(cmin=200.0, delta_c=40.0, delta=0.05)


class TestEngineFallback:
    """``auto`` leaves a fast path for the next one, and every fast path
    for the event loop when something is attached to the run."""

    def test_defaults_to_auto(self):
        assert engines.active_engine() == "auto"

    @pytest.mark.parametrize(
        ("engine", "path"), [("auto", "native"), ("scalar", "scalar")]
    )
    def test_argument_selects_engine(self, engine, path):
        """``auto`` takes the native loop where it builds, else the
        direct loop; ``scalar`` forces the event loop."""
        if path == "native" and not native.available():
            path = "direct"
        config = RunConfig(engine=engine, **CONFIG)
        assert run_policy(ZERO_GAP, "fcfs", config=config).engine == path

    def test_run_config_validates_eagerly(self):
        with pytest.raises(ConfigurationError, match="unknown execution engine 'quantum'"):
            RunConfig(engine="quantum", **CONFIG)
        with pytest.raises(ConfigurationError, match="unknown execution engine 'quantum'"):
            RunConfig(**CONFIG).with_engine("quantum")

    @pytest.mark.parametrize("policy", ("fcfs", "split"))
    def test_auto_falls_back_for_fifo_policies(self, policy, monkeypatch):
        """With no native build, ``auto`` takes fcfs and split to the
        direct loop, which gives the event loop's samples."""
        reference = run_policy(
            ZERO_GAP, policy, config=RunConfig(engine="scalar", **CONFIG)
        )
        monkeypatch.setattr(native, "available", lambda: False)
        result = run_policy(ZERO_GAP, policy, **CONFIG)
        assert result.engine == "direct"
        for name in ("overall", "primary", "overflow"):
            assert np.array_equal(
                getattr(result, name).samples, getattr(reference, name).samples
            ), name
        assert result.primary_misses == reference.primary_misses

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


class TestWorkloadShaper:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadShaper(delta=0.0, fraction=0.9)
        with pytest.raises(ConfigurationError):
            WorkloadShaper(delta=0.1, fraction=0.0)

    def test_default_delta_c(self):
        shaper = WorkloadShaper(delta=0.01, fraction=0.9)
        assert shaper.delta_c == pytest.approx(100.0)

    def test_plan_matches_planner(self, workload):
        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        plan = shaper.plan(workload)
        assert plan.cmin == CapacityPlanner(workload, 0.1).min_capacity(0.9)

    def test_decompose_uses_planned_capacity(self, workload):
        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        decomposition = shaper.decompose(workload)
        assert decomposition.fraction_admitted >= 0.9

    def test_shape_end_to_end(self, workload):
        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        outcome = shaper.shape(workload, policies=("miser", "fcfs"))
        assert isinstance(outcome.run("miser"), RunResult)
        assert outcome.decomposition.fraction_admitted >= 0.9
        with pytest.raises(ConfigurationError, match="not simulated"):
            outcome.run("split")


class TestPlannerCache:
    def test_planner_memoized_for_live_workload(self, workload):
        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        assert shaper.planner(workload) is shaper.planner(workload)

    def test_cache_does_not_grow_across_many_workloads(self):
        import gc

        from repro.core.workload import Workload
        from repro.shaping import PLANNER_CACHE_SIZE

        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        for i in range(10 * PLANNER_CACHE_SIZE):
            workload = Workload([0.1, 0.2 + i * 1e-6], name=f"w{i}")
            shaper.planner(workload)
        gc.collect()
        # The shaper itself pins at most PLANNER_CACHE_SIZE planners;
        # with no outside references the weak cache shrinks to the LRU.
        assert len(shaper._planner_lru) == PLANNER_CACHE_SIZE
        assert len(shaper._planners) <= PLANNER_CACHE_SIZE

    def test_recent_planners_stay_cached_without_external_refs(self):
        import gc

        from repro.core.workload import Workload

        shaper = WorkloadShaper(delta=0.1, fraction=0.9)
        workload = Workload([0.1, 0.2], name="pinned")
        first = shaper.planner(workload)
        gc.collect()
        # Still in the LRU keepalive: same object comes back.
        assert shaper.planner(workload) is first


class TestRunTelemetry:
    def test_disabled_by_default(self, workload, plan):
        result = run_policy(workload, "miser", plan.cmin, plan.delta_c, 0.1)
        assert result.telemetry is None

    def test_metrics_and_samples_attached(self, workload, plan):
        from repro.obs import MetricsRegistry, depth_reconciles

        registry = MetricsRegistry()
        result = run_policy(
            workload,
            "miser",
            config=RunConfig(
                plan.cmin, plan.delta_c, 0.1, metrics=registry, sample_interval=1.0
            ),
        )
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.registry is registry
        assert telemetry.meta["policy"] == "miser"
        assert telemetry.meta["requests"] == len(workload)
        assert depth_reconciles(telemetry.samples)
        assert registry.value("driver.completions") == len(workload)
