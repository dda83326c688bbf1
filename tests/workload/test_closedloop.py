"""Tests for closed-loop traffic: arrivals depend on completions."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.sampler import depth_reconciles
from repro.perf import native
from repro.server.constant_rate import constant_rate_server
from repro.server.driver import DeviceDriver
from repro.sched.registry import make_scheduler
from repro.shaping import RunConfig
from repro.sim import source as source_module
from repro.sim.engine import Simulator
from repro.sim.source import ClosedLoopPopulation, ClosedLoopSource
from repro.workload import BimodalDemand, ConstantDemand, run_closed_loop


def auto_engine(policy):
    """The path ``auto`` takes a plain population to: the native closed
    loop for its five policies where the build carries it, the direct
    loop otherwise."""
    if policy in native.CLOSED_POLICIES and native.closed_available():
        return "native"
    return "direct"


def _fcfs_system(sim, rate):
    scheduler = make_scheduler("fcfs", rate, 0.0, 0.5)
    server = constant_rate_server(sim, rate, name="fcfs")
    return DeviceDriver(sim, server, scheduler)


def _run_source(rate, n_users=4, think_time=0.5, horizon=30.0, seed=3):
    sim = Simulator()
    driver = _fcfs_system(sim, rate)
    source = ClosedLoopSource(
        sim, driver, ClosedLoopPopulation(n_users, think_time, horizon, seed=seed)
    )
    source.start()
    sim.run()
    return source, driver


class TestClosedLoopSource:
    def test_arrival_waits_for_completion_per_user(self):
        source, _ = _run_source(rate=2.0)
        by_user = {}
        for request in source.requests:
            by_user.setdefault(request.client_id, []).append(request)
        for requests in by_user.values():
            for prev, nxt in zip(requests, requests[1:]):
                assert prev.completion is not None
                assert nxt.arrival >= prev.completion

    def test_slow_server_self_throttles(self):
        # The defining closed-loop property: the same population offers
        # *fewer* requests to a slower server, because each user's next
        # arrival waits on service.
        fast, _ = _run_source(rate=50.0)
        slow, _ = _run_source(rate=1.0)
        assert len(slow.requests) < len(fast.requests)

    def test_all_submissions_complete_and_inflight_drains(self):
        source, driver = _run_source(rate=5.0)
        assert source.inflight == 0
        assert len(driver.completed) == len(source.requests)

    def test_deterministic_by_seed(self):
        a, _ = _run_source(rate=3.0, seed=11)
        b, _ = _run_source(rate=3.0, seed=11)
        c, _ = _run_source(rate=3.0, seed=12)
        assert [r.arrival for r in a.requests] == [r.arrival for r in b.requests]
        assert [r.arrival for r in a.requests] != [r.arrival for r in c.requests]

    def test_horizon_retires_users(self):
        source, _ = _run_source(rate=5.0, horizon=10.0)
        assert all(r.arrival < 10.0 for r in source.requests)

    def test_requires_completion_hooks(self):
        class NoHooks:
            def on_arrival(self, request):  # pragma: no cover
                pass

        with pytest.raises(ConfigurationError, match="add_completion_hook"):
            ClosedLoopSource(
                Simulator(), NoHooks(), ClosedLoopPopulation(1, 1.0, 1.0)
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0, "think_time": 1.0, "horizon": 1.0},
            {"n_users": 2, "think_time": 0.0, "horizon": 1.0},
            {"n_users": 2, "think_time": 1.0, "horizon": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClosedLoopPopulation(**kwargs)

    @pytest.mark.parametrize(
        ("name", "value"),
        [
            ("horizon", float("nan")),
            ("horizon", float("inf")),
            ("think_time", float("nan")),
            ("think_time", float("inf")),
        ],
        ids=["horizon-nan", "horizon-inf", "think-nan", "think-inf"],
    )
    def test_refuses_a_non_finite_horizon_or_think_time(self, name, value):
        """A NaN or infinite horizon never retires a user, so no loop
        would end; a NaN think time never submits a request.  Both are
        refused before any loop starts."""
        kwargs = {"n_users": 2, "think_time": 1.0, "horizon": 10.0, name: value}
        with pytest.raises(ConfigurationError, match=f"{name} must be positive and finite"):
            run_closed_loop("fcfs", RunConfig(10.0, 2.0, 0.5), **kwargs)

    @pytest.mark.parametrize("engine", ["scalar", "auto"])
    def test_each_user_stream_is_derived_once(self, monkeypatch, engine):
        # The event loop serves the run's own population: deriving a
        # second one inside the source would draw every stream twice.
        derive = source_module.user_stream
        derived = []

        def counting(seed, user):
            derived.append(user)
            return derive(seed, user)

        monkeypatch.setattr(source_module, "user_stream", counting)
        run_closed_loop(
            "fcfs", RunConfig(4.0, 2.0, 0.5, engine=engine), n_users=5,
            think_time=0.4, horizon=5.0, seed=1,
        )
        assert sorted(derived) == [0, 1, 2, 3, 4]


class TestRunClosedLoop:
    CONFIG = RunConfig(4.0, 2.0, 0.5)

    @pytest.mark.parametrize("policy", ["split", "miser", "fcfs"])
    def test_conserves_across_policies(self, policy):
        result = run_closed_loop(
            policy, self.CONFIG, n_users=6, think_time=0.4,
            horizon=20.0, seed=2,
        )
        assert sum(result.ledger.values()) == len(result.submitted)
        assert result.ledger["completed"] == len(result.submitted)

    @pytest.mark.parametrize(
        ("config", "n_users", "horizon", "seed", "demands"),
        [
            pytest.param(CONFIG, 5, 15.0, 9, None, id="unit"),
            # Split under a bimodal demand mix, long enough to queue.
            pytest.param(
                RunConfig(8.0, 4.0, 0.5), 12, 120.0, 41, BimodalDemand(long=4.0),
                id="bimodal",
            ),
        ],
    )
    def test_deterministic(self, config, n_users, horizon, seed, demands):
        a, b = (
            run_closed_loop(
                "split", config, n_users=n_users, think_time=0.3,
                horizon=horizon, seed=seed, demand_sampler=demands,
            )
            for _ in range(2)
        )
        for result in (a, b):
            assert sum(result.ledger.values()) == len(result.submitted)
        assert np.array_equal(a.overall.samples, b.overall.samples)
        assert [r.arrival for r in a.submitted] == [r.arrival for r in b.submitted]

    def test_demand_sampler_sizes_requests(self):
        result = run_closed_loop(
            "split", self.CONFIG, n_users=4, think_time=0.4,
            horizon=15.0, seed=1, demand_sampler=ConstantDemand(2.0),
        )
        assert result.submitted
        assert all(r.service_demand == 2.0 for r in result.submitted)

        # A sampler's scalar draw runs the same population as the
        # one-element columnar draw it replaced (the reference here).
        def submitted(sampler):
            result = run_closed_loop(
                "srpt", self.CONFIG, n_users=6, think_time=0.4,
                horizon=15.0, seed=1, demand_sampler=sampler,
            )
            return [
                (r.arrival, r.service_demand, r.completion)
                for r in result.submitted
            ]

        bimodal = BimodalDemand(short=1.0, long=8.0, long_fraction=0.12)
        scalar = submitted(bimodal)
        assert {demand for _, demand, _ in scalar} == {1.0, 8.0}
        assert scalar == submitted(
            lambda rng: float(np.asarray(bimodal(rng, 1)).reshape(-1)[0])
        )

    def test_work_admission_accepted(self):
        config = RunConfig(4.0, 2.0, 0.5, admission="work")
        result = run_closed_loop(
            "split", config, n_users=4, think_time=0.4,
            horizon=15.0, seed=1, demand_sampler=ConstantDemand(0.5),
        )
        assert sum(result.ledger.values()) == len(result.submitted)

    def test_observed_workload_round_trips(self):
        result = run_closed_loop(
            "miser", self.CONFIG, n_users=4, think_time=0.4,
            horizon=15.0, seed=6,
        )
        observed = result.observed_workload()
        assert len(observed) == len(result.submitted)
        assert np.all(np.diff(observed.arrivals) >= 0)

    @pytest.mark.parametrize("policy", ["split", "miser", "fcfs"])
    def test_sample_interval_gives_reconciling_telemetry(self, policy):
        config = RunConfig(
            4.0, 2.0, 0.5, sample_interval=0.5, metrics=MetricsRegistry()
        )
        result = run_closed_loop(
            policy, config, n_users=6, think_time=0.4, horizon=10.0, seed=2
        )
        assert result.engine == "scalar"
        samples = result.telemetry.samples
        assert len(samples) > 10
        assert samples[-1]["t"] >= 10.0  # the drain's final snapshot
        prefixes = ("q1_", "q2_") if policy == "split" else ("",)
        for prefix in prefixes:
            assert f"{prefix}arrivals" in samples[0]
            assert depth_reconciles(samples, prefix=prefix)
        assert result.telemetry.meta["requests"] == len(result.submitted)

    def test_metrics_count_every_completion(self):
        registry = MetricsRegistry()
        config = RunConfig(4.0, 2.0, 0.5, metrics=registry)
        result = run_closed_loop(
            "miser", config, n_users=6, think_time=0.4, horizon=10.0, seed=2
        )
        assert result.telemetry.registry is registry
        assert registry.value("driver.completions") == result.ledger["completed"]
        assert result.ledger["completed"] == len(result.submitted) > 0

    def test_record_rates_gives_a_completion_series(self):
        config = RunConfig(4.0, 2.0, 0.5, record_rates=1.0)
        result = run_closed_loop(
            "fcfs", config, n_users=6, think_time=0.4, horizon=10.0, seed=2
        )
        starts, rates = result.completion_series
        assert len(starts) == len(rates) > 0
        assert sum(rates) * config.record_rates == pytest.approx(len(result.submitted))

    def test_instruments_leave_the_samples_alone(self):
        plain = run_closed_loop(
            "srpt", RunConfig(4.0, 2.0, 0.5), n_users=6,
            think_time=0.4, horizon=10.0, seed=2,
        )
        observed = run_closed_loop(
            "srpt",
            RunConfig(4.0, 2.0, 0.5, metrics=MetricsRegistry(), sample_interval=0.5),
            n_users=6, think_time=0.4, horizon=10.0, seed=2,
        )
        assert plain.engine == auto_engine("srpt") and observed.engine == "scalar"
        assert plain.telemetry is None
        assert np.array_equal(plain.overall.samples, observed.overall.samples)
        assert plain.ledger == observed.ledger

    @pytest.mark.parametrize(
        ("engine", "match"), [("batch", "engine 'batch'"), ("bogus", "unknown")]
    )
    def test_rejects_engines_it_cannot_run(self, engine, match):
        with pytest.raises(ConfigurationError, match=match):
            run_closed_loop(
                "fcfs",
                RunConfig(300, 100, 0.05, engine=engine),
                n_users=5, think_time=1.0, horizon=5.0, seed=1,
            )

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            run_closed_loop(
                "nope", self.CONFIG, n_users=2, think_time=1.0, horizon=5.0
            )


class TestEngineRouting:
    """Which loop serves a population: ``result.engine`` says."""

    CONFIG = RunConfig(4.0, 2.0, 0.5)

    def run(self, policy, config):
        return run_closed_loop(
            policy, config, n_users=6, think_time=0.4, horizon=10.0, seed=2
        )

    @pytest.mark.parametrize(
        ("policy", "admission"),
        [
            ("srpt", "count"),
            ("nudge", "work"),
            ("boost", "count"),
            ("edf", "count"),
            ("edf", "work"),
            ("splitfarm", "work"),
            ("miser", "count"),
            ("fairqueue", "count"),
            ("wf2q", "work"),
            ("drr", "count"),
            ("fcfs", "count"),
            ("fcfs", "work"),
        ],
    )
    def test_auto_path_equals_the_event_loop(self, policy, admission):
        """srpt, nudge, boost, edf and splitfarm take the native closed
        loop where the build carries it; every other policy (the open
        loops' native five included) takes the direct loop.  Either path
        equals the forced event loop."""
        config = RunConfig(4.0, 2.0, 0.5, admission=admission, engine="auto")
        result = self.run(policy, config)
        assert result.engine == auto_engine(policy)
        assert sum(result.ledger.values()) == len(result.submitted)
        assert result.submitted
        scalar = self.run(policy, config.with_engine("scalar"))
        assert scalar.engine == "scalar"
        assert np.array_equal(result.overall.samples, scalar.overall.samples)
        assert result.ledger == scalar.ledger
        assert result.submitted == scalar.submitted

    @pytest.mark.parametrize(
        "sampler",
        [
            ConstantDemand(2.0),
            BimodalDemand(short=1.0, long=2.0**21),
            type("Bimodal", (BimodalDemand,), {})(short=1.0, long=8.0),
            lambda rng: 1.0 + rng.random(),
        ],
        ids=["constant", "beyond-max-size", "subclass", "callable"],
    )
    def test_other_samplers_take_the_direct_loop(self, sampler):
        """Only unit demands and a ``BimodalDemand`` in the size range are
        drawn in C; any other sampler runs on the direct loop."""
        result = run_closed_loop(
            "srpt", self.CONFIG, n_users=6, think_time=0.4, horizon=10.0,
            seed=2, demand_sampler=sampler,
        )
        assert result.engine == "direct"
        assert result.ledger["completed"] == len(result.submitted) > 0

    def test_other_streams_take_the_direct_loop(self, monkeypatch):
        """The C loop draws through numpy's generators; a population whose
        streams are anything else runs on the direct loop."""

        class Stream:
            def __init__(self, seed, user):
                self._rng = np.random.default_rng([seed, user])

            def exponential(self, scale):
                return float(self._rng.exponential(scale))

        monkeypatch.setattr(source_module, "user_stream", Stream)
        result = self.run("edf", self.CONFIG)
        assert result.engine == "direct"
        assert result.ledger["completed"] == len(result.submitted) > 0

    def test_without_the_closed_build_auto_takes_the_direct_loop(self, monkeypatch):
        """Where numpy's random library did not link, the five policies
        fall back to the direct loop, with the same result."""
        built = self.run("splitfarm", self.CONFIG)
        monkeypatch.setattr(native, "closed_available", lambda: False)
        fallback = self.run("splitfarm", self.CONFIG)
        assert fallback.engine == "direct"
        assert np.array_equal(built.overall.samples, fallback.overall.samples)
        assert built.submitted == fallback.submitted

    @pytest.mark.parametrize(
        ("policy", "config"),
        [
            ("srpt", RunConfig(4.0, 2.0, 0.5, engine="scalar")),
            ("fcfs", RunConfig(4.0, 2.0, 0.5, engine="scalar")),
            ("srpt", RunConfig(4.0, 2.0, 0.5, aqm="unbounded")),
            ("miser", RunConfig(4.0, 2.0, 0.5, aqm="static")),
            ("fcfs", RunConfig(4.0, 2.0, 0.5, aqm="codel")),
            ("edf", RunConfig(4.0, 2.0, 0.5, aqm="adaptive")),
            ("split", RunConfig(4.0, 2.0, 0.5, engine="auto")),
            ("splitfarm", RunConfig(4.0, 2.0, 0.5, engine="auto")),
        ],
    )
    def test_event_loop_paths(self, policy, config):
        result = self.run(policy, config)
        assert sum(result.ledger.values()) == len(result.submitted)
        if config.engine != "auto":
            assert result.engine == "scalar"
            return
        # A topology with no window takes the direct loop under auto
        # (splitfarm the native loop where it builds) and must equal its
        # forced event-loop run.
        assert result.engine == auto_engine(policy)
        scalar = self.run(policy, config.with_engine("scalar"))
        assert scalar.engine == "scalar"
        for collector in ("overall", "primary", "overflow"):
            assert np.array_equal(
                getattr(result, collector).samples, getattr(scalar, collector).samples
            ), collector
        assert result.ledger == scalar.ledger
        assert result.primary_misses == scalar.primary_misses

    @pytest.mark.parametrize("policy", ["srpt", "split"])
    @pytest.mark.parametrize(
        ("engine", "match"), [("batch", "engine 'batch'"), ("bogus", "unknown")]
    )
    def test_unrunnable_engines_still_raise(self, policy, engine, match):
        with pytest.raises(ConfigurationError, match=match):
            self.run(policy, RunConfig(4.0, 2.0, 0.5, engine=engine))

    def test_direct_path_validates_the_population(self):
        with pytest.raises(ConfigurationError, match="n_users"):
            run_closed_loop(
                "srpt", self.CONFIG, n_users=0, think_time=1.0, horizon=5.0
            )


class TestClosedLoopAQM:
    """Closed-loop population against an AQM-windowed stack: the window
    adds a fourth (residency) ledger bucket that must drain to zero."""

    @pytest.mark.parametrize("policy", ["split", "miser", "fcfs"])
    def test_window_bucket_drains(self, policy):
        config = RunConfig(4.0, 2.0, 0.5, aqm="static")
        result = run_closed_loop(
            policy, config, n_users=6, think_time=0.4, horizon=20.0, seed=2
        )
        assert sum(result.ledger.values()) == len(result.submitted)
        assert result.ledger["window"] == 0
        assert result.ledger["completed"] == len(result.submitted)

    @pytest.mark.parametrize(
        ("policy", "aqm", "keys"),
        [
            ("miser", "codel", None),
            ("fcfs", "unbounded", None),
            ("split", "static", ("q1", "q2")),
        ],
    )
    def test_window_snapshot_reported(self, policy, aqm, keys):
        config = RunConfig(4.0, 2.0, 0.5, aqm=aqm)
        result = run_closed_loop(
            policy, config, n_users=8, think_time=0.2, horizon=20.0, seed=3
        )
        assert result.aqm == aqm
        snapshots = (
            [result.window] if keys is None else [result.window[k] for k in keys]
        )
        for snapshot in snapshots:
            assert snapshot["policy"] == aqm
            assert snapshot["occupancy"] == 0
        plain = run_closed_loop(
            policy, RunConfig(4.0, 2.0, 0.5), n_users=8, think_time=0.2,
            horizon=20.0, seed=3,
        )
        assert plain.window is None and plain.aqm is None

    def test_shared_window_split(self):
        config = RunConfig(4.0, 2.0, 0.5, aqm="codel", aqm_shared=True)
        result = run_closed_loop(
            "split", config, n_users=8, think_time=0.2, horizon=20.0, seed=3
        )
        assert sum(result.ledger.values()) == len(result.submitted)
        assert result.ledger["window"] == 0

    def test_dormant_identical_with_and_without_aqm_field(self):
        """aqm=None must be byte-identical to the pre-AQM closed loop."""
        plain = run_closed_loop(
            "miser", RunConfig(4.0, 2.0, 0.5), n_users=6,
            think_time=0.4, horizon=20.0, seed=2,
        )
        dormant = run_closed_loop(
            "miser", RunConfig(4.0, 2.0, 0.5, aqm=None), n_users=6,
            think_time=0.4, horizon=20.0, seed=2,
        )
        assert list(plain.overall.samples) == list(dormant.overall.samples)
        assert "window" not in dormant.ledger
