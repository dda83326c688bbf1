"""AQM in-flight windows: controllers, driver integration, run-API knobs.

Three layers under test:

* the window policies themselves (:mod:`repro.server.aqm`) — sizing,
  floors, the CoDel squeeze/grow schedule, AIMD;
* the :class:`~repro.server.driver.DeviceDriver` integration — slot
  accounting across every exit path, gating, conservation;
* the run-layer knobs — ``RunConfig(aqm=...)`` validation, snapshots on
  results, a window keeping its run on the event loop, and the
  headline bufferbloat claim
  (an unbounded device queue destroys ``Q1``; CoDel recovers it).
"""

import numpy as np
import pytest

from repro.core.request import Request
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.sched.fcfs import FCFSScheduler
from repro.server.aqm import (
    AQM_POLICIES,
    DEFAULT_INITIAL_DEPTH,
    DEFAULT_STATIC_DEPTH,
    AdaptiveWindow,
    CoDelWindow,
    InflightWindow,
    make_window,
    resolve_aqm,
)
from repro.server.constant_rate import constant_rate_server
from repro.server.driver import DeviceDriver
from repro.shaping import RunConfig, run_policy
from repro.sim.engine import Simulator
from repro.sim.source import WorkloadSource


def observe(window, sojourn, at, exit=True):
    """Push one synthetic request through the window with ``sojourn``."""
    request = Request(arrival=max(0.0, at - sojourn))
    window.on_enter(request, at - sojourn)
    window.on_dispatch(request, at)
    if exit:
        window.on_exit(request, at)
    return request


class TestInflightWindow:
    def test_depth_validation(self):
        with pytest.raises(ConfigurationError, match="depth"):
            InflightWindow(depth=0)

    def test_unbounded_always_has_slot(self):
        window = InflightWindow(depth=None)
        assert window.depth is None
        for i in range(100):
            assert window.has_slot()
            window.on_enter(Request(arrival=0.0, index=i), 0.0)
        assert window.occupancy == 100 and window.max_occupancy == 100

    def test_static_depth_gates(self):
        window = InflightWindow(depth=3)
        residents = []
        while window.has_slot():
            r = Request(arrival=0.0, index=len(residents))
            window.on_enter(r, 0.0)
            residents.append(r)
        assert len(residents) == 3
        window.on_exit(residents[0], 1.0)
        assert window.has_slot()

    def test_floor_accumulates(self):
        window = InflightWindow(depth=2)
        window.raise_floor(4)
        assert window.depth == 4
        window.raise_floor(3)
        assert window.depth == 7
        with pytest.raises(ConfigurationError, match="concurrency"):
            window.raise_floor(0)

    def test_floor_caps_squeezing(self):
        window = CoDelWindow(target=0.1, interval=0.2, initial=8)
        window.raise_floor(3)
        for i in range(200):
            observe(window, sojourn=1.0, at=i * 0.05)
        assert window.depth == 3  # squeezed, but never below the floor

    def test_exit_is_idempotent(self):
        """A double exit (timeout abort racing a completion) reports
        ``False`` and never drives occupancy negative."""
        window = InflightWindow(depth=4)
        request = Request(arrival=0.0)
        window.on_enter(request, 0.0)
        assert window.on_exit(request, 1.0) is True
        assert window.on_exit(request, 1.0) is False
        assert window.occupancy == 0

    def test_sojourn_accounting(self):
        window = InflightWindow(depth=None)
        observe(window, sojourn=0.5, at=1.0)
        observe(window, sojourn=1.5, at=2.0)
        assert window.last_sojourn == pytest.approx(1.5)
        assert window.mean_sojourn == pytest.approx(1.0)
        assert window.dispatches == 2

    def test_snapshot_fields(self):
        window = InflightWindow(depth=2)
        observe(window, sojourn=0.25, at=1.0)
        snap = window.snapshot()
        assert snap["policy"] == "static"
        assert snap["depth"] == 2
        assert snap["dispatches"] == 1
        assert snap["mean_sojourn"] == pytest.approx(0.25)
        assert {"occupancy", "max_occupancy", "squeezes", "grows", "gated"} <= set(snap)


class TestCoDelWindow:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="target"):
            CoDelWindow(target=0.0, interval=1.0)
        with pytest.raises(ConfigurationError, match="min_depth"):
            CoDelWindow(target=0.1, interval=1.0, initial=2, min_depth=4)

    def test_no_squeeze_before_full_interval(self):
        window = CoDelWindow(target=0.1, interval=1.0, initial=32)
        observe(window, sojourn=0.5, at=0.0)
        observe(window, sojourn=0.5, at=0.9)
        assert window.squeezes == 0 and window.depth == 32

    def test_squeezes_after_full_interval_above_target(self):
        window = CoDelWindow(target=0.1, interval=1.0, initial=32)
        observe(window, sojourn=0.5, at=0.0)
        observe(window, sojourn=0.5, at=1.0)
        assert window.squeezes == 1 and window.depth < 32

    def test_squeeze_schedule_accelerates(self):
        """Sustained badness squeezes faster than once per interval —
        the ``interval / sqrt(n)`` MarkFirst cadence."""
        window = CoDelWindow(target=0.1, interval=1.0, initial=64, min_depth=1)
        horizon = 10.0
        t = 0.0
        while t <= horizon:
            observe(window, sojourn=0.5, at=t)
            t += 0.05
        assert window.squeezes > horizon / window.interval
        assert window.depth < 64

    def test_healthy_sojourn_leaves_squeezing(self):
        window = CoDelWindow(target=0.1, interval=1.0, initial=32)
        observe(window, sojourn=0.5, at=0.0)
        observe(window, sojourn=0.5, at=1.0)  # first squeeze
        depth = window.depth
        observe(window, sojourn=0.01, at=1.5)  # back below target
        observe(window, sojourn=0.01, at=3.0)
        assert window.depth == depth  # no further squeezes, no growth

    def test_growth_requires_saturation(self):
        """Healthy sojourn alone never inflates the window; healthy
        sojourn with occupancy pinned at the limit grows it."""
        window = CoDelWindow(target=0.1, interval=1.0, initial=4, max_depth=16)
        for i in range(50):  # healthy and idle: no growth
            observe(window, sojourn=0.01, at=i * 0.5)
        assert window.grows == 0 and window.depth == 4
        residents = [Request(arrival=0.0, index=i) for i in range(4)]
        for i, r in enumerate(residents):  # pin occupancy at the limit
            window.on_enter(r, 100.0 + i * 0.01)
        for i in range(50):
            observe(window, sojourn=0.01, at=100.0 + i * 0.5)
        assert window.grows > 0 and window.depth > 4
        assert window.depth <= 16

    def test_count_memory_on_reentry(self):
        """Re-entering the squeezing state shortly after leaving resumes
        the accelerated cadence instead of restarting from one."""
        window = CoDelWindow(target=0.1, interval=1.0, initial=64)
        t = 0.0
        while t <= 5.0:  # first squeezing episode
            observe(window, sojourn=0.5, at=t)
            t += 0.05
        count_before = window._squeeze_count
        observe(window, sojourn=0.01, at=t)  # leave squeezing
        observe(window, sojourn=0.5, at=t + 0.5)
        observe(window, sojourn=0.5, at=t + 1.5)  # re-enter
        assert window._squeeze_count == max(1, count_before - 2)


class TestAdaptiveWindow:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="decrease"):
            AdaptiveWindow(target=0.1, interval=1.0, decrease=1.5)
        with pytest.raises(ConfigurationError, match="increase"):
            AdaptiveWindow(target=0.1, interval=1.0, increase=0)

    def test_multiplicative_decrease_rate_limited(self):
        window = AdaptiveWindow(target=0.1, interval=1.0, initial=64, decrease=0.5)
        observe(window, sojourn=0.5, at=0.0)
        assert window.depth == 32
        observe(window, sojourn=0.5, at=0.5)  # within the interval: held
        assert window.depth == 32
        observe(window, sojourn=0.5, at=1.1)
        assert window.depth == 16

    def test_additive_increase_only_when_saturated(self):
        window = AdaptiveWindow(target=0.1, interval=1.0, initial=2, max_depth=8)
        for i in range(30):  # healthy but idle: no growth
            observe(window, sojourn=0.01, at=i * 0.5)
        assert window.depth == 2 and window.grows == 0
        for r in (Request(arrival=0.0, index=i) for i in range(2)):
            window.on_enter(r, 100.0)
        for i in range(30):
            observe(window, sojourn=0.01, at=100.0 + i * 0.5)
        assert window.depth > 2


class TestRegistryFactory:
    def test_policy_names(self):
        assert set(AQM_POLICIES) == {"unbounded", "static", "codel", "adaptive"}

    def test_none_means_no_window(self):
        assert make_window(None, 0.2) is None

    def test_factory_defaults(self):
        assert make_window("unbounded", 0.2).depth is None
        assert make_window("static", 0.2)._depth == DEFAULT_STATIC_DEPTH
        codel = make_window("codel", 0.2)
        assert isinstance(codel, CoDelWindow)
        assert codel.target == pytest.approx(0.1)
        assert codel.interval == pytest.approx(0.2)
        assert codel._depth == DEFAULT_INITIAL_DEPTH
        adaptive = make_window("adaptive", 0.2)
        assert isinstance(adaptive, AdaptiveWindow)
        assert adaptive.target == pytest.approx(0.1)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown aqm window policy"):
            make_window("red", 0.2)

    def test_delta_validated(self):
        with pytest.raises(ConfigurationError, match="delta"):
            make_window("codel", 0.0)

    def test_none_is_not_a_window_name(self):
        """No window is ``aqm=None``; the string ``"none"`` names nothing."""
        with pytest.raises(ConfigurationError, match="unknown aqm window policy 'none'"):
            make_window("none", 0.2)
        with pytest.raises(ConfigurationError, match="unknown aqm window policy 'none'"):
            resolve_aqm("none")

    def test_resolve_aqm_returns_the_name(self):
        assert resolve_aqm(None) is None
        for name in AQM_POLICIES:
            assert resolve_aqm(name) == name
        with pytest.raises(ConfigurationError, match="unknown aqm window policy"):
            resolve_aqm("red")

    def test_env_variable_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_AQM", "codel")
        assert make_window(None, 0.2) is None
        assert resolve_aqm(None) is None


# ---------------------------------------------------------------------------
# Driver integration
# ---------------------------------------------------------------------------


def run_windowed(workload, capacity, window):
    sim = Simulator()
    driver = DeviceDriver(
        sim,
        constant_rate_server(sim, capacity),
        FCFSScheduler(),
        window=window,
    )
    WorkloadSource(sim, workload, driver).start()
    sim.run()
    return driver


class TestDriverIntegration:
    def test_window_drains_and_conserves(self, bursty_workload):
        window = InflightWindow(depth=4)
        driver = run_windowed(bursty_workload, 50.0, window)
        assert len(driver.completed) == len(bursty_workload)
        assert window.occupancy == 0
        assert driver.fault_ledger() == {
            "completed": len(bursty_workload),
            "dropped": 0,
            "shed": 0,
            "window": 0,
        }
        assert window.dispatches == len(bursty_workload)

    def test_occupancy_respects_depth(self, bursty_workload):
        window = InflightWindow(depth=4)
        run_windowed(bursty_workload, 50.0, window)
        assert window.max_occupancy <= 4

    def test_backpressure_counted(self, bursty_workload):
        window = InflightWindow(depth=4)
        run_windowed(bursty_workload, 50.0, window)
        assert window.gated > 0  # bursts exceeded the window

    def test_ledger_shape_unchanged_without_window(self, uniform_workload):
        driver = run_windowed(uniform_workload, 50.0, None)
        assert driver.fault_ledger() == {
            "completed": len(uniform_workload),
            "dropped": 0,
            "shed": 0,
        }
        assert driver.window_snapshot() is None

    def test_fcfs_bitwise_equal_with_and_without_window(self, bursty_workload):
        """For FCFS any window size is order-preserving, so response
        times must match the unwindowed driver exactly."""
        plain = run_windowed(bursty_workload, 50.0, None)
        for window in (InflightWindow(depth=None), InflightWindow(depth=1)):
            windowed = run_windowed(bursty_workload, 50.0, window)
            assert list(windowed.overall.samples) == list(plain.overall.samples)

    def test_floor_raised_to_server_concurrency(self):
        from repro.server.constant_rate import ConstantRateModel
        from repro.server.farm import ServerFarm

        sim = Simulator()
        farm = ServerFarm(sim, [ConstantRateModel(10.0) for _ in range(3)])
        window = InflightWindow(depth=1)
        DeviceDriver(sim, farm, FCFSScheduler(), window=window)
        assert window.depth == 3  # never starves the farm's units


# ---------------------------------------------------------------------------
# Run-layer knobs
# ---------------------------------------------------------------------------

CMIN, DELTA_C, DELTA = 30.0, 10.0, 0.2


@pytest.fixture(scope="module")
def bloat_workload():
    """Steady trickle plus periodic bursts much deeper than any sane
    device queue — the bufferbloat regime."""
    gen = np.random.default_rng(7)
    horizon = 90.0
    steady = gen.uniform(0.0, horizon, 900)
    centers = np.linspace(5.0, horizon - 5.0, 9)
    bursts = np.concatenate([t + gen.uniform(0.0, 0.3, 150) for t in centers])
    return Workload(np.sort(np.concatenate([steady, bursts])), name="bloat")


class TestRunConfigAQM:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="aqm"):
            RunConfig(CMIN, DELTA_C, DELTA, aqm="bogus")

    def test_shared_requires_policy(self):
        with pytest.raises(ConfigurationError, match="aqm_shared"):
            RunConfig(CMIN, DELTA_C, DELTA, aqm_shared=True)

    def test_result_carries_snapshot(self, bloat_workload):
        result = run_policy(
            bloat_workload,
            "miser",
            config=RunConfig(CMIN, DELTA_C, DELTA, aqm="codel"),
        )
        assert result.aqm == "codel"
        assert result.window["policy"] == "codel"
        assert result.window["occupancy"] == 0  # drained

    def test_window_surfaces_in_result(self, bloat_workload):
        """A window on a policy the native loop serves: the fast path
        steps aside (it would bypass the window), the result reports the
        policy and the snapshot, and the window saw every request."""
        config = RunConfig(CMIN, DELTA_C, DELTA, aqm="static")
        result = run_policy(bloat_workload, "fcfs", config=config)
        assert result.engine == "scalar"
        assert result.aqm == "static"
        assert result.window["policy"] == "static"
        assert result.window["occupancy"] == 0
        assert result.window["dispatches"] >= len(bloat_workload)

    def test_no_window_no_snapshot(self, bloat_workload):
        result = run_policy(
            bloat_workload, "miser", config=RunConfig(CMIN, DELTA_C, DELTA)
        )
        assert result.aqm is None and result.window is None

    def test_split_per_queue_windows(self, bloat_workload):
        result = run_policy(
            bloat_workload,
            "split",
            config=RunConfig(CMIN, DELTA_C, DELTA, aqm="static"),
        )
        assert set(result.window) == {"q1", "q2"}
        assert all(w["occupancy"] == 0 for w in result.window.values())

    def test_split_shared_window(self, bloat_workload):
        result = run_policy(
            bloat_workload,
            "split",
            config=RunConfig(CMIN, DELTA_C, DELTA, aqm="static", aqm_shared=True),
        )
        # One shared snapshot, floored at the sum of both servers.
        assert result.window["policy"] == "static"
        assert result.window["depth"] >= 2
        assert result.window["occupancy"] == 0

    def test_aqm_metrics_emitted(self, bloat_workload):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        run_policy(
            bloat_workload,
            "miser",
            config=RunConfig(
                CMIN, DELTA_C, DELTA, metrics=registry, aqm="codel"
            ),
        )
        for name in (
            "aqm.driver.depth",
            "aqm.driver.occupancy",
            "aqm.driver.sojourn",
            "aqm.driver.squeezes",
            "aqm.driver.grows",
            "aqm.driver.gated",
        ):
            assert registry.value(name) is not None
        assert registry.value("aqm.driver.squeezes") > 0
        assert registry.value("aqm.driver.gated") > 0

    def test_sampler_reconciles_with_device_queue(self, bloat_workload):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.sampler import depth_reconciles

        result = run_policy(
            bloat_workload,
            "miser",
            config=RunConfig(
                CMIN,
                DELTA_C,
                DELTA,
                metrics=MetricsRegistry(),
                sample_interval=0.5,
                aqm="static",
            ),
        )
        records = result.telemetry.samples
        assert any(r.get("aqm_device_queued", 0) > 0 for r in records)
        assert depth_reconciles(records)


class TestBufferbloat:
    """The headline claim: an unbounded device queue converts the policy
    to FIFO and destroys ``Q1``; a managed window recovers it."""

    @pytest.fixture(scope="class")
    def results(self, bloat_workload):
        return {
            aqm: run_policy(
                bloat_workload,
                "fairqueue",
                config=RunConfig(CMIN, DELTA_C, DELTA, aqm=aqm),
            )
            for aqm in (None, "unbounded", "static", "codel", "adaptive")
        }

    def test_unbounded_queue_destroys_q1(self, results):
        baseline, bloated = results[None], results["unbounded"]
        assert bloated.primary_misses > 10 * max(1, baseline.primary_misses)
        # Bufferbloat also starves admission: slots stay occupied while
        # completions crawl through the FIFO device queue.
        assert len(bloated.primary) < 0.8 * len(results[None].primary)

    def test_managed_windows_recover(self, results):
        bloated = results["unbounded"].primary_misses
        for aqm in ("static", "codel", "adaptive"):
            assert results[aqm].primary_misses < bloated / 3, aqm

    def test_adaptive_controllers_squeezed(self, results):
        for aqm in ("codel", "adaptive"):
            snap = results[aqm].window
            assert snap["squeezes"] > 0
            assert snap["depth"] < DEFAULT_INITIAL_DEPTH
