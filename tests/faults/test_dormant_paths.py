"""Edge paths of the fault layer: dormant retry and streak boundaries.

Two under-tested corners called out by the verification work:

* the conservation ledger when ``retry=None`` leaves the timeout path
  dormant — crash-requeued requests must still be accounted exactly
  once, with no retry machinery to sweep them up;
* :class:`repro.faults.AdaptiveShaper`'s hysteresis exactly *at* the
  ``trip_ticks`` / ``clear_ticks`` streak boundaries, and the
  restore-after-clear edge (limit back to the planned bound, streak
  state fully reset for the next episode).
"""

from repro.core.workload import Workload
from repro.faults import (
    AdaptiveShaper,
    ControllerConfig,
    FaultSchedule,
    check_conservation,
    run_resilient,
)
from repro.faults.schedule import random_schedule
from repro.sched.registry import make_scheduler
from repro.server.constant_rate import constant_rate_server
from repro.server.driver import DeviceDriver
from repro.sim.engine import Simulator
from tests.conftest import random_workload

CMIN, DELTA_C, DELTA = 10.0, 2.0, 0.5


class TestConservationWithDormantRetry:
    """``retry=None``: no timeouts, no drops — yet nothing may leak."""

    def test_healthy_run_completes_everything(self):
        workload = random_workload(101, n=60, horizon=4.0)
        result = run_resilient(
            workload, "miser", CMIN, DELTA_C, DELTA, retry=None
        )
        assert result.conservation is not None
        assert result.conservation.ok
        assert len(result.completed) == len(workload)
        assert result.dropped == [] and result.shed == []

    def test_crash_requeue_conserves_without_retry(self):
        workload = random_workload(102, n=80, horizon=4.0)
        schedule = random_schedule(7, horizon=4.0, crashes=2, droops=1, storms=1)
        result = run_resilient(
            workload,
            "miser",
            CMIN,
            DELTA_C,
            DELTA,
            schedule=schedule,
            retry=None,
            inflight="requeue",
        )
        assert result.conservation is not None and result.conservation.ok
        # The dormant retry path must not have dropped anything: with
        # requeue semantics every arrival eventually completes.
        assert len(result.completed) == len(workload)
        assert result.dropped == []
        # Re-audit the ledgers through the public checker directly.
        report = check_conservation(
            list(result.completed) + list(result.dropped) + list(result.shed),
            result.completed,
            dropped=result.dropped,
            shed=result.shed,
        )
        assert report.ok

    def test_no_retry_means_zero_retry_counters(self):
        workload = random_workload(103, n=50, horizon=4.0)
        schedule = random_schedule(9, horizon=4.0, crashes=1, droops=1, storms=0)
        result = run_resilient(
            workload, "fairqueue", CMIN, DELTA_C, DELTA,
            schedule=schedule, retry=None,
        )
        assert result.conservation is not None and result.conservation.ok
        # Crash requeues are not driver timeouts: with retry=None no
        # request may carry a timeout-retry beyond the crash requeues,
        # and every completion is unique.
        assert len({id(r) for r in result.completed}) == len(result.completed)

    def test_empty_schedule_matches_empty_ledgers(self):
        result = run_resilient(
            Workload([]), "fcfs", CMIN, DELTA_C, DELTA,
            schedule=FaultSchedule(), retry=None,
        )
        assert result.conservation is not None and result.conservation.ok
        assert result.completed == []


def _shaper(config):
    sim = Simulator()
    scheduler = make_scheduler("miser", CMIN, DELTA_C, DELTA)
    driver = DeviceDriver(
        sim, constant_rate_server(sim, CMIN + DELTA_C), scheduler
    )
    return driver, AdaptiveShaper(driver, config=config)


def _window(driver, completed, missed):
    driver.q1_completed += completed
    driver.q1_missed += missed


class TestShaperStreakBoundaries:
    """Trip and clear must fire on exactly the Nth tick, not around it."""

    def test_trip_fires_on_exactly_the_trip_ticks_th_bad_tick(self):
        driver, shaper = _shaper(ControllerConfig(trip_ticks=3, shrink=0.5))
        planned = shaper.planned_limit
        for tick in range(1, 4):
            _window(driver, completed=10, missed=5)
            shaper.tick()
            if tick < 3:
                assert not shaper.degraded, f"tripped early on tick {tick}"
                assert shaper.classifier.limit == planned
        assert shaper.degraded
        assert shaper.degrades == 1
        assert shaper.classifier.limit == max(1, int(planned * 0.5))

    def test_clear_fires_on_exactly_the_clear_ticks_th_clean_tick(self):
        driver, shaper = _shaper(ControllerConfig(trip_ticks=1, clear_ticks=4))
        planned = shaper.planned_limit
        _window(driver, completed=10, missed=5)
        shaper.tick()
        assert shaper.degraded
        for tick in range(1, 5):
            _window(driver, completed=10, missed=0)
            shaper.tick()
            if tick < 4:
                assert shaper.degraded, f"recovered early on tick {tick}"
                assert shaper.classifier.limit < planned
        assert not shaper.degraded
        assert shaper.recoveries == 1
        assert shaper.classifier.limit == planned

    def test_restore_after_clear_resets_streaks_for_next_episode(self):
        """The restore edge: a second trip/clear cycle behaves like the
        first — no stale streak state survives a recovery."""
        driver, shaper = _shaper(ControllerConfig(trip_ticks=2, clear_ticks=2))
        planned = shaper.planned_limit
        for episode in range(1, 3):
            # A single bad tick right after restore must NOT trip (the
            # bad streak starts from zero each episode).
            _window(driver, completed=10, missed=5)
            shaper.tick()
            assert not shaper.degraded
            _window(driver, completed=10, missed=5)
            shaper.tick()
            assert shaper.degraded
            assert shaper.degrades == episode
            # A single clean tick must NOT clear.
            _window(driver, completed=10, missed=0)
            shaper.tick()
            assert shaper.degraded
            _window(driver, completed=10, missed=0)
            shaper.tick()
            assert not shaper.degraded
            assert shaper.recoveries == episode
            assert shaper.classifier.limit == planned

    def test_interrupted_clean_streak_defers_recovery(self):
        driver, shaper = _shaper(
            ControllerConfig(
                trip_ticks=1,
                clear_ticks=2,
                enter_miss_rate=0.10,
                exit_miss_rate=0.02,
            )
        )
        _window(driver, completed=10, missed=5)
        shaper.tick()
        assert shaper.degraded
        _window(driver, completed=10, missed=0)
        shaper.tick()
        # Dead-band window (5% miss: between exit 2% and enter 10%)
        # resets the clean streak without tripping.
        _window(driver, completed=100, missed=5)
        shaper.tick()
        assert shaper.degraded
        _window(driver, completed=10, missed=0)
        shaper.tick()
        assert shaper.degraded, "clean streak must restart after dead band"
        _window(driver, completed=10, missed=0)
        shaper.tick()
        assert not shaper.degraded

    def test_recovery_limit_equals_planned_not_just_bigger(self):
        driver, shaper = _shaper(
            ControllerConfig(trip_ticks=1, clear_ticks=1, shrink=0.5)
        )
        planned = shaper.planned_limit
        # Degrade twice: limit shrinks geometrically below planned/2.
        for _ in range(2):
            _window(driver, completed=10, missed=5)
            shaper.tick()
        assert shaper.classifier.limit <= max(1, int(planned * 0.25))
        _window(driver, completed=10, missed=0)
        shaper.tick()
        assert shaper.classifier.limit == planned
