"""Tests for the capacity planner (binary search for Cmin)."""

import numpy as np
import pytest

from repro.core.capacity import CapacityPlan, CapacityPlanner, min_capacity
from repro.core.rtt import decompose
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError

from ..conftest import random_workload


class TestMinCapacity:
    def test_minimality_and_sufficiency(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05)
        for fraction in (0.8, 0.9, 0.95, 1.0):
            cmin = planner.min_capacity(fraction)
            required = planner._required_count(fraction)
            assert planner.admitted_at(cmin) >= required
            assert planner.admitted_at(cmin - 1) < required

    def test_monotone_in_fraction(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05)
        caps = [planner.min_capacity(f) for f in (0.5, 0.8, 0.9, 0.99, 1.0)]
        assert caps == sorted(caps)

    def test_monotone_in_delta(self, bursty_workload):
        caps = [
            CapacityPlanner(bursty_workload, d).min_capacity(0.9)
            for d in (0.01, 0.02, 0.05, 0.1)
        ]
        assert caps == sorted(caps, reverse=True)

    def test_full_fraction_admits_everything(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.02)
        cmin = planner.min_capacity(1.0)
        result = decompose(bursty_workload, cmin, 0.02)
        assert result.n_admitted == len(bursty_workload)

    def test_empty_workload(self, empty_workload):
        planner = CapacityPlanner(empty_workload, 0.1)
        assert planner.min_capacity(1.0) == 1.0

    def test_single_request(self, single_request):
        planner = CapacityPlanner(single_request, 0.1)
        # One request in 100 ms -> 10 IOPS suffices and is minimal.
        assert planner.min_capacity(1.0) == 10.0

    def test_subnormal_arrivals(self):
        # The mean rate overflows to inf; the answer is still 2 in 100 ms.
        workload = Workload(np.array([5e-324, 1e-310]))
        assert workload.mean_rate == float("inf")
        assert CapacityPlanner(workload, 0.1).min_capacity(1.0) == 20.0

    def test_invalid_fraction(self, uniform_workload):
        planner = CapacityPlanner(uniform_workload, 0.1)
        with pytest.raises(ConfigurationError):
            planner.min_capacity(0.0)
        with pytest.raises(ConfigurationError):
            planner.min_capacity(1.5)

    def test_invalid_delta(self, uniform_workload):
        with pytest.raises(ConfigurationError):
            CapacityPlanner(uniform_workload, 0.0)

    def test_real_valued_search(self, uniform_workload):
        planner = CapacityPlanner(
            uniform_workload, 0.05, integral=False, tolerance=0.01
        )
        cmin = planner.min_capacity(0.9)
        integral = CapacityPlanner(uniform_workload, 0.05).min_capacity(0.9)
        assert cmin <= integral + 1e-9
        assert integral - cmin < 1.5

    @pytest.mark.parametrize("seed", range(8))
    def test_random_workloads_round_trip(self, seed):
        w = random_workload(seed, n=80, horizon=6.0)
        planner = CapacityPlanner(w, 0.1)
        cmin = planner.min_capacity(0.9)
        frac = decompose(w, cmin, 0.1).fraction_admitted
        assert frac >= 0.9 - 1e-12


class TestCaching:
    def test_evaluations_are_memoized(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05)
        planner.min_capacity(0.9)
        n_after_first = len(planner._cache)
        planner.min_capacity(0.9)
        assert len(planner._cache) == n_after_first

    def test_capacity_curve_shares_cache(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05)
        curve = planner.capacity_curve([0.8, 0.9, 1.0])
        assert set(curve) == {0.8, 0.9, 1.0}
        assert curve[0.8] <= curve[0.9] <= curve[1.0]

    def test_batched_representation_stays_arrays(self, bursty_workload):
        # The kernel backends consume the planner's arrays zero-copy.
        planner = CapacityPlanner(bursty_workload, 0.05)
        assert isinstance(planner._instants, np.ndarray)
        assert isinstance(planner._counts, np.ndarray)
        assert planner._instants.dtype == np.float64
        assert planner._counts.dtype == np.int64


class TestWarmStart:
    """Cached evaluations double as bisection brackets; none of the
    shortcuts may change any answer."""

    def test_warm_searches_match_cold(self, bursty_workload):
        warm = CapacityPlanner(bursty_workload, 0.05)
        fractions = (1.0, 0.99, 0.95, 0.9, 0.8, 0.5)
        warm_caps = [warm.min_capacity(f) for f in fractions]
        cold_caps = [
            CapacityPlanner(bursty_workload, 0.05).min_capacity(f)
            for f in fractions
        ]
        assert warm_caps == cold_caps

    def test_warm_start_reduces_evaluations(self, bursty_workload):
        warm = CapacityPlanner(bursty_workload, 0.05)
        warm.min_capacity(1.0)
        before = len(warm._cache)
        warm.min_capacity(0.95)
        warm_evals = len(warm._cache) - before
        cold = CapacityPlanner(bursty_workload, 0.05)
        cold.min_capacity(0.95)
        assert warm_evals < len(cold._cache)

    def test_prefill_matches_direct_evaluation(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05)
        grid = [3.0, 17.0, 40.5, 96.0, 200.0]
        planner.prefill(grid)
        fresh = CapacityPlanner(bursty_workload, 0.05)
        for capacity in grid:
            assert planner._cache[capacity] == fresh.admitted_at(capacity)

    def test_prefill_does_not_change_min_capacity(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05)
        planner.prefill(np.geomspace(1.0, 500.0, 20).tolist())
        fresh = CapacityPlanner(bursty_workload, 0.05)
        for fraction in (0.8, 0.9, 0.95, 1.0):
            assert planner.min_capacity(fraction) == fresh.min_capacity(fraction)

    def test_prefill_ignores_nonpositive_and_duplicates(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05)
        planner.prefill([10.0, 10.0, -5.0, 0.0])
        assert set(planner._cache) == {10.0}

    def test_minimality_after_curve(self, bursty_workload):
        # capacity_curve prefills a grid; minimality must survive it.
        planner = CapacityPlanner(bursty_workload, 0.05)
        curve = planner.capacity_curve([0.8, 0.9, 0.95, 1.0])
        for fraction, cmin in curve.items():
            required = planner._required_count(fraction)
            assert planner.admitted_at(cmin) >= required
            assert planner.admitted_at(cmin - 1) < required

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_random_workloads_warm_vs_cold(self, seed):
        workload = random_workload(seed, n=60, horizon=4.0)
        warm = CapacityPlanner(workload, 0.1)
        for fraction in (1.0, 0.9, 0.75):
            cold = CapacityPlanner(workload, 0.1)
            assert warm.min_capacity(fraction) == cold.min_capacity(fraction)


class TestPlan:
    def test_default_delta_c(self, bursty_workload):
        plan = CapacityPlanner(bursty_workload, 0.05).plan(0.9)
        assert plan.delta_c == pytest.approx(1.0 / 0.05)
        assert plan.total_capacity == plan.cmin + plan.delta_c
        assert plan.achieved_fraction >= 0.9

    def test_explicit_delta_c(self, bursty_workload):
        plan = CapacityPlanner(bursty_workload, 0.05).plan(0.9, delta_c=5.0)
        assert plan.delta_c == 5.0

    def test_plan_fields(self, bursty_workload):
        plan = CapacityPlanner(bursty_workload, 0.05).plan(0.95)
        assert isinstance(plan, CapacityPlan)
        assert plan.workload_name == "bursty"
        assert plan.fraction == 0.95
        assert plan.delta == 0.05


class TestConvenienceWrapper:
    def test_min_capacity_function(self, uniform_workload):
        direct = min_capacity(uniform_workload, 0.1, 0.9)
        via_planner = CapacityPlanner(uniform_workload, 0.1).min_capacity(0.9)
        assert direct == via_planner


class TestKneeShape:
    def test_bursty_workload_has_knee(self, bursty_workload):
        """The paper's core observation: guaranteeing the last few percent
        of a bursty workload costs a disproportionate amount of capacity."""
        planner = CapacityPlanner(bursty_workload, 0.02)
        curve = planner.capacity_curve([0.7, 1.0])
        assert curve[1.0] / curve[0.7] > 2.0

    def test_smooth_workload_has_no_knee(self):
        w = Workload(np.arange(2000) * 0.005)  # perfectly paced, 200 IOPS
        planner = CapacityPlanner(w, 0.05)
        curve = planner.capacity_curve([0.9, 1.0])
        assert curve[1.0] / curve[0.9] < 1.3


class TestDeviceDepthCorrection:
    """``device_depth`` plans against ``δ_eff(C) = δ − k·E[S]/C`` — the
    deadline budget left after the driver's in-flight window."""

    def test_validation(self, bursty_workload):
        with pytest.raises(ConfigurationError, match="device_depth"):
            CapacityPlanner(bursty_workload, 0.05, device_depth=0)
        with pytest.raises(ConfigurationError, match="mean_demand"):
            CapacityPlanner(bursty_workload, 0.05, mean_demand=0.0)

    def test_effective_delta_without_depth_is_delta(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05)
        assert planner.effective_delta(10.0) == 0.05
        assert planner.effective_delta(1e6) == 0.05

    def test_effective_delta_monotone_in_capacity(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05, device_depth=4)
        deltas = [planner.effective_delta(c) for c in (50.0, 100.0, 200.0, 1e6)]
        assert deltas == sorted(deltas)
        assert deltas[-1] == pytest.approx(0.05, rel=1e-3)
        assert all(0.0 <= d <= 0.05 for d in deltas)

    def test_budget_eaten_entirely_admits_nothing(self, bursty_workload):
        planner = CapacityPlanner(bursty_workload, 0.05, device_depth=4)
        # 4 unit-demand residents at 10 IOPS need 0.4 s >> 0.05 budget.
        assert planner.effective_delta(10.0) == 0.0
        assert planner.admitted_at(10.0) == 0

    def test_deeper_queue_needs_more_capacity(self, bursty_workload):
        plain = CapacityPlanner(bursty_workload, 0.05).min_capacity(0.9)
        caps = [
            CapacityPlanner(bursty_workload, 0.05, device_depth=k).min_capacity(0.9)
            for k in (1, 4, 16)
        ]
        assert caps == sorted(caps)
        assert caps[0] >= plain

    def test_admitted_never_exceeds_uncorrected(self, bursty_workload):
        plain = CapacityPlanner(bursty_workload, 0.05)
        depth = CapacityPlanner(bursty_workload, 0.05, device_depth=8)
        for capacity in (40.0, 80.0, 160.0, 320.0):
            assert depth.admitted_at(capacity) <= plain.admitted_at(capacity)

    def test_prefill_agrees_with_direct_evaluation(self, bursty_workload):
        """The per-capacity prefill loop (the kernel sweep can't vary
        δ_eff) must land exactly the direct results in the cache."""
        a = CapacityPlanner(bursty_workload, 0.05, device_depth=4)
        b = CapacityPlanner(bursty_workload, 0.05, device_depth=4)
        grid = [40.0, 60.0, 90.0, 130.0]
        a.prefill(grid)
        assert {c: a._cache[c] for c in grid} == {
            c: b.admitted_at(c) for c in grid
        }

    def test_prefill_does_not_change_min_capacity(self, bursty_workload):
        warm = CapacityPlanner(bursty_workload, 0.05, device_depth=4)
        warm.prefill(np.linspace(10.0, 400.0, 40).tolist())
        cold = CapacityPlanner(bursty_workload, 0.05, device_depth=4)
        for fraction in (0.8, 0.95, 1.0):
            assert warm.min_capacity(fraction) == cold.min_capacity(fraction)

    def test_mean_demand_defaults_to_workload_mean(self):
        wl = Workload([0.0, 1.0, 2.0], sizes=[2.0, 4.0, 6.0], name="sized")
        planner = CapacityPlanner(wl, 0.5, device_depth=2)
        assert planner.mean_demand == pytest.approx(4.0)
        # δ_eff(C) = 0.5 − 2·4/C
        assert planner.effective_delta(32.0) == pytest.approx(0.25)
