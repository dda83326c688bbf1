"""Tests for the theoretical bounds (Lemma 1 and friends)."""

import numpy as np
import pytest

from repro.check.oracle import oracle_max_admitted_discrete
from repro.core.bounds import (
    lemma1_lower_bound,
    lower_bound_drops,
    max_admissible_bruteforce,
    sgn,
    subset_feasible,
)
from repro.core.rtt import decompose, decompose_fluid
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError

from ..conftest import random_workload


class TestSgn:
    def test_negative_is_zero(self):
        assert sgn(-0.5) == 0

    def test_zero(self):
        assert sgn(0.0) == 0

    def test_positive_ceils(self):
        assert sgn(0.1) == 1
        assert sgn(1.0) == 1
        assert sgn(1.5) == 2


class TestLemma1:
    def test_no_overload(self, toy_workload):
        assert lemma1_lower_bound(toy_workload, 10.0, 1.0) == 0

    def test_simultaneous_batch(self):
        # 5 at once; SCL at t=1 is C*(1+1)=2 -> at least 3 must miss.
        w = Workload([1.0] * 5)
        assert lemma1_lower_bound(w, 1.0, 1.0) == 3

    def test_empty(self, empty_workload):
        assert lemma1_lower_bound(empty_workload, 1.0, 1.0) == 0

    def test_validation(self, toy_workload):
        with pytest.raises(ConfigurationError):
            lemma1_lower_bound(toy_workload, 0.0, 1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_is_a_true_lower_bound(self, seed):
        """No algorithm (not even the fluid optimum) beats Lemma 1."""
        w = random_workload(seed, n=12, horizon=2.0)
        gen = np.random.default_rng(seed)
        capacity = float(gen.integers(1, 8))
        delta = float(gen.choice([0.2, 0.5, 1.0]))
        bound = lemma1_lower_bound(w, capacity, delta)
        opt = max_admissible_bruteforce(w, capacity, delta, discrete=False)
        assert len(w) - opt >= bound


class TestLowerBoundDrops:
    def test_sums_over_busy_periods(self):
        # Two identical overloaded bursts far apart: drops add up.
        burst = [0.0] * 4
        w = Workload(burst + [100.0 + t for t in burst])
        single = Workload(burst)
        # A(0)=4 but S(0+delta)=1: three of the four must miss.
        per_burst = lemma1_lower_bound(single, 1.0, 1.0)
        assert per_burst == 3
        assert lower_bound_drops(w, 1.0, 1.0) == 6

    def test_matches_lemma1_for_single_busy_period(self):
        w = Workload([0.0] * 5)
        assert lower_bound_drops(w, 1.0, 1.0) == lemma1_lower_bound(w, 1.0, 1.0)

    @pytest.mark.parametrize("seed", range(25))
    def test_rtt_fluid_attains_bound_or_better(self, seed):
        """Fluid RTT's drops are never below the lower bound (validity)
        and the bound should usually be tight on these small cases."""
        w = random_workload(seed, n=14, horizon=3.0)
        gen = np.random.default_rng(seed)
        capacity = float(gen.integers(1, 6))
        delta = float(gen.choice([0.25, 0.5, 1.0]))
        bound = lower_bound_drops(w, capacity, delta)
        drops = decompose_fluid(w, capacity, delta).n_overflow
        assert drops >= bound

    @pytest.mark.parametrize("seed", range(25))
    def test_discrete_rtt_respects_bound(self, seed):
        w = random_workload(100 + seed, n=14, horizon=3.0)
        gen = np.random.default_rng(seed)
        capacity = float(gen.integers(1, 6))
        delta = float(gen.choice([0.25, 0.5, 1.0]))
        bound = lower_bound_drops(w, capacity, delta)
        drops = decompose(w, capacity, delta).n_overflow
        assert drops >= bound


class TestSubsetFeasible:
    def test_feasible_single(self):
        assert subset_feasible([0.0], 10.0, 1.0)

    def test_infeasible_batch(self):
        assert not subset_feasible([0.0, 0.0, 0.0], 1.0, 1.0)

    def test_discrete_stricter_than_fluid(self):
        # C*delta = 1.5: fluid fits 1.5 requests' worth, discrete only 1.
        arrivals = [0.0, 0.0]
        assert not subset_feasible(arrivals, 3.0, 0.5, discrete=True)
        # fluid: backlog 2 > 1.5 -> also infeasible
        assert not subset_feasible(arrivals, 3.0, 0.5, discrete=False)
        # One arrival shortly after another can ride the fractional slack.
        arrivals = [0.0, 0.25]
        assert subset_feasible(arrivals, 3.0, 0.5, discrete=True)

    def test_empty_subset_feasible(self):
        assert subset_feasible([], 1.0, 1.0)

    def test_knife_edge_tolerance_is_the_kernels(self):
        """A finish late by more than ``EPS / C`` seconds misses, as the
        kernels and the exact oracle count it, however much less than
        ``EPS`` seconds it is late by."""
        capacity, delta = 1000.0, 0.001 - 5e-10  # late by 5e-10 s > EPS / C
        workload = Workload([0.0])
        assert not subset_feasible([0.0], capacity, delta)
        assert max_admissible_bruteforce(workload, capacity, delta) == 0
        assert decompose(workload, capacity, delta).n_admitted == 0
        assert oracle_max_admitted_discrete([0.0], capacity, delta) == 0
        # Late by less than EPS / C: met, by all three.
        delta = 0.001 - 5e-13
        assert max_admissible_bruteforce(workload, capacity, delta) == 1
        assert decompose(workload, capacity, delta).n_admitted == 1
        assert oracle_max_admitted_discrete([0.0], capacity, delta) == 1


class TestBruteForce:
    def test_limits_input_size(self):
        w = Workload([0.0] * 21)
        with pytest.raises(ConfigurationError, match="20"):
            max_admissible_bruteforce(w, 1.0, 1.0)

    def test_all_feasible(self, toy_workload):
        assert max_admissible_bruteforce(toy_workload, 100.0, 1.0) == 5

    def test_none_feasible(self):
        w = Workload([0.0, 0.0])
        # C*delta < 1: even a single request misses.
        assert max_admissible_bruteforce(w, 0.5, 1.0) == 0
