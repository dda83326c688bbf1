"""Tests for repro.core.workload."""

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.exceptions import WorkloadError


class TestConstruction:
    def test_from_list(self):
        w = Workload([0.0, 1.0, 2.5])
        assert len(w) == 3
        assert w.arrivals.tolist() == [0.0, 1.0, 2.5]

    def test_from_array(self):
        w = Workload(np.array([0.5, 1.5]))
        assert len(w) == 2

    def test_empty(self):
        w = Workload([])
        assert len(w) == 0
        assert w.duration == 0.0
        assert w.mean_rate == 0.0

    def test_name_and_metadata(self):
        w = Workload([1.0], name="x", metadata={"k": 1})
        assert w.name == "x"
        assert w.metadata == {"k": 1}

    def test_metadata_copied(self):
        meta = {"k": 1}
        w = Workload([1.0], metadata=meta)
        meta["k"] = 2
        assert w.metadata["k"] == 1

    def test_rejects_unsorted(self):
        with pytest.raises(WorkloadError, match="sorted"):
            Workload([2.0, 1.0])

    def test_rejects_negative(self):
        with pytest.raises(WorkloadError, match="non-negative"):
            Workload([-1.0, 2.0])

    def test_rejects_2d(self):
        with pytest.raises(WorkloadError, match="1-D"):
            Workload(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        ("arrivals", "sizes", "match"),
        [
            ([0.0, 0.1, np.nan, 0.3, 0.4], None, "arrivals must be finite"),
            ([0.0, np.inf], None, "arrivals must be finite"),
            ([0.0, 1.0], [1.0, np.nan], "sizes must be finite"),
            ([0.0, 1.0], [np.inf, 1.0], "sizes must be finite"),
        ],
        ids=["nan-arrival", "inf-arrival", "nan-size", "inf-size"],
    )
    def test_rejects_non_finite(self, arrivals, sizes, match):
        """NaN passes the sorted and non-negative checks, and the engines
        then read it differently; infinity is no arrival time either."""
        with pytest.raises(WorkloadError, match=match):
            Workload(arrivals, sizes=sizes)

    def test_ties_allowed(self):
        w = Workload([1.0, 1.0, 1.0])
        assert len(w) == 3

    def test_arrivals_read_only(self):
        w = Workload([1.0, 2.0])
        with pytest.raises(ValueError):
            w.arrivals[0] = 5.0

    def test_iteration(self):
        w = Workload([1.0, 2.0])
        assert list(w) == [1.0, 2.0]


class TestFromCounts:
    def test_basic(self, toy_workload):
        assert len(toy_workload) == 5
        assert toy_workload.arrivals.tolist() == [1.0, 1.0, 2.0, 2.0, 3.0]

    def test_zero_counts_skipped(self):
        w = Workload.from_counts([1.0, 2.0, 3.0], [1, 0, 2])
        assert w.arrivals.tolist() == [1.0, 3.0, 3.0]

    def test_shape_mismatch(self):
        with pytest.raises(WorkloadError, match="shape"):
            Workload.from_counts([1.0, 2.0], [1])

    def test_negative_count(self):
        with pytest.raises(WorkloadError, match="non-negative"):
            Workload.from_counts([1.0], [-1])

    def test_roundtrip_with_arrival_counts(self, toy_workload):
        instants, counts = toy_workload.arrival_counts()
        again = Workload.from_counts(instants, counts)
        assert np.array_equal(again.arrivals, toy_workload.arrivals)


class TestFromRequests:
    def test_roundtrip(self, uniform_workload):
        requests = uniform_workload.to_requests()
        again = Workload.from_requests(requests)
        assert np.array_equal(again.arrivals, uniform_workload.arrivals)

    def test_request_indices_sequential(self, toy_workload):
        requests = toy_workload.to_requests(client_id=7)
        assert [r.index for r in requests] == [0, 1, 2, 3, 4]
        assert all(r.client_id == 7 for r in requests)


class TestStatistics:
    def test_duration(self, toy_workload):
        assert toy_workload.duration == 3.0

    def test_mean_rate(self, toy_workload):
        assert toy_workload.mean_rate == pytest.approx(5.0 / 3.0)

    def test_peak_rate_finds_burst(self, bursty_workload):
        # 300 requests in ~0.4 s dwarf the 20 IOPS floor.
        assert bursty_workload.peak_rate(0.1) > 300.0

    def test_peak_to_mean_unity_for_constant(self):
        w = Workload(np.arange(1000) * 0.01)  # exactly 100 IOPS
        # Float binning can push a boundary arrival one bin over (11/10).
        assert w.peak_to_mean(0.1) == pytest.approx(1.0, rel=0.12)

    def test_peak_rate_empty(self, empty_workload):
        assert empty_workload.peak_rate() == 0.0

    def test_rate_series_sums_to_total(self, uniform_workload):
        starts, rates = uniform_workload.rate_series(0.5)
        assert rates.sum() * 0.5 == pytest.approx(len(uniform_workload))
        assert starts[0] == 0.0

    def test_rate_series_bad_bin(self, uniform_workload):
        with pytest.raises(WorkloadError, match="bin_width"):
            uniform_workload.rate_series(0.0)

    def test_describe_keys(self, uniform_workload):
        d = uniform_workload.describe()
        assert d["requests"] == 100
        assert d["name"] == "uniform"
        assert d["mean_rate_iops"] > 0


class TestTransforms:
    def test_shift_plain(self, toy_workload):
        shifted = toy_workload.shift(2.0)
        assert shifted.arrivals.tolist() == [3.0, 3.0, 4.0, 4.0, 5.0]

    def test_shift_zero_identity(self, toy_workload):
        assert np.array_equal(toy_workload.shift(0.0).arrivals, toy_workload.arrivals)

    def test_shift_negative_rejected(self, toy_workload):
        with pytest.raises(WorkloadError, match="non-negative"):
            toy_workload.shift(-1.0)

    def test_shift_wrap_preserves_count_and_span(self, uniform_workload):
        wrapped = uniform_workload.shift(3.0, wrap=True)
        assert len(wrapped) == len(uniform_workload)
        assert wrapped.duration <= uniform_workload.duration + 1e-9

    def test_shift_wrap_is_rotation(self):
        w = Workload([1.0, 2.0, 3.0, 4.0])  # duration (wrap period) 4
        wrapped = w.shift(1.0, wrap=True)
        # 3 + 1 wraps to 0 and 4 + 1 to 1; the rest move up by 1.
        assert wrapped.arrivals.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_merge_sorted(self, toy_workload, uniform_workload):
        merged = toy_workload.merge(uniform_workload)
        assert len(merged) == len(toy_workload) + len(uniform_workload)
        assert np.all(np.diff(merged.arrivals) >= 0)

    def test_merge_name(self, toy_workload):
        merged = toy_workload.merge(toy_workload, name="pair")
        assert merged.name == "pair"

    def test_window(self):
        w = Workload([0.5, 1.5, 2.5, 3.5])
        cut = w.window(1.0, 3.0)
        assert cut.arrivals.tolist() == [0.5, 1.5]  # re-based

    def test_window_invalid(self, toy_workload):
        with pytest.raises(WorkloadError, match="window"):
            toy_workload.window(3.0, 1.0)

    def test_scale_rate_doubles_mean(self, uniform_workload):
        fast = uniform_workload.scale_rate(2.0)
        assert fast.mean_rate == pytest.approx(2 * uniform_workload.mean_rate)

    def test_scale_rate_invalid(self, uniform_workload):
        with pytest.raises(WorkloadError, match="positive"):
            uniform_workload.scale_rate(0.0)

    def test_head(self, toy_workload):
        assert len(toy_workload.head(2)) == 2

    def test_transforms_do_not_mutate(self, toy_workload):
        before = toy_workload.arrivals.copy()
        toy_workload.shift(1.0)
        toy_workload.merge(toy_workload)
        toy_workload.window(0.0, 2.0)
        toy_workload.scale_rate(2.0)
        assert np.array_equal(toy_workload.arrivals, before)


class TestInterarrivals:
    def test_gaps(self):
        w = Workload([1.0, 1.5, 3.0])
        assert w.interarrivals().tolist() == [0.5, 1.5]

    def test_short_workloads(self, empty_workload, single_request):
        assert empty_workload.interarrivals().size == 0
        assert single_request.interarrivals().size == 0
        assert single_request.interarrival_cv() == 0.0

    def test_cv_paced_is_zero(self):
        w = Workload(np.arange(100) * 0.01)
        assert w.interarrival_cv() == pytest.approx(0.0, abs=1e-9)

    def test_cv_poisson_near_one(self, rng):
        w = Workload(np.sort(rng.uniform(0, 100.0, 5000)))
        assert w.interarrival_cv() == pytest.approx(1.0, abs=0.1)

    def test_cv_bursty_above_one(self, bursty_workload):
        assert bursty_workload.interarrival_cv() > 1.2
