"""Tests for statistics collection."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.sim.stats import OnlineStats, RateRecorder, ResponseTimeCollector


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.count == 0
        assert s.variance == 0.0

    def test_matches_numpy(self, rng):
        data = rng.normal(5.0, 2.0, 500)
        s = OnlineStats()
        for x in data:
            s.add(float(x))
        assert s.count == 500
        assert s.mean == pytest.approx(data.mean())
        assert s.variance == pytest.approx(data.var(), rel=1e-9)
        assert s.std == pytest.approx(data.std(), rel=1e-9)
        assert s.min == data.min()
        assert s.max == data.max()

    def test_single_sample(self):
        s = OnlineStats()
        s.add(3.0)
        assert s.mean == 3.0
        assert s.variance == 0.0

    def test_merge_equals_concatenation(self, rng):
        a_data = rng.normal(0, 1, 200)
        b_data = rng.normal(10, 3, 300)
        a, b = OnlineStats(), OnlineStats()
        for x in a_data:
            a.add(float(x))
        for x in b_data:
            b.add(float(x))
        merged = a.merge(b)
        joint = np.concatenate([a_data, b_data])
        assert merged.count == 500
        assert merged.mean == pytest.approx(joint.mean())
        assert merged.variance == pytest.approx(joint.var(), rel=1e-9)
        assert merged.min == joint.min()

    def test_merge_with_empty(self):
        a = OnlineStats()
        a.add(1.0)
        merged = a.merge(OnlineStats())
        assert merged.count == 1
        assert merged.mean == 1.0


class TestResponseTimeCollector:
    def test_fraction_within(self):
        c = ResponseTimeCollector()
        c.extend([0.01, 0.02, 0.03, 0.04])
        assert c.fraction_within(0.025) == pytest.approx(0.5)
        assert c.fraction_within(1.0) == 1.0
        assert c.fraction_within(0.0) == 0.0

    def test_fraction_within_boundary_inclusive(self):
        c = ResponseTimeCollector()
        c.add(0.01)
        assert c.fraction_within(0.01) == 1.0

    def test_empty_fraction_is_nan(self):
        # An empty collector has no compliance to report: NaN, not a
        # vacuous 1.0 that would read as "perfect compliance".
        assert math.isnan(ResponseTimeCollector().fraction_within(0.1))

    def test_negative_sample_rejected(self):
        c = ResponseTimeCollector("q")
        with pytest.raises(SimulationError, match="negative"):
            c.add(-0.1)
        # extend names the collector too, and stores none of the batch.
        with pytest.raises(SimulationError, match=r"negative response time -0.2 in q"):
            c.extend([0.1, -0.2, 0.3])
        assert len(c) == 0

    def test_cdf(self):
        c = ResponseTimeCollector()
        c.extend([0.3, 0.1, 0.2])
        xs, ys = c.cdf()
        assert xs.tolist() == [0.1, 0.2, 0.3]
        assert ys.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_percentile(self):
        c = ResponseTimeCollector()
        c.extend(np.arange(1, 101) / 1000.0)
        assert c.percentile(50) == pytest.approx(0.0505, abs=1e-3)

    def test_binned_fractions_paper_style(self):
        c = ResponseTimeCollector()
        c.extend([0.04, 0.08, 0.4, 0.9, 2.0])
        bins = c.binned_fractions([0.05, 0.1, 0.5, 1.0])
        assert bins["<=0.05"] == pytest.approx(0.2)
        assert bins["<=0.1"] == pytest.approx(0.4)
        assert bins["<=0.5"] == pytest.approx(0.6)
        assert bins["<=1"] == pytest.approx(0.8)
        assert bins[">1"] == pytest.approx(0.2)

    def test_binned_fractions_empty_edges_rejected(self):
        c = ResponseTimeCollector()
        c.add(0.1)
        with pytest.raises(ConfigurationError, match="at least one edge"):
            c.binned_fractions([])

    def test_binned_fractions_unsorted_edges_rejected(self):
        c = ResponseTimeCollector()
        c.add(0.1)
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            c.binned_fractions([0.5, 0.1])
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            c.binned_fractions([0.1, 0.1])

    def test_summary_keys(self):
        c = ResponseTimeCollector("q1")
        c.extend([0.1, 0.2])
        s = c.summary()
        assert s["name"] == "q1"
        assert s["count"] == 2
        assert s["max"] == 0.2

    def test_len(self):
        c = ResponseTimeCollector()
        c.extend([0.1, 0.2, 0.3])
        assert len(c) == 3


def _eager_add(stats: OnlineStats, x: float) -> None:
    """Reference: the eager Welford update, applied as each sample arrives."""
    stats.count += 1
    delta = x - stats.mean
    stats.mean += delta / stats.count
    stats._m2 += delta * (x - stats.mean)
    if x < stats.min:
        stats.min = x
    if x > stats.max:
        stats.max = x


SAMPLES = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)
COLLECTOR_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), SAMPLES),
        st.tuples(st.just("extend"), st.lists(SAMPLES, max_size=8)),
        st.tuples(st.just("extend_array"), st.lists(SAMPLES, max_size=8)),
        st.tuples(st.just("read")),
    ),
    max_size=80,
)


class TestLazyMoments:
    """``stats`` folds pending samples on read; it must equal folding
    each sample in as it arrives, bit for bit."""

    @given(COLLECTOR_OPS)
    def test_moments_bit_identical_to_eager_welford(self, operations):
        collector = ResponseTimeCollector()
        reference = OnlineStats()

        def assert_same():
            stats = collector.stats
            assert stats.count == reference.count
            assert stats.mean == reference.mean
            assert stats.variance == reference.variance
            assert stats.min == reference.min
            assert stats.max == reference.max

        for op in operations:
            if op[0] == "add":
                collector.add(op[1])
                _eager_add(reference, op[1])
            elif op[0] == "extend":
                collector.extend(op[1])
                for x in op[1]:
                    _eager_add(reference, x)
            elif op[0] == "extend_array":
                collector.extend_array(op[1])
                reference.add_array(op[1])
            else:
                assert_same()
        # A negative sample still raises at add and leaves no trace.
        with pytest.raises(SimulationError, match="negative"):
            collector.add(-1e-9)
        assert_same()
        assert len(collector) == reference.count


class TestColumnStore:
    """A collector that adopts a float64 column reads exactly as one that
    added the same samples one by one."""

    @staticmethod
    def pair(values):
        listed = ResponseTimeCollector("c")
        for x in values:
            listed.add(x)
        column = ResponseTimeCollector.adopting("c", np.array(values, dtype=np.float64))
        return listed, column

    @given(
        st.lists(SAMPLES, max_size=60),
        st.floats(0.0, 1e3),
        st.floats(0.0, 100.0),
    )
    def test_every_view_equals_the_lists(self, values, bound, p):
        listed, column = self.pair(values)
        assert column.samples.tobytes() == listed.samples.tobytes()
        assert len(column) == len(listed)
        # repr: an empty collector's NaN compliance equals itself.
        assert repr(column.fraction_within(bound)) == repr(listed.fraction_within(bound))
        assert column.percentile(p) == listed.percentile(p)
        assert column.percentile_exact(p) == listed.percentile_exact(p)
        for mine, theirs in zip(column.cdf(), listed.cdf()):
            assert mine.tobytes() == theirs.tobytes()
        assert column.summary() == listed.summary()
        assert vars(column.stats) == vars(listed.stats)
        # The moments fold the column as Python floats.
        assert all(
            type(value) in (int, float) for value in vars(column.stats).values()
        )

    def test_an_empty_column(self):
        column = ResponseTimeCollector.adopting("c", np.empty(0))
        assert len(column) == 0
        assert math.isnan(column.fraction_within(1.0))
        assert column.percentile(50) == column.percentile_exact(50) == 0.0
        assert [a.size for a in column.cdf()] == [0, 0]
        assert column.summary() == ResponseTimeCollector("c").summary()

    def test_the_column_cannot_be_written_through_samples(self):
        values = np.array([0.1, 0.2, 0.3])
        column = ResponseTimeCollector.adopting("c", values)
        # A pickled copy (a result sent back by a worker process) too.
        for collector in (column, pickle.loads(pickle.dumps(column))):
            with pytest.raises(ValueError, match="read-only"):
                collector.samples[0] = 5.0
            assert collector.samples.tolist() == [0.1, 0.2, 0.3]

    @given(st.lists(SAMPLES, max_size=20), COLLECTOR_OPS)
    def test_add_and_extend_continue_as_a_list(self, values, operations):
        listed, column = self.pair(values)
        for op in operations:
            for collector in (listed, column):
                if op[0] == "read":
                    collector.stats
                else:
                    getattr(collector, op[0])(op[1])
            assert column.samples.tobytes() == listed.samples.tobytes()
            assert vars(column.stats) == vars(listed.stats)

    def test_a_negative_sample_is_refused(self):
        with pytest.raises(SimulationError, match="negative response time -0.5 in c"):
            ResponseTimeCollector.adopting("c", np.array([0.1, -0.5, 0.2]))


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


class TestRateRecorder:
    def test_series(self):
        r = RateRecorder(bin_width=1.0)
        for t in (0.1, 0.2, 1.5, 3.9):
            r.record(t)
        starts, rates = r.series()
        assert starts.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert rates.tolist() == [2.0, 1.0, 0.0, 1.0]

    def test_peak(self):
        r = RateRecorder(bin_width=0.5)
        for t in (0.1, 0.2, 0.3):
            r.record(t)
        assert r.peak_rate() == pytest.approx(6.0)

    def test_empty(self):
        starts, rates = RateRecorder().series()
        assert starts.size == 0
        assert RateRecorder().peak_rate() == 0.0

    def test_invalid_bin(self):
        with pytest.raises(SimulationError):
            RateRecorder(bin_width=0.0)

    def test_negative_time_rejected(self):
        r = RateRecorder(bin_width=1.0)
        with pytest.raises(SimulationError, match="negative"):
            r.record(-0.5)

    def test_floor_binning_near_zero(self):
        # int() truncation would have put a time in (-bin, 0) into bin 0;
        # flooring plus the negative-time guard keeps bins well-defined,
        # and times exactly on an edge go to the upper bin.
        r = RateRecorder(bin_width=1.0)
        r.record(0.0)
        r.record(1.0)
        r.record(0.999999)
        starts, rates = r.series()
        assert starts.tolist() == [0.0, 1.0]
        assert rates.tolist() == [2.0, 1.0]
