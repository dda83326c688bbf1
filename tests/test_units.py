"""Tests for unit helpers, the tolerance rules and the exception hierarchy."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import exceptions, units


class TestUnits:
    def test_ms(self):
        assert units.ms(10) == pytest.approx(0.010)

    def test_us(self):
        assert units.us(250) == pytest.approx(0.00025)

    def test_to_ms_roundtrip(self):
        assert units.to_ms(units.ms(42.5)) == pytest.approx(42.5)

    def test_iops_identity(self):
        assert units.iops(100) == 100.0
        assert isinstance(units.iops(100), float)

    def test_service_time(self):
        assert units.service_time(100.0) == pytest.approx(0.01)

    def test_service_time_invalid(self):
        with pytest.raises(ValueError):
            units.service_time(0.0)

    def test_constants(self):
        assert units.MILLISECOND == 1e-3
        assert units.MICROSECOND == 1e-6


_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_offsets = st.sampled_from([-1e-9, -1e-12, 0.0, 1e-12, 2e-12, 1e-9])


class TestToleranceRules:
    """Knife edges of the deadline predicate and the Q1 limit."""

    @pytest.mark.parametrize("limit", [0.0, 0.01, 12.345, 3600.0])
    def test_met_deadline_holds_at_the_slack_and_fails_one_ulp_past(self, limit):
        edge = limit + units.DEADLINE_SLACK
        assert units.met_deadline(edge, limit)
        assert not units.met_deadline(math.nextafter(edge, math.inf), limit)

    @given(edges=st.lists(st.tuples(_times, _offsets), max_size=30), shared=_times)
    def test_count_within_agrees_with_met_deadline(self, edges, shared):
        # Each value sits on or beside a knife edge: its own limit's
        # (array limits) or the shared limit's (one limit).
        offsets = np.array([offset for _, offset in edges])
        limits = np.array([limit for limit, _ in edges])
        values = limits + offsets
        assert units.count_within(values, limits) == sum(
            units.met_deadline(v, limit)
            for v, limit in zip(values.tolist(), limits.tolist())
        )
        values = shared + offsets
        assert units.count_within(values, shared) == sum(
            units.met_deadline(v, shared) for v in values.tolist()
        )

    def test_count_within_is_an_int(self):
        assert type(units.count_within(np.array([0.5, 2.0]), 1.0)) is int

    def test_q1_limit_counts_a_knife_edge_slot(self):
        assert math.floor(90 * 0.7) == 62
        assert units.q1_limit(90, 0.7) == 63
        # Only representation noise is forgiven, not a real shortfall.
        assert units.q1_limit(1.0, 1.0 - 1e-6) == 0


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            exceptions.WorkloadError,
            exceptions.TraceFormatError,
            exceptions.CapacityError,
            exceptions.SchedulerError,
            exceptions.SimulationError,
            exceptions.AdmissionError,
            exceptions.ConfigurationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, exceptions.ReproError)

    def test_trace_format_error_line_number(self):
        err = exceptions.TraceFormatError("bad field", line_number=12)
        assert "line 12" in str(err)
        assert err.line_number == 12

    def test_trace_format_error_without_line(self):
        err = exceptions.TraceFormatError("bad field")
        assert str(err) == "bad field"
        assert err.line_number is None

    def test_catchable_as_repro_error(self):
        with pytest.raises(exceptions.ReproError):
            raise exceptions.CapacityError("no bracket")
