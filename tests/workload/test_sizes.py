"""Tests for the service-demand samplers and attach_demands."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.workload import (
    BimodalDemand,
    ConstantDemand,
    ExponentialDemand,
    LognormalDemand,
    attach_demands,
)

SAMPLERS = [
    ConstantDemand(2.0),
    ExponentialDemand(mean=1.5),
    LognormalDemand(median=1.0, sigma=0.8),
    BimodalDemand(short=0.5, long=6.0, long_fraction=0.2),
]


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda s: s.describe()["sampler"])
class TestSamplerContract:
    def test_shape_and_positivity(self, sampler, rng):
        out = sampler(rng, 250)
        assert out.shape == (250,)
        assert out.dtype == np.float64
        assert np.all(out > 0)

    def test_describe_is_jsonable_provenance(self, sampler):
        desc = sampler.describe()
        assert isinstance(desc, dict)
        assert "sampler" in desc

    def test_deterministic_per_generator_state(self, sampler):
        a = sampler(np.random.default_rng(99), 50)
        b = sampler(np.random.default_rng(99), 50)
        assert np.array_equal(a, b)


def _one_element(sampler):
    """Reference: the one-element columnar draw closed loops used to make."""
    return lambda rng: float(np.asarray(sampler(rng, 1)).reshape(-1)[0])


_POSITIVE = st.floats(min_value=1e-6, max_value=1e6) | st.integers(1, 10**6)
_ANY_SAMPLER = st.one_of(
    st.builds(ConstantDemand, _POSITIVE),
    st.builds(ExponentialDemand, _POSITIVE),
    st.builds(LognormalDemand, _POSITIVE, st.floats(min_value=1e-3, max_value=3.0)),
    st.builds(BimodalDemand, _POSITIVE, _POSITIVE, st.floats(0.0, 1.0)),
)


class TestScalarDraw:
    @given(
        sampler=_ANY_SAMPLER,
        seed=st.integers(0, 2**63 - 1),
        think=_POSITIVE,
        steps=st.integers(1, 12),
    )
    def test_matches_one_element_draw_and_stream(self, sampler, seed, think, steps):
        # Interleave demand draws with other draws on the same generator,
        # as a closed-loop user does with its think times.
        rng = np.random.default_rng(seed)
        rng2 = np.random.default_rng(seed)
        reference = _one_element(sampler)
        for _ in range(steps):
            assert rng.exponential(think) == rng2.exponential(think)
            drawn = sampler(rng)
            assert type(drawn) is float
            assert drawn == reference(rng2)
            assert rng.bit_generator.state == rng2.bit_generator.state


class TestSpecificShapes:
    def test_constant_value(self, rng):
        assert np.all(ConstantDemand(3.5)(rng, 10) == 3.5)

    def test_bimodal_values(self, rng):
        out = BimodalDemand(short=1.0, long=8.0, long_fraction=0.3)(rng, 500)
        assert set(np.unique(out)) <= {1.0, 8.0}

    def test_bimodal_fraction_edges(self, rng):
        assert np.all(BimodalDemand(long_fraction=0.0)(rng, 100) == 1.0)
        all_long = BimodalDemand(long=5.0, long_fraction=1.0)(rng, 100)
        assert np.all(all_long == 5.0)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ConstantDemand(0.0),
            lambda: ConstantDemand(-1.0),
            lambda: ExponentialDemand(mean=0.0),
            lambda: LognormalDemand(median=-1.0),
            lambda: LognormalDemand(sigma=0.0),
            lambda: BimodalDemand(short=0.0),
            lambda: BimodalDemand(long=-2.0),
            lambda: BimodalDemand(long_fraction=1.5),
        ],
    )
    def test_validation(self, factory):
        with pytest.raises(ConfigurationError):
            factory()


class TestAttachDemands:
    def test_sizes_and_metadata(self, uniform_workload):
        sampler = ExponentialDemand(mean=2.0)
        sized = attach_demands(uniform_workload, sampler, seed=4)
        assert sized.has_sizes
        assert sized.sizes.shape == (len(uniform_workload),)
        assert sized.metadata["demands"] == sampler.describe()
        assert np.array_equal(sized.arrivals, uniform_workload.arrivals)

    def test_original_untouched(self, uniform_workload):
        attach_demands(uniform_workload, ConstantDemand(2.0), seed=4)
        assert uniform_workload.sizes is None

    def test_deterministic_by_seed_and_name(self, uniform_workload):
        sampler = LognormalDemand()
        a = attach_demands(uniform_workload, sampler, seed=4)
        b = attach_demands(uniform_workload, sampler, seed=4)
        c = attach_demands(uniform_workload, sampler, seed=5)
        assert np.array_equal(a.sizes, b.sizes)
        assert not np.array_equal(a.sizes, c.sizes)

    def test_name_feeds_the_stream(self):
        arrivals = np.linspace(0.0, 5.0, 40)
        x = attach_demands(Workload(arrivals, name="x"), ExponentialDemand(), seed=1)
        y = attach_demands(Workload(arrivals, name="y"), ExponentialDemand(), seed=1)
        assert not np.array_equal(x.sizes, y.sizes)
