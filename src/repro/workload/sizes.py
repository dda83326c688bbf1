"""Service-demand samplers: give requests a size.

A demand sampler is a callable with a ``describe()`` method for
provenance metadata, drawn in one of two forms that follow numpy's own
``size=None`` convention:

* ``sampler(rng, n)`` returns an array of ``n`` positive demands (the
  columnar form a workload is sized with);
* ``sampler(rng)`` returns one demand as a Python ``float`` (the form a
  closed-loop user draws per request).

The scalar form is bit-identical to the first element of a size-1 draw:
``sampler(rng) == sampler(rng, 1)[0]``, and it advances ``rng`` exactly
as far, so a per-request stream that interleaves demand draws with other
draws from the same generator is unchanged whichever form it uses.

Demands are in units of the unit-cost request (1.0 = the paper's model):
a rate-``C`` server takes ``demand / C`` seconds to serve a request of
demand ``demand``.

:class:`BimodalDemand` is the long/short job mix the work-bound
admission study (``repro.experiments.workbound``) is built around: a
mostly-short stream with a heavy minority of long jobs is precisely the
shape under which count-bound and work-bound ``C·δ`` admission diverge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..sim.rng import derive_seed, make_rng


@dataclass(frozen=True)
class ConstantDemand:
    """Every request costs exactly ``demand`` units."""

    demand: float = 1.0

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ConfigurationError(
                f"demand must be positive, got {self.demand}"
            )

    def __call__(
        self, rng: np.random.Generator, n: int | None = None
    ) -> np.ndarray | float:
        if n is None:
            return float(self.demand)
        return np.full(n, self.demand, dtype=np.float64)

    def describe(self) -> dict:
        return {"sampler": "constant", "demand": self.demand}


@dataclass(frozen=True)
class ExponentialDemand:
    """Exponential demands with the given mean (M/M/1-style service)."""

    mean: float = 1.0

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ConfigurationError(f"mean must be positive, got {self.mean}")

    def __call__(
        self, rng: np.random.Generator, n: int | None = None
    ) -> np.ndarray | float:
        return rng.exponential(self.mean, n)

    def describe(self) -> dict:
        return {"sampler": "exponential", "mean": self.mean}


@dataclass(frozen=True)
class LognormalDemand:
    """Lognormal demands — the skewed-but-light-tailed service shape.

    ``median`` sets ``exp(mu)``; ``sigma`` is the log-space standard
    deviation controlling the tail weight.
    """

    median: float = 1.0
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if self.median <= 0:
            raise ConfigurationError(
                f"median must be positive, got {self.median}"
            )
        if self.sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")

    def __call__(
        self, rng: np.random.Generator, n: int | None = None
    ) -> np.ndarray | float:
        return rng.lognormal(float(np.log(self.median)), self.sigma, n)

    def describe(self) -> dict:
        return {"sampler": "lognormal", "median": self.median, "sigma": self.sigma}


@dataclass(frozen=True)
class BimodalDemand:
    """Short/long job mix: demand ``short`` w.p. ``1 - long_fraction``.

    The canonical divergence workload for count-bound vs work-bound
    admission: under a count bound, one admitted long job silently eats
    ``long / short`` times its budgeted service slot.
    """

    short: float = 1.0
    long: float = 10.0
    long_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.short <= 0 or self.long <= 0:
            raise ConfigurationError("short and long demands must be positive")
        if not 0 <= self.long_fraction <= 1:
            raise ConfigurationError(
                f"long_fraction must be in [0, 1], got {self.long_fraction}"
            )

    def __call__(
        self, rng: np.random.Generator, n: int | None = None
    ) -> np.ndarray | float:
        if n is None:
            return float(
                self.long if rng.random() < self.long_fraction else self.short
            )
        long_mask = rng.random(n) < self.long_fraction
        return np.where(long_mask, self.long, self.short).astype(np.float64)

    def describe(self) -> dict:
        return {
            "sampler": "bimodal",
            "short": self.short,
            "long": self.long,
            "long_fraction": self.long_fraction,
        }


def attach_demands(workload: Workload, sampler, seed: int = 0) -> Workload:
    """A copy of ``workload`` with demands drawn from ``sampler``.

    The sampler is fed a generator seeded by
    ``derive_seed(seed, "demands", workload.name)`` so the same workload
    and seed always produce the same sizes, independent of draw history.
    """
    rng = make_rng(derive_seed(seed, "demands", workload.name))
    sizes = np.asarray(sampler(rng, len(workload)), dtype=np.float64)
    sized = workload.with_sizes(sizes)
    describe = getattr(sampler, "describe", None)
    sized.metadata["demands"] = describe() if describe else repr(sampler)
    return sized
