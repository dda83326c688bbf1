"""Trace fuzzer with counterexample shrinking.

Generates adversarial arrival streams, feeds them through the oracle and
differential checkers, and — when something breaks — minimizes the
failing trace with a delta-debugging shrinker so the reproducer that
lands in ``tests/corpus/`` is small enough to read.

Design constraints that keep the fuzz loop *sound*:

* Arrival instants are snapped to a millisecond grid and capacities /
  deadlines are drawn from small-denominator rationals that are exact
  binary floats.  On the *decimal* grid every feasibility margin is a
  multiple of ``1/(1000 * denom(C))`` — but grid instants like 1.386
  are not exact binary floats, so zero-margin ties can land one ulp
  (``~2**-53``) on either side of the deadline in exact arithmetic.
  The checkers therefore share the kernels' documented ``EPS`` tie
  semantics (see :mod:`repro.check.oracle` and the tolerance-aware
  mask comparison in :mod:`repro.check.differential`): sub-EPS knife
  edges resolve permissively everywhere, and any disagreement coarser
  than EPS is a real logic bug, never numerical noise.
* Every case derives its RNG stream from ``(seed, generator, index)``
  via :func:`repro.sim.rng.derive_seed`, so a fuzz campaign is fully
  reproducible from one integer and cases can be re-run in isolation.

Generators
----------
``poisson``
    Smooth baseline traffic (the least bursty stream at a given rate).
``onoff``
    Two-state MMPP bursts over a quiet background.
``bmodel``
    Multifractal b-model cascade (the paper's burst model).
``adversarial``
    Handcrafted nasties: storms sized exactly at the ``maxQ1 = C*delta``
    boundary, arrivals placed to tie the deadline-feasibility test at
    ``delta`` exactly, zero-gap duplicate batches, and dense spikes
    aligned with the windows of a :func:`repro.faults.schedule.
    random_schedule` (the shapes that overlap fault injection in the
    chaos suite).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..faults.schedule import random_schedule
from ..sim.rng import derive_seed, make_rng
from ..traces.synthetic import bmodel_workload, mmpp2_workload, poisson_workload
from ..units import q1_limit
from .oracle import certify_optimality

#: Fuzzable generator names, in round-robin order.
GENERATORS = ("poisson", "onoff", "bmodel", "adversarial")

#: Binary-exact capacities with small denominators (see module docstring).
CAPACITIES = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 2.5, 3.25, 7.5)

#: Binary-exact deadlines.
DELTAS = (0.125, 0.25, 0.5, 1.0, 2.0)

_GRID = 1000.0  # millisecond arrival grid


def _snap(arrivals: np.ndarray, limit: int) -> np.ndarray:
    """Clamp to the grid, re-sort, and cap the trace length."""
    snapped = np.sort(np.round(np.asarray(arrivals, dtype=float) * _GRID) / _GRID)
    return snapped[:limit]


@dataclass(frozen=True)
class FuzzCase:
    """One generated verification input."""

    generator: str
    seed: int
    capacity: float
    delta: float
    arrivals: tuple

    def workload(self) -> Workload:
        return Workload(
            np.asarray(self.arrivals, dtype=float),
            name=f"fuzz-{self.generator}-{self.seed}",
            metadata={"generator": self.generator, "seed": self.seed},
        )


def _params(rng: np.random.Generator) -> tuple[float, float]:
    capacity = float(CAPACITIES[int(rng.integers(len(CAPACITIES)))])
    delta = float(DELTAS[int(rng.integers(len(DELTAS)))])
    return capacity, delta


def _gen_poisson(rng: np.random.Generator, capacity: float) -> np.ndarray:
    # Rate around the capacity so admission decisions actually bind.
    rate = capacity * float(rng.uniform(0.5, 3.0))
    w = poisson_workload(max(rate, 0.5), duration=4.0, seed=rng)
    return w.arrivals


def _gen_onoff(rng: np.random.Generator, capacity: float) -> np.ndarray:
    w = mmpp2_workload(
        rate_off=max(0.2 * capacity, 0.2),
        rate_on=capacity * float(rng.uniform(2.0, 8.0)),
        mean_off=0.5,
        mean_on=float(rng.uniform(0.1, 0.6)),
        duration=4.0,
        seed=rng,
    )
    return w.arrivals


def _gen_bmodel(rng: np.random.Generator, capacity: float) -> np.ndarray:
    w = bmodel_workload(
        rate=capacity * float(rng.uniform(0.8, 2.5)),
        duration=4.0,
        bias=float(rng.uniform(0.55, 0.85)),
        slot_width=0.016,
        seed=rng,
    )
    return w.arrivals


def _gen_adversarial(
    rng: np.random.Generator, capacity: float, delta: float
) -> np.ndarray:
    """Boundary storms, delta-ties, zero-gap batches, fault-window spikes."""
    limit = max(1, q1_limit(capacity, delta))
    shape = int(rng.integers(4))
    arrivals: list[float] = []
    if shape == 0:
        # Storms sized at the maxQ1 boundary: exactly limit, limit +- 1
        # requests in zero-gap batches, spaced so the queue may or may
        # not fully drain between them.
        t = 0.0
        for _ in range(int(rng.integers(2, 6))):
            size = limit + int(rng.integers(-1, 2))
            arrivals.extend([t] * max(1, size))
            gap = float(rng.choice([0.5, 1.0, 2.0])) * limit / capacity
            t = round((t + gap) * _GRID) / _GRID
    elif shape == 1:
        # Deadline ties: fill the queue at t=0, then place single
        # arrivals exactly where the feasibility test ties at delta —
        # the k-th admitted request finishes at k/C, so an arrival at
        # a = k/C - delta (grid-rounded) ties or knife-edges the bound.
        arrivals.extend([0.0] * (limit + int(rng.integers(0, 3))))
        for k in range(1, int(rng.integers(2, 2 + 2 * limit))):
            tie = k / capacity - delta + float(rng.choice([0.0, 1 / _GRID, -1 / _GRID]))
            if tie >= 0:
                arrivals.append(round(tie * _GRID) / _GRID)
    elif shape == 2:
        # Zero-gap duplicates: a handful of instants, heavy batches.
        instants = np.sort(rng.uniform(0.0, 2.0, int(rng.integers(2, 6))))
        for t in instants:
            arrivals.extend([float(t)] * int(rng.integers(1, 4 * limit + 2)))
    else:
        # Spikes aligned with chaos-schedule fault windows.
        schedule = random_schedule(
            int(rng.integers(2**31)), horizon=4.0, crashes=1, droops=1, storms=1
        )
        base = poisson_workload(capacity, duration=4.0, seed=rng).arrivals.tolist()
        arrivals.extend(base)
        for event in schedule.events:
            start = getattr(event, "start", 0.0)
            arrivals.extend(
                np.round(
                    rng.uniform(start, start + 0.05, int(2 * limit + 2)) * _GRID
                )
                / _GRID
            )
    return np.sort(np.asarray(arrivals, dtype=float))


def make_case(
    generator: str, seed: int, index: int = 0, max_requests: int = 160
) -> FuzzCase:
    """Build the deterministic fuzz case ``(generator, seed, index)``."""
    if generator not in GENERATORS:
        raise ConfigurationError(
            f"unknown generator {generator!r}; choose from {GENERATORS}"
        )
    rng = make_rng(derive_seed(seed, "check.fuzz", generator, index))
    capacity, delta = _params(rng)
    if generator == "poisson":
        arrivals = _gen_poisson(rng, capacity)
    elif generator == "onoff":
        arrivals = _gen_onoff(rng, capacity)
    elif generator == "bmodel":
        arrivals = _gen_bmodel(rng, capacity)
    else:
        arrivals = _gen_adversarial(rng, capacity, delta)
    arrivals = _snap(arrivals, max_requests)
    if arrivals.size == 0:
        arrivals = np.array([0.0])
    return FuzzCase(
        generator=generator,
        seed=seed,
        capacity=capacity,
        delta=delta,
        arrivals=tuple(arrivals.tolist()),
    )


@dataclass(frozen=True)
class Disagreement:
    """A fuzz case on which a checker failed, plus its shrunk form."""

    case: FuzzCase
    problems: tuple[str, ...]
    shrunk: FuzzCase | None = None


def check_case(case: FuzzCase, models: tuple[str, ...] = ("discrete", "fluid")) -> list[str]:
    """Run the oracle over one case; return problem strings (empty = ok)."""
    problems: list[str] = []
    workload = case.workload()
    for model in models:
        report = certify_optimality(workload, case.capacity, case.delta, model=model)
        if not report.ok:
            problems.append(report.summary())
    return problems


def fuzz_oracle(
    n_cases: int,
    seed: int = 0,
    generators: Sequence[str] = GENERATORS,
    shrink: bool = True,
) -> list[Disagreement]:
    """Round-robin ``n_cases`` fuzzed traces through the oracle.

    Returns the (hopefully empty) list of disagreements, each with a
    shrunk reproducer attached when ``shrink=True``.
    """
    failures: list[Disagreement] = []
    for index in range(n_cases):
        generator = generators[index % len(generators)]
        case = make_case(generator, seed, index)
        problems = check_case(case)
        if problems:
            shrunk = shrink_case(case, lambda c: bool(check_case(c))) if shrink else None
            failures.append(
                Disagreement(case=case, problems=tuple(problems), shrunk=shrunk)
            )
    return failures


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def shrink_arrivals(
    arrivals: Sequence[float],
    still_fails: Callable[[tuple], bool],
    max_rounds: int = 12,
) -> tuple:
    """Delta-debugging minimization of a failing arrival sequence.

    Repeatedly tries to delete contiguous chunks (halving granularity
    down to single requests), then to simplify the survivors by
    re-basing the trace at zero.  ``still_fails`` receives a candidate
    arrival tuple and must return ``True`` while the failure persists.
    The result is 1-minimal per chunk size: removing any single
    remaining request stops the failure (or the round cap was hit).
    """
    current = tuple(arrivals)
    if not still_fails(current):
        raise ConfigurationError("shrink_arrivals needs an initially-failing trace")
    for _ in range(max_rounds):
        changed = False
        n_chunks = 2
        while n_chunks <= max(2, len(current)):
            size = max(1, len(current) // n_chunks)
            removed_any = False
            start = 0
            while start < len(current):
                candidate = current[:start] + current[start + size:]
                if candidate and still_fails(candidate):
                    current = candidate
                    removed_any = True
                    # Do not advance: the next chunk slid into place.
                else:
                    start += size
            if removed_any:
                changed = True
                n_chunks = max(2, n_chunks // 2)
            else:
                if size == 1:
                    break
                n_chunks = min(len(current), n_chunks * 2)
        # Simplification pass: re-base at zero (smaller numbers shrink
        # the reproducer's visual size without changing gaps).
        if current and current[0] > 0:
            base = current[0]
            rebased = tuple(round((t - base) * _GRID) / _GRID for t in current)
            if still_fails(rebased):
                current = rebased
                changed = True
        if not changed:
            break
    return current


def shrink_case(case: FuzzCase, still_fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    """Minimize a failing :class:`FuzzCase` (arrival-sequence shrinking)."""
    arrivals = shrink_arrivals(
        case.arrivals, lambda arr: still_fails(replace(case, arrivals=arr))
    )
    return replace(case, arrivals=arrivals)
