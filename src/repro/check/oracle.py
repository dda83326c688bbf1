"""Offline optimal-admission oracle: an exact DP over rational arithmetic.

The paper's central claim (Lemmas 1-3) is that RTT's greedy online rule
admits a *maximum* feasible set: no partition — online or offline — can
guarantee the ``delta`` deadline to more requests.  The production code
already tests this against :func:`repro.core.bounds.
max_admissible_bruteforce`, but the brute force is ``O(2^n)`` and only
runs on toy streams.  This module provides an independent polynomial
oracle so the claim can be checked on *fuzzed* streams of realistic
length:

* the subset served in ``Q1`` runs in arrival order (FCFS is optimal for
  a uniform relative deadline — an exchange argument, also used by the
  brute force), so choosing the admitted set is a 0/1 selection problem
  over the sorted arrivals;
* dynamic programming over ``(prefix, number admitted)`` with the value
  "minimum achievable finish time" (discrete model) or "minimum backlog"
  (fluid model) is exact: a smaller finish/backlog dominates every
  future decision, so keeping only the minimum per admitted-count loses
  nothing;
* all arithmetic is :class:`fractions.Fraction` — the oracle does not
  round and shares no code with the float kernels it certifies.

**Tie semantics.**  The kernels document an ``EPS`` (``1e-9``
room-units) tie tolerance: a request whose deadline margin is a hair
negative still counts as feasible, because decimal-grid arrivals are not
binary-exact and strict comparison would let one-ulp representation
noise decide admissions (see :data:`repro.units.EPS`).  The oracle
certifies optimality under the *same* feasibility relation, so its
default ``tie_tolerance`` equals the kernels'.  Pass ``tie_tolerance=0``
to get the strict-rational optimum instead (it can differ by one
request exactly at such knife edges — that is the representation gap,
not an implementation bug).

Complexity is ``O(n^2)`` time / ``O(n)`` space, comfortably fast for the
fuzzer's few-hundred-request traces.

The oracle answers "how many requests *could* a clairvoyant partitioner
admit"; :func:`certify_optimality` compares that against what the online
implementation (:func:`repro.core.rtt.decompose` /
:func:`~repro.core.rtt.decompose_fluid`) actually admitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..core.rtt import decompose, decompose_fluid
from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..units import EPS

#: Server models the oracle understands.
MODELS = ("discrete", "fluid")

#: Default tie tolerance, matching the float kernels (room/queue units).
DEFAULT_TIE_TOLERANCE = EPS


def _to_fractions(
    arrivals: Sequence[float], capacity, delta
) -> tuple[list[Fraction], Fraction, Fraction]:
    cap = Fraction(capacity)
    dl = Fraction(delta)
    if cap <= 0 or dl <= 0:
        raise ConfigurationError("capacity and delta must be positive")
    times = [Fraction(float(t)) for t in arrivals]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ConfigurationError("arrivals must be sorted non-decreasing")
    return times, cap, dl


def oracle_max_admitted_discrete(
    arrivals: Sequence[float], capacity, delta,
    tie_tolerance=DEFAULT_TIE_TOLERANCE,
) -> int:
    """Maximum deadline-meeting subset, discrete server model (exact).

    The server completes one request every ``1/C`` seconds.  DP state:
    ``best[j]`` is the minimum finish instant of the last served request
    over all feasible ways to admit ``j`` requests from the prefix
    processed so far (``best[0] = 0``).  Admitting the arrival at ``t``
    on top of a ``j``-admission plan finishes at ``max(best[j], t) +
    1/C`` and is feasible iff that is ``<= t + delta`` (plus the tie
    tolerance, expressed in room units and hence ``tie_tolerance / C``
    seconds — the kernels' admission rule is ``floor(room + EPS)``).
    """
    times, cap, dl = _to_fractions(arrivals, capacity, delta)
    service = 1 / cap
    slack = Fraction(tie_tolerance) / cap
    best: list[Fraction] = [Fraction(0)]
    for t in times:
        deadline = t + dl + slack
        # Descend so each request is admitted at most once per prefix.
        for j in range(len(best) - 1, -1, -1):
            candidate = (best[j] if best[j] > t else t) + service
            if candidate <= deadline:
                if j + 1 == len(best):
                    best.append(candidate)
                elif candidate < best[j + 1]:
                    best[j + 1] = candidate
    return len(best) - 1


def oracle_max_admitted_fluid(
    arrivals: Sequence[float], capacity, delta,
    tie_tolerance=DEFAULT_TIE_TOLERANCE,
) -> int:
    """Maximum deadline-meeting subset, fluid server model (exact).

    Service accrues continuously at rate ``C`` while the admitted
    backlog is positive, so a request admitted with post-admission
    backlog ``q`` finishes ``q / C`` seconds later; it meets its
    deadline iff ``q <= C * delta`` (plus the tie tolerance, already in
    queue units — mirroring ``decompose_fluid``'s ``<= C*delta + EPS``
    test).  DP state: ``best[j]`` is the minimum backlog *just before*
    the current arrival over all feasible ``j``-admission plans (decayed
    between arrivals, floored at zero).
    """
    times, cap, dl = _to_fractions(arrivals, capacity, delta)
    max_queue = cap * dl + Fraction(tie_tolerance)
    best: list[Fraction] = [Fraction(0)]
    prev = Fraction(0)
    for t in times:
        drain = (t - prev) * cap
        prev = t
        for j in range(len(best)):
            decayed = best[j] - drain
            best[j] = decayed if decayed > 0 else Fraction(0)
        for j in range(len(best) - 1, -1, -1):
            candidate = best[j] + 1
            if candidate <= max_queue:
                if j + 1 == len(best):
                    best.append(candidate)
                elif candidate < best[j + 1]:
                    best[j + 1] = candidate
    return len(best) - 1


def oracle_max_admitted(
    workload: Workload | Sequence[float],
    capacity,
    delta,
    model: str = "discrete",
    tie_tolerance=DEFAULT_TIE_TOLERANCE,
) -> int:
    """Dispatch to the discrete or fluid oracle by ``model`` name."""
    arrivals = (
        workload.arrivals if isinstance(workload, Workload) else workload
    )
    if model == "discrete":
        return oracle_max_admitted_discrete(arrivals, capacity, delta, tie_tolerance)
    if model == "fluid":
        return oracle_max_admitted_fluid(arrivals, capacity, delta, tie_tolerance)
    raise ConfigurationError(f"unknown server model {model!r}; choose from {MODELS}")


@dataclass(frozen=True)
class OracleReport:
    """Outcome of certifying one trace against the oracle."""

    model: str
    capacity: float
    delta: float
    n_requests: int
    online_admitted: int
    oracle_admitted: int

    @property
    def ok(self) -> bool:
        """Lemmas 1-3 hold on this trace: online == offline optimum."""
        return self.online_admitted == self.oracle_admitted

    def summary(self) -> str:
        verdict = "OK" if self.ok else "VIOLATED"
        return (
            f"optimality {verdict} [{self.model}]: online admitted "
            f"{self.online_admitted}/{self.n_requests}, oracle says "
            f"{self.oracle_admitted} (C={self.capacity:g}, "
            f"delta={self.delta:g})"
        )


def certify_optimality(
    workload: Workload, capacity: float, delta: float, model: str = "discrete"
) -> OracleReport:
    """Compare the online RTT implementation against the exact oracle.

    A report with ``ok=False`` in either direction is a bug: admitting
    fewer than the oracle breaks the paper's optimality claim, admitting
    more means the implementation admitted an infeasible set (some
    "guaranteed" request cannot meet its deadline).
    """
    if model == "discrete":
        online = decompose(workload, capacity, delta).n_admitted
    elif model == "fluid":
        online = decompose_fluid(workload, capacity, delta).n_admitted
    else:
        raise ConfigurationError(
            f"unknown server model {model!r}; choose from {MODELS}"
        )
    return OracleReport(
        model=model,
        capacity=float(capacity),
        delta=float(delta),
        n_requests=len(workload),
        online_admitted=online,
        oracle_admitted=oracle_max_admitted(workload, capacity, delta, model),
    )
