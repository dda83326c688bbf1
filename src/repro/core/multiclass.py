"""Multi-tier decomposition: more than two QoS classes.

Section 2 of the paper notes the workload can be partitioned into "two
(or more in general) classes with different performance guarantees".
This module generalizes RTT to a *cascade*: the arrival stream is
decomposed against the strictest tier first; its overflow is decomposed
against the next tier, and so on, with the final remainder served best
effort.  Because each stage is RTT (optimal for its sub-stream), the
cascade realizes a full graduated SLA like

    90% within 10 ms, 99% within 50 ms, rest best effort

with one bounded queue per tier.

:func:`plan_tiers` sizes the per-tier capacities for a
:class:`~repro.core.sla.GraduatedSLA`: tier 1 is planned on the whole
workload for its fraction; each later tier is planned on the *overflow*
of the previous tiers for the residual count its cumulative fraction
requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import CapacityError, ConfigurationError
from ..units import EPS
from .capacity import CapacityPlanner
from .rtt import decompose
from .sla import GraduatedSLA
from .workload import Workload


@dataclass(frozen=True)
class TierAssignment:
    """Result of a cascade decomposition.

    Attributes
    ----------
    workload:
        The decomposed workload.
    tiers:
        The ``(capacity, delta)`` pairs of each guaranteed tier, in
        cascade (strictest-first) order.
    labels:
        Per-request tier index: ``0`` for the strictest tier, ``1`` for
        the next, ..., ``len(tiers)`` for the best-effort remainder.
    """

    workload: Workload
    tiers: tuple
    labels: np.ndarray

    @property
    def n_tiers(self) -> int:
        return len(self.tiers)

    def tier_mask(self, tier: int) -> np.ndarray:
        """Boolean mask of the requests assigned to ``tier``."""
        return self.labels == tier

    def tier_workload(self, tier: int) -> Workload:
        """The sub-stream of one tier (``n_tiers`` = best effort)."""
        return Workload(
            self.workload.arrivals[self.tier_mask(tier)],
            name=f"{self.workload.name}.tier{tier}",
        )

    def counts(self) -> list[int]:
        """Requests per tier, best-effort remainder last."""
        return [
            int(np.count_nonzero(self.labels == tier))
            for tier in range(self.n_tiers + 1)
        ]

    def cumulative_fractions(self) -> list[float]:
        """Fraction of the workload covered by tiers ``0..k`` inclusive."""
        total = len(self.workload)
        if total == 0:
            return [1.0] * self.n_tiers
        running = 0
        fractions = []
        for tier in range(self.n_tiers):
            running += int(np.count_nonzero(self.labels == tier))
            fractions.append(running / total)
        return fractions


def decompose_tiers(
    workload: Workload, tiers: list[tuple[float, float]]
) -> TierAssignment:
    """Cascade RTT decomposition across ``[(capacity, delta), ...]``.

    Tiers must be ordered strictest first (non-decreasing ``delta``);
    each stage sees only the overflow of the previous stages.
    """
    if not tiers:
        raise ConfigurationError("at least one tier is required")
    deltas = [delta for _, delta in tiers]
    if deltas != sorted(deltas):
        raise ConfigurationError(
            f"tiers must be ordered by non-decreasing delta, got {deltas}"
        )
    labels = np.full(len(workload), len(tiers), dtype=np.int64)
    remaining_idx = np.arange(len(workload))
    remaining = workload
    for tier, (capacity, delta) in enumerate(tiers):
        if remaining_idx.size == 0:
            break
        result = decompose(remaining, capacity, delta)
        admitted_idx = remaining_idx[result.admitted]
        labels[admitted_idx] = tier
        remaining_idx = remaining_idx[~result.admitted]
        remaining = Workload(workload.arrivals[remaining_idx])
    return TierAssignment(workload=workload, tiers=tuple(tiers), labels=labels)


def plan_tiers(
    workload: Workload, sla: GraduatedSLA, integral: bool = True
) -> list[tuple[float, float]]:
    """Size the cascade capacities realizing ``sla`` on ``workload``.

    Returns ``[(capacity, delta), ...]`` in cascade order such that
    :func:`decompose_tiers` covers at least each tier's cumulative
    fraction within its deadline.

    Each stage is a binary search like the single-tier planner, but over
    the residual overflow stream and the residual request count.
    """
    tiers: list[tuple[float, float]] = []
    remaining = workload
    total = len(workload)
    covered = 0
    for tier in sla:
        required_total = (
            total if tier.fraction >= 1.0 else math.ceil(tier.fraction * total - EPS)
        )
        required_here = max(0, required_total - covered)
        if required_here == 0 or len(remaining) == 0:
            tiers.append((1.0, tier.delta))
            continue
        fraction_here = min(1.0, required_here / len(remaining))
        planner = CapacityPlanner(remaining, tier.delta, integral=integral)
        capacity = planner.min_capacity(fraction_here)
        tiers.append((capacity, tier.delta))
        result = decompose(remaining, capacity, tier.delta)
        covered += result.n_admitted
        remaining = result.overflow_workload()
    if covered < (total if sla.tiers[-1].fraction >= 1.0 else 0):
        # Only reachable if the last tier demanded 100% yet some requests
        # remain — the per-stage searches guarantee otherwise.
        raise CapacityError("cascade planning failed to cover the SLA")
    return tiers


def plan_and_decompose(
    workload: Workload, sla: GraduatedSLA
) -> tuple[list[tuple[float, float]], TierAssignment]:
    """Convenience: plan the cascade then apply it."""
    tiers = plan_tiers(workload, sla)
    return tiers, decompose_tiers(workload, tiers)
