"""Graduated service-level agreements.

The paper's pricing story (Section 1): instead of one worst-case
guarantee, the SLA is a *distribution* of response times — e.g. "90% of
requests within 10 ms, the rest best-effort".  A :class:`GraduatedSLA`
is an ordered list of such tiers; :meth:`GraduatedSLA.evaluate` checks a
measured response-time sample against every tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..units import count_within


@dataclass(frozen=True)
class SLATier:
    """One guarantee tier: ``fraction`` of requests within ``delta``."""

    fraction: float
    delta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"tier fraction must be in (0, 1], got {self.fraction}"
            )
        if self.delta <= 0:
            raise ConfigurationError(f"tier delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class TierCompliance:
    """Measured compliance of one tier."""

    tier: SLATier
    achieved_fraction: float

    @property
    def met(self) -> bool:
        return self.achieved_fraction >= self.tier.fraction - 1e-12

    @property
    def margin(self) -> float:
        """Achieved minus required fraction (negative = violation)."""
        return self.achieved_fraction - self.tier.fraction


class GraduatedSLA:
    """An ordered set of (fraction, delta) tiers.

    Tiers must be consistent: a larger guaranteed fraction needs a larger
    (or equal) deadline — "99% within 20 ms, 90% within 10 ms" is valid;
    the reverse ordering would make the looser tier redundant.

    Example
    -------
    >>> sla = GraduatedSLA([(0.90, 0.010), (0.99, 0.050)])
    >>> report = sla.evaluate([0.001] * 99 + [0.04])
    >>> all(t.met for t in report)
    True
    """

    def __init__(self, tiers: Sequence[tuple[float, float] | SLATier]):
        if not tiers:
            raise ConfigurationError("an SLA needs at least one tier")
        parsed = [
            t if isinstance(t, SLATier) else SLATier(fraction=t[0], delta=t[1])
            for t in tiers
        ]
        parsed.sort(key=lambda t: t.fraction)
        for lo, hi in zip(parsed, parsed[1:]):
            if hi.delta < lo.delta:
                raise ConfigurationError(
                    f"inconsistent tiers: {hi.fraction:.0%} within {hi.delta}s is "
                    f"stricter than {lo.fraction:.0%} within {lo.delta}s"
                )
            if hi.fraction == lo.fraction:
                raise ConfigurationError(
                    f"duplicate tier fraction {hi.fraction:.0%}"
                )
        self.tiers = tuple(parsed)

    def __iter__(self):
        return iter(self.tiers)

    def __len__(self) -> int:
        return len(self.tiers)

    @property
    def strictest(self) -> SLATier:
        """The lowest-fraction (tightest-deadline) tier."""
        return self.tiers[0]

    def evaluate(self, response_times: Sequence[float]) -> list[TierCompliance]:
        """Check a response-time sample against every tier."""
        samples = np.asarray(response_times, dtype=float)
        report = []
        for tier in self.tiers:
            if samples.size == 0:
                achieved = 1.0
            else:
                achieved = count_within(samples, tier.delta) / samples.size
            report.append(TierCompliance(tier=tier, achieved_fraction=achieved))
        return report

    def is_met_by(self, response_times: Sequence[float]) -> bool:
        """True iff every tier is satisfied."""
        return all(t.met for t in self.evaluate(response_times))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(
            f"{t.fraction:.1%}<={t.delta * 1000:g}ms" for t in self.tiers
        )
        return f"GraduatedSLA({body})"
