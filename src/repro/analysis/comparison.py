"""Cross-policy comparison harness.

Runs a set of recombination policies on one workload at identical total
capacity and collects the metrics the paper compares (Figure 6): binned
response-time distribution, guaranteed-class misses, per-class
statistics.  Library form of what the ``scheduler_comparison`` example
prints, so downstream users can run the comparison programmatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.capacity import CapacityPlanner
from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..shaping import RunResult, run_policy
from .reporting import format_table

#: Default bins in seconds, matching Figure 6.
DEFAULT_EDGES = (0.05, 0.1, 0.5, 1.0)


@dataclass(frozen=True)
class PolicyComparison:
    """Results of every policy on one configuration."""

    workload_name: str
    delta: float
    fraction: float
    cmin: float
    delta_c: float
    runs: dict  # policy -> RunResult
    edges: tuple

    def run(self, policy: str) -> RunResult:
        return self.runs[policy]

    def ranking(self, bound: float | None = None) -> list[str]:
        """Policies ordered best-first by compliance at ``bound``."""
        bound = self.delta if bound is None else bound

        def compliance(policy: str) -> float:
            fraction = self.runs[policy].fraction_within(bound)
            # Empty runs report NaN compliance; NaN keys would scramble
            # the sort, so rank them last explicitly.
            return -math.inf if math.isnan(fraction) else fraction

        return sorted(self.runs, key=compliance, reverse=True)

    def winner(self) -> str:
        """The policy with the best compliance at the deadline."""
        return self.ranking()[0]


def compare_policies(
    workload: Workload,
    delta: float,
    fraction: float = 0.9,
    policies: tuple = ("fcfs", "split", "fairqueue", "miser"),
    delta_c: float | None = None,
    edges: tuple = DEFAULT_EDGES,
) -> PolicyComparison:
    """Plan once, then run every policy at the same total capacity."""
    if not policies:
        raise ConfigurationError("at least one policy is required")
    cmin = CapacityPlanner(workload, delta).min_capacity(fraction)
    surplus = delta_c if delta_c is not None else 1.0 / delta
    runs = {
        policy: run_policy(workload, policy, cmin, surplus, delta)
        for policy in policies
    }
    return PolicyComparison(
        workload_name=workload.name,
        delta=delta,
        fraction=fraction,
        cmin=cmin,
        delta_c=surplus,
        runs=runs,
        edges=tuple(edges),
    )


def render(comparison: PolicyComparison) -> str:
    """Figure-6-style text table."""
    headers = (
        ["policy"]
        + [f"<={e * 1000:g}ms" for e in comparison.edges]
        + [f">{comparison.edges[-1] * 1000:g}ms", "Q1 misses", "max RT (ms)"]
    )
    rows = []
    for policy, result in comparison.runs.items():
        bins = result.binned_fractions(list(comparison.edges))
        rows.append(
            [policy]
            + [f"{v:.1%}" for v in bins.values()]
            + [result.primary_misses, f"{result.overall.stats.max * 1000:.0f}"]
        )
    return format_table(
        headers,
        rows,
        title=(
            f"{comparison.workload_name} @ ({comparison.fraction:.0%}, "
            f"{comparison.delta * 1000:g} ms), capacity "
            f"{comparison.cmin:.0f}+{comparison.delta_c:.0f} IOPS"
        ),
    )
