"""Topology-aware Q1/Q2 placement: latency charged against the deadline.

The paper's decomposition is topology-blind — ``Cmin`` and ``ΔC`` are
capacities, wherever they live.  A farm is not: a request served on a
remote node spends its network round trip *inside* the response-time
budget, so a ``δ``-guarantee placed behind ``l`` seconds of inter-node
latency is really a ``δ − l`` guarantee at the server.  The
:class:`PlacementPlanner` makes that charge explicit: it assigns the
guaranteed partition (``Cmin``) and the overflow partition (``ΔC``) to
farm nodes such that

* the guaranteed node's *effective* deadline ``δ_eff = δ − latency``
  stays positive (and as large as possible: Q1 goes to the
  lowest-latency feasible node — the shrunken budget tightens the
  admission bound ``⌊C·δ_eff⌋``, costing guaranteed throughput);
* each node has the capacity its partition needs;
* the overflow partition, which carries no deadline, soaks up the
  remaining (higher-latency) capacity.

The resulting :class:`PlacementPlan` carries the effective deadline the
serving stack must enforce, which is how
:class:`~repro.serve.harness.ServiceHarness` consumes it.  A plan over a
single zero-latency node is the identity: ``δ_eff = δ`` and serving is
bit-identical to the un-placed stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..exceptions import CapacityError, ConfigurationError
from ..units import EPS, q1_limit


@dataclass(frozen=True)
class Node:
    """One farm node the planner may place a partition on.

    Parameters
    ----------
    name:
        Stable identifier (surfaced in the plan and the CLI rendering).
    capacity:
        Service capacity of the node in IOPS.
    latency:
        Round-trip network latency from the ingest front end to this
        node, in seconds.  Charged in full against the deadline budget
        of any guaranteed partition placed here.
    """

    name: str
    capacity: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("node needs a non-empty name")
        if self.capacity <= 0:
            raise ConfigurationError(
                f"node {self.name!r}: capacity must be positive, "
                f"got {self.capacity}"
            )
        if self.latency < 0:
            raise ConfigurationError(
                f"node {self.name!r}: latency must be >= 0, got {self.latency}"
            )


#: A zero-latency single node big enough for anything — the identity
#: placement used when no topology is configured.
def local_node(capacity: float = float("inf")) -> Node:
    """A zero-latency node (the co-located, topology-free baseline)."""
    return Node(name="local", capacity=capacity, latency=0.0)


@dataclass(frozen=True)
class PlacementPlan:
    """One concrete Q1/Q2 assignment with its deadline accounting."""

    q1_node: Node
    q2_node: Node
    cmin: float
    delta_c: float
    delta: float
    #: Deadline budget left at the guaranteed node: ``δ − latency``.
    effective_delta: float

    @property
    def colocated(self) -> bool:
        return self.q1_node.name == self.q2_node.name

    @property
    def admission_limit(self) -> int:
        """The placed admission bound ``⌊Cmin · δ_eff⌋`` (cf. ``maxQ1``)."""
        return q1_limit(self.cmin, self.effective_delta)

    @property
    def latency_tax(self) -> float:
        """Fraction of the deadline budget consumed by the network."""
        return self.q1_node.latency / self.delta

    def describe(self) -> str:
        lines = [
            f"Q1 -> {self.q1_node.name} (capacity {self.q1_node.capacity:g}, "
            f"latency {self.q1_node.latency * 1e3:g} ms): "
            f"delta_eff {self.effective_delta * 1e3:g} ms, "
            f"maxQ1 {self.admission_limit}",
            f"Q2 -> {self.q2_node.name} (capacity {self.q2_node.capacity:g}, "
            f"latency {self.q2_node.latency * 1e3:g} ms)",
        ]
        return "\n".join(lines)


class PlacementPlanner:
    """Assign the decomposed partitions across a latency-aware farm.

    Parameters
    ----------
    nodes:
        Candidate nodes.  At least one; a single node hosts both
        partitions (the co-located degenerate case).
    """

    def __init__(self, nodes: Iterable[Node]):
        self.nodes: tuple[Node, ...] = tuple(nodes)
        if not self.nodes:
            raise ConfigurationError("placement needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names in {names}")

    def feasible_q1(self, cmin: float, delta: float) -> list[Node]:
        """Nodes that can host the guaranteed partition at all.

        Feasibility needs both the capacity (``>= cmin``) and a positive
        deadline residue after the latency charge — a node whose round
        trip eats the whole budget can never guarantee anything.
        """
        return [
            n
            for n in self.nodes
            if n.capacity + EPS >= cmin and delta - n.latency > 0
        ]

    def plan(self, cmin: float, delta_c: float, delta: float) -> PlacementPlan:
        """Place ``Cmin``/``ΔC`` and account the latency charge.

        Q1 takes the *lowest-latency* feasible node (ties broken by
        larger capacity, then name, for determinism): every second of
        latency shrinks ``δ_eff`` and with it the admission bound, so
        proximity is guaranteed throughput.  Q2 prefers a different node
        with capacity ``>= ΔC`` (minimizing latency among those — the
        overflow class still wants to finish eventually), falling back
        to co-location when the farm has capacity for both partitions on
        the Q1 node only.

        Raises
        ------
        CapacityError
            When no node can host Q1, or no arrangement fits Q2.
        """
        if cmin <= 0 or delta_c < 0 or delta <= 0:
            raise ConfigurationError(
                f"bad plan parameters: cmin={cmin}, delta_c={delta_c}, "
                f"delta={delta}"
            )
        candidates = self.feasible_q1(cmin, delta)
        if not candidates:
            raise CapacityError(
                f"no node can guarantee delta={delta:g}s at cmin={cmin:g}: "
                + "; ".join(
                    f"{n.name}(cap {n.capacity:g}, lat {n.latency:g})"
                    for n in self.nodes
                )
            )
        q1 = min(candidates, key=lambda n: (n.latency, -n.capacity, n.name))
        q2 = self._place_q2(q1, cmin, delta_c)
        return PlacementPlan(
            q1_node=q1,
            q2_node=q2,
            cmin=float(cmin),
            delta_c=float(delta_c),
            delta=float(delta),
            effective_delta=float(delta - q1.latency),
        )

    def _place_q2(self, q1: Node, cmin: float, delta_c: float) -> Node:
        if delta_c == 0:
            return q1  # nothing to place; report co-location
        others = [
            n
            for n in self.nodes
            if n.name != q1.name and n.capacity + EPS >= delta_c
        ]
        if others:
            return min(others, key=lambda n: (n.latency, -n.capacity, n.name))
        if q1.capacity + EPS >= cmin + delta_c:
            return q1
        raise CapacityError(
            f"no node fits the overflow partition (delta_c={delta_c:g}) "
            f"beside {q1.name!r}"
        )

    def plan_farm(
        self, cmin: float, delta_c: float, delta: float, shares: int
    ) -> Sequence[PlacementPlan]:
        """Split ``Cmin`` into ``shares`` equal guaranteed slices.

        A convenience for farms whose guaranteed class itself spans
        nodes: each slice is placed independently (greedily, in latency
        order), all slices seeing the same ``δ`` budget.  The overflow
        partition is placed once, after the guaranteed slices, on the
        least-loaded remaining capacity.
        """
        if shares < 1:
            raise ConfigurationError(f"shares must be >= 1, got {shares}")
        slice_cmin = cmin / shares
        remaining = {n.name: n.capacity for n in self.nodes}
        plans = []
        for _ in range(shares):
            usable = [
                Node(n.name, remaining[n.name], n.latency)
                for n in self.nodes
                if remaining[n.name] + EPS >= slice_cmin
                and delta - n.latency > 0
            ]
            planner = PlacementPlanner(usable) if usable else None
            if planner is None:
                raise CapacityError(
                    f"farm exhausted placing {shares} guaranteed slices "
                    f"of {slice_cmin:g} IOPS"
                )
            plan = planner.plan(slice_cmin, 0.0, delta)
            remaining[plan.q1_node.name] -= slice_cmin
            plans.append(plan)
        # One overflow placement over what's left.
        leftovers = [
            Node(n.name, remaining[n.name], n.latency)
            for n in self.nodes
            if remaining[n.name] > 0
        ]
        q2_host = None
        for node in sorted(leftovers, key=lambda n: (n.latency, n.name)):
            if node.capacity + EPS >= delta_c:
                q2_host = node
                break
        if delta_c > 0 and q2_host is None:
            raise CapacityError(
                f"no residual capacity for the overflow partition "
                f"(delta_c={delta_c:g})"
            )
        if q2_host is not None:
            plans = [
                PlacementPlan(
                    q1_node=p.q1_node,
                    q2_node=q2_host,
                    cmin=p.cmin,
                    delta_c=float(delta_c),
                    delta=p.delta,
                    effective_delta=p.effective_delta,
                )
                for p in plans
            ]
        return plans
