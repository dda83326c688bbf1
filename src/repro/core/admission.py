"""Admission control using decomposed capacity estimates.

The paper's closing argument (Sections 1 and 4.4): a provider that sizes
clients by their worst-case (f = 100%) capacity admits far fewer clients
than the server can really sustain, because additive worst-case estimates
assume all bursts align.  Sizing clients by their *decomposed* capacity
— which Section 4.4 shows is additive to within a few percent — admits
more clients at the same server capacity without violating the graduated
SLA.

:class:`AdmissionController` implements the resulting policy: each
candidate client is profiled against its SLA's strictest tier, and
admission is granted while the sum of planned capacities fits the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import AdmissionError, ConfigurationError
from ..units import EPS
from .capacity import CapacityPlanner
from .sla import GraduatedSLA
from .workload import Workload


@dataclass(frozen=True)
class AdmittedClient:
    """Bookkeeping for one admitted client."""

    name: str
    sla: GraduatedSLA
    planned_capacity: float


@dataclass
class AdmissionController:
    """Capacity-based admission over decomposed client profiles.

    Parameters
    ----------
    server_capacity:
        Total IOPS available.
    worst_case:
        When ``True``, size clients at f = 100% (the brute-force policy
        the paper argues against); when ``False`` (default) size them at
        their SLA tier fraction (decomposition-based).
    headroom:
        Fraction of server capacity withheld from admission (safety
        margin), in ``[0, 1)``.
    """

    server_capacity: float
    worst_case: bool = False
    headroom: float = 0.0
    clients: list[AdmittedClient] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.server_capacity <= 0:
            raise ConfigurationError(
                f"server capacity must be positive, got {self.server_capacity}"
            )
        if not 0.0 <= self.headroom < 1.0:
            raise ConfigurationError(f"headroom must be in [0, 1), got {self.headroom}")

    @property
    def committed(self) -> float:
        """Capacity already promised to admitted clients."""
        return sum(c.planned_capacity for c in self.clients)

    @property
    def available(self) -> float:
        return self.server_capacity * (1.0 - self.headroom) - self.committed

    def required_capacity(self, workload: Workload, sla: GraduatedSLA) -> float:
        """Capacity this client would be billed for under the policy.

        Decomposition-based sizing takes the *maximum* over tiers of the
        per-tier ``Cmin`` — each tier is a constraint, any could bind.
        """
        requirement = 0.0
        for tier in sla:
            fraction = 1.0 if self.worst_case else tier.fraction
            planner = CapacityPlanner(workload, tier.delta)
            requirement = max(requirement, planner.min_capacity(fraction))
        return requirement

    def try_admit(self, workload: Workload, sla: GraduatedSLA) -> AdmittedClient | None:
        """Admit the client if its planned capacity fits; else ``None``."""
        needed = self.required_capacity(workload, sla)
        if needed > self.available + EPS:
            return None
        client = AdmittedClient(
            name=workload.name, sla=sla, planned_capacity=needed
        )
        self.clients.append(client)
        return client

    def admit(self, workload: Workload, sla: GraduatedSLA) -> AdmittedClient:
        """Admit or raise :class:`AdmissionError` with the shortfall."""
        client = self.try_admit(workload, sla)
        if client is None:
            needed = self.required_capacity(workload, sla)
            raise AdmissionError(
                f"cannot admit {workload.name!r}: needs {needed:g} IOPS, "
                f"only {self.available:g} available"
            )
        return client

    def release(self, name: str) -> None:
        """Remove an admitted client by name."""
        for i, client in enumerate(self.clients):
            if client.name == name:
                del self.clients[i]
                return
        raise AdmissionError(f"no admitted client named {name!r}")
