"""Request objects flowing through the shaping framework.

The paper's model is request-granular: the workload is a sequence of I/O
requests with arrival instants; each request admitted to the primary class
carries a deadline ``arrival + delta``.  :class:`Request` captures one such
request together with the bookkeeping the schedulers and the statistics
layer need (class assignment, dispatch/completion instants, slack).

Storage-level attributes (LBA, size, opcode) are carried so that real SPC
traces round-trip through the framework, but the shaping algorithms only
ever look at ``arrival``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .. import units


class IOKind(enum.Enum):
    """I/O direction of a block request."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def parse(cls, token: str) -> "IOKind":
        """Parse an opcode token as found in SPC traces (``r``/``w``...)."""
        normalized = token.strip().upper()
        if normalized.startswith("R"):
            return cls.READ
        if normalized.startswith("W"):
            return cls.WRITE
        raise ValueError(f"unrecognized I/O opcode: {token!r}")


class QoSClass(enum.IntEnum):
    """Class a request is assigned to by the decomposition step.

    ``PRIMARY`` is the paper's ``Q1`` (guaranteed response time) and
    ``OVERFLOW`` is ``Q2`` (best effort).  ``UNCLASSIFIED`` marks requests
    that have not passed through a decomposer yet.
    """

    UNCLASSIFIED = 0
    PRIMARY = 1
    OVERFLOW = 2


@dataclass
class Request:
    """A single I/O request.

    Attributes
    ----------
    arrival:
        Arrival instant in seconds.
    index:
        Position of the request in its workload's arrival order.  Unique
        within a workload; assigned by :class:`repro.core.workload.Workload`.
    size:
        Transfer size in bytes (0 when unknown; shaping ignores it).
    lba:
        Logical block address (0 when unknown).
    kind:
        Read or write.
    client_id:
        Identifier of the owning client/flow in multi-client experiments.
    qos_class:
        Class assigned by decomposition.
    deadline:
        Absolute deadline (``arrival + delta``) once classified PRIMARY;
        ``None`` otherwise.
    dispatch:
        Instant service started (set by the server), ``None`` before that.
    completion:
        Instant service finished, ``None`` before that.
    retries:
        Times the request re-entered a queue after a crash-requeue or a
        driver timeout (see :mod:`repro.faults`); 0 on the healthy path.
    service_demand:
        Work the request asks of a server, in units of the unit-cost
        request (1.0 — the default — reproduces the paper's unit-cost
        model exactly).  A rate-``C`` server takes ``demand / C`` seconds
        to serve it, and work-bound admission counts it against the
        ``C·δ`` budget.  Distinct from ``size``: ``size`` is the raw
        trace byte count (round-tripped, never interpreted), while
        ``service_demand`` is the cost model the shaping layer acts on.
    remaining_service:
        Unserved service time in *seconds* left over from a preemption
        (:meth:`repro.server.base.Server.preempt`); ``None`` for a
        request that has never been preempted.  A server re-dispatching
        a preempted request serves exactly this remainder (and clears
        the field) instead of re-consulting its service-time model, so
        an originally drawn disk/SSD service time survives preemption.
    """

    arrival: float
    index: int = 0
    size: int = 0
    lba: int = 0
    kind: IOKind = IOKind.READ
    client_id: int = 0
    qos_class: QoSClass = field(default=QoSClass.UNCLASSIFIED)
    deadline: float | None = None
    dispatch: float | None = None
    completion: float | None = None
    retries: int = 0
    service_demand: float = 1.0
    remaining_service: float | None = None

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError(f"arrival must be non-negative, got {self.arrival}")
        if self.service_demand <= 0:
            raise ValueError(
                f"service_demand must be positive, got {self.service_demand}"
            )

    @property
    def response_time(self) -> float:
        """Completion minus arrival.

        Raises
        ------
        ValueError
            If the request has not completed yet.
        """
        if self.completion is None:
            raise ValueError(f"request {self.index} has not completed")
        return self.completion - self.arrival

    @property
    def met_deadline(self) -> bool:
        """Whether the request completed by its deadline
        (:func:`repro.units.met_deadline`).

        Requests without a deadline (unclassified or overflow) trivially
        report ``True`` — they carry no guarantee to violate.
        """
        if self.deadline is None:
            return True
        if self.completion is None:
            return False
        return units.met_deadline(self.completion, self.deadline)

    @property
    def is_primary(self) -> bool:
        return self.qos_class is QoSClass.PRIMARY

    @property
    def is_overflow(self) -> bool:
        return self.qos_class is QoSClass.OVERFLOW

    def classify(self, qos_class: QoSClass, delta: float | None = None) -> None:
        """Assign a QoS class, setting the deadline for primary requests."""
        self.qos_class = qos_class
        if qos_class is QoSClass.PRIMARY:
            if delta is None:
                raise ValueError("primary classification requires delta")
            self.deadline = self.arrival + delta
        else:
            self.deadline = None
