"""Online RTT classifier: Algorithm 1 running live in the device driver.

Unlike the offline :func:`repro.core.rtt.decompose` (which profiles a
whole trace against a dedicated rate-``C`` server), this classifier runs
inside a live system: its ``lenQ1`` is the actual number of primary-class
requests currently outstanding (queued or in service), decremented when
the *real* server — whatever its speed and sharing policy — completes
them.  This is exactly where the paper implements RTT: "at the device
driver level which catches all the incoming requests before they reach
the underlying disks" (Section 4).
"""

from __future__ import annotations

from ..core.request import QoSClass, Request
from ..exceptions import ConfigurationError
from ..units import EPS, q1_limit


class OnlineRTTClassifier:
    """Bounded-queue admission into the primary class.

    Parameters
    ----------
    capacity:
        The *decomposition* capacity ``Cmin`` defining the queue bound
        ``maxQ1 = Cmin * delta``.  Note this is the planned capacity, not
        necessarily the speed of the server behind the driver.
    delta:
        Primary-class response-time bound (seconds).
    mode:
        ``"count"`` (the paper's Algorithm 1: admit while the number of
        outstanding Q1 requests is below ``floor(C * delta)``) or
        ``"work"`` (the size-aware generalization: admit while the
        outstanding Q1 *work* — the sum of admitted ``service_demand``
        values — plus the candidate's demand fits in ``C * delta``).
        The two coincide exactly on unit-demand workloads with integer
        ``C * delta``; they diverge once demands are heterogeneous.
    """

    #: Admission modes accepted by the constructor.
    MODES = ("count", "work")

    def __init__(self, capacity: float, delta: float, mode: str = "count"):
        if capacity <= 0 or delta <= 0:
            raise ConfigurationError("capacity and delta must be positive")
        if mode not in self.MODES:
            raise ConfigurationError(
                f"unknown admission mode {mode!r}; choose from {list(self.MODES)}"
            )
        self.capacity = float(capacity)
        self.delta = float(delta)
        self.mode = mode
        #: Queue bound in whole requests: occupancy never exceeds this.
        self.limit = q1_limit(capacity, delta)
        #: The planned (healthy-server) bound; ``set_limit`` may shrink
        #: ``limit`` below this during degradation, never above it.
        self.planned_limit = self.limit
        #: Work bound for ``mode="work"``: the raw (possibly fractional)
        #: ``C * delta`` budget that outstanding Q1 demand must fit in.
        self.work_limit = self.capacity * self.delta
        #: Primary requests outstanding (queued + in service).
        self.len_q1 = 0
        #: Outstanding Q1 work (sum of admitted demands), ``mode="work"``.
        self.work_q1 = 0.0
        self.n_primary = 0
        self.n_overflow = 0

    @property
    def max_queue(self) -> float:
        """The paper's ``maxQ1 = C * delta`` (possibly fractional)."""
        return self.capacity * self.delta

    def set_limit(self, limit: int) -> None:
        """Adaptively move the admission bound (see :mod:`repro.faults`).

        The bound is clamped to ``[0, planned_limit]``: a degraded
        server justifies admitting *less* than planned, never more — the
        ``C·δ`` bound is only sound at the planned capacity.  Occupancy
        above a shrunken limit simply drains; admission resumes once
        ``len_q1`` falls below the new bound.
        """
        if limit < 0:
            raise ConfigurationError(f"limit must be >= 0, got {limit}")
        self.limit = min(int(limit), self.planned_limit)

    def reprovision(self, capacity: float) -> None:
        """Move the *planned* decomposition capacity (autoscaler actuation).

        Unlike :meth:`set_limit` — which only shrinks the live bound
        below the plan during degradation — this replaces the plan
        itself: ``limit``, ``planned_limit`` and the work budget are all
        recomputed from the new ``capacity``, exactly as the constructor
        would.  It is the scale-*up* path :mod:`repro.serve` needs: a
        re-provisioned ``Cmin + ΔC`` justifies a larger ``C·δ`` bound,
        which ``set_limit``'s clamp deliberately refuses.  Any transient
        degradation state is superseded (the caller owns coordinating
        with an active :class:`~repro.faults.controller.AdaptiveShaper`).
        Occupancy ledgers are untouched: outstanding admissions above a
        shrunken bound simply drain, as with :meth:`set_limit`.
        """
        if capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity}"
            )
        self.capacity = float(capacity)
        self.limit = q1_limit(self.capacity, self.delta)
        self.planned_limit = self.limit
        self.work_limit = self.capacity * self.delta

    def would_admit(self, request: Request) -> bool:
        """Read-only peek: whether :meth:`classify` would admit right now.

        No ledger moves, no deadline stamping — the live admission API
        (:class:`repro.serve.admission.AdmissionService`) calls this
        immediately before handing the request to the serving stack, and
        the stack's own :meth:`classify` remains the single authority.
        """
        if self.mode == "work":
            # Degradation (set_limit below planned) shrinks the work
            # budget too; the EPS tolerance mirrors the count-mode floor
            # so a demand landing exactly on the boundary is admitted.
            budget = (
                float(self.limit) if self.limit < self.planned_limit else self.work_limit
            )
            return self.work_q1 + request.service_demand <= budget + EPS
        return self.len_q1 < self.limit

    def classify(self, request: Request) -> QoSClass:
        """Assign the request to ``Q1`` or ``Q2`` (Algorithm 1).

        Admits iff ``lenQ1 <= maxQ1 - 1`` (count mode) or iff the
        outstanding Q1 work plus this request's demand fits in ``C·δ``
        (work mode); increments the occupancy ledgers on admission and
        stamps the request's deadline.
        """
        if self.would_admit(request):
            self.len_q1 += 1
            self.work_q1 += request.service_demand
            self.n_primary += 1
            request.classify(QoSClass.PRIMARY, delta=self.delta)
            return QoSClass.PRIMARY
        self.n_overflow += 1
        request.classify(QoSClass.OVERFLOW)
        return QoSClass.OVERFLOW

    def on_completion(self, request: Request) -> None:
        """Release the request's ``Q1`` slot (departure decrement)."""
        if request.qos_class is QoSClass.PRIMARY:
            if self.len_q1 <= 0:
                raise ConfigurationError(
                    "Q1 occupancy underflow: completion without admission"
                )
            self.len_q1 -= 1
            self.work_q1 = max(0.0, self.work_q1 - request.service_demand)

    @property
    def fraction_primary(self) -> float:
        total = self.n_primary + self.n_overflow
        return self.n_primary / total if total else 1.0
