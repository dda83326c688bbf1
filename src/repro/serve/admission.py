"""Live admission: admit/demote/reject answered from decomposed estimates.

Two granularities, matching the paper's two admission stories:

* **Per request** — :meth:`AdmissionService.decide` answers what the
  online RTT classifier *will* do with a candidate request, via the
  read-only :meth:`~repro.sched.classifier.OnlineRTTClassifier.
  would_admit` peek (count or work mode, whichever the classifier runs),
  optionally consulting the AQM window's slot state to *reject* instead
  of demote under device saturation.  The peek never moves a ledger: the
  serving stack's own ``classify()`` remains the single authority, and
  the :class:`~repro.serve.harness.ServiceHarness` verifies every
  prediction against the authoritative outcome (predict-then-verify),
  which is how divergence between the service API and the certified
  simulator is made impossible to hide.
* **Per client** — :meth:`AdmissionService.admit_client` sizes a
  candidate client by its decomposed capacity (Section 4.4's additivity
  argument) exactly as the offline
  :class:`~repro.core.admission.AdmissionController` does, generalized
  with the ``device_depth`` δ_eff correction of
  :class:`~repro.core.capacity.CapacityPlanner`: a serving stack running
  a depth-``k`` device window must budget the queue's share of the
  deadline at planning time too.  With ``device_depth=None`` every
  decision is bit-identical to the offline controller on the same
  client prefix (certified by ``tests/serve/test_admission.py``).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..core.admission import AdmittedClient
from ..core.capacity import CapacityPlanner
from ..core.request import Request
from ..core.sla import GraduatedSLA
from ..core.workload import Workload
from ..exceptions import AdmissionError, ConfigurationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from ..sched.classifier import OnlineRTTClassifier
from ..server.aqm import InflightWindow
from ..units import EPS


class Verdict(enum.Enum):
    """Outcome of one per-request admission decision."""

    #: The classifier will admit into the guaranteed class (``Q1``).
    ADMIT = "admit"
    #: The classifier will assign the overflow class (``Q2``).
    DEMOTE = "demote"
    #: Refused outright (overload guard armed and the device saturated);
    #: the request never reaches the serving stack.
    REJECT = "reject"
    #: Classifier-free policy (FCFS/SRPT/...): nothing to decide.
    PASS = "pass"


class AdmissionDecision(NamedTuple):
    """One answered admit/demote/reject query, with the state it saw.

    Deciding formats nothing: :attr:`reason` is rendered from the
    recorded state when it is read.
    """

    verdict: Verdict
    #: Classifier occupancy/bound at decision time (``None`` for PASS).
    len_q1: int | None = None
    limit: int | None = None
    #: AQM window occupancy at decision time (``None``: no window).
    window_occupancy: int | None = None
    #: Work-mode classifier state: the outstanding Q1 work and the
    #: candidate's demand (``None`` in count mode and for PASS).
    work_q1: float | None = None
    demand: float | None = None

    @property
    def serves(self) -> bool:
        """Whether the request proceeds into the serving stack."""
        return self.verdict is not Verdict.REJECT

    @property
    def reason(self) -> str:
        """Why the verdict was reached, in words."""
        verdict = self.verdict
        if verdict is Verdict.PASS:
            return "classifier-free policy: requests are not classified"
        if verdict is Verdict.ADMIT:
            if self.work_q1 is None:
                return (
                    f"lenQ1 {self.len_q1} fits the C*delta bound {self.limit}"
                )
            return (
                f"admitted work {self.work_q1:g} + {self.demand:g} fits "
                "the work bound"
            )
        if verdict is Verdict.REJECT:
            return (
                "guaranteed class full and the device window is "
                f"saturated ({self.window_occupancy} in flight)"
            )
        return (
            f"guaranteed class full (lenQ1 {self.len_q1} at bound "
            f"{self.limit}): overflow"
        )


class AdmissionService:
    """The control plane's admission authority (requests and clients).

    Parameters
    ----------
    classifier:
        The serving stack's live :class:`~repro.sched.classifier.
        OnlineRTTClassifier` (``None`` for classifier-free policies —
        every per-request decision is then :attr:`Verdict.PASS`).
    window:
        The stack's :class:`~repro.server.aqm.InflightWindow`, consulted
        per decision; ``None`` when no AQM window is armed.
    reject_on_overload:
        Arm the reject path: a request the classifier would demote is
        *refused* while the window has no free slot (the device queue is
        full — adding overflow work only bloats it).  Default off, which
        makes the service a pure observer and keeps serve ≡ simulate
        bit-identical; the harness's parity replays rely on that.
    server_capacity, worst_case, headroom:
        Arm the client-level half (:meth:`admit_client`), mirroring
        :class:`~repro.core.admission.AdmissionController`'s policy
        knobs.  ``server_capacity=None`` leaves it unarmed.
    device_depth:
        When set, client sizing plans against the δ_eff-corrected bound
        (see :class:`~repro.core.capacity.CapacityPlanner`); ``None``
        reproduces the offline controller's decisions exactly.
    metrics:
        Optional registry for ``serve.admission.*`` counters.
    """

    def __init__(
        self,
        classifier: OnlineRTTClassifier | None = None,
        window: InflightWindow | None = None,
        reject_on_overload: bool = False,
        server_capacity: float | None = None,
        worst_case: bool = False,
        headroom: float = 0.0,
        device_depth: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if server_capacity is not None and server_capacity <= 0:
            raise ConfigurationError(
                f"server capacity must be positive, got {server_capacity}"
            )
        if not 0.0 <= headroom < 1.0:
            raise ConfigurationError(
                f"headroom must be in [0, 1), got {headroom}"
            )
        self.classifier = classifier
        self.window = window
        self.reject_on_overload = bool(reject_on_overload)
        self.server_capacity = server_capacity
        self.worst_case = bool(worst_case)
        self.headroom = float(headroom)
        self.device_depth = device_depth
        self.clients: list[AdmittedClient] = []
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._observed = metrics.enabled
        self._m_admit = metrics.counter("serve.admission.admit")
        self._m_demote = metrics.counter("serve.admission.demote")
        self._m_reject = metrics.counter("serve.admission.reject")
        self._m_pass = metrics.counter("serve.admission.pass")
        self._admitted = self._demoted = self._rejected = self._passed = 0

    @property
    def decided(self) -> dict[Verdict, int]:
        """Decision tallies by verdict (always-on, cheap)."""
        return {
            Verdict.ADMIT: self._admitted,
            Verdict.DEMOTE: self._demoted,
            Verdict.REJECT: self._rejected,
            Verdict.PASS: self._passed,
        }

    # ------------------------------------------------------------------
    # Per-request decisions
    # ------------------------------------------------------------------

    def decide(self, request: Request) -> AdmissionDecision:
        """Answer admit/demote/reject for one candidate request.

        Read-only: no classifier ledger moves, no deadline stamping —
        the stack's own ``classify()`` stays authoritative, and the
        harness cross-checks this prediction against it.
        """
        window = self.window
        occupancy = None if window is None else window.occupancy
        classifier = self.classifier
        if classifier is None:
            self._passed += 1
            if self._observed:
                self._m_pass.inc()
            return AdmissionDecision(Verdict.PASS, None, None, occupancy)
        if classifier.would_admit(request):
            verdict = Verdict.ADMIT
            self._admitted += 1
            counter = self._m_admit
        elif (
            self.reject_on_overload
            and window is not None
            and not window.has_slot()
        ):
            verdict = Verdict.REJECT
            self._rejected += 1
            counter = self._m_reject
        else:
            verdict = Verdict.DEMOTE
            self._demoted += 1
            counter = self._m_demote
        if self._observed:
            counter.inc()
        if classifier.mode == "count":
            return AdmissionDecision(
                verdict, classifier.len_q1, classifier.limit, occupancy
            )
        return AdmissionDecision(
            verdict,
            classifier.len_q1,
            classifier.limit,
            occupancy,
            classifier.work_q1,
            request.service_demand,
        )

    # ------------------------------------------------------------------
    # Per-client onboarding (the offline controller's policy, live)
    # ------------------------------------------------------------------

    @property
    def committed(self) -> float:
        """Capacity already promised to onboarded clients."""
        return sum(c.planned_capacity for c in self.clients)

    @property
    def available(self) -> float:
        if self.server_capacity is None:
            raise ConfigurationError(
                "client-level admission is unarmed: construct the service "
                "with server_capacity"
            )
        return self.server_capacity * (1.0 - self.headroom) - self.committed

    def required_capacity(self, workload: Workload, sla: GraduatedSLA) -> float:
        """Capacity this client is billed for (max over tiers of Cmin).

        Identical to :meth:`repro.core.admission.AdmissionController.
        required_capacity`, except that a configured ``device_depth``
        plans each tier against ``δ_eff(C) = δ − k·E[demand]/C``.
        """
        requirement = 0.0
        for tier in sla:
            fraction = 1.0 if self.worst_case else tier.fraction
            planner = CapacityPlanner(
                workload, tier.delta, device_depth=self.device_depth
            )
            requirement = max(requirement, planner.min_capacity(fraction))
        return requirement

    def admit_client(
        self, workload: Workload, sla: GraduatedSLA
    ) -> AdmittedClient | None:
        """Onboard the client if its planned capacity fits; else ``None``.

        The availability rule (``needed > available + EPS`` rejects) is
        the offline controller's, verbatim — the serve-vs-core admission
        differential holds decision-for-decision on any client prefix.
        """
        needed = self.required_capacity(workload, sla)
        if needed > self.available + EPS:
            return None
        client = AdmittedClient(
            name=workload.name, sla=sla, planned_capacity=needed
        )
        self.clients.append(client)
        return client

    def release_client(self, name: str) -> None:
        """Offboard an onboarded client by name."""
        for i, client in enumerate(self.clients):
            if client.name == name:
                del self.clients[i]
                return
        raise AdmissionError(f"no onboarded client named {name!r}")
