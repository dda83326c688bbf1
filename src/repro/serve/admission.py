"""Live admission: admit/demote/reject answered from decomposed estimates.

:meth:`AdmissionService.decide` answers what the online RTT classifier
*will* do with a candidate request, via the read-only
:meth:`~repro.sched.classifier.OnlineRTTClassifier.would_admit` peek
(count or work mode, whichever the classifier runs), optionally
consulting the AQM window's slot state to *reject* instead of demote
under device saturation.  The peek never moves a ledger: the serving
stack's own ``classify()`` remains the single authority, and the
:class:`~repro.serve.harness.ServiceHarness` verifies every prediction
against the authoritative outcome (predict-then-verify), which is how
divergence between the service API and the certified simulator is made
impossible to hide.

Client-level admission (Section 4.4: size each client by its decomposed
``Cmin`` and commit it against a capacity budget) is
:class:`repro.core.admission.AdmissionController`'s.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..core.request import Request
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from ..sched.classifier import OnlineRTTClassifier
from ..server.aqm import InflightWindow


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
    """The control plane's per-request admission authority.

    Parameters
    ----------
    classifier:
        The serving stack's live :class:`~repro.sched.classifier.
        OnlineRTTClassifier` (``None`` for classifier-free policies —
        every decision is then :attr:`Verdict.PASS`).
    window:
        The stack's :class:`~repro.server.aqm.InflightWindow`, consulted
        per decision; ``None`` when no AQM window is armed.
    reject_on_overload:
        Arm the reject path: a request the classifier would demote is
        *refused* while the window has no free slot (the device queue is
        full — adding overflow work only bloats it).  Default off, which
        makes the service a pure observer and keeps serve ≡ simulate
        bit-identical; the harness's parity replays rely on that.
    metrics:
        Optional registry for ``serve.admission.*`` counters.
    """

    def __init__(
        self,
        classifier: OnlineRTTClassifier | None = None,
        window: InflightWindow | None = None,
        reject_on_overload: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        self.classifier = classifier
        self.window = window
        self.reject_on_overload = bool(reject_on_overload)
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
