"""AdmissionService: live decisions must match the offline authority.

The predict-then-verify replay must agree with the stack's own
classifier in both count and work admission modes.  Client-level
admission is :class:`repro.core.admission.AdmissionController`'s
(``tests/core/test_admission.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.serve import AdmissionService, ServiceHarness, Verdict
from repro.traces.synthetic import poisson_workload

CMIN, DELTA_C, DELTA = 4.0, 2.0, 0.5


@pytest.fixture(scope="module")
def bursty():
    base = poisson_workload(6.0, duration=10.0, seed=21).arrivals
    storms = np.concatenate([np.full(6, t) for t in (1.5, 4.0, 7.5)])
    return Workload(np.sort(np.concatenate([base, storms])), name="adm")


class TestPerRequestDifferential:
    def test_count_mode_predictions_never_contradict_the_classifier(
        self, bursty
    ):
        served = ServiceHarness("split", CMIN, DELTA_C, DELTA).replay(
            bursty, chunks=3
        )
        assert not served.violations
        assert served.decisions["admit"] > 0
        assert served.decisions["demote"] > 0

    def test_work_mode_predictions_never_contradict_the_classifier(
        self, bursty
    ):
        rng = np.random.default_rng(5)
        sized = Workload(
            bursty.arrivals.copy(),
            name="adm-sized",
            sizes=rng.choice([0.25, 1.0, 3.0], size=len(bursty)),
        )
        harness = ServiceHarness(
            "split", CMIN, DELTA_C, DELTA, admission="work"
        )
        assert harness.classifier.mode == "work"
        served = harness.replay(sized, chunks=3)
        assert not served.violations
        assert served.decisions["admit"] > 0
        assert served.decisions["demote"] > 0

    def test_decide_is_read_only(self, bursty):
        from repro.core.request import Request

        harness = ServiceHarness("split", CMIN, DELTA_C, DELTA)
        clf = harness.classifier
        probe = Request(arrival=0.0, index=0)
        before = (clf.len_q1, clf.n_primary, clf.n_overflow)
        for _ in range(5):
            decision = harness.admission_service.decide(probe)
        assert decision.verdict is Verdict.ADMIT
        assert (clf.len_q1, clf.n_primary, clf.n_overflow) == before

    def test_classifier_free_policy_passes(self):
        from repro.core.request import Request

        service = AdmissionService(classifier=None)
        decision = service.decide(Request(arrival=0.0, index=0))
        assert decision.verdict is Verdict.PASS
        assert decision.serves
        assert service.decided[Verdict.PASS] == 1

    def test_decision_carries_the_state_it_saw(self, bursty):
        seen = []
        harness = ServiceHarness("split", CMIN, DELTA_C, DELTA)
        original = harness.admission_service.decide

        def spy(request):
            decision = original(request)
            seen.append(decision)
            return decision

        harness.admission_service.decide = spy
        harness.replay(bursty)
        limit = harness.classifier.limit
        for decision in seen:
            assert decision.limit == limit
            assert 0 <= decision.len_q1 <= limit
            if decision.verdict is Verdict.DEMOTE:
                assert decision.len_q1 == limit

    def test_reason_renders_the_state_the_decision_saw(self):
        from repro.core.request import Request
        from repro.sched.classifier import OnlineRTTClassifier
        from repro.server.aqm import InflightWindow

        classifier = OnlineRTTClassifier(CMIN, DELTA)  # bound 2
        window = InflightWindow(depth=1)
        service = AdmissionService(
            classifier=classifier, window=window, reject_on_overload=True
        )
        admit = service.decide(Request(arrival=0.0, index=0))
        assert admit.reason == "lenQ1 0 fits the C*delta bound 2"
        for index in (1, 2):
            classifier.classify(Request(arrival=0.0, index=index))
        demote = service.decide(Request(arrival=0.0, index=3))
        assert demote.reason == (
            "guaranteed class full (lenQ1 2 at bound 2): overflow"
        )
        window.on_enter(Request(arrival=0.0, index=4), 0.0)
        reject = service.decide(Request(arrival=0.0, index=5))
        assert (reject.verdict, reject.window_occupancy) == (Verdict.REJECT, 1)
        assert reject.reason == (
            "guaranteed class full and the device window is saturated "
            "(1 in flight)"
        )
        work = AdmissionService(
            classifier=OnlineRTTClassifier(CMIN, DELTA, mode="work")
        )
        sized = work.decide(Request(arrival=0.0, index=0, service_demand=0.5))
        assert sized.reason == "admitted work 0 + 0.5 fits the work bound"
        passed = AdmissionService().decide(Request(arrival=0.0, index=0))
        assert passed.reason == (
            "classifier-free policy: requests are not classified"
        )
        assert service.decided == {
            Verdict.ADMIT: 1, Verdict.DEMOTE: 1, Verdict.REJECT: 1, Verdict.PASS: 0
        }

    def test_a_wrong_prediction_is_a_violation(self, bursty):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        harness = ServiceHarness("split", CMIN, DELTA_C, DELTA, metrics=registry)
        original = harness.admission_service.decide

        def demote_every_admit(request):
            decision = original(request)
            if decision.verdict is Verdict.ADMIT:
                return decision._replace(verdict=Verdict.DEMOTE)
            return decision

        harness.admission_service.decide = demote_every_admit
        served = harness.replay(bursty)
        assert len(served.violations) == served.decisions["admit"] > 0
        assert served.violations[0] == (
            f"request 0 at t={bursty.arrivals[0]:g}: predicted demote, "
            "classifier moved (primary, overflow) by (1, 0)"
        )
        assert registry.value("serve.violations") == len(served.violations)
