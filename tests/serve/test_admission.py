"""AdmissionService: live decisions must match the offline authorities.

Two differentials, matching the service's two granularities:

* per request — the predict-then-verify replay must agree with the
  stack's own classifier in both count and work admission modes;
* per client — onboarding decisions must match the offline
  :class:`repro.core.admission.AdmissionController` decision-for-
  decision on any candidate prefix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.admission import AdmissionController
from repro.core.capacity import CapacityPlanner
from repro.core.sla import GraduatedSLA
from repro.core.workload import Workload
from repro.exceptions import AdmissionError, ConfigurationError
from repro.serve import AdmissionService, ServiceHarness, Verdict
from repro.traces.synthetic import poisson_workload

CMIN, DELTA_C, DELTA = 4.0, 2.0, 0.5

SLA = GraduatedSLA([(0.95, 0.05), (0.99, 0.5)])


def _candidates(count: int = 8) -> list[Workload]:
    """Deterministic candidate clients at varied intensities."""
    return [
        poisson_workload(rate, duration=8.0, seed=40 + i)
        for i, rate in enumerate(
            np.linspace(2.0, 30.0, count)
        )
    ]


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


class TestClientDifferential:
    @pytest.mark.parametrize("worst_case", [False, True])
    @pytest.mark.parametrize("headroom", [0.0, 0.2])
    def test_matches_offline_controller_decision_for_decision(
        self, worst_case, headroom
    ):
        capacity = 60.0
        offline = AdmissionController(
            server_capacity=capacity, worst_case=worst_case, headroom=headroom
        )
        live = AdmissionService(
            server_capacity=capacity, worst_case=worst_case, headroom=headroom
        )
        verdicts = []
        for workload in _candidates():
            offline_client = offline.try_admit(workload, SLA)
            live_client = live.admit_client(workload, SLA)
            assert (offline_client is None) == (live_client is None)
            if live_client is not None:
                assert live_client.planned_capacity == pytest.approx(
                    offline_client.planned_capacity, abs=0.0
                )
            assert live.committed == offline.committed
            assert live.available == offline.available
            verdicts.append(live_client is not None)
        # The prefix must be non-trivial: some admitted, some refused.
        assert any(verdicts) and not all(verdicts)

    def test_required_capacity_matches_offline(self):
        offline = AdmissionController(server_capacity=100.0)
        live = AdmissionService(server_capacity=100.0)
        for workload in _candidates(4):
            assert live.required_capacity(workload, SLA) == pytest.approx(
                offline.required_capacity(workload, SLA), abs=0.0
            )

    def test_device_depth_plans_against_delta_eff(self):
        workload = _candidates(1)[0]
        shallow = AdmissionService(server_capacity=100.0)
        deep = AdmissionService(server_capacity=100.0, device_depth=8)
        base = shallow.required_capacity(workload, SLA)
        corrected = deep.required_capacity(workload, SLA)
        # The queue's share of the deadline must be budgeted: a depth-k
        # device can only demand more capacity, never less.
        assert corrected >= base
        expected = max(
            CapacityPlanner(workload, tier.delta, device_depth=8).min_capacity(
                tier.fraction
            )
            for tier in SLA
        )
        assert corrected == pytest.approx(expected, abs=0.0)

    def test_release_frees_the_committed_capacity(self):
        live = AdmissionService(server_capacity=30.0)
        workload = _candidates(1)[0]
        client = live.admit_client(workload, SLA)
        assert client is not None
        committed = live.committed
        assert committed > 0
        live.release_client(workload.name)
        assert live.committed == 0.0
        with pytest.raises(AdmissionError, match="no onboarded client"):
            live.release_client(workload.name)

    def test_unarmed_client_half_raises(self):
        service = AdmissionService()
        with pytest.raises(ConfigurationError, match="unarmed"):
            _ = service.available

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            AdmissionService(server_capacity=0.0)
        with pytest.raises(ConfigurationError, match="headroom"):
            AdmissionService(server_capacity=10.0, headroom=1.0)
