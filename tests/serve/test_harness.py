"""ServiceHarness: the online plane must equal the offline simulator."""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from repro.check.differential import _scalar_columns
from repro.core.request import QoSClass, Request
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.faults import run_resilient
from repro.faults.retry import RetryPolicy
from repro.faults.schedule import random_schedule
from repro.obs.registry import MetricsRegistry
from repro.serve import (
    AutoscalerConfig,
    IngestServer,
    Node,
    PlacementPlanner,
    ServiceHarness,
    StagedSource,
)
from repro.shaping import WorkloadShaper
from repro.sim.engine import Simulator
from repro.sim.source import ClosedLoopPopulation, ClosedLoopSource
from repro.traces import library
from repro.traces.synthetic import poisson_workload

CMIN, DELTA_C, DELTA = 4.0, 2.0, 0.5


@pytest.fixture(scope="module")
def bursty():
    base = poisson_workload(6.0, duration=12.0, seed=7).arrivals
    storms = np.concatenate([np.full(8, t) for t in (2.0, 5.0, 9.0)])
    return Workload(
        np.sort(np.concatenate([base, storms])), name="serve-bursty"
    )


@pytest.fixture(scope="module")
def sized(bursty):
    rng = np.random.default_rng(11)
    sizes = rng.choice([0.5, 1.0, 4.0], size=len(bursty))
    return Workload(bursty.arrivals.copy(), name="serve-sized", sizes=sizes)


class TestReplayParity:
    @pytest.mark.parametrize(
        "policy", ["fcfs", "split", "miser", "wf2q", "edf", "splitfarm"]
    )
    def test_bit_identical_to_scalar_engine(self, bursty, policy):
        resp, adm, ledger, misses = _scalar_columns(
            bursty, policy, CMIN, DELTA_C, DELTA
        )
        harness = ServiceHarness(policy, CMIN, DELTA_C, DELTA)
        served = harness.replay(bursty, chunks=5)
        assert not served.violations
        assert not served.rejected
        # Exact equality, not approximate: serve == simulate, bit for bit.
        assert np.array_equal(served.responses, resp)
        assert np.array_equal(served.admitted, adm)
        assert dict(served.ledger) == dict(ledger)
        assert served.primary_misses == misses
        assert served.conservation is not None and served.conservation.ok

    def test_chunking_does_not_change_the_run(self, bursty):
        one = ServiceHarness("split", CMIN, DELTA_C, DELTA).replay(
            bursty, chunks=1
        )
        many = ServiceHarness("split", CMIN, DELTA_C, DELTA).replay(
            bursty, chunks=7
        )
        assert np.array_equal(one.responses, many.responses)
        assert np.array_equal(one.admitted, many.admitted)
        assert one.ledger == many.ledger
        # Only the audit trail differs: one boundary audit per chunk edge.
        assert len(many.audits) == len(one.audits) + 6

    def test_sized_demands_are_parity_safe(self, sized):
        resp, adm, ledger, misses = _scalar_columns(
            sized, "splitfarm", CMIN, DELTA_C, DELTA
        )
        served = ServiceHarness("splitfarm", CMIN, DELTA_C, DELTA).replay(
            sized, chunks=3
        )
        assert np.array_equal(served.responses, resp)
        assert np.array_equal(served.admitted, adm)
        assert served.primary_misses == misses

    def test_decision_tallies_match_the_admitted_ledger(self, bursty):
        served = ServiceHarness("split", CMIN, DELTA_C, DELTA).replay(bursty)
        assert served.decisions["admit"] == int(served.admitted.sum())
        assert served.decisions["demote"] == len(bursty) - int(
            served.admitted.sum()
        )
        assert served.decisions.get("reject", 0) == 0

    def test_classifier_free_policy_passes_everything(self, bursty):
        served = ServiceHarness("fcfs", CMIN, DELTA_C, DELTA).replay(bursty)
        assert served.decisions["pass"] == len(bursty)
        assert not served.admitted.any()


class TestStagedSource:
    def _source(self):
        sim = Simulator()
        delivered = []

        class Sink:
            def on_arrival(self, request):
                delivered.append(request)

        return sim, StagedSource(sim, Sink()), delivered

    def test_out_of_order_staging_rejected(self):
        _, source, _ = self._source()
        source.stage(2.0)
        with pytest.raises(ConfigurationError, match="precedes"):
            source.stage(1.0)
        with pytest.raises(ConfigurationError, match="positive"):
            source.stage(3.0, size=0.0)

    @pytest.mark.parametrize(
        ("arrival", "size"),
        [(math.nan, None), (math.inf, None), (1.0, math.inf), (1.0, math.nan)],
    )
    def test_non_finite_staging_rejected(self, arrival, size):
        _, source, _ = self._source()
        with pytest.raises(ConfigurationError, match="finite"):
            source.stage(arrival, size)
        assert source.horizon == 0.0  # nothing was staged

    def test_delivery_matches_workload_source_semantics(self):
        sim, source, delivered = self._source()
        source.stage(0.5)
        source.stage(0.5)
        source.stage(1.25, size=3.0)
        assert source.horizon == 1.25
        source.start()
        sim.run()
        assert [r.arrival for r in delivered] == [0.5, 0.5, 1.25]
        assert [r.index for r in delivered] == [0, 1, 2]
        assert delivered[2].service_demand == 3.0
        assert source.exhausted

    def test_staging_after_drain_rearms(self):
        sim, source, delivered = self._source()
        source.stage(1.0)
        source.start()
        sim.run()
        assert len(delivered) == 1 and source.exhausted
        source.stage(5.0)
        assert not source.exhausted
        sim.run()
        assert len(delivered) == 2 and sim.now == 5.0

    def test_past_arrival_fires_now_not_in_history(self):
        sim, source, delivered = self._source()
        source.stage(3.0)
        source.start()
        sim.run()
        # Stage an arrival timestamped in the simulator's past: it is
        # delivered immediately, never by rewinding the clock.
        source.stage(3.0)
        sim.run()
        assert len(delivered) == 2
        assert sim.now == 3.0

    def test_staging_during_the_run(self):
        staged = {"done": False}

        def grow(request):
            if not staged["done"]:
                staged["done"] = True
                harness.source.stage(request.arrival + 2.0)

        harness = ServiceHarness(
            "split", CMIN, DELTA_C, DELTA, on_request=grow
        )
        harness.source.stage(1.0)
        result = harness.run()
        assert result.ledger["completed"] == 2
        assert [r.arrival for r in harness.source.requests] == [1.0, 3.0]


class TestAuditsAndDriving:
    def test_every_epoch_is_audited(self, bursty):
        harness = ServiceHarness("split", CMIN, DELTA_C, DELTA)
        served = harness.replay(bursty, chunks=6)
        assert len(served.audits) == 6  # 5 boundaries + the final audit
        times = [t for t, _ in served.audits]
        assert times == sorted(times)
        assert all(outstanding >= 0 for _, outstanding in served.audits)
        assert served.audits[-1][1] == 0

    def test_rerun_audits_boundaries_behind_the_clock_without_rewinding(self):
        """Regression: staging one more arrival after a drained replay
        and running in chunks put the first boundaries behind the
        clock, and running to them rewound it.  They are audited in
        place instead, and the late arrival is served on time."""
        harness = ServiceHarness("split", 400, 20, 0.05)
        harness.replay(library.websearch(duration=20.0, seed=1))
        drained_at = harness.sim.now
        late = harness.source.horizon + 30.0
        harness.source.stage(late)
        served = harness.run(chunks=4)
        rerun_audits = served.audits[-4:]
        # The boundary at span/4 was behind the clock: audited in place.
        assert rerun_audits[0][0] == drained_at
        times = [t for t, _ in served.audits]
        assert times == sorted(times)
        assert all(outstanding == 0 for _, outstanding in rerun_audits)
        request = harness.source.requests[-1]
        assert request.arrival == late
        assert request.completion > late

    def test_run_epochs_is_chunked_run(self, bursty):
        harness = ServiceHarness("split", CMIN, DELTA_C, DELTA)
        harness.source.stage_workload(bursty)
        served = harness.run_epochs(epoch=2.0, horizon=12.0)
        assert len(served.audits) == 6

    def test_bad_driving_parameters(self, bursty):
        harness = ServiceHarness("split", CMIN, DELTA_C, DELTA)
        with pytest.raises(ConfigurationError, match="chunks"):
            harness.run(chunks=0)
        with pytest.raises(ConfigurationError, match="epoch"):
            harness.run_epochs(epoch=0.0, horizon=10.0)

    def test_sampler_records_probes(self, bursty):
        harness = ServiceHarness(
            "split", CMIN, DELTA_C, DELTA, sample_interval=1.0
        )
        served = harness.replay(bursty)
        assert served.telemetry.samples, "periodic sampling produced no records"

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError, match="required"):
            ServiceHarness("split", None, DELTA_C, DELTA)
        with pytest.raises(ConfigurationError, match="bad configuration"):
            ServiceHarness("split", -1.0, DELTA_C, DELTA)
        with pytest.raises(ConfigurationError, match="unknown policy"):
            ServiceHarness("bogus", CMIN, DELTA_C, DELTA)

    def test_serve_metrics_counters(self, bursty):
        registry = MetricsRegistry()
        harness = ServiceHarness(
            "split", CMIN, DELTA_C, DELTA, metrics=registry
        )
        harness.replay(bursty)
        assert registry.value("serve.ingested") == len(bursty)
        assert registry.value("serve.delivered") == len(bursty)
        assert registry.value("serve.rejected") == 0
        assert registry.value("serve.violations") == 0
        assert registry.value("serve.admission.admit") > 0


class TestRejectPath:
    def test_overload_rejections_never_enter_the_stack(self):
        # A zero-gap storm against a tiny static window: the classifier
        # demotes past maxQ1 and the saturated window turns demote into
        # reject.  Rejected requests must stay out of every ledger.
        storm = Workload(np.zeros(40), name="storm")
        harness = ServiceHarness(
            "split",
            2.0,
            1.0,
            DELTA,
            aqm="static",
            reject_on_overload=True,
        )
        served = harness.replay(storm)
        assert served.rejected
        assert served.decisions["reject"] == len(served.rejected)
        assert not served.violations
        terminal = (
            served.ledger["completed"]
            + served.ledger["dropped"]
            + served.ledger["shed"]
        )
        assert terminal + len(served.rejected) == len(storm)
        assert math.isnan(
            served.responses[served.rejected[0].index]
        )


class TestChaosConfigurationPinned:
    """The benchmark's chaos-serve stack, pinned bit for bit.

    The parity replays need the pure-observer admission service, so
    this is the one test that pins what the reject path, CoDel, retries,
    failover and the adaptive controller serve together: a short
    WebSearch trace through the JSON-lines endpoint, as perfbench's
    chaos-serve feeds its 300 s one.
    """

    def test_reject_path_output_is_pinned(self):
        delta, seed = 0.050, 5
        workload = library.websearch(duration=20.0, seed=seed)
        plan = WorkloadShaper(delta=delta, fraction=0.95).plan(workload)
        harness = ServiceHarness(
            "split",
            plan.cmin,
            plan.delta_c,
            delta,
            aqm="codel",
            reject_on_overload=True,
            autoscaler=AutoscalerConfig(
                interval=1.0, window=5.0, cmin_floor=plan.cmin, mode="shadow"
            ),
            faults=random_schedule(
                seed,
                horizon=workload.duration,
                crashes=3,
                droops=3,
                storms=3,
                units=1,
                max_crash_fraction=1e-4,
                max_factor=2.0,
            ),
            retry=RetryPolicy(
                timeout_q1=10 * delta,
                timeout_q2=40 * delta,
                max_retries=3,
                backoff_base=delta / 2,
            ),
            adaptive=True,
            seed=seed,
        )
        ingest = IngestServer(harness)
        for arrival in workload.arrivals:
            assert ingest.handle_line(json.dumps({"arrival": float(arrival)}))["ok"]
        result = harness.run(chunks=4)
        assert result.violations == ()
        assert result.ledger == {
            "completed": 6447, "dropped": 0, "shed": 0, "window": 0
        }
        assert result.decisions == {
            "admit": 6335, "demote": 112, "reject": 348, "pass": 0
        }
        assert len(result.rejected) == 348
        assert result.failovers == 89
        digest = hashlib.sha256(
            result.responses.tobytes() + result.admitted.tobytes()
        ).hexdigest()
        assert digest == (
            "c4df68b966d9cad6677f52d07cab462cec9d22e0ac38f329f982bfc95dec96db"
        )


class TestPlacement:
    def test_zero_latency_placement_is_the_identity(self, bursty):
        plan = PlacementPlanner([Node("local", 100.0)]).plan(
            CMIN, DELTA_C, DELTA
        )
        placed = ServiceHarness("split", placement=plan).replay(bursty)
        plain = ServiceHarness("split", CMIN, DELTA_C, DELTA).replay(bursty)
        assert placed.effective_delta == DELTA
        assert np.array_equal(placed.responses, plain.responses)
        assert np.array_equal(placed.admitted, plain.admitted)

    def test_latency_charge_tightens_the_admission_bound(self, bursty):
        nodes = [Node("far", 100.0, latency=0.2)]
        plan = PlacementPlanner(nodes).plan(CMIN, DELTA_C, DELTA)
        harness = ServiceHarness("split", placement=plan)
        assert harness.effective_delta == pytest.approx(DELTA - 0.2)
        assert harness.classifier.limit == math.floor(
            CMIN * (DELTA - 0.2) + 1e-9
        )
        served = harness.replay(bursty)
        # The result reports both deadlines: the SLA delta and the
        # residue the stack actually enforced.
        assert served.delta == DELTA
        assert served.effective_delta == pytest.approx(DELTA - 0.2)

    def test_latency_eating_the_budget_is_rejected(self):
        # The planner never emits such a plan; a hand-built one with no
        # deadline residue must be refused at harness construction.
        from repro.serve import PlacementPlan

        node = Node("far", 100.0, latency=0.5)
        hostile = PlacementPlan(
            q1_node=node,
            q2_node=node,
            cmin=CMIN,
            delta_c=DELTA_C,
            delta=0.5,
            effective_delta=0.0,
        )
        with pytest.raises(ConfigurationError, match="deadline budget"):
            ServiceHarness("split", placement=hostile)


class TestFaultMode:
    def test_fault_replay_matches_run_resilient(self, bursty, sized):
        schedule = random_schedule(5, horizon=12.0, units=2)
        retry = RetryPolicy(
            timeout_q1=10 * DELTA,
            timeout_q2=40 * DELTA,
            max_retries=3,
            backoff_base=DELTA / 2,
        )
        for workload in (bursty, sized):
            for admission in ("count", "work"):
                self._replay_matches(workload, schedule, retry, admission)

    @staticmethod
    def _replay_matches(workload, schedule, retry, admission):
        offline = run_resilient(
            workload,
            "split",
            CMIN,
            DELTA_C,
            DELTA,
            schedule=schedule,
            retry=retry,
            adaptive=True,
            seed=5,
            admission=admission,
        )
        harness = ServiceHarness(
            "split",
            CMIN,
            DELTA_C,
            DELTA,
            admission=admission,
            faults=schedule,
            retry=retry,
            adaptive=True,
            seed=5,
        )
        served = harness.replay(workload, chunks=4)
        assert not served.violations
        assert served.ledger["completed"] == len(offline.completed)
        assert served.ledger["dropped"] == len(offline.dropped)
        assert served.ledger["shed"] == len(offline.shed)
        assert served.primary_misses == offline.primary_misses
        assert served.final_limit == offline.final_limit
        assert np.array_equal(
            np.sort([r.response_time for r in served.completed]),
            np.sort([r.response_time for r in offline.completed]),
        )
        post = schedule.last_clear
        offline_q1 = offline.q1_compliance_after(post)
        serve_q1 = served.q1_compliance_after(post)
        assert (
            math.isnan(offline_q1)
            and math.isnan(serve_q1)
            or offline_q1 == serve_q1
        )

    def test_adaptive_needs_a_classifier(self):
        with pytest.raises(ConfigurationError, match="adapt"):
            ServiceHarness("fcfs", CMIN, DELTA_C, DELTA, adaptive=True)
        with pytest.raises(ConfigurationError, match="splitfarm"):
            ServiceHarness("splitfarm", CMIN, DELTA_C, DELTA, adaptive=True)


class TestClosedLoopSink:
    def test_population_flows_through_the_admission_gate(self):
        harness = ServiceHarness("split", CMIN, DELTA_C, DELTA)
        source = ClosedLoopSource(
            harness.sim,
            harness,
            ClosedLoopPopulation(n_users=4, think_time=0.4, horizon=10.0, seed=3),
        )
        source.start()
        harness.sim.run()
        assert source.requests, "closed-loop population never submitted"
        assert len(harness.delivered) == len(source.requests)
        assert not harness.violations
        decided = harness.admission_service.decided
        assert sum(n for n in decided.values()) == len(source.requests)
        # The defining closed-loop property survives the gate: each
        # user's next arrival waits on its previous completion.
        by_user: dict = {}
        for request in source.requests:
            by_user.setdefault(request.client_id, []).append(request)
        for requests in by_user.values():
            for prev, nxt in zip(requests, requests[1:]):
                assert prev.completion is not None
                assert nxt.arrival >= prev.completion

    def test_completion_hooks_reach_the_stack(self, bursty):
        harness = ServiceHarness("split", CMIN, DELTA_C, DELTA)
        seen: list[Request] = []
        harness.add_completion_hook(seen.append)
        harness.replay(bursty)
        assert len(seen) == len(bursty)
        assert all(r.qos_class is not None or True for r in seen)
        assert all(r.completion is not None for r in seen)
        assert any(r.qos_class is QoSClass.PRIMARY for r in seen)
