"""Differential pillar: kernels, server models, and audited policies."""

import inspect
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.check import differential as differential_mod
from repro.check.corpus import load_golden
from repro.check.cli import build_parser
from repro.check.differential import (
    decomposition_cross_check,
    differential_policies,
    disk_comparability_check,
    engine_parity,
    exact_mask_audit,
    fcfs_lindley_check,
    kernel_parity,
    run_checked,
    serve_parity,
)
from repro.check.fuzz import make_case
from repro.check.invariants import CheckingScheduler
from repro.core.request import Request
from repro.core.rtt import decompose, decompose_exact
from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.perf.scalar import EPS
from repro.sched.fcfs import FCFSScheduler
from repro.sched.registry import ALL_POLICIES
from repro.sched.sized import BoostScheduler, NudgeScheduler, SRPTScheduler

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


class TestKernelParity:
    @pytest.mark.parametrize(
        "generator,index",
        [("poisson", 0), ("onoff", 1), ("bmodel", 2), ("adversarial", 3)],
    )
    def test_fuzzed_traces_agree_across_backends(self, generator, index):
        case = make_case(generator, 17, index, max_requests=100)
        report = kernel_parity(case.workload(), case.capacity, case.delta)
        assert report.ok, report.summary()

    def test_delta_tie_regression(self):
        """Satellite: the Fraction/float boundary parity case.

        The committed ``knife-edge-mask-tie`` trace makes the float
        kernel admit a request whose exact margin is -2**-53 s (the
        documented sub-EPS tie tolerance) while ``decompose_exact``
        admits its 1 ms successor instead.  The pinned semantics:

        * every float backend (scalar / numpy / native) produces the
          *identical* mask — they share EPS, so any split here is a
          kernel bug at the Fraction/float boundary;
        * float and exact admitted *counts* agree (both optimal);
        * the mask difference is confined to the knife-edge pair;
        * the tolerance-aware cross-check accepts the divergence.
        """
        golden = load_golden(CORPUS / "knife-edge-mask-tie.json")
        workload = golden.workload()
        parity = kernel_parity(workload, golden.capacity, golden.delta)
        assert parity.ok, parity.summary()

        discrete = decompose(workload, golden.capacity, golden.delta)
        exact = decompose_exact(workload, golden.capacity, golden.delta)
        assert discrete.n_admitted == exact.n_admitted == 21
        differing = np.nonzero(discrete.admitted != exact.admitted)[0]
        assert differing.tolist() == [47, 48]
        # The float kernel takes the earlier arrival of the tied pair.
        assert bool(discrete.admitted[47]) and not bool(discrete.admitted[48])
        assert not bool(exact.admitted[47]) and bool(exact.admitted[48])

        problems = decomposition_cross_check(
            workload, golden.capacity, golden.delta
        )
        assert problems == []

    def test_strict_count_tie_regression(self):
        """A sub-EPS tie the strict exact rule counts one request lower.

        Fuzz case ``(poisson, seed 0, index 4)`` of ``repro-check
        --differential`` (C=10, delta=0.5, 48 requests): every float
        kernel admits request 8 (t=0.47), which misses its deadline by
        exactly 3/90071992547409920 s (3.3e-17 s) — inside the EPS/C =
        1e-10 s tie tolerance.  Strict exact arithmetic admits 42, the
        kernels and the exact rule under the same tolerance admit 43; the
        checks compare the tolerant counts and certify the knife edge.
        """
        case = make_case("poisson", 0, 4, max_requests=120)
        workload = case.workload()
        assert (len(workload), case.capacity, case.delta) == (48, 10.0, 0.5)
        discrete = decompose(workload, case.capacity, case.delta)
        strict = decompose_exact(workload, case.capacity, case.delta)
        tolerant = decompose_exact(
            workload, case.capacity, case.delta, tie_tolerance=EPS
        )
        assert strict.n_admitted == 42
        assert discrete.n_admitted == tolerant.n_admitted == 43
        first = int(np.nonzero(discrete.admitted != strict.admitted)[0][0])
        assert first == 8 and workload.arrivals[first] == 0.47
        prefix = discrete.admitted.copy()
        prefix[first + 1 :] = False
        overshoot, index = exact_mask_audit(workload, 10.0, 0.5, prefix)
        assert (overshoot, index) == (Fraction(3, 90071992547409920), 8)
        assert 0 < overshoot < Fraction(EPS) / 10
        assert kernel_parity(workload, case.capacity, case.delta).ok
        assert decomposition_cross_check(workload, case.capacity, case.delta) == []


class TestCrossCheck:
    def test_clean_on_fuzzed_traces(self):
        for index in range(4):
            case = make_case("adversarial", 5, index, max_requests=80)
            problems = decomposition_cross_check(
                case.workload(), case.capacity, case.delta
            )
            assert problems == [], (index, problems)

    def test_exact_mask_audit_flags_infeasible_admission(self):
        # Three simultaneous arrivals, C=1, delta=1: only one fits, so
        # admitting all three overshoots the last deadline by 2 - 1/C.
        workload = Workload(np.asarray([0.0, 0.0, 0.0]))
        mask = np.array([True, True, True])
        worst, index = exact_mask_audit(workload, 1.0, 1.0, mask)
        assert float(worst) == pytest.approx(2.0)
        assert index == 2

    def test_exact_mask_audit_empty_mask(self):
        workload = Workload(np.asarray([0.0, 1.0]))
        worst, index = exact_mask_audit(
            workload, 1.0, 1.0, np.array([False, False])
        )
        assert index == -1
        assert worst < 0

    def test_count_drift_detected(self, monkeypatch):
        """A fabricated exact-count mismatch must be reported."""
        case = make_case("poisson", 5, 0, max_requests=40)
        workload = case.workload()
        real = decompose_exact(workload, case.capacity, case.delta)

        def lying_exact(wl, capacity, delta, tie_tolerance=0):
            return SimpleNamespace(
                n_admitted=real.n_admitted - 1, admitted=real.admitted
            )

        monkeypatch.setattr(differential_mod, "decompose_exact", lying_exact)
        problems = decomposition_cross_check(
            workload, case.capacity, case.delta
        )
        assert any("exact-Fraction" in p for p in problems)


class TestServerModels:
    def test_fcfs_matches_lindley_closed_form(self):
        for index in range(3):
            case = make_case("poisson", 23, index, max_requests=100)
            problems = fcfs_lindley_check(case.workload(), case.capacity)
            assert problems == [], (index, problems)

    def test_degenerate_disk_matches_constant_rate(self):
        for generator in ("poisson", "bmodel"):
            case = make_case(generator, 23, 1, max_requests=80)
            problems = disk_comparability_check(
                case.workload(), case.capacity, case.delta
            )
            assert problems == [], (generator, problems)

    def test_disk_comparability_detects_non_degenerate_disk(self):
        # A real rotation time is way outside atol: the check must flag
        # the drift rather than silently compare apples to oranges.
        case = make_case("poisson", 23, 0, max_requests=40)
        problems = disk_comparability_check(
            case.workload(), case.capacity, case.delta, atol=1e-15
        )
        assert problems, "sub-ulp atol must expose the rotation jitter"


class TestCheckedPolicies:
    def test_all_policies_clean_on_fuzzed_trace(self):
        case = make_case("onoff", 29, 2, max_requests=80)
        report = differential_policies(
            case.workload(),
            case.capacity,
            max(1.0, case.capacity / 2),
            case.delta,
        )
        assert report.ok, report.summary()
        assert set(report.runs) == set(ALL_POLICIES)
        for run in report.runs.values():
            assert run.completed == run.expected
            assert run.violations == ()

    def test_default_policy_set(self):
        """Every check defaults to the registry's one list of policies."""
        for check in (differential_policies, engine_parity, serve_parity):
            default = inspect.signature(check).parameters["policies"].default
            assert default == ALL_POLICIES, check.__name__
        assert build_parser().parse_args([]).policies == list(ALL_POLICIES)
        assert "drr" in ALL_POLICIES

    def test_run_checked_rejects_bad_config(self):
        workload = Workload(np.asarray([0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            run_checked(workload, "fcfs", 0.0, 1.0, 0.5)

    def test_split_guarantee_enforced(self):
        case = make_case("poisson", 31, 0, max_requests=60)
        run = run_checked(
            case.workload(), "split", case.capacity, 1.0, case.delta
        )
        assert run.ok, run.violations
        assert run.primary_misses == 0


class TestCheckingScheduler:
    """The auditor itself must catch deliberately broken schedulers."""

    def test_work_conservation_violation(self):
        class LazyFCFS(FCFSScheduler):
            def select(self, now):
                return None  # refuse to serve despite backlog

        checker = CheckingScheduler(LazyFCFS())
        checker.on_arrival(Request(arrival=0.0))
        assert checker.select(0.0) is None
        assert [v.invariant for v in checker.violations] == [
            "work-conservation"
        ]

    def test_fcfs_order_violation(self):
        class LIFOFCFS(FCFSScheduler):
            def select(self, now):
                if self._queue:
                    return self._queue.pop()  # newest first: wrong
                return None

        checker = CheckingScheduler(LIFOFCFS())
        first, second = Request(arrival=0.0), Request(arrival=1.0)
        checker.on_arrival(first)
        checker.on_arrival(second)
        assert checker.select(1.0) is second
        assert checker.select(1.0) is first
        assert any(
            v.invariant == "fcfs-order" for v in checker.violations
        )

    def test_completion_without_dispatch_flagged(self):
        checker = CheckingScheduler(FCFSScheduler())
        stray = Request(arrival=0.0)
        checker.on_completion(stray)
        assert any(
            v.invariant == "dispatch-before-completion"
            for v in checker.violations
        )

    def test_clean_fcfs_records_nothing(self):
        checker = CheckingScheduler(FCFSScheduler())
        requests = [Request(arrival=float(i)) for i in range(4)]
        for request in requests:
            checker.on_arrival(request)
        for expected in requests:
            got = checker.select(expected.arrival)
            assert got is expected
            checker.on_completion(got)
        assert checker.violations == []
        assert checker.pending() == 0


class TestSizedInvariantDetection:
    """The auditor must catch deliberately broken size-aware schedulers."""

    def test_srpt_order_violation(self):
        import heapq

        class WorstFirstSRPT(SRPTScheduler):
            def select(self, now):
                if not self._heap:
                    return None
                entry = max(self._heap)
                self._heap.remove(entry)
                heapq.heapify(self._heap)
                return entry[2]

        checker = CheckingScheduler(WorstFirstSRPT(service_rate=2.0))
        small = Request(arrival=0.0, index=0, service_demand=1.0)
        large = Request(arrival=0.0, index=1, service_demand=5.0)
        checker.on_arrival(small)
        checker.on_arrival(large)
        assert checker.select(0.0) is large
        assert any(v.invariant == "srpt-order" for v in checker.violations)

    def test_srpt_preempt_violation(self):
        class EagerSRPT(SRPTScheduler):
            def should_preempt(self, current, remaining, now):
                return True  # preempt even when the queue has more work

        checker = CheckingScheduler(EagerSRPT(service_rate=2.0))
        checker.on_arrival(Request(arrival=0.0, index=0, service_demand=4.0))
        current = Request(arrival=0.0, index=1, service_demand=1.0)
        # Queued minimum is 4 work units; in-flight remainder is only 2.
        assert checker.should_preempt(current, remaining=1.0, now=0.5)
        assert any(v.invariant == "srpt-preempt" for v in checker.violations)

    def test_nudge_swap_budget_violation(self):
        class GreedyNudge(NudgeScheduler):
            def on_arrival(self, request):
                if self._queue and self.is_small(request):
                    self._queue.appendleft(request)  # jumps the whole queue
                else:
                    self._queue.append(request)

        checker = CheckingScheduler(GreedyNudge())
        for index, demand in enumerate((8.0, 8.0, 1.0)):
            checker.on_arrival(
                Request(arrival=0.1 * index, index=index, service_demand=demand)
            )
        served = checker.select(0.5)
        assert served.service_demand == 1.0  # overtook both larges
        assert any(
            v.invariant == "nudge-swap-once" for v in checker.violations
        )

    def test_nudge_double_overtake_violation(self):
        class RepeatNudge(NudgeScheduler):
            def on_arrival(self, request):
                # One-position swap, but with the swap-once ledger gone:
                # the same large can be overtaken again and again.
                if len(self._queue) >= 1 and self.is_small(request):
                    self._queue.insert(len(self._queue) - 1, request)
                else:
                    self._queue.append(request)

        checker = CheckingScheduler(RepeatNudge())
        checker.on_arrival(Request(arrival=0.0, index=0, service_demand=8.0))
        checker.on_arrival(Request(arrival=0.1, index=1, service_demand=1.0))
        assert checker.select(0.2).index == 1  # first overtake: within budget
        checker.on_arrival(Request(arrival=0.3, index=2, service_demand=1.0))
        assert checker.select(0.4).index == 2  # same large overtaken twice
        assert any(
            "second time" in v.detail
            for v in checker.violations
            if v.invariant == "nudge-swap-once"
        )

    def test_boost_order_violation(self):
        import heapq

        class FIFOBoost(BoostScheduler):
            def select(self, now):
                if not self._heap:
                    return None
                entry = min(self._heap, key=lambda e: e[1])  # arrival order
                self._heap.remove(entry)
                heapq.heapify(self._heap)
                return entry[2]

        checker = CheckingScheduler(FIFOBoost(scale=1.0))
        large = Request(arrival=0.0, index=0, service_demand=8.0)  # key -0.125
        small = Request(arrival=0.5, index=1, service_demand=1.0)  # key -0.5
        checker.on_arrival(large)
        checker.on_arrival(small)
        assert checker.select(0.5) is large
        assert any(v.invariant == "boost-order" for v in checker.violations)

    def test_clean_srpt_records_nothing(self):
        checker = CheckingScheduler(SRPTScheduler(service_rate=2.0))
        small = Request(arrival=0.0, index=0, service_demand=1.0)
        large = Request(arrival=0.0, index=1, service_demand=5.0)
        checker.on_arrival(large)
        checker.on_arrival(small)
        assert checker.select(0.0) is small
        checker.on_completion(small)
        # Preempt path: re-dispatch of the victim is not a double dispatch.
        victim = checker.select(0.0)
        assert victim is large
        assert not checker.should_preempt(victim, remaining=2.5, now=0.5)
        tiny = Request(arrival=0.5, index=2, service_demand=0.5)
        checker.on_arrival(tiny)
        assert checker.should_preempt(victim, remaining=2.0, now=0.5)
        victim.remaining_service = 2.0
        checker.on_preempt(victim)
        assert checker.select(0.5) is tiny
        checker.on_completion(tiny)
        assert checker.select(0.75) is victim
        checker.on_completion(victim)
        assert checker.violations == []
        assert checker.pending() == 0
