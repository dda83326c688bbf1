"""Engine-parity differential: the event loop vs the fast paths.

Mirrors the kernel-parity suite one layer up: the differential harness
must certify bit-identical behavior of the native loop and of the
heap-free loop — one server or a topology's two sides, fed open-loop
columns or a closed-loop population — on the golden corpus, fuzzed
traces, adversarial arrival columns and tie-heavy populations, and —
crucially — must *detect* a path that drifts or loses a request
(checked by injecting bugs into the native loops' C source and into the
direct loop's tie orders, side merge and feed).
"""

import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check import differential
from repro.check.corpus import load_golden
from repro.check.differential import ParityReport, engine_parity
from repro.check.fuzz import make_case
from repro.core.request import QoSClass
from repro.core.workload import Workload
from repro.exceptions import SimulationError
from repro.perf import native
from repro.sched.registry import ALL_POLICIES, TOPOLOGY_POLICIES, make_scheduler
from repro.server import driver
from repro.server.constant_rate import ConstantRateModel
from repro.sim import source
from repro.shaping import (
    RunConfig,
    build_stack,
    class_results,
    run_policy,
    select_engine,
    serve_native,
    serve_native_closed,
)
from repro.units import MAX_SIZE, MIN_SIZE
from repro.workload.sizes import BimodalDemand

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def parity_for(workload, capacity, delta):
    """The CLI's parameterization: Q1 at capacity, overflow at half."""
    return engine_parity(workload, capacity, max(1.0, capacity / 2), delta)


class TestGoldenCorpus:
    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_corpus_traces_bit_identical(self, path):
        golden = load_golden(path)
        report = parity_for(golden.workload(), golden.capacity, golden.delta)
        assert report.ok, report.summary()
        assert report.bit_identical, report.summary()
        assert report.max_drift == 0.0


class TestFuzzedTraces:
    @pytest.mark.parametrize(
        "generator,index",
        [("poisson", 0), ("onoff", 1), ("bmodel", 2), ("adversarial", 3)],
    )
    def test_fuzzed_traces_bit_identical(self, generator, index):
        case = make_case(generator, 29, index, max_requests=150)
        report = parity_for(case.workload(), case.capacity, case.delta)
        assert report.ok, report.summary()
        assert report.bit_identical, report.summary()

    def test_empty_trace(self):
        report = parity_for(Workload([], name="empty"), 10.0, 1.0)
        assert report.ok and report.bit_identical


class TestWithoutANativeBuild:
    """Where the C code does not build, ``auto`` serves every policy on
    the direct loop, and ``engine_parity`` certifies that loop: the
    corpus and the fuzzed traces stay bit-identical there too."""

    @pytest.fixture(autouse=True)
    def without_native(self, monkeypatch):
        monkeypatch.setattr(native, "available", lambda: False)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_every_policy_takes_the_direct_loop(self, policy):
        workload = Workload([0.0, 0.0, 0.5], sizes=[1.0, 2.0, 1.0])
        for admission in ("count", "work"):
            config = RunConfig(CMIN, DELTA_C, DELTA, admission=admission)
            assert select_engine(workload, policy, config) == "direct"

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_corpus_traces_bit_identical(self, path):
        golden = load_golden(path)
        report = parity_for(golden.workload(), golden.capacity, golden.delta)
        assert report.ok and report.bit_identical, report.summary()

    @pytest.mark.parametrize(
        "generator,index",
        [("poisson", 0), ("onoff", 1), ("bmodel", 2), ("adversarial", 3)],
    )
    def test_fuzzed_traces_bit_identical(self, generator, index):
        case = make_case(generator, 29, index, max_requests=150)
        report = parity_for(case.workload(), case.capacity, case.delta)
        assert report.ok and report.bit_identical, report.summary()


class TestReportShape:
    def test_summary_strings(self):
        report = parity_for(Workload([0.0, 0.1]), 10.0, 1.0)
        assert "engine parity OK" in report.summary()
        assert "bit-identical" in report.summary()
        assert report.policies == ALL_POLICIES

    def test_ineligible_policy_is_a_divergence(self):
        report = engine_parity(Workload([0.0]), 10.0, 5.0, 1.0, policies=("lifo",))
        assert not report.ok
        assert "not a policy the native or the direct loop serves" in report.summary()

    @pytest.mark.parametrize("plane", ["engine", "serve"])
    def test_violated_summary_names_its_plane(self, plane):
        report = ParityReport(
            plane=plane, workload_name="w", cmin=1.0, delta_c=1.0, delta=1.0,
            policies=("fcfs",), max_drift=0.0, bit_identical=True,
            divergences=("fcfs: lost a request",),
        )
        assert not report.ok
        assert report.summary() == f"{plane} parity VIOLATED: fcfs: lost a request"

    def test_drift_formats_in_summary(self):
        report = ParityReport(
            plane="engine", workload_name="w", cmin=1.0, delta_c=1.0, delta=1.0,
            policies=("fcfs",), max_drift=2.5e-13, bit_identical=False,
        )
        assert report.ok
        assert "max drift" in report.summary()


class TestInjectedBugDetection:
    """The harness must *fail* when the direct loop loses a request.
    With no native build, ``auto`` takes every policy to the direct
    loop."""

    @pytest.fixture(autouse=True)
    def without_native(self, monkeypatch):
        monkeypatch.setattr(native, "available", lambda: False)

    @pytest.fixture
    def bursty(self):
        rng = np.random.default_rng(41)
        arrivals = np.sort(rng.uniform(0.0, 2.0, 400))
        return Workload(arrivals, name="bursty")

    def test_dropped_request_detected(self, bursty, monkeypatch):
        """A direct loop that never sees the last arrival fails the
        completion count."""

        def lossy_serve_direct(feed, *sides, route=None):
            sizes = None if feed.sizes is None else feed.sizes[:-1]
            shorter = Workload(feed.arrivals[:-1], sizes=sizes, name=feed.name)
            return driver.serve_direct(shorter, *sides, route=route)

        monkeypatch.setattr(differential, "serve_direct", lossy_serve_direct)
        report = engine_parity(bursty, 50.0, 25.0, 0.1, policies=("fcfs",))
        assert not report.ok
        assert any(
            "fcfs: completed 399 (direct) and 400 (event loop) of 400" in d
            for d in report.divergences
        ), report.summary()


# ---------------------------------------------------------------------------
# The heap-free loop (engine "direct"), open loop
# ---------------------------------------------------------------------------

#: (policy, admission) pairs the direct loop serves on the open loop:
#: every policy in either admission mode, the native loops' five
#: wherever the C code does not build or take the sizes.
DIRECT_CASES = [
    (policy, admission)
    for policy in ALL_POLICIES
    for admission in ("count", "work")
]

#: A rate-8 server (Cmin 4 + ΔC 4) serves a unit of demand in 1/8 s and
#: every gap and demand below is dyadic, so sums are exact: arrivals land
#: on completion instants and same-instant ties are the common case.
#: The topologies' sides run at 4 (split: Cmin and ΔC; splitfarm: half
#: of 8 each), so their completions tie each other too.
#: Zero gaps make simultaneous bursts.  Q1 admits floor(4 · 0.5) = 2.
CMIN, DELTA_C, DELTA = 4.0, 4.0, 0.5
GAPS = st.sampled_from([0.0, 0.0, 0.0, 0.0625, 0.125, 0.125, 0.25, 0.5, 2.0])
DEMANDS = st.sampled_from([0.25, 0.5, 1.0, 1.0, 2.0, 4.0])
COLUMNS = st.lists(st.tuples(GAPS, DEMANDS), max_size=40)


def column_workload(columns, sized: bool) -> Workload:
    arrivals = np.cumsum([gap for gap, _ in columns])
    sizes = [demand for _, demand in columns] if sized else None
    return Workload(arrivals, sizes=sizes, name="adversarial")


class TestDirectPath:
    @pytest.mark.parametrize("policy,admission", DIRECT_CASES)
    @settings(max_examples=40)
    @given(columns=COLUMNS, sized=st.booleans())
    @example(columns=[], sized=False)
    @example(columns=[(0.5, 4.0)], sized=True)
    @example(columns=[(0.0, 1.0)] * 6 + [(0.125, 1.0)] * 4, sized=False)
    def test_adversarial_columns_bit_identical(self, policy, admission, columns, sized):
        workload = column_workload(columns, sized)
        divergences = []
        differential._direct_parity(
            workload, policy, CMIN, DELTA_C, DELTA, admission, divergences
        )
        assert divergences == []

    def test_srpt_preemption_bit_identical(self):
        """A short arrival preempts a long request in service."""
        workload = Workload(
            [0.0, 0.125, 0.125, 0.5], sizes=[4.0, 0.5, 1.0, 0.25], name="preempt"
        )
        report = engine_parity(workload, CMIN, DELTA_C, DELTA, policies=("srpt",))
        assert report.ok and report.bit_identical, report.summary()
        run = driver.serve_direct(
            workload,
            driver.Side(
                make_scheduler("srpt", CMIN, DELTA_C, DELTA),
                ConstantRateModel(CMIN + DELTA_C),
                "srpt",
            ),
        )
        assert run.preemptions >= 1
        assert run.completed == len(workload)

    def test_arrival_before_tied_completion_detected(self, monkeypatch):
        """Serving an arrival ahead of a completion at the same instant
        keeps the finished request's Q1 slot taken, so the arrival is
        demoted: the differential must report it.  drr stays on the
        direct loop wherever the native loop builds."""
        mutant = mutated_serve_direct("end <= t", "end < t", count=1)
        monkeypatch.setattr(differential, "serve_direct", mutant)
        # Q1 admits floor(2 · 0.5) = 1; the rate-4 server finishes
        # request 0 exactly when request 1 arrives.
        tie = Workload([0.0, 0.25], name="tie")
        report = engine_parity(tie, 2.0, 2.0, 0.5, policies=("drr",))
        assert not report.ok
        assert any("Q1 completions 1 (direct) vs 2" in d for d in report.divergences)

    def test_completion_order_merge_detected(self, monkeypatch):
        """Split's sides report merged in side order: collecting both
        sides' samples in completion order instead must be reported.
        Three simultaneous arrivals: two Q1 on the primary side, done at
        0.25 and 0.5, one Q2 on the overflow side, done at 0.25."""
        tie = Workload([0.0, 0.0, 0.0], name="tie")
        divergences = []
        differential._direct_parity(
            tie, "split", CMIN, DELTA_C, DELTA, "count", divergences
        )
        assert divergences == []
        # One set of collectors for both sides, and no merge.
        merge = "    if routed:\n        by_class = {"
        mutant = mutated_serve_direct(
            "for _ in sides]",
            "] * len(sides)",
            count=1,
            also=[(merge, merge.replace("routed", "False"), 1)],
        )
        monkeypatch.setattr(differential, "serve_direct", mutant)
        differential._direct_parity(
            tie, "split", CMIN, DELTA_C, DELTA, "count", divergences
        )
        assert any("overall responses differ from completion 1" in d for d in divergences)


def mutated_serve_direct(old: str, new: str, count: int, also=()):
    """``serve_direct`` with its ``count`` occurrences of ``old`` replaced,
    and likewise for each further ``(old, new, count)`` in ``also``."""
    code = inspect.getsource(driver.serve_direct)
    for old, new, count in ((old, new, count), *also):
        assert code.count(old) == count
        code = code.replace(old, new)
    namespace = dict(vars(driver))
    exec(compile(code, driver.__file__, "exec"), namespace)
    return namespace["serve_direct"]


# ---------------------------------------------------------------------------
# The native loops (engine "native"): fcfs, split, fairqueue, wf2q and
# miser in C
# ---------------------------------------------------------------------------

needs_native = pytest.mark.skipif(
    not native.available(), reason="the native loop did not build on this host"
)


def infinite_side(policy: str, side: int) -> tuple:
    """``build_stack``'s sides and route for ``policy``, with side ``side``
    serving at an infinite rate."""
    sides, route = build_stack(policy, RunConfig(CMIN, DELTA_C, DELTA))
    sides = list(sides)
    sides[side] = sides[side]._replace(model=ConstantRateModel(math.inf))
    return sides, route


def assert_same_run(got: driver.DirectRun, want: driver.DirectRun) -> None:
    """Two runs agree bit for bit: every collector's samples in order and
    its folded moments, the misses and the completions."""
    pairs = [(got.overall, want.overall)] + [
        (got.by_class[qos], collector) for qos, collector in want.by_class.items()
    ]
    for mine, theirs in pairs:
        assert mine.samples.tobytes() == theirs.samples.tobytes(), theirs.name
        assert vars(mine.stats) == vars(theirs.stats), theirs.name
    assert got.primary_misses == want.primary_misses
    assert got.completed == want.completed
    assert got.preemptions == want.preemptions == 0


def direct_run(workload: Workload, policy: str, config: RunConfig) -> driver.DirectRun:
    sides, route = build_stack(policy, config)
    return driver.serve_direct(workload, *sides, route=route)


@needs_native
class TestNativeLoop:
    @pytest.mark.parametrize("policy", native.SERVE_POLICIES)
    @pytest.mark.parametrize("admission", ("count", "work"))
    @settings(max_examples=40)
    @given(columns=COLUMNS, sized=st.booleans())
    @example(columns=[(0.0, 1.0)] * 6 + [(0.125, 1.0)] * 4, sized=False)
    @example(columns=[(0.0, 4.0), (0.0, 0.25), (0.125, 0.5), (0.0, 2.0)], sized=True)
    def test_adversarial_columns_bit_identical(self, policy, admission, columns, sized):
        """Same-instant ties everywhere: the native loop against the
        event loop, as ``engine_parity`` certifies it."""
        workload = column_workload(columns, sized)
        divergences = []
        differential._direct_parity(
            workload, policy, CMIN, DELTA_C, DELTA, admission, divergences, "native"
        )
        assert divergences == []

    @pytest.mark.parametrize("policy", native.SERVE_POLICIES)
    @pytest.mark.parametrize("admission", ("count", "work"))
    def test_moments_equal_the_direct_loops(self, policy, admission):
        """``run_policy``'s native result against the direct loop's run of
        the same stack: samples, moments and misses on a bursty sized
        trace."""
        rng = np.random.default_rng(7)
        workload = Workload(
            np.sort(rng.uniform(0.0, 30.0, 3000)),
            sizes=rng.choice([0.25, 0.5, 1.0, 3.0], 3000),
            name="bursty",
        )
        config = RunConfig(60.0, 40.0, 0.05, admission=admission)
        fast = run_policy(workload, policy, config=config)
        slow = direct_run(workload, policy, config)
        assert fast.engine == "native"
        primary, overflow = class_results(policy, slow.by_class)
        for mine, theirs in (
            (fast.overall, slow.overall),
            (fast.primary, primary),
            (fast.overflow, overflow),
        ):
            assert mine.samples.tobytes() == theirs.samples.tobytes(), theirs.name
            assert vars(mine.stats) == vars(theirs.stats), theirs.name
        assert fast.primary_misses == slow.primary_misses
        assert fast.ledger == slow.fault_ledger()

    @pytest.mark.parametrize(
        ("policy", "side"),
        [
            ("fcfs", 0),
            ("split", 0),
            ("split", 1),
            ("fairqueue", 0),
            ("wf2q", 0),
            ("miser", 0),
        ],
        ids=["fcfs", "split-primary", "split-overflow", "fairqueue", "wf2q", "miser"],
    )
    def test_a_zero_service_time_raises_as_on_the_direct_loop(self, policy, side):
        """An infinite rate makes every service time ``d * (1/inf)`` zero:
        the native loop refuses it with the direct loop's error, which
        names the server.  Split admits two of the three simultaneous
        arrivals to Q1 and sends the third to the overflow side."""
        workload = Workload([0.0, 0.0, 0.0, 0.5])
        name = build_stack(policy, RunConfig(CMIN, DELTA_C, DELTA))[0][side].name
        message = f"{name}: non-positive service time 0.0"
        sides, route = infinite_side(policy, side)
        with pytest.raises(SimulationError, match=message):
            driver.serve_direct(workload, *sides, route=route)
        sides, route = infinite_side(policy, side)
        with pytest.raises(SimulationError, match=message):
            if policy in native.FIFO_POLICIES:
                native.serve_fifo(
                    workload.arrivals,
                    workload.sizes,
                    [(model.capacity, label) for _, model, label in sides],
                    route.__self__.classifier if route is not None else None,
                )
            else:
                ((scheduler, model, _),) = sides
                native.serve_recombined(
                    workload.arrivals, workload.sizes, policy, model.capacity,
                    (CMIN, DELTA_C), scheduler.classifier,
                )

    def test_engine_parity_takes_the_native_loop(self, monkeypatch):
        """``engine_parity`` certifies the path ``auto`` takes: with the
        direct loop broken, the native policies still pass."""
        broken = mutated_serve_direct("end <= t", "end < t", count=1)
        monkeypatch.setattr(differential, "serve_direct", broken)
        tie = Workload([0.0, 0.25], name="tie")
        report = engine_parity(tie, 2.0, 2.0, 0.5, policies=native.SERVE_POLICIES)
        assert report.ok and report.bit_identical, report.summary()

    @pytest.mark.parametrize(
        ("old", "new", "policy", "problem"),
        [
            # An arrival ahead of a tied completion finds the Q1 slot
            # still taken and is demoted (the tie workload).
            ("end <= t", "end < t", "fairqueue", "Q1 completions 1 (native) vs 2"),
            # WF2Q+ with its virtual time running backwards.
            ("v += (e.finish", "v -= (e.finish", "wf2q", "responses differ"),
            # Miser giving Q2 a slot without charging the queued slacks.
            ("offset += d2;", "offset += 0.0;", "miser", "responses differ"),
            # Miser's gate reading the largest slack, not the smallest.
            ("mask].start > stored", "mask].start < stored", "miser", "responses differ"),
            # Split keeping a Q1 slot taken by a completion at the
            # arrival's own instant (the tie workload).
            (
                "q1[head & mask].finish <= t",
                "q1[head & mask].finish < t",
                "split",
                "Q1 completions 1 (native) vs 2",
            ),
            # Split serving its overflow side at the primary side's rate.
            ("first ? s1 : s2", "first ? s1 : s1", "split", "Q2 responses differ"),
        ],
        ids=[
            "tie-order", "wf2q-virtual-time", "miser-decrement", "miser-minimum",
            "split-tie-order", "split-overflow-rate",
        ],
    )
    def test_a_drifting_native_loop_is_detected(
        self, old, new, policy, problem, tmp_path, monkeypatch
    ):
        """The differential reports a native loop built from a mutated
        source."""
        assert native._C_SOURCE.count(old) == 1
        monkeypatch.setattr(native, "_C_SOURCE", native._C_SOURCE.replace(old, new))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_attempted", False)
        if problem.startswith("Q1 completions"):
            # Q1 admits floor(2 · 0.5) = 1, and fairqueue's rate-4 server
            # and split's rate-2 primary side both finish request 0
            # exactly when request 1 arrives.
            tie = (0.0, 0.25) if policy == "fairqueue" else (0.0, 0.5)
            report = engine_parity(
                Workload(tie, name="tie"), 2.0, 2.0, 0.5, policies=(policy,)
            )
        else:
            rng = np.random.default_rng(1)
            arrivals = np.sort(rng.uniform(0.0, 4.0, 40)).round(2)
            report = engine_parity(
                Workload(arrivals, name="bursty"), 6.0, 2.0, 0.5, policies=(policy,)
            )
        assert not report.ok
        assert any(problem in d for d in report.divergences), report.summary()


# ---------------------------------------------------------------------------
# Every finite workload: the default path against the event loop
# ---------------------------------------------------------------------------

#: Gaps the clock can barely resolve or not at all (``5e-324``, the
#: smallest subnormal, vanishes against any start above 0), and
#: ordinary gaps.
FINITE_GAPS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-12, 1e-9]), st.floats(0.0, 10.0)
)
#: Sizes within the range the serving plane's ingest admits.  Outside
#: it the paths part ways (``TestOutOfRangeSizes``).
FINITE_SIZES = st.floats(MIN_SIZE, MAX_SIZE)


@st.composite
def finite_workloads(draw) -> Workload:
    """A start in [0, 1e6], then gaps added one at a time, with or
    without sizes."""
    gaps = draw(st.lists(FINITE_GAPS, max_size=40))
    arrivals = np.cumsum([draw(st.floats(0.0, 1e6)), *gaps])
    sizes = None
    if draw(st.booleans()):
        sizes = draw(st.lists(FINITE_SIZES, min_size=arrivals.size, max_size=arrivals.size))
    return Workload(arrivals, sizes=sizes, name="finite")


def served(workload: Workload, policy: str, config: RunConfig) -> tuple:
    """A run's samples, bit for bit, and its ledger."""
    result = run_policy(workload, policy, config=config)
    samples = tuple(
        getattr(result, name).samples.tobytes()
        for name in ("overall", "primary", "overflow")
    )
    return samples + (result.ledger, result.primary_misses)


def served_directly(workload: Workload, policy: str, config: RunConfig) -> tuple:
    """:func:`served` for the direct loop's run of ``build_stack``'s stack."""
    run = direct_run(workload, policy, config)
    primary, overflow = class_results(policy, run.by_class)
    samples = tuple(c.samples.tobytes() for c in (run.overall, primary, overflow))
    return samples + (run.fault_ledger(), run.primary_misses)


def assert_paths_agree(workload: Workload, admission: str, policies=ALL_POLICIES) -> None:
    """``auto`` and the direct loop against the event loop: ``auto``
    takes the native loops' five policies to them where they build, so
    the direct loop is run here too, as it serves them where the C code
    does not build."""
    config = RunConfig(CMIN, DELTA_C, DELTA, admission=admission)
    for policy in policies:
        reference = served(workload, policy, config.with_engine("scalar"))
        assert served(workload, policy, config) == reference, policy
        assert served_directly(workload, policy, config) == reference, (
            f"{policy} (direct)"
        )


@given(workload=finite_workloads(), admission=st.sampled_from(["count", "work"]))
def test_finite_workloads_bit_identical_on_every_path(workload, admission):
    """The path ``auto`` takes — the native loops or the heap-free loop
    — and the heap-free loop itself give what the event loop gives, for
    every policy, on every finite workload."""
    assert_paths_agree(workload, admission)


@needs_native
@given(workload=finite_workloads(), admission=st.sampled_from(["count", "work"]))
def test_finite_workloads_native_loop_equals_the_direct_loop(workload, admission):
    """The native loops give what the direct loop gives, moments
    included, for their five policies on every finite workload."""
    config = RunConfig(CMIN, DELTA_C, DELTA, admission=admission)
    for policy in native.SERVE_POLICIES:
        assert_same_run(
            serve_native(workload, policy, config),
            direct_run(workload, policy, config),
        )


def assert_every_path_refuses(
    workload: Workload, policy: str, config: RunConfig, message: str
) -> None:
    """``run_policy`` on every engine, the direct loop and the native loop
    all raise ``message``."""
    for engine in ("auto", "scalar"):
        with pytest.raises(SimulationError, match=message):
            run_policy(workload, policy, config=config.with_engine(engine))
    with pytest.raises(SimulationError, match=message):
        direct_run(workload, policy, config)
    if native.available():
        with pytest.raises(SimulationError, match=message):
            serve_native(workload, policy, config)


class TestOutOfRangeSizes:
    """Sizes ``Workload`` accepts but ingest refuses: every path must
    serve or refuse them alike."""

    @pytest.mark.parametrize("policy", native.RECOMBINED_POLICIES)
    @pytest.mark.parametrize("size", [MIN_SIZE / 2, 2 * MAX_SIZE], ids=["small", "large"])
    def test_the_native_loop_leaves_them_to_the_direct_loop(self, policy, size):
        workload = Workload([0.0, 0.0, 0.5], sizes=[1.0, size, 1.0])
        config = RunConfig(CMIN, DELTA_C, DELTA)
        assert run_policy(workload, policy, config=config).engine == "direct"
        assert_paths_agree(workload, "count", (policy,))

    @pytest.mark.parametrize("policy", native.FIFO_POLICIES)
    @pytest.mark.parametrize("admission", ["count", "work"])
    @pytest.mark.parametrize("size", [MIN_SIZE / 2, 2 * MAX_SIZE], ids=["small", "large"])
    def test_the_native_loop_leaves_fifo_runs_to_the_next_path(
        self, policy, admission, size
    ):
        """The direct loop, under either admission mode."""
        workload = Workload([0.0, 0.0, 0.5], sizes=[1.0, size, 1.0])
        config = RunConfig(CMIN, DELTA_C, DELTA, admission=admission)
        assert run_policy(workload, policy, config=config).engine == "direct"
        assert_paths_agree(workload, admission, (policy,))

    def test_miser_overflow_raises_on_every_path(self):
        """Two admitted demands of 1.7e308 sum past the largest float, and
        Miser's slack cannot floor it: both paths raise."""
        workload = Workload([0.0] * 5, sizes=[1.7e308] * 5)
        for engine in ("auto", "scalar"):
            with pytest.raises(OverflowError):
                run_policy(
                    workload, "miser",
                    config=RunConfig(CMIN, DELTA_C, DELTA, engine=engine),
                )

    @pytest.mark.parametrize("policy", native.FIFO_POLICIES)
    def test_subnormal_size(self, policy):
        """Its service time rounds to 0: every path refuses it with the
        direct loop's error, which names the server."""
        workload = Workload([0.0], sizes=[5e-324])
        config = RunConfig(CMIN, DELTA_C, DELTA)
        side = "fcfs" if policy == "fcfs" else "primary"
        assert_every_path_refuses(workload, policy, config, f"{side}: non-positive")

    def test_the_first_refusal_in_event_order_names_its_side(self):
        """Split admits requests 0 and 1; request 1 waits behind request 0
        on the primary side, while request 2 starts on the overflow side
        at once: the overflow side refuses first."""
        workload = Workload([0.0, 0.0, 0.0], sizes=[1.0, 5e-324, 5e-324])
        config = RunConfig(CMIN, DELTA_C, DELTA)
        assert_every_path_refuses(workload, "split", config, "overflow: non-positive")

    @pytest.mark.parametrize("policy", TOPOLOGY_POLICIES)
    def test_completion_past_the_largest_float(self, policy):
        """A request completes at +inf: every path serves it, a topology's
        direct loop included."""
        workload = Workload([0.0] * 5, sizes=[1.7e308] * 5)
        assert_paths_agree(workload, "count", (policy,))


# ---------------------------------------------------------------------------
# The heap-free single-server loop, fed a closed-loop population
# ---------------------------------------------------------------------------

#: Unit requests, or a short/long mix; 0.5 and 4 are dyadic, so on the
#: rate-8 server their service times are exact too.
DEMANDS_BY_NAME = {
    "unit": None,
    "bimodal": BimodalDemand(short=0.5, long=4.0, long_fraction=0.25),
}
USERS = st.integers(1, 8)
HORIZONS = st.floats(0.25, 6.0)
SEEDS = st.integers(0, 2**32 - 1)


class DyadicStream:
    """A user stream whose think pauses are dyadic multiples of the mean.

    With a dyadic mean, every arrival lands on a 1/64 s grid, which the
    rate-8 server's unit and bimodal service times also keep: user
    arrivals tie each other and completions all the time.
    """

    PAUSES = (0.0, 0.25, 0.25, 0.5, 0.5, 1.0, 1.0, 2.0)

    def __init__(self, seed: int, user: int):
        self._rng = np.random.default_rng([seed, user])

    def exponential(self, scale: float) -> float:
        return scale * self.PAUSES[int(self._rng.integers(len(self.PAUSES)))]

    def random(self) -> float:
        return float(self._rng.random())


class ScriptedStream:
    """A user stream that thinks the scripted pauses, then retires."""

    SCRIPTS: dict = {}

    def __init__(self, seed: int, user: int):
        self._pauses = iter(self.SCRIPTS[user])

    def exponential(self, scale: float) -> float:
        return next(self._pauses, 1e9)


class ScriptedSizes(ScriptedStream):
    """A scripted stream whose submissions also take scripted demands;
    ``ScriptedSizes.demand`` is the matching demand sampler."""

    DEMANDS: dict = {}

    def __init__(self, seed: int, user: int):
        super().__init__(seed, user)
        self._demands = iter(self.DEMANDS[user])

    def demand(self) -> float:
        return next(self._demands)


def first_side(policy: str, request) -> bool:
    """Whether a healthy run served ``request`` on the topology's first side."""
    if policy == "split":
        return request.qos_class is QoSClass.PRIMARY
    return request.service_demand <= 2.0


class TestClosedLoopParity:
    @pytest.mark.parametrize("demand", sorted(DEMANDS_BY_NAME))
    @pytest.mark.parametrize("admission", ("count", "work"))
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @settings(max_examples=12)
    @given(
        n_users=USERS,
        think_time=st.floats(0.02, 2.0),
        horizon=HORIZONS,
        seed=SEEDS,
    )
    def test_population_bit_identical(
        self, policy, admission, demand, n_users, think_time, horizon, seed
    ):
        problems = differential.closed_loop_parity(
            policy, CMIN, DELTA_C, DELTA, n_users, think_time, horizon,
            seed=seed, demand_sampler=DEMANDS_BY_NAME[demand], admission=admission,
        )
        assert problems == []

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @settings(max_examples=25)
    @given(
        n_users=USERS,
        think_time=st.sampled_from([0.0625, 0.125, 0.25, 0.5]),
        horizon=HORIZONS,
        seed=SEEDS,
        admission=st.sampled_from(["count", "work"]),
        demand=st.sampled_from(sorted(DEMANDS_BY_NAME)),
    )
    def test_tied_population_bit_identical(
        self, policy, n_users, think_time, horizon, seed, admission, demand
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(source, "user_stream", DyadicStream)
            problems = differential.closed_loop_parity(
                policy, CMIN, DELTA_C, DELTA, n_users, think_time, horizon,
                seed=seed, demand_sampler=DEMANDS_BY_NAME[demand],
                admission=admission,
            )
        assert problems == []

    def test_dyadic_streams_tie(self, monkeypatch):
        """The tie-heavy variant really ties: arrivals share instants
        with each other and with completions."""
        monkeypatch.setattr(source, "user_stream", DyadicStream)
        population = source.ClosedLoopPopulation(8, 0.125, 6.0, seed=5)
        run = driver.serve_direct(
            population,
            driver.Side(
                make_scheduler("srpt", CMIN, DELTA_C, DELTA),
                ConstantRateModel(CMIN + DELTA_C),
            ),
        )
        assert run.completed == len(population.requests) > 50
        arrivals = [r.arrival for r in population.requests]
        completions = {r.completion for r in population.requests}
        assert len(set(arrivals)) < len(arrivals)
        assert any(t in completions for t in arrivals)

    @pytest.mark.parametrize("policy", TOPOLOGY_POLICIES)
    def test_topology_sides_tie(self, policy, monkeypatch):
        """On a topology the tie-heavy variant ties across sides: the two
        sides complete at shared instants, and arrivals land on them."""
        monkeypatch.setattr(source, "user_stream", DyadicStream)
        population = source.ClosedLoopPopulation(
            8, 0.5, 12.0, seed=5, demand_sampler=DEMANDS_BY_NAME["bimodal"]
        )
        sides, route = build_stack(policy, RunConfig(CMIN, DELTA_C, DELTA))
        run = driver.serve_direct(population, *sides, route=route)
        requests = population.requests
        assert run.completed == len(requests) > 50
        first = {r.completion for r in requests if first_side(policy, r)}
        second = {r.completion for r in requests if not first_side(policy, r)}
        assert first & second
        assert any(r.arrival in first and r.arrival in second for r in requests)

    def test_user_id_tie_order_detected(self, monkeypatch):
        """Ordering tied user arrivals by user id instead of scheduling
        order must be reported.  User 1 is scheduled for t=0.5 at start;
        user 0 is served at 0.0625, done at 0.1875, and scheduled for 0.5
        after it: the event loop submits user 1 first."""
        monkeypatch.setattr(ScriptedStream, "SCRIPTS", {0: [0.0625, 0.3125], 1: [0.5]})
        monkeypatch.setattr(source, "user_stream", ScriptedStream)
        args = ("fcfs", CMIN, DELTA_C, DELTA, 2, 1.0, 2.0)
        assert differential.closed_loop_parity(*args) == []
        mutant = mutated_serve_direct("(at, pushes, user)", "(at, user, user)", count=2)
        monkeypatch.setattr(differential, "serve_direct", mutant)
        problems = differential.closed_loop_parity(*args)
        assert any("submissions differ from submission 1" in p for p in problems)

    def test_side_index_tie_order_detected(self, monkeypatch):
        """Tied completions on two sides fire in dispatch order; firing
        them in side order instead must be reported.  User 0's large
        request is dispatched on the large side at 0 and user 1's small
        one on the small side at 0.75: both finish at 1.0.  Both users
        then think 0.5, so the completion that fires first submits first
        at 1.5: user 0 in the event loop."""
        monkeypatch.setattr(ScriptedSizes, "SCRIPTS", {0: [0.0, 0.5], 1: [0.75, 0.5]})
        monkeypatch.setattr(ScriptedSizes, "DEMANDS", {0: [4.0, 1.0], 1: [1.0, 1.0]})
        monkeypatch.setattr(source, "user_stream", ScriptedSizes)
        args = ("splitfarm", CMIN, DELTA_C, DELTA, 2, 1.0, 4.0)
        sampler = ScriptedSizes.demand
        assert differential.closed_loop_parity(*args, demand_sampler=sampler) == []
        mutant = mutated_serve_direct("(end, dispatches)", "(end, k)", count=1)
        monkeypatch.setattr(differential, "serve_direct", mutant)
        problems = differential.closed_loop_parity(*args, demand_sampler=sampler)
        assert any("submissions differ from submission 2" in p for p in problems)

    def test_arrival_before_tied_completion_detected(self, monkeypatch):
        """The completion-first rule holds for populations too: a user
        arriving as the server frees up must see it free."""
        monkeypatch.setattr(ScriptedStream, "SCRIPTS", {0: [0.0], 1: [0.25]})
        monkeypatch.setattr(source, "user_stream", ScriptedStream)
        # Q1 admits floor(2 · 0.5) = 1; the rate-4 server finishes user
        # 0's request exactly when user 1 arrives.
        args = ("fairqueue", 2.0, 2.0, 0.5, 2, 1.0, 2.0)
        assert differential.closed_loop_parity(*args) == []
        mutant = mutated_serve_direct("end <= t", "end < t", count=1)
        monkeypatch.setattr(differential, "serve_direct", mutant)
        problems = differential.closed_loop_parity(*args)
        assert any("Q1 completions 1 (direct) vs 2" in p for p in problems)


# ---------------------------------------------------------------------------
# The native closed loop: srpt, nudge, boost, edf and splitfarm in C
# ---------------------------------------------------------------------------

needs_closed = pytest.mark.skipif(
    not native.closed_available(),
    reason="the native closed loop did not build on this host",
)

#: A population that keeps the rate-8 server saturated: queues form,
#: SRPT preempts, Nudge swaps and EDF defers.
SATURATED = {
    "n_users": 12,
    "think_time": 0.25,
    "horizon": 30.0,
    "seed": 3,
    "demand_sampler": DEMANDS_BY_NAME["bimodal"],
}

#: A think time far below one ulp of the clock: after its first request
#: every user arrives again at its completion's instant.  On splitfarm's
#: rate-4 sides the dyadic demands make the two sides complete at shared
#: instants too, so completions and arrivals tie across sides, all drawn
#: through real numpy generators.
TIE_THINK = 1e-30
TIED = {
    "n_users": 8,
    "think_time": TIE_THINK,
    "horizon": 20.0,
    "seed": 8,
    "demand_sampler": DEMANDS_BY_NAME["bimodal"],
}


def both_paths(policy: str, config: RunConfig, users: dict) -> tuple:
    """One population served by the direct loop, and its twin by the
    native closed loop: ``(direct run, its population, native run, its
    population)``."""
    args = [users[k] for k in ("n_users", "think_time", "horizon", "seed")]
    slow = source.ClosedLoopPopulation(*args, demand_sampler=users["demand_sampler"])
    fast = source.ClosedLoopPopulation(*args, demand_sampler=users["demand_sampler"])
    sides, route = build_stack(policy, config)
    return (
        driver.serve_direct(slow, *sides, route=route),
        slow,
        serve_native_closed(fast, policy, config),
        fast,
    )


@needs_closed
class TestNativeClosedLoop:
    @pytest.mark.parametrize("policy", native.CLOSED_POLICIES)
    @pytest.mark.parametrize("admission", ("count", "work"))
    def test_equals_the_direct_loop(self, policy, admission):
        """Samples, moments, misses, preemptions, every submitted request
        and where every generator ends, on a saturated population."""
        config = RunConfig(CMIN, DELTA_C, DELTA, admission=admission)
        slow, slow_users, fast, fast_users = both_paths(policy, config, SATURATED)
        pairs = [(fast.overall, slow.overall)] + [
            (fast.by_class[qos], collector) for qos, collector in slow.by_class.items()
        ]
        for mine, theirs in pairs:
            assert mine.samples.tobytes() == theirs.samples.tobytes(), theirs.name
            assert vars(mine.stats) == vars(theirs.stats), theirs.name
        assert (fast.completed, fast.primary_misses, fast.preemptions) == (
            slow.completed, slow.primary_misses, slow.preemptions
        )
        assert fast.completed == len(fast_users.requests) > 100
        assert fast_users.requests == slow_users.requests
        assert differential._stream_states(fast_users) == differential._stream_states(
            slow_users
        )
        if policy == "srpt":
            assert fast.preemptions > 0

    def test_a_served_population_continues_its_indexes(self):
        """Serving a population again continues its request indexes and
        its streams, as the direct loop does."""
        config = RunConfig(CMIN, DELTA_C, DELTA)
        args = (4, 0.5, 5.0, 9, DEMANDS_BY_NAME["bimodal"])
        slow, fast = source.ClosedLoopPopulation(*args), source.ClosedLoopPopulation(*args)
        for _ in range(2):
            sides, route = build_stack("nudge", config)
            driver.serve_direct(slow, *sides, route=route)
            serve_native_closed(fast, "nudge", config)
        assert fast.requests == slow.requests
        assert [r.index for r in fast.requests] == list(range(len(fast.requests)))

    def test_releases_the_generator_locks(self):
        population = source.ClosedLoopPopulation(3, 0.5, 5.0, seed=1)
        serve_native_closed(population, "boost", RunConfig(CMIN, DELTA_C, DELTA))
        for stream in population.streams:
            assert stream.bit_generator.lock.acquire(blocking=False)
            stream.bit_generator.lock.release()

    @pytest.mark.parametrize("policy", native.CLOSED_POLICIES)
    @settings(max_examples=10)
    @given(
        n_users=USERS,
        seed=SEEDS,
        admission=st.sampled_from(["count", "work"]),
        demand=st.sampled_from(sorted(DEMANDS_BY_NAME)),
    )
    def test_tie_heavy_populations_equal_the_event_loop(
        self, policy, n_users, seed, admission, demand
    ):
        """Every later arrival lands on its user's completion instant:
        the native loop breaks each tie as the event loop does."""
        problems = differential.closed_loop_parity(
            policy, CMIN, DELTA_C, DELTA, n_users, TIE_THINK, 20.0,
            seed=seed, demand_sampler=DEMANDS_BY_NAME[demand], admission=admission,
        )
        assert problems == []

    def test_the_tie_heavy_population_ties(self):
        """On :data:`TIED` the native splitfarm run holds tied arrivals,
        arrivals at completion instants and tied completions."""
        population = source.ClosedLoopPopulation(**TIED)
        serve_native_closed(population, "splitfarm", RunConfig(CMIN, DELTA_C, DELTA))
        arrivals = [r.arrival for r in population.requests]
        completions = [r.completion for r in population.requests]
        assert len(set(arrivals)) < len(arrivals)
        assert len(set(completions)) < len(completions)
        assert sum(t in set(completions) for t in arrivals) > len(arrivals) // 2

    @pytest.mark.parametrize(
        ("policy", "side"),
        [(policy, 0) for policy in native.CLOSED_POLICIES] + [("splitfarm", 1)],
        ids=[*native.CLOSED_POLICIES[:-1], "splitfarm-small", "splitfarm-large"],
    )
    def test_a_zero_service_time_raises_as_on_the_direct_loop(self, policy, side):
        """An infinite rate makes every service time zero: the closed
        loop refuses it with the direct loop's error, naming the side."""
        name = build_stack(policy, RunConfig(CMIN, DELTA_C, DELTA))[0][side].name
        message = f"{name}: non-positive service time 0.0"
        for serve in ("direct", "native"):
            population = source.ClosedLoopPopulation(
                8, 0.5, 10.0, seed=4, demand_sampler=DEMANDS_BY_NAME["bimodal"]
            )
            sides, route = infinite_side(policy, side)
            with pytest.raises(SimulationError, match=message):
                if serve == "direct":
                    driver.serve_direct(population, *sides, route=route)
                else:
                    front = route.__self__ if route is not None else sides[0].scheduler
                    native.serve_closed(
                        population, policy, sides, getattr(front, "classifier", None)
                    )

    @pytest.mark.parametrize(
        ("old", "new", "policy", "users", "problem"),
        [
            # SRPT re-queueing a preempted request on its remaining
            # seconds, not its remaining work.
            (
                "(keyed){remaining * srpt_rate, seq++, busy, remaining}",
                "(keyed){remaining, seq++, busy, remaining}",
                "srpt",
                SATURATED,
                "submissions differ",
            ),
            # Nudge letting a large request be swapped past twice.
            (
                "(slot){tail->req, 1}",
                "(slot){tail->req, 0}",
                "nudge",
                SATURATED,
                "submissions differ",
            ),
            # Boost favouring large requests.
            (
                "now - boost_scale / d",
                "now - boost_scale * d",
                "boost",
                SATURATED,
                "submissions differ",
            ),
            # EDF forgetting the overflow head's own demand.
            (
                "double cumulative = run->demand[rings[1][heads[1] & mask].req];",
                "double cumulative = 0.0;",
                "edf",
                SATURATED,
                "submissions differ",
            ),
            # Splitfarm merging its sides in completion order.
            (
                "run->side[r] = side;",
                "run->side[r] = 0;",
                "splitfarm",
                SATURATED,
                "responses differ",
            ),
            # The bimodal draw choosing the wrong side of long_fraction.
            (
                "random_standard_uniform(streams[u]) < long_fraction",
                "random_standard_uniform(streams[u]) > long_fraction",
                "nudge",
                SATURATED,
                "submissions differ from submission 0",
            ),
            # An arrival served before a completion due at its instant.
            (
                "busy >= 0 && due <= next_t",
                "busy >= 0 && due < next_t",
                "splitfarm",
                TIED,
                "submissions differ",
            ),
            # Tied arrivals taken by user id, not by push number.
            (
                "(a->key == b->key && a->seq < b->seq)",
                "(a->key == b->key && a->item < b->item)",
                "splitfarm",
                TIED,
                "submissions differ",
            ),
            # The two sides' tied completions fired in side order, not
            # in dispatch order.
            (
                "(dues[1] == dues[0] && number[1] < number[0])",
                "(dues[1] == dues[0] && 0)",
                "splitfarm",
                TIED,
                "submissions differ",
            ),
        ],
        ids=[
            "srpt-requeue-key", "nudge-swap-once", "boost-key", "edf-slack",
            "splitfarm-merge", "bimodal-draw", "completion-before-tied-arrival",
            "arrival-tie-order", "side-tie-order",
        ],
    )
    def test_a_drifting_closed_loop_is_detected(
        self, old, new, policy, users, problem, tmp_path, monkeypatch
    ):
        """``closed_loop_parity`` reports a native closed loop built from
        a mutated source."""
        assert native._C_SOURCE.count(old) == 1
        monkeypatch.setattr(native, "_C_SOURCE", native._C_SOURCE.replace(old, new))
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_load_attempted", False)
        config = RunConfig(CMIN, DELTA_C, DELTA, admission="work")
        population = source.ClosedLoopPopulation(**users)
        assert select_engine(population, policy, config) == "native"
        problems = differential.closed_loop_parity(
            policy, CMIN, DELTA_C, DELTA, admission="work", **users
        )
        assert any(problem in p for p in problems), problems


@needs_native
def test_a_failed_link_builds_without_the_closed_loop(tmp_path, monkeypatch):
    """Where numpy's random library does not link, the source builds
    without the closed loop: the kernels and the open loops still load,
    and the five policies' populations take the direct loop."""
    monkeypatch.setattr(
        native,
        "_numpy_random",
        lambda: (["-DREPRO_CLOSED"], ["-lrepro_no_such_library"], ["missing"]),
    )
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_load_attempted", False)
    assert native.available() and not native.closed_available()
    config = RunConfig(CMIN, DELTA_C, DELTA)
    assert run_policy(Workload([0.0, 0.25, 0.5]), "miser", config=config).engine == "native"
    population = source.ClosedLoopPopulation(4, 0.5, 5.0, seed=2)
    assert select_engine(population, "srpt", config) == "direct"
