"""Differential verification: one trace, every implementation, must agree.

Three layers of cross-checking, mirroring where the repo has redundant
implementations of the same semantics:

1. **Kernels** (:func:`kernel_parity`): the scalar and native RTT
   kernels must produce identical per-batch admission counts, and
   the batched sweep must match one kernel pass per capacity.  The
   exact-Fraction :func:`repro.core.rtt.decompose_exact`, under the
   kernels' documented EPS tie relation, arbitrates.
2. **Server models** (:func:`fcfs_lindley_check`,
   :func:`disk_comparability_check`): the event-driven simulator must
   reproduce the closed-form Lindley recursion for a constant-rate FCFS
   queue, and a mechanical-disk server configured to degenerate to a
   constant service time must agree with the constant-rate model.
3. **Policies** (:func:`run_checked` / :func:`differential_policies`):
   every recombination policy serves the same trace behind a
   :class:`~repro.check.invariants.CheckingScheduler` auditing the
   per-policy invariant catalog, plus outcome-level checks (all
   requests complete, Split's dedicated ``Q1`` server never misses).

All entry points *record* problems into report objects rather than
raising, so a single run surfaces every disagreement; the ``repro-check``
CLI and the test suite fail on any non-clean report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..core.request import QoSClass, Request
from ..core.rtt import decompose, decompose_exact, decompose_fluid
from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..perf import kernels
from ..sched.registry import ALL_POLICIES, make_scheduler
from ..server.base import Server
from ..server.constant_rate import ConstantRateModel, constant_rate_server
from ..server.disk import DiskModel, DiskParameters
from ..sim.engine import Simulator
from ..sim.source import ClosedLoopPopulation, ClosedLoopSource, WorkloadSource
from ..sim.stats import ResponseTimeCollector
from ..server.driver import DeviceDriver, DirectRun, serve_direct
from ..server.sizesplit import THRESHOLD
from ..shaping import (
    RunConfig,
    build_stack,
    check_policy,
    run_policy,
    select_engine,
    serve_native,
    serve_native_closed,
)
from ..units import EPS
from .invariants import CheckingScheduler, Violation
from .oracle import DEFAULT_TIE_TOLERANCE

@dataclass(frozen=True)
class KernelParityReport:
    """Cross-backend agreement on one ``(trace, capacity, delta)``."""

    capacity: float
    delta: float
    backends: tuple[str, ...]
    counts: dict
    divergences: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.ok:
            return (
                f"kernel parity OK across {list(self.backends)}: "
                f"admitted={next(iter(self.counts.values()))}"
            )
        return "kernel parity VIOLATED: " + "; ".join(self.divergences)


def kernel_parity(
    workload: Workload,
    capacity: float,
    delta: float,
    backends: tuple[str, ...] | None = None,
    exact: bool = True,
) -> KernelParityReport:
    """Run every kernel backend over one trace and compare outputs.

    Checks, for each available backend: ``count_admitted`` equals the
    sum of ``admitted_per_batch``; per-batch arrays are identical across
    backends; ``count_admitted_sweep`` at ``[capacity]`` matches the
    single-capacity count.  With ``exact=True`` the float consensus is
    additionally arbitrated against the Fraction-arithmetic
    :func:`~repro.core.rtt.decompose_exact` under the kernels' tie
    relation (``tie_tolerance=EPS``: a margin within ``EPS / C`` seconds
    counts as met, as ``floor(room + EPS)`` counts it).
    """
    if backends is None:
        backends = kernels.available_backends()
    instants, counts = np.unique(workload.arrivals, return_counts=True)
    divergences: list[str] = []
    per_batch: dict[str, np.ndarray] = {}
    totals: dict[str, int] = {}
    for name in backends:
        k = np.asarray(
            kernels.admitted_per_batch(instants, counts, capacity, delta, backend=name)
        )
        total = int(kernels.count_admitted(instants, counts, capacity, delta, backend=name))
        sweep = kernels.count_admitted_sweep(
            instants, counts, [capacity], delta, backend=name
        )
        per_batch[name] = k
        totals[name] = total
        if total != int(k.sum()):
            divergences.append(
                f"{name}: count_admitted={total} != per-batch sum {int(k.sum())}"
            )
        if int(sweep[0]) != total:
            divergences.append(
                f"{name}: sweep[{capacity:g}]={int(sweep[0])} != count {total}"
            )
    reference = backends[0]
    for name in backends[1:]:
        if not np.array_equal(per_batch[reference], per_batch[name]):
            where = np.nonzero(per_batch[reference] != per_batch[name])[0]
            divergences.append(
                f"{reference} vs {name}: per-batch admission differs at "
                f"batch indices {where[:5].tolist()}"
            )
    if exact:
        exact_admitted = decompose_exact(
            workload, capacity, delta, tie_tolerance=DEFAULT_TIE_TOLERANCE
        ).n_admitted
        for name, total in totals.items():
            if total != exact_admitted:
                divergences.append(
                    f"{name}: admitted {total} != exact-Fraction {exact_admitted}"
                )
    return KernelParityReport(
        capacity=float(capacity),
        delta=float(delta),
        backends=tuple(backends),
        counts=totals,
        divergences=tuple(divergences),
    )


def exact_mask_audit(
    workload: Workload, capacity: float, delta: float, mask: np.ndarray
) -> tuple[Fraction, int]:
    """Worst exact deadline overshoot of an admission mask, in seconds.

    Replays the admitted sub-stream through the discrete recurrence in
    pure :class:`~fractions.Fraction` arithmetic and returns ``(worst
    overshoot, index)`` where overshoot is ``finish - (arrival +
    delta)`` maximized over admitted requests (negative when every
    deadline is met with margin) and ``index`` is the request attaining
    it (-1 for an empty admitted set).
    """
    cap = Fraction(capacity)
    dl = Fraction(delta)
    service = 1 / cap
    finish = Fraction(0)
    worst = Fraction(-(1 << 62))  # effectively -inf, stays a Fraction
    worst_index = -1
    for i, t_float in enumerate(workload.arrivals):
        if not mask[i]:
            continue
        t = Fraction(float(t_float))
        finish = (finish if finish > t else t) + service
        overshoot = finish - (t + dl)
        if overshoot > worst:
            worst = overshoot
            worst_index = i
    return worst, worst_index


def decomposition_cross_check(
    workload: Workload, capacity: float, delta: float
) -> list[str]:
    """Model-relation checks between the decomposition implementations.

    Returns human-readable problem strings (empty means all good):

    * the float admission *count* equals the exact-Fraction count under
      the same EPS tie relation (``tie_tolerance=EPS``) — both greedy
      rules are optimal for it, so a count drift is a logic bug;
    * the float mask is *feasible* under exact arithmetic up to the
      kernels' documented tie tolerance (``EPS`` room-units, i.e.
      ``EPS / C`` seconds) — the float path may round a knife-edge tie
      permissively, but must never admit a request that genuinely
      misses;
    * where the float and exact masks pick different requests, the
      divergence must sit at a certified sub-EPS knife edge (the two
      greedy rules only split when they disagree about a feasibility
      margin finer than float noise);
    * the fluid model admits at least the discrete count, and masks are
      internally consistent.
    """
    problems: list[str] = []
    discrete = decompose(workload, capacity, delta)
    exact = decompose_exact(workload, capacity, delta)
    tolerant = decompose_exact(
        workload, capacity, delta, tie_tolerance=DEFAULT_TIE_TOLERANCE
    )
    fluid = decompose_fluid(workload, capacity, delta)
    tolerance = Fraction(EPS) / Fraction(capacity)  # seconds
    if discrete.n_admitted != tolerant.n_admitted:
        problems.append(
            f"float admitted {discrete.n_admitted} but exact-Fraction "
            f"admitted {tolerant.n_admitted} under the same tie tolerance "
            f"(both are optimal counts; they must agree)"
        )
    worst, worst_index = exact_mask_audit(
        workload, capacity, delta, discrete.admitted
    )
    if worst > tolerance:
        problems.append(
            f"float mask admits request {worst_index} which misses its "
            f"deadline by {float(worst):.3e}s under exact arithmetic "
            f"(tolerance {float(tolerance):.3e}s)"
        )
    if not np.array_equal(discrete.admitted, exact.admitted):
        # Legal only at a sub-EPS knife edge: at the first divergence
        # the shared prefix is identical, so the float path admitted a
        # request the exact path rejected (or vice versa) on a margin
        # finer than the tolerance.  The mask audit above already
        # certifies the float choice is feasible-within-tolerance; here
        # certify the margin really was a knife edge.
        first = int(np.nonzero(discrete.admitted != exact.admitted)[0][0])
        prefix = discrete.admitted.copy()
        prefix[first + 1 :] = False
        prefix[first] = True
        margin, _ = exact_mask_audit(workload, capacity, delta, prefix)
        if abs(margin) > tolerance:
            problems.append(
                f"float vs Fraction masks diverge at request {first} with "
                f"exact margin {float(margin):.3e}s — outside the "
                f"{float(tolerance):.3e}s knife-edge tolerance"
            )
    if fluid.n_admitted < discrete.n_admitted:
        problems.append(
            f"fluid model admitted {fluid.n_admitted} < discrete "
            f"{discrete.n_admitted} (partial service can only help)"
        )
    for result, label in ((discrete, "discrete"), (fluid, "fluid")):
        if result.n_admitted + result.n_overflow != len(workload):
            problems.append(f"{label}: admitted + overflow != total")
    return problems


# ---------------------------------------------------------------------------
# Server-model differentials
# ---------------------------------------------------------------------------


def fcfs_lindley_check(
    workload: Workload, capacity: float, atol: float = EPS
) -> list[str]:
    """Event-driven FCFS simulation vs the closed-form Lindley recursion.

    For an FCFS queue with constant service ``s = 1/C`` the finish time
    of the ``k``-th request has the closed form ``s*(k+1) +
    max_{j<=k}(a_j - s*j)``.  The simulator must reproduce it exactly
    (up to float noise) — any drift is an engine bug (event ordering,
    double dispatch) that policy-level statistics would average away.
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    problems: list[str] = []
    arrivals = workload.arrivals
    if arrivals.size == 0:
        return problems
    # Pin the event engine: under engine="auto" run_policy would take
    # a fast path, which is itself a FIFO recurrence — the check would
    # compare the recurrence with itself instead of with the simulator.
    result = run_policy(
        workload, "fcfs", config=RunConfig(capacity, 0.0, delta=1.0, engine="scalar")
    )
    s = 1.0 / capacity
    k = np.arange(arrivals.size)
    finish = s * (k + 1) + np.maximum.accumulate(arrivals - s * k)
    expected = finish - arrivals
    observed = np.sort(result.overall.samples)
    if observed.size != expected.size:
        problems.append(
            f"lindley: {observed.size} completions for {expected.size} arrivals"
        )
        return problems
    expected = np.sort(expected)
    worst = float(np.max(np.abs(observed - expected)))
    if worst > atol:
        problems.append(
            f"lindley: simulated FCFS response times drift {worst:.3e} "
            f"from the closed form (atol {atol:.0e})"
        )
    return problems


def disk_comparability_check(
    workload: Workload,
    capacity: float,
    delta: float,
    policy: str = "fcfs",
    atol: float = 1e-5,
) -> list[str]:
    """Constant-rate server vs a degenerate mechanical disk.

    A :class:`~repro.server.disk.DiskModel` with zero seek, vanishing
    rotation and near-infinite transfer rate collapses to a constant
    per-request service of ``controller_overhead`` seconds — i.e. a
    constant-rate server of ``1/overhead`` IOPS.  Served through the
    same scheduler, the two stacks must agree on every response time
    (to within the sub-nanosecond rotation jitter).  This pins the
    driver/scheduler plumbing to the service-*model* boundary: a bug
    that leaks model internals into scheduling order breaks it.

    The default policy is FCFS because its dispatch order is a pure
    function of arrival order: the comparison then depends only on the
    service model.  Tie-sensitive policies (Miser's slack test, EDF's
    deadline order) can legitimately reorder whole grid steps when the
    disk's sub-nanosecond rotation jitter lands on an exact decision
    boundary, so they make poor comparability probes.
    """
    problems: list[str] = []
    service = 1.0 / capacity
    params = DiskParameters(
        seek_min=0.0,
        seek_max=0.0,
        rotation_time=1e-12,
        transfer_rate=1e18,
        controller_overhead=service,
    )

    def completed_responses(model_factory) -> np.ndarray:
        sim = Simulator()
        scheduler = make_scheduler(policy, capacity, 0.0, delta)
        server = Server(sim, model_factory(), name=f"{policy}-diff")
        driver = DeviceDriver(sim, server, scheduler)
        WorkloadSource(sim, workload, driver).start()
        sim.run()
        if len(driver.completed) != len(workload):
            problems.append(
                f"disk-comparability[{policy}]: {len(driver.completed)} of "
                f"{len(workload)} completed"
            )
        return np.array(sorted(r.response_time for r in driver.completed))

    baseline = completed_responses(lambda: ConstantRateModel(capacity))
    disk = completed_responses(lambda: DiskModel(params, seed=0))
    if baseline.size == disk.size and baseline.size:
        worst = float(np.max(np.abs(baseline - disk)))
        if worst > atol:
            problems.append(
                f"disk-comparability[{policy}]: response times drift "
                f"{worst:.3e} from the constant-rate model (atol {atol:.0e})"
            )
    return problems


# ---------------------------------------------------------------------------
# Execution-engine differential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityReport:
    """The event loop vs another way of serving the same trace.

    ``plane`` names the other way: ``"engine"``, ``run_policy``'s fast
    paths (:func:`engine_parity`), or ``"serve"``, the online
    :class:`~repro.serve.harness.ServiceHarness` (:func:`serve_parity`).
    ``max_drift`` is the worst per-request disagreement in seconds
    across all checked policies; ``bit_identical`` is True when it is
    exactly zero (the contract — :func:`serve_parity`'s ``atol`` merely
    bounds how loud a drift must get before it is *reported*; the
    engine plane reports any drift).  Every other disagreement is one of
    ``divergences``.
    """

    plane: str
    workload_name: str
    cmin: float
    delta_c: float
    delta: float
    policies: tuple[str, ...]
    max_drift: float
    bit_identical: bool
    divergences: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.ok:
            exact = "bit-identical" if self.bit_identical else (
                f"max drift {self.max_drift:.3e}s"
            )
            return (
                f"{self.plane} parity OK across {list(self.policies)} on "
                f"{self.workload_name}: {exact}"
            )
        return f"{self.plane} parity VIOLATED: " + "; ".join(self.divergences)


def _event_loop_system(feed, policy: str, config: RunConfig):
    """The event-loop stack for ``policy``, run over ``feed``; returns
    the system.

    ``feed`` is a workload, replayed by a ``WorkloadSource`` as
    ``run_policy`` replays it, or a closed-loop population, served by a
    ``ClosedLoopSource`` as ``run_closed_loop`` serves it.
    """
    sim = Simulator()
    system = build_stack(policy, config, sim).system
    if isinstance(feed, Workload):
        source = WorkloadSource(sim, feed, system)
    else:
        source = ClosedLoopSource(sim, system, feed)
    source.start()
    sim.run()
    return system


def _scalar_columns(
    workload: Workload, policy: str, cmin: float, delta_c: float, delta: float
):
    """Event-engine run returning per-index columns + conservation ledger."""
    system = _event_loop_system(workload, policy, RunConfig(cmin, delta_c, delta))
    # Per-index *response* columns: ``completion - arrival`` is the same
    # float operation the serving plane applies to its completions, so
    # the comparison stays bit-faithful (re-adding the arrival would
    # reassociate the floats and manufacture sub-ulp drift).
    responses = np.full(len(workload), np.nan)
    admitted = np.zeros(len(workload), dtype=bool)
    for request in system.completed:
        responses[request.index] = request.completion - request.arrival
        admitted[request.index] = request.qos_class is QoSClass.PRIMARY
    return responses, admitted, system.fault_ledger(), system.primary_deadline_misses()


def engine_parity(
    workload: Workload,
    cmin: float,
    delta_c: float,
    delta: float,
    policies: tuple[str, ...] = ALL_POLICIES,
) -> ParityReport:
    """Certify ``run_policy``'s fast paths against the event engine.

    Each policy is checked, under count admission, on the path
    ``engine="auto"`` takes it to (:func:`repro.shaping.select_engine`):
    the native loops (:func:`repro.shaping.serve_native`: fcfs, split,
    fairqueue, wf2q and miser where the C code builds and takes the
    sizes) or the heap-free loop
    (:func:`repro.server.driver.serve_direct`: every other policy,
    single-server or topology, and all of them where the C code does
    not build).  That run and the event-loop stack (a
    :class:`~repro.server.driver.DeviceDriver`, or the topology's
    system) must agree exactly on every per-class response sequence —
    completion order, merged in side order for a topology — (so on the
    admitted count), the primary deadline misses, the preemptions and
    the completion count.

    A policy that no path takes is a divergence.  This is the
    ``engine_parity`` differential backing the ``engine="auto"``
    transparent dispatch; ``repro-check --differential`` fuzzes it over
    adversarial traces.
    """
    divergences: list[str] = []
    max_drift = 0.0
    config = RunConfig(cmin, delta_c, delta)
    for policy in policies:
        if policy not in ALL_POLICIES:
            divergences.append(
                f"{policy}: not a policy the native or the direct loop serves"
            )
            continue
        path = select_engine(workload, policy, config)
        drift = _direct_parity(
            workload, policy, cmin, delta_c, delta, "count", divergences, path
        )
        max_drift = max(max_drift, drift)
    return ParityReport(
        plane="engine",
        workload_name=workload.name,
        cmin=float(cmin),
        delta_c=float(delta_c),
        delta=float(delta),
        policies=tuple(policies),
        max_drift=max_drift,
        bit_identical=max_drift == 0.0,
        divergences=tuple(divergences),
    )


def _direct_parity(
    workload: Workload,
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
    admission: str,
    divergences: list[str],
    path: str = "direct",
) -> float:
    """Heap-free open loop vs event loop, bit for bit; returns the drift.

    ``admission`` is the classifier mode of both runs, so work admission
    (under which ``auto`` takes fcfs and split to the direct loop too)
    is certified the same way.  ``path`` ``"native"`` puts the native
    loop (:func:`repro.shaping.serve_native`) in the direct loop's place.
    """
    config = RunConfig(cmin, delta_c, delta, admission=admission)
    reference = _event_loop_system(workload, policy, config)
    if path == "native":
        run = serve_native(workload, policy, config)
    else:
        sides, route = build_stack(policy, config)
        run = serve_direct(workload, *sides, route=route)
    expected = len(workload)
    if run.completed != expected or len(reference.completed) != expected:
        divergences.append(
            f"{policy}: completed {run.completed} ({path}) and "
            f"{len(reference.completed)} (event loop) of {expected}"
        )
    return _compare_direct(policy, reference, run, divergences, path)


def _compare_direct(
    label: str,
    reference,
    run: DirectRun,
    divergences: list[str],
    path: str = "direct",
) -> float:
    """A ``path`` run vs its event-loop ``reference``; returns the drift.

    ``run`` is the direct or the native loop's.  ``reference`` is a
    :class:`~repro.server.driver.DeviceDriver` or a topology's system.
    Every per-class response sequence in its reported order (so the
    admitted count), the primary deadline misses and the preemptions
    must be equal.
    """
    drift = 0.0
    pairs = [(reference.overall, run.overall)] + [
        (collector, run.by_class[qos]) for qos, collector in reference.by_class.items()
    ]
    for collector, direct in pairs:
        want, got = collector.samples, direct.samples
        if want.size != got.size:
            divergences.append(
                f"{label}: {collector.name} completions {got.size} ({path}) "
                f"vs {want.size} (event loop)"
            )
        elif not np.array_equal(want, got):
            gap = np.abs(want - got)
            drift = max(drift, float(gap.max()))
            divergences.append(
                f"{label}: {collector.name} responses differ from completion "
                f"{int(np.argmax(want != got))} on (max drift {gap.max():.3e}s)"
            )
    misses = reference.primary_deadline_misses()
    if run.primary_misses != misses:
        divergences.append(
            f"{label}: primary misses {run.primary_misses} ({path}) vs "
            f"{misses} (event loop)"
        )
    if run.preemptions != reference.preemptions:
        divergences.append(
            f"{label}: preemptions {run.preemptions} ({path}) vs "
            f"{reference.preemptions} (event loop)"
        )
    return drift


def closed_loop_parity(
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
    n_users: int,
    think_time: float,
    horizon: float,
    seed: int = 0,
    demand_sampler=None,
    admission: str = "count",
) -> list[str]:
    """Certify ``run_closed_loop``'s fast path against the event loop.

    ``policy`` (any, single-server or topology) serves the same
    closed-loop population twice: on the path
    :func:`~repro.workload.closedloop.run_closed_loop` takes under
    ``auto`` (:func:`repro.shaping.select_engine`) — the native closed
    loop (:func:`repro.shaping.serve_native_closed`) for srpt, nudge,
    boost, edf and splitfarm where it builds and draws the population's
    streams and demands, the heap-free loop
    (:func:`repro.server.driver.serve_direct`) otherwise — and on the
    ``ClosedLoopSource`` -> ``DeviceDriver`` (or topology system) event
    loop it runs under ``engine="scalar"``.  Bit for bit, the two must
    agree on

    * the submitted requests in submission order, every
      :class:`~repro.core.request.Request` field and its type (a plain
      ``int`` equals a :class:`~repro.core.request.QoSClass` member, but
      is not one), so on every think and demand draw;
    * where each user's numpy generator ends;
    * every per-class response sequence in completion order;
    * the conservation ledger, the primary deadline misses and the
      preemptions.

    Returns the problems found; an empty list is parity.
    """
    config = RunConfig(cmin, delta_c, delta, admission=admission)
    users = (n_users, think_time, horizon, seed, demand_sampler)
    served, fast = ClosedLoopPopulation(*users), ClosedLoopPopulation(*users)
    reference = _event_loop_system(served, policy, config)
    path = select_engine(fast, policy, config)
    if path == "native":
        run = serve_native_closed(fast, policy, config)
    else:
        sides, route = build_stack(policy, config)
        run = serve_direct(fast, *sides, route=route)
    label = f"closed-loop {policy}"
    problems: list[str] = []
    want = [_request_record(r) for r in served.requests]
    got = [_request_record(r) for r in fast.requests]
    if want != got:
        first = next(
            (i for i, (a, b) in enumerate(zip(want, got)) if a != b),
            min(len(want), len(got)),
        )
        problems.append(
            f"{label}: submissions differ from submission {first} on "
            f"({len(got)} {path} vs {len(want)} event loop)"
        )
    if _stream_states(fast) != _stream_states(served):
        problems.append(f"{label}: user streams end elsewhere ({path} vs event loop)")
    ledger = reference.fault_ledger()
    if run.fault_ledger() != ledger:
        problems.append(
            f"{label}: ledger {run.fault_ledger()} ({path}) vs {ledger} (event loop)"
        )
    _compare_direct(label, reference, run, problems, path)
    return problems


#: Every field a :class:`~repro.core.request.Request` carries.
_REQUEST_FIELDS = tuple(f.name for f in dataclasses.fields(Request))


def _request_record(request: Request) -> list[tuple]:
    """Each field of ``request`` with its type, in declared order."""
    values = (getattr(request, name) for name in _REQUEST_FIELDS)
    return [(type(value), value) for value in values]


def _stream_states(population: ClosedLoopPopulation) -> list:
    """Each user's generator state (``None`` for a stream of another kind)."""
    return [
        stream.bit_generator.state if isinstance(stream, np.random.Generator) else None
        for stream in population.streams
    ]


# ---------------------------------------------------------------------------
# Serve differential: the online control plane vs the offline simulator
# ---------------------------------------------------------------------------


def serve_parity(
    workload: Workload,
    cmin: float,
    delta_c: float,
    delta: float,
    policies: tuple[str, ...] = ALL_POLICIES,
    chunks: int = 4,
    atol: float = EPS,
) -> ParityReport:
    """Certify serve ≡ simulate on one trace.

    For every policy, the trace is replayed twice — once through the
    plain offline stack (:func:`_scalar_columns`, the exact component
    recipe of ``run_policy``'s event path) and once through the online
    :class:`~repro.serve.harness.ServiceHarness` in ``chunks`` audited
    epochs — and the two runs are compared per arrival index: the
    admitted set, every response time, the conservation ledger and the
    primary deadline misses.  A predict-then-verify violation inside the
    harness is a divergence too.  The harness's collectors must also
    equal, sample for sample, those of
    :func:`~repro.shaping.run_policy` on the path ``auto`` takes (native
    or the heap-free loop), and so must its primary misses.  The
    topologies need a positive overflow capacity, so with
    ``delta_c == 0`` they are skipped (recorded, not silently dropped).
    """
    from ..serve.harness import ServiceHarness

    divergences: list[str] = []
    max_drift = 0.0
    checked: list[str] = []
    for policy in policies:
        if policy in ("split", "splitfarm") and delta_c <= 0:
            continue
        checked.append(policy)
        offline_resp, offline_adm, offline_ledger, offline_misses = (
            _scalar_columns(workload, policy, cmin, delta_c, delta)
        )
        harness = ServiceHarness(policy, cmin, delta_c, delta)
        served = harness.replay(workload, chunks=chunks)
        if served.violations:
            divergences.append(
                f"{policy}: {len(served.violations)} admission predictions "
                f"contradicted the classifier (first: {served.violations[0]})"
            )
        if served.rejected:
            divergences.append(
                f"{policy}: parity replay rejected {len(served.rejected)} "
                "requests (reject path must be unarmed)"
            )
        if not np.array_equal(offline_adm, served.admitted):
            where = np.nonzero(offline_adm != served.admitted)[0]
            divergences.append(
                f"{policy}: admitted sets differ at indices "
                f"{where[:5].tolist()} (offline {int(offline_adm.sum())} vs "
                f"serve {int(served.admitted.sum())})"
            )
            continue
        if np.isnan(served.responses).any() or np.isnan(offline_resp).any():
            divergences.append(
                f"{policy}: incomplete requests in a healthy replay "
                f"(serve {int(np.isnan(served.responses).sum())}, "
                f"offline {int(np.isnan(offline_resp).sum())})"
            )
            continue
        drift = (
            float(np.max(np.abs(offline_resp - served.responses)))
            if len(workload)
            else 0.0
        )
        max_drift = max(max_drift, drift)
        if drift > atol:
            worst = int(np.argmax(np.abs(offline_resp - served.responses)))
            divergences.append(
                f"{policy}: response times drift {drift:.3e}s at request "
                f"{worst} (atol {atol:.0e})"
            )
        if dict(served.ledger) != dict(offline_ledger):
            divergences.append(
                f"{policy}: ledgers differ — serve {served.ledger} vs "
                f"offline {offline_ledger}"
            )
        if served.primary_misses != offline_misses:
            divergences.append(
                f"{policy}: primary misses {served.primary_misses} (serve) "
                f"vs {offline_misses} (offline)"
            )
        if served.conservation is not None and not served.conservation.ok:
            divergences.append(
                f"{policy}: serve conservation violated: "
                f"{served.conservation.summary()}"
            )
        # run_policy's own path (native or the heap-free loop) against the
        # same harness: every collector in its reported order.
        fast = run_policy(workload, policy, config=RunConfig(cmin, delta_c, delta))
        for name in ("overall", "primary", "overflow"):
            if not np.array_equal(
                getattr(served, name).samples, getattr(fast, name).samples
            ):
                divergences.append(
                    f"{policy}: {name} responses differ between serve and "
                    f"run_policy (engine {fast.engine})"
                )
        if fast.primary_misses != served.primary_misses:
            divergences.append(
                f"{policy}: primary misses {served.primary_misses} (serve) vs "
                f"{fast.primary_misses} (run_policy, engine {fast.engine})"
            )
    return ParityReport(
        plane="serve",
        workload_name=workload.name,
        cmin=float(cmin),
        delta_c=float(delta_c),
        delta=float(delta),
        policies=tuple(checked),
        max_drift=max_drift,
        bit_identical=max_drift == 0.0,
        divergences=tuple(divergences),
    )


# ---------------------------------------------------------------------------
# Policy differential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckedRun:
    """One policy run with its audited invariant record."""

    policy: str
    completed: int
    expected: int
    primary_completed: int
    overflow_completed: int
    primary_misses: int
    fraction_within: float
    mean_response: float
    p99_response: float
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations and self.completed == self.expected


def run_checked(
    workload: Workload,
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
) -> CheckedRun:
    """Serve ``workload`` under ``policy`` with the invariant auditor on.

    Mirrors :func:`repro.shaping.run_policy`'s capacity allocation, but
    wraps the single-server schedulers in a
    :class:`~repro.check.invariants.CheckingScheduler`.  The topologies
    have no single scheduler to wrap, so each runs unwrapped and is
    held to its outcome-level guarantee instead: Split's dedicated
    ``cmin`` server means **zero** primary deadline misses; the
    size-threshold farm must conserve every request and route honestly
    (every completion on the small partition had demand at or below the
    threshold, every large-side completion above it).
    """
    config = RunConfig(cmin, delta_c, delta)
    check_policy(policy, config)
    violations: list[Violation] = []
    if policy == "split":
        result = run_policy(workload, policy, config=config)
        if result.primary_misses:
            violations.append(
                Violation(
                    invariant="split-q1-guarantee",
                    policy="split",
                    detail=(
                        f"{result.primary_misses} primary misses on a "
                        f"dedicated rate-{cmin:g} server"
                    ),
                    time=float("nan"),
                )
            )
        return CheckedRun(
            policy=policy,
            completed=len(result.overall),
            expected=len(workload),
            primary_completed=len(result.primary),
            overflow_completed=len(result.overflow),
            primary_misses=result.primary_misses,
            fraction_within=result.fraction_within(),
            mean_response=result.overall.stats.mean,
            p99_response=result.overall.percentile(99),
            violations=tuple(violations),
        )
    if policy == "splitfarm":
        sim = Simulator()
        system = build_stack(policy, config, sim).system
        WorkloadSource(sim, workload, system).start()
        sim.run()
        ledger = system.fault_ledger()
        if ledger["dropped"] or ledger["shed"]:
            violations.append(
                Violation(
                    invariant="splitfarm-conservation",
                    policy=policy,
                    detail=f"healthy run lost requests: {ledger}",
                    time=float("nan"),
                )
            )
        for request in system.small_driver.completed:
            if request.service_demand > THRESHOLD:
                violations.append(
                    Violation(
                        invariant="splitfarm-routing",
                        policy=policy,
                        detail=(
                            f"demand {request.service_demand} completed on the "
                            f"small partition (threshold {THRESHOLD})"
                        ),
                        time=float(request.completion),
                    )
                )
        for request in system.large_driver.completed:
            if request.service_demand <= THRESHOLD:
                violations.append(
                    Violation(
                        invariant="splitfarm-routing",
                        policy=policy,
                        detail=(
                            f"demand {request.service_demand} completed on the "
                            f"large partition (threshold {THRESHOLD})"
                        ),
                        time=float(request.completion),
                    )
                )
        farm_classes = system.by_class
        return CheckedRun(
            policy=policy,
            completed=ledger["completed"],
            expected=len(workload),
            primary_completed=len(farm_classes[QoSClass.PRIMARY]),
            overflow_completed=len(farm_classes[QoSClass.OVERFLOW]),
            primary_misses=system.primary_deadline_misses(),
            fraction_within=system.fraction_within(delta),
            mean_response=system.overall.stats.mean,
            p99_response=system.overall.percentile(99),
            violations=tuple(violations),
        )
    sim = Simulator()
    checker = CheckingScheduler(make_scheduler(policy, cmin, delta_c, delta))
    server = constant_rate_server(sim, cmin + delta_c, name=policy)
    driver = DeviceDriver(sim, server, checker)
    WorkloadSource(sim, workload, driver).start()
    sim.run()
    violations.extend(checker.violations)
    by_class: dict[QoSClass, ResponseTimeCollector] = driver.by_class
    primary_misses = driver.primary_deadline_misses()
    completed: list[Request] = driver.completed
    seen = {id(r) for r in completed}
    if len(seen) != len(completed):
        violations.append(
            Violation(
                invariant="completion-uniqueness",
                policy=policy,
                detail="a request completed more than once",
                time=float("nan"),
            )
        )
    return CheckedRun(
        policy=policy,
        completed=len(completed),
        expected=len(workload),
        primary_completed=len(by_class[QoSClass.PRIMARY]),
        overflow_completed=len(by_class[QoSClass.OVERFLOW]),
        primary_misses=primary_misses,
        fraction_within=driver.fraction_within(delta),
        mean_response=driver.overall.stats.mean,
        p99_response=driver.overall.percentile(99),
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class DifferentialReport:
    """All policies x one trace, with every recorded problem."""

    workload_name: str
    cmin: float
    delta_c: float
    delta: float
    runs: dict = field(default_factory=dict)
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems and all(r.ok for r in self.runs.values())

    def all_problems(self) -> list[str]:
        out = list(self.problems)
        for run in self.runs.values():
            if run.completed != run.expected:
                out.append(
                    f"{run.policy}: completed {run.completed} of {run.expected}"
                )
            out.extend(str(v) for v in run.violations)
        return out

    def summary(self) -> str:
        if self.ok:
            return (
                f"differential OK: {len(self.runs)} policies agree on "
                f"{self.workload_name}"
            )
        return "differential VIOLATED: " + "; ".join(self.all_problems())


def differential_policies(
    workload: Workload,
    cmin: float,
    delta_c: float,
    delta: float,
    policies: tuple[str, ...] = ALL_POLICIES,
) -> DifferentialReport:
    """Serve one trace under every policy with the auditors on.

    Cross-policy checks: every policy completes the whole stream, and
    every work-conserving single-server policy finishes the final
    request at the same instant on an identically-sized server (they
    serve the same total work at the same rate; only the *order*
    differs).  The per-policy invariant catalog runs inside each
    :class:`CheckedRun`.
    """
    problems: list[str] = []
    runs: dict[str, CheckedRun] = {}
    for policy in policies:
        runs[policy] = run_checked(workload, policy, cmin, delta_c, delta)
    return DifferentialReport(
        workload_name=workload.name,
        cmin=cmin,
        delta_c=delta_c,
        delta=delta,
        runs=runs,
        problems=tuple(problems),
    )
