"""Per-layer self time and counts for one traced run.

:class:`Tracer` wraps the public entry points of each layer from the
outside, by replacing class and module attributes, and restores every
one of them on :meth:`Tracer.uninstall`. Nothing under ``src/`` knows it
is being traced. Stacks are built after :meth:`Tracer.install`, so
callbacks they bind at construction (a server's completion callback, a
sampler's tick) are bound to the wrapped methods.

Each wrapped call is a span. A span's self time is its duration minus
the durations of the spans it called. Spans inside ``Simulator.run``
(the ``sim.loop`` layer) also add their self time to an in-loop ledger;
the loop's own self time is the residual no wrapped layer claims, so the
in-loop self times sum to the loop's total time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from repro.core import capacity
from repro.core.request import QoSClass
from repro.faults.controller import AdaptiveShaper
from repro.faults.retry import RetryPolicy
from repro.obs.sampler import Sampler
from repro.perf import kernels
from repro.sched.base import Scheduler
from repro.sched.classifier import OnlineRTTClassifier
from repro.serve.admission import AdmissionService
from repro.serve.autoscaler import Autoscaler
from repro.serve.harness import StagedSource
from repro.serve.ingest import IngestServer
from repro.server.aqm import InflightWindow
from repro.server.base import Server
from repro.server.cluster import SplitSystem
from repro.server.driver import DeviceDriver
from repro.server.farm import ServerFarm
from repro.server.sizesplit import SizeSplitSystem
from repro.sim import batch
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.source import ClosedLoopSource, WorkloadSource
from repro.sim.stats import ResponseTimeCollector
from repro.traces import library
from repro.workload import population

#: Layers whose self time is reported per simulated request.
SELF_TIMED = (
    "sim.heap",
    "sim.source",
    "sim.stats",
    "sched.classifier",
    "sched.policy",
    "server.driver",
    "server.aqm",
    "server.unit",
    "faults",
    "obs.sampler",
    "serve.ingest",
    "serve.admission",
    "serve.autoscaler",
)


#: Spans whose receiving object is kept, for figures read off it after
#: the run: events processed per simulator, busy time per server.
CAPTURED = (("sim.loop", "run"), ("server.unit", "dispatch"))


def _family(cls: type) -> list[type]:
    """``cls`` and every subclass loaded so far."""
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _targets():
    """``(layer, owner, attribute, capture)`` for every wrapped entry point.

    Subclasses are found when this runs, so call it after the modules
    that define them are imported.
    """
    spec = [
        ("sim.heap", [EventQueue], ("push", "pop", "peek_time")),
        ("sim.heap", [Event], ("cancel",)),
        ("sim.source", [WorkloadSource, StagedSource], ("_fire",)),
        ("sim.source", [ClosedLoopSource], ("_submit", "_on_completion")),
        ("sim.stats", [ResponseTimeCollector], ("add",)),
        ("sim.batch", [batch], ("run_batch",)),
        ("sched.classifier", [OnlineRTTClassifier], ("classify", "on_completion")),
        (
            "sched.policy",
            _family(Scheduler),
            ("on_arrival", "select", "on_completion", "should_preempt"),
        ),
        ("server.driver", [DeviceDriver], ("on_arrival", "_on_completion")),
        ("server.driver", [SplitSystem, SizeSplitSystem], ("on_arrival",)),
        (
            "server.aqm",
            _family(InflightWindow),
            ("has_slot", "on_enter", "on_dispatch", "on_exit", "on_gated"),
        ),
        ("server.unit", _family(Server), ("dispatch", "_complete", "preempt")),
        ("server.unit", [ServerFarm], ("dispatch",)),
        ("faults", [RetryPolicy], ("timeout_for", "backoff_delay")),
        ("faults", [AdaptiveShaper], ("tick",)),
        ("obs.sampler", [Sampler], ("sample_now",)),
        ("serve.ingest", [IngestServer], ("handle_line",)),
        ("serve.admission", [AdmissionService], ("decide",)),
        ("serve.autoscaler", [Autoscaler], ("observe", "tick")),
        ("core.planner", [capacity.CapacityPlanner], ("plan", "min_capacity")),
        ("core.planner", [kernels], ("count_admitted", "count_admitted_sweep")),
        ("traces", [library], ("openmail", "websearch")),
        ("traces", [population], ("poisson_poisson_workload",)),
        ("sim.loop", [Simulator], ("run",)),
    ]
    for layer, owners, names in spec:
        for owner in owners:
            for name in names:
                # Wrap only what the owner defines itself: an inherited
                # method is wrapped once, on the class that defines it.
                if name in vars(owner):
                    yield layer, owner, name, (layer, name) in CAPTURED


class Tracer:
    """Wraps the layers' entry points and keeps their spans' totals."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        #: Open spans, innermost last: [layer, name, in_loop, child_seconds].
        self._stack: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.loop_self_s: defaultdict[str, float] = defaultdict(float)
        #: Total time of the outermost ``sim.loop`` spans.
        self.loop_s = 0.0
        #: Calls per (layer, name), not counting a method calling itself
        #: through ``super()``.
        self.calls: Counter = Counter()
        self.captured: defaultdict[str, dict] = defaultdict(dict)

    def install(self) -> None:
        for layer, owner, name, capture in _targets():
            original = vars(owner)[name]
            setattr(owner, name, self._wrap(layer, name, original, capture))
            self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute; raises if one was not restored."""
        patches, self._patches = self._patches, []
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
        leaked = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in patches
            if vars(owner)[name] is not original
        ]
        if leaked:
            raise RuntimeError(f"wrappers left installed: {leaked}")

    def _wrap(self, layer: str, name: str, fn, capture: bool):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        loop_self_s = self.loop_self_s
        captured = self.captured[layer]
        perf = time.perf_counter
        is_loop = layer == "sim.loop"
        tally_primary = (layer, name) == ("sched.classifier", "classify")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            in_loop = is_loop or (parent is not None and parent[2])
            if parent is None or parent[0] != layer or parent[1] != name:
                calls[layer, name] += 1
            if capture:
                captured[id(args[0])] = args[0]
            frame = [layer, name, in_loop, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                own = elapsed - frame[3]
                self_s[layer] += own
                if in_loop:
                    loop_self_s[layer] += own
                    if is_loop and not (parent is not None and parent[2]):
                        self.loop_s += elapsed
                if parent is not None:
                    parent[3] += elapsed
            if tally_primary and result is QoSClass.PRIMARY:
                calls[layer, "admitted"] += 1
            return result

        return traced

    def accounting_error(self) -> float:
        """|in-loop self times - loop total|, relative to the loop total."""
        if self.loop_s <= 0:
            return 0.0
        return abs(sum(self.loop_self_s.values()) - self.loop_s) / self.loop_s

    def metrics(self, outcomes, overhead: float) -> dict[str, float]:
        """The per-layer figures, per simulated request where so named."""
        requests = sum(o.terminal for o in outcomes)
        attempted = sum(o.attempted for o in outcomes)
        calls = self.calls

        def per_request(value: float) -> float:
            return value / requests if requests else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        figures = {
            f"{layer}.self_us_per_req": per_request(self.self_s[layer] * 1e6)
            for layer in SELF_TIMED
        }
        sims = self.captured["sim.loop"].values()
        # Farms dispatch through their units, which are Servers too.
        servers = [
            s for s in self.captured["server.unit"].values() if isinstance(s, Server)
        ]
        figures.update(
            {
                "sim.heap.pushes_per_req": per_request(calls["sim.heap", "push"]),
                "sim.heap.cancelled_frac": ratio(
                    calls["sim.heap", "cancel"], calls["sim.heap", "push"]
                ),
                "sim.stats.adds_per_req": per_request(calls["sim.stats", "add"]),
                "sim.batch.us_per_req": per_request(self.self_s["sim.batch"] * 1e6),
                "sched.classifier.admit_frac": ratio(
                    calls["sched.classifier", "admitted"],
                    calls["sched.classifier", "classify"],
                ),
                "sched.policy.selects_per_req": per_request(
                    calls["sched.policy", "select"]
                ),
                "server.driver.preemptions_per_req": per_request(
                    calls["server.unit", "preempt"]
                ),
                "server.aqm.gated_per_req": per_request(calls["server.aqm", "on_gated"]),
                "server.unit.utilization": ratio(
                    sum(s.busy_time for s in servers), sum(s.sim.now for s in servers)
                ),
                "faults.retries_per_req": per_request(calls["faults", "backoff_delay"]),
                "faults.dropped_frac": ratio(sum(o.dropped for o in outcomes), attempted),
                "obs.sampler.ticks": float(calls["obs.sampler", "sample_now"]),
                "serve.admission.violations": float(
                    sum(len(o.problems) for o in outcomes)
                ),
                "serve.autoscaler.replans": float(calls["serve.autoscaler", "tick"]),
                "core.planner.s": self.self_s["core.planner"],
                "core.planner.rtt_evals": float(
                    calls["core.planner", "count_admitted"]
                    + calls["core.planner", "count_admitted_sweep"]
                ),
                "traces.gen_s": self.self_s["traces"],
                "sim.loop.us_per_req": per_request(self.loop_s * 1e6),
                "sim.loop.residual_us_per_req": per_request(
                    self.loop_self_s["sim.loop"] * 1e6
                ),
                "sim.loop.events_per_req": per_request(
                    sum(sim.events_processed for sim in sims)
                ),
                "sim.loop.trace_overhead": overhead,
            }
        )
        return figures
