"""Fault injection: schedules become first-class simulator events.

The :class:`FaultInjector` walks a :class:`~repro.faults.schedule.
FaultSchedule` and installs plain engine events that flip shared
:class:`FaultState` (droops, storms) or call ``crash()`` / ``recover()``
on the targeted :class:`~repro.faults.server.FaultableServer`.  Service
models consult the state through :class:`FaultyModel`, which costs two
attribute reads per request when no window is active.

Spike draws come from a generator derived via
:func:`repro.sim.rng.derive_seed`, so chaos runs are reproducible from
the run seed alone regardless of process or worker interleaving.
"""

from __future__ import annotations

from ..core.request import Request
from ..exceptions import ConfigurationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from ..server.base import ServiceTimeModel
from ..sim.engine import Simulator
from ..sim.events import PRIORITY_MONITOR
from ..sim.rng import derive_seed, make_rng
from .schedule import FaultSchedule
from .server import FaultableServer


class FaultState:
    """Mutable degradation knobs shared by injector and service models."""

    __slots__ = ("droop_factor", "spike_probability", "spike_factor")

    def __init__(self) -> None:
        self.droop_factor = 1.0
        self.spike_probability = 0.0
        self.spike_factor = 1.0

    @property
    def degraded(self) -> bool:
        return self.droop_factor != 1.0 or self.spike_probability > 0.0


class FaultyModel:
    """Wrap a service model with injector-driven degradation state."""

    def __init__(self, base: ServiceTimeModel, state: FaultState, seed: int = 0):
        self.base = base
        self.state = state
        self._rng = make_rng(derive_seed(seed, "faults.spikes"))
        self.spikes_injected = 0

    def service_time(self, request: Request) -> float:
        duration = self.base.service_time(request)
        state = self.state
        if state.droop_factor != 1.0:
            duration *= state.droop_factor
        if state.spike_probability > 0.0:
            if self._rng.random() < state.spike_probability:
                self.spikes_injected += 1
                duration *= state.spike_factor
        return duration


def faulty_units(state: FaultState, seed: int, inflight: str = "requeue"):
    """A :func:`repro.shaping.build_stack` unit factory for the fault plane.

    Each unit is a :class:`~repro.faults.server.FaultableServer`
    (``inflight`` as there) serving through a :class:`FaultyModel` that
    reads ``state``.  A unit's spike stream is derived from ``seed`` and
    its name, so a run reproduces from its seed alone.
    """

    def unit(sim: Simulator, model: ServiceTimeModel, name: str) -> FaultableServer:
        return FaultableServer(
            sim,
            FaultyModel(model, state, seed=derive_seed(seed, "faults.server", name)),
            name=name,
            inflight=inflight,
        )

    return unit


class FaultInjector:
    """Installs a schedule's events onto a simulator.

    Parameters
    ----------
    sim:
        The engine the run executes on.
    schedule:
        The declarative fault plan.
    servers:
        Crash targets, indexed by each :class:`~repro.faults.schedule.
        Crash.unit`.  May be empty when the schedule has no crashes.
    state:
        The shared state droops/storms flip; optional when the schedule
        contains only crashes.
    metrics:
        Optional registry; the injector emits ``faults.injected_crashes``
        / ``injected_droops`` / ``injected_storms`` counters as windows
        open.
    """

    def __init__(
        self,
        sim: Simulator,
        schedule: FaultSchedule,
        servers: list[FaultableServer] | None = None,
        state: FaultState | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.sim = sim
        self.schedule = schedule
        self.servers = list(servers or [])
        self.state = state
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_crashes = metrics.counter("faults.injected_crashes")
        self._m_droops = metrics.counter("faults.injected_droops")
        self._m_storms = metrics.counter("faults.injected_storms")
        if schedule.crashes and not self.servers:
            raise ConfigurationError(
                "schedule contains crashes but no crashable servers given"
            )
        for crash in schedule.crashes:
            if crash.unit >= len(self.servers):
                raise ConfigurationError(
                    f"crash targets unit {crash.unit} but only "
                    f"{len(self.servers)} server(s) are crashable"
                )
        if (schedule.droops or schedule.storms) and state is None:
            raise ConfigurationError(
                "schedule contains droops/storms but no FaultState given"
            )

    def install(self) -> None:
        """Schedule every fault window's open/close events."""
        for crash in self.schedule.crashes:
            server = self.servers[crash.unit]
            self.sim.schedule(
                crash.start,
                lambda s=server: self._crash(s),
                priority=PRIORITY_MONITOR,
            )
            self.sim.schedule(
                crash.end, lambda s=server: s.recover(), priority=PRIORITY_MONITOR
            )
        for droop in self.schedule.droops:
            self.sim.schedule(
                droop.start,
                lambda f=droop.factor: self._set_droop(f),
                priority=PRIORITY_MONITOR,
            )
            self.sim.schedule(
                droop.end, lambda: self._clear_droop(), priority=PRIORITY_MONITOR
            )
        for storm in self.schedule.storms:
            self.sim.schedule(
                storm.start,
                lambda p=storm.probability, f=storm.factor: self._set_storm(p, f),
                priority=PRIORITY_MONITOR,
            )
            self.sim.schedule(
                storm.end, lambda: self._clear_storm(), priority=PRIORITY_MONITOR
            )

    def _crash(self, server: FaultableServer) -> None:
        self._m_crashes.inc()
        server.crash()

    def _set_droop(self, factor: float) -> None:
        self._m_droops.inc()
        self.state.droop_factor = factor

    def _clear_droop(self) -> None:
        self.state.droop_factor = 1.0

    def _set_storm(self, probability: float, factor: float) -> None:
        self._m_storms.inc()
        self.state.spike_probability = probability
        self.state.spike_factor = factor

    def _clear_storm(self) -> None:
        self.state.spike_probability = 0.0
        self.state.spike_factor = 1.0
