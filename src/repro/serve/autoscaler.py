"""The ``AdaptiveShaper`` recast as a provisioning loop.

The fault-plane shaper (:class:`repro.faults.controller.AdaptiveShaper`)
moves the *live* admission bound below the plan when the server under it
degrades; it can never grow the plan.  A long-running service needs the
other half of the control loop: when the observed workload drifts, the
plan itself — ``Cmin + ΔC`` — must move.  The :class:`Autoscaler` closes
that loop in the monitoring → decision → actuation style of
software-defined storage QoS controllers:

* **monitoring** — every arriving request, rejected ones included,
  lands in a sliding trace window (:meth:`Autoscaler.observe`);
* **decision** — each epoch the window is re-planned through the same
  :class:`~repro.core.capacity.CapacityPlanner` bisection the offline
  pipeline uses (``device_depth`` δ_eff correction included), producing
  a recommended ``Cmin``; a relative deadband plus a consecutive-epoch
  trip count keep the loop from chattering on noise;
* **actuation** — in ``active`` mode the serving stack's classifier is
  re-provisioned via :meth:`~repro.sched.classifier.OnlineRTTClassifier.
  reprovision`, moving the ``⌊C·δ⌋`` bound; ``shadow`` mode records the
  decisions without touching anything (the mode parity replays use).

The vectorized batch engine doubles as a **digital twin**: given any
candidate capacity, :meth:`Autoscaler.what_if` replays the current
window through :func:`repro.sim.batch.run_batch` and reports admitted
counts and deadline misses — a what-if replan cheap enough to run inside
the loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.capacity import CapacityPlanner
from ..core.request import Request
from ..core.workload import Workload
from ..exceptions import ConfigurationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry
from ..sched.classifier import OnlineRTTClassifier
from ..sim import batch


#: Operating modes: disabled, decide-but-don't-touch, and closed-loop.
MODES = ("off", "shadow", "active")


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tuning for the provisioning loop.

    Parameters
    ----------
    interval:
        Epoch length in virtual seconds (one decision per epoch).
    window:
        Sliding trace window the re-plan sees, in seconds.  Should span
        several epochs so one quiet epoch does not erase the burst
        history the decomposition needs.
    cmin_floor:
        The provisioning floor: recommendations never drop below the
        originally planned ``Cmin`` (the paper's guarantee is only sound
        at the planned capacity, so scaling *down* past the plan would
        silently weaken admitted requests' deadlines).
    fraction:
        Target admitted fraction handed to the planner.  ``1.0`` plans
        worst-case (every request guaranteed) and makes the
        recommendation monotone in the observed window (a superset of
        arrivals can only need more capacity).
    deadband:
        Relative dead zone: a recommendation within ``deadband`` of the
        current provision is treated as "no change".
    trip_epochs:
        Consecutive out-of-band epochs required before actuating — the
        hysteresis that keeps a boundary-straddling load from toggling
        the plan every epoch.
    device_depth:
        When set, re-plans against the δ_eff-corrected bound.
    mode:
        ``"off"``, ``"shadow"`` or ``"active"`` (see module docstring).
    """

    interval: float = 10.0
    window: float = 60.0
    cmin_floor: float = 1.0
    fraction: float = 1.0
    deadband: float = 0.05
    trip_epochs: int = 2
    device_depth: int | None = None
    mode: str = "shadow"

    def __post_init__(self) -> None:
        if self.interval <= 0 or self.window <= 0:
            raise ConfigurationError(
                f"interval and window must be positive, got "
                f"{self.interval}/{self.window}"
            )
        if self.cmin_floor <= 0:
            raise ConfigurationError(
                f"cmin_floor must be positive, got {self.cmin_floor}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )
        if self.deadband < 0:
            raise ConfigurationError(
                f"deadband must be >= 0, got {self.deadband}"
            )
        if self.trip_epochs < 1:
            raise ConfigurationError(
                f"trip_epochs must be >= 1, got {self.trip_epochs}"
            )
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown autoscaler mode {self.mode!r}; "
                f"choose from {list(MODES)}"
            )


@dataclass(frozen=True)
class ScalerDecision:
    """One epoch's decision record (shadow and active modes alike)."""

    time: float
    #: Requests in the sliding window at decision time.
    observed: int
    #: The planner's recommended ``Cmin`` for the window.
    recommended: float
    #: Provision in force after the decision.
    provisioned: float
    #: Whether this epoch moved the provision.
    actuated: bool


class Autoscaler:
    """Re-provision ``Cmin`` from a sliding trace window.

    Parameters
    ----------
    classifier:
        The serving stack's classifier to actuate in ``active`` mode
        (``None`` is allowed for shadow/off and for classifier-free
        policies — actuation then has nothing to move).
    delta:
        The guarantee the re-plan targets (the stack's ``δ``).
    config:
        Loop tuning; see :class:`AutoscalerConfig`.
    delta_c:
        Overflow capacity used by :meth:`what_if` replays (defaults to
        the canonical ``1/δ``).
    metrics:
        Optional registry for ``serve.autoscaler.*`` gauges/counters.
    """

    def __init__(
        self,
        classifier: OnlineRTTClassifier | None,
        delta: float,
        config: AutoscalerConfig | None = None,
        delta_c: float | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta}")
        self.classifier = classifier
        self.delta = float(delta)
        self.config = config if config is not None else AutoscalerConfig()
        self.delta_c = float(delta_c) if delta_c is not None else 1.0 / self.delta
        if self.delta_c <= 0:
            raise ConfigurationError(
                f"delta_c must be positive, got {self.delta_c}"
            )
        #: Sliding window of (arrival, demand) pairs, oldest first.
        self._window: deque[tuple[float, float]] = deque()
        #: Provision currently in force (starts at the floor).
        self.provisioned = float(self.config.cmin_floor)
        self._streak = 0
        self.decisions: list[ScalerDecision] = []
        metrics = metrics if metrics is not None else NULL_REGISTRY
        self._g_provision = metrics.gauge("serve.autoscaler.provisioned")
        self._g_recommend = metrics.gauge("serve.autoscaler.recommended")
        self._c_actuations = metrics.counter("serve.autoscaler.actuations")
        self._g_provision.set(self.provisioned)

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def observe(self, request: Request) -> None:
        """Feed one arriving request into the sliding window.

        The harness calls this for every arrival before the admission
        decision, so the window holds the demand offered, requests the
        service goes on to reject included.
        """
        self._window.append((request.arrival, request.service_demand))

    def _evict(self, now: float) -> None:
        horizon = now - self.config.window
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()

    def window_workload(self, now: float) -> Workload | None:
        """The sliding window as a :class:`Workload` (``None`` if empty)."""
        self._evict(now)
        if not self._window:
            return None
        arrivals = np.array([a for a, _ in self._window], dtype=np.float64)
        demands = np.array([d for _, d in self._window], dtype=np.float64)
        if np.all(demands == 1.0):
            return Workload(name="autoscaler.window", arrivals=arrivals)
        return Workload(
            name="autoscaler.window", arrivals=arrivals, sizes=demands
        )

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------

    def recommend(self, now: float) -> float:
        """Re-plan the current window; never below the ``Cmin`` floor."""
        workload = self.window_workload(now)
        if workload is None:
            return float(self.config.cmin_floor)
        planner = CapacityPlanner(
            workload, self.delta, device_depth=self.config.device_depth
        )
        return max(
            float(self.config.cmin_floor),
            planner.min_capacity(self.config.fraction),
        )

    def tick(self, now: float) -> ScalerDecision:
        """Run one epoch: recommend, apply hysteresis, maybe actuate."""
        recommended = self.recommend(now)
        self._g_recommend.set(recommended)
        out_of_band = (
            abs(recommended - self.provisioned)
            > self.config.deadband * self.provisioned
        )
        actuated = False
        if self.config.mode == "off" or not out_of_band:
            self._streak = 0
        else:
            self._streak += 1
            if self._streak >= self.config.trip_epochs:
                self._actuate(recommended)
                actuated = True
                self._streak = 0
        decision = ScalerDecision(
            time=float(now),
            observed=len(self._window),
            recommended=recommended,
            provisioned=self.provisioned,
            actuated=actuated,
        )
        self.decisions.append(decision)
        return decision

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------

    def _actuate(self, capacity: float) -> None:
        self.provisioned = float(capacity)
        self._g_provision.set(self.provisioned)
        self._c_actuations.inc()
        if self.config.mode == "active" and self.classifier is not None:
            self.classifier.reprovision(capacity)

    @property
    def actuations(self) -> int:
        """Number of epochs that moved the provision."""
        return sum(1 for d in self.decisions if d.actuated)

    # ------------------------------------------------------------------
    # Digital twin
    # ------------------------------------------------------------------

    def what_if(self, capacity: float, now: float) -> dict:
        """Replay the current window at ``capacity`` on the batch engine.

        Returns a summary dict (``requests``, ``admitted``,
        ``primary_misses``, ``q1_compliance``, ``mean_response``) from a
        columnar ``split`` replay — the certified-bit-parity engine, so
        the twin's answer is exactly what the scalar simulator would
        say, at a fraction of the cost.
        """
        if capacity <= 0:
            raise ConfigurationError(
                f"capacity must be positive, got {capacity}"
            )
        workload = self.window_workload(now)
        if workload is None:
            return {
                "requests": 0,
                "admitted": 0,
                "primary_misses": 0,
                "q1_compliance": 1.0,
                "mean_response": 0.0,
            }
        run = batch.run_batch(
            workload.arrivals,
            "split",
            capacity,
            self.delta_c,
            self.delta,
            demands=workload.sizes,
        )
        admitted = int(np.count_nonzero(run.admitted))
        compliance = (
            1.0 - run.primary_misses / admitted if admitted else 1.0
        )
        return {
            "requests": int(workload.arrivals.size),
            "admitted": admitted,
            "primary_misses": int(run.primary_misses),
            "q1_compliance": compliance,
            "mean_response": float(run.overall.mean())
            if run.overall.size
            else 0.0,
        }
