"""Fault injection and fault tolerance for the serving stack.

This package is the robustness plane promised by the paper's "graduated
QoS" framing: the shaper's guarantees are only interesting if they
survive a server that crashes, browns out, or sprays latency spikes.
It provides, bottom-up:

* :mod:`~repro.faults.schedule` — declarative fault schedules
  (:class:`Crash`, :class:`RateDroop`, :class:`SpikeStorm`) plus
  seeded :func:`random_schedule` generation;
* :mod:`~repro.faults.server` — :class:`FaultableServer`, a crash-capable
  server with explicit in-flight semantics (requeue vs. loss);
* :mod:`~repro.faults.injector` — :class:`FaultInjector` turning a
  schedule into first-class simulator events, and :class:`FaultyModel`
  applying rate droops / latency spikes to any service-time model;
* :mod:`~repro.faults.retry` — :class:`RetryPolicy` for the driver's
  timeout-and-retry path (with Q1 → Q2 demotion on retry);
* :mod:`~repro.faults.controller` — :class:`AdaptiveShaper`, the
  hysteresis feedback loop from deadline-miss rate to ``maxQ1``;
* :mod:`~repro.faults.invariants` — the conservation ledger (every
  arrival completes, is shed, or is dropped exactly once);
* :mod:`~repro.faults.harness` — :func:`run_resilient` /
  :func:`run_chaos`, the fault-plane analogue of
  :func:`repro.shaping.run_policy`.
"""

from .controller import AdaptiveShaper, ControllerConfig
from .harness import (
    RESILIENCE_POLICIES,
    run_chaos,
    run_resilient,
)
from .injector import FaultInjector, FaultState, FaultyModel
from .invariants import (
    ConservationReport,
    assert_conservation,
    check_conservation,
)
from .retry import RetryPolicy
from .schedule import (
    Crash,
    FaultSchedule,
    RateDroop,
    SpikeStorm,
    random_schedule,
)
from .server import INFLIGHT_POLICIES, FaultableServer

__all__ = [
    "AdaptiveShaper",
    "ControllerConfig",
    "ConservationReport",
    "Crash",
    "FaultInjector",
    "FaultSchedule",
    "FaultState",
    "FaultableServer",
    "FaultyModel",
    "INFLIGHT_POLICIES",
    "RESILIENCE_POLICIES",
    "RateDroop",
    "RetryPolicy",
    "SpikeStorm",
    "assert_conservation",
    "check_conservation",
    "random_schedule",
    "run_chaos",
    "run_resilient",
]
