"""Discrete-event simulation engine (the DiskSim stand-in substrate).

The event-driven :class:`Simulator` is the reference semantics.  The
fast paths that replay the same dynamics without it, the heap-free loop
(:func:`repro.server.driver.serve_direct`) and the native C loops
(:mod:`repro.perf.native`), live with the server and the kernels; a run
names its engine in ``RunConfig.engine`` (see :mod:`repro.perf.engines`).
"""

from .engine import Simulator
from .events import (
    PRIORITY_ARRIVAL,
    PRIORITY_COMPLETION,
    PRIORITY_MONITOR,
    Event,
    EventQueue,
)
from .rng import make_rng, spawn
from .source import ClosedLoopSource, RequestSink, WorkloadSource
from .stats import OnlineStats, RateRecorder, ResponseTimeCollector
from .trace_log import LifecycleEvent, LifecycleTracer, Phase

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "PRIORITY_ARRIVAL",
    "PRIORITY_COMPLETION",
    "PRIORITY_MONITOR",
    "make_rng",
    "spawn",
    "RequestSink",
    "WorkloadSource",
    "ClosedLoopSource",
    "OnlineStats",
    "RateRecorder",
    "ResponseTimeCollector",
    "LifecycleEvent",
    "LifecycleTracer",
    "Phase",
]
