"""Discrete-event simulation engine (the DiskSim stand-in substrate).

Two execution modes share this package: the event-driven
:class:`Simulator` (reference semantics) and the columnar batch engine
(:mod:`repro.sim.batch`) that replays the same dynamics bit-exactly for
Lindley-reducible configurations; a run names its engine in
``RunConfig.engine`` (see :mod:`repro.perf.engines`).
"""

from .batch import (
    EPOCH,
    BatchRun,
    SplitColumns,
    fcfs_completions,
    run_batch,
    split_columns,
)
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
    "EPOCH",
    "BatchRun",
    "SplitColumns",
    "fcfs_completions",
    "run_batch",
    "split_columns",
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
