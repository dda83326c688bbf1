"""Unified workload plane: user populations, demand sizing, closed loop.

This package is where traffic comes from.  It complements the trace
replayers (:mod:`repro.traces`) with the two generator families the
open-loop, unit-cost seed model could not express:

* **User populations** (:mod:`repro.workload.population`): open-loop
  arrival streams sampled from an N-users-with-rates model — per window,
  the number of active users is Poisson around the population mean, and
  each active cohort contributes Poisson arrivals at its per-user rate
  (the poisson-poisson "active users × req/min" shape).
* **Demand sizing** (:mod:`repro.workload.sizes`): per-request service
  demand samplers (constant, exponential, lognormal, bimodal long/short
  mixes) attachable to any workload as its columnar ``sizes`` array.
* **Closed loop** (:mod:`repro.workload.closedloop`): N users in
  think-time cycles whose next arrival waits for the previous request's
  completion — arrivals depend on service, so the server shapes its own
  offered load.

Everything is deterministic through :func:`repro.sim.rng.derive_seed`:
the same seed reproduces the same population regardless of process
count or interleaving.
"""

from .closedloop import run_closed_loop
from .population import UserPopulation, poisson_poisson_workload
from .sizes import (
    BimodalDemand,
    ConstantDemand,
    ExponentialDemand,
    LognormalDemand,
    attach_demands,
)

__all__ = [
    "BimodalDemand",
    "ConstantDemand",
    "ExponentialDemand",
    "LognormalDemand",
    "UserPopulation",
    "attach_demands",
    "poisson_poisson_workload",
    "run_closed_loop",
]
