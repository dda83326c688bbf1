"""Closed-loop simulation runs: user populations driving live policies.

The open-loop entry point (:func:`repro.shaping.run_policy`) replays a
pre-materialized arrival column; this module is its closed-loop sibling:
a :class:`~repro.sim.source.ClosedLoopPopulation` submits requests whose
arrival instants depend on the policy's own completions, so there is no
workload to materialize up front — the trace is an *outcome* of the
run.  Both serve through one run body
(:func:`repro.shaping.serve_feed`) and return one
:class:`~repro.shaping.RunResult`.

Conservation is the headline invariant: every submitted request must end
in exactly one ledger bucket (completed / dropped / shed), and on the
healthy path (no fault injection) everything completes.
"""

from __future__ import annotations

from ..shaping import RunConfig, RunResult, check_policy, serve_feed
from ..sim.source import ClosedLoopPopulation


def run_closed_loop(
    policy: str,
    config: RunConfig,
    n_users: int,
    think_time: float,
    horizon: float,
    seed: int = 0,
    demand_sampler=None,
) -> RunResult:
    """Drive ``policy`` with a closed-loop user population.

    ``config`` is taken as :func:`~repro.shaping.run_policy` takes it:
    the capacity plan, admission mode, window, ``record_rates``,
    ``metrics`` and ``sample_interval`` (the last three fill the
    result's ``telemetry``, ticking until ``horizon``).  ``engine`` is
    read as ``run_policy`` reads it (:func:`~repro.shaping.select_engine`).
    Under ``auto``, a run with nothing hooked on the event loop takes
    the native closed loop (:func:`repro.shaping.serve_native_closed`,
    ``engine="native"``) for ``srpt``, ``nudge``, ``boost``, ``edf`` and
    ``splitfarm`` where the build carries it, with unit demands or a
    :class:`~repro.workload.sizes.BimodalDemand` within the size range;
    every other such run takes the heap-free loop
    (:func:`repro.server.driver.serve_direct`, ``engine="direct"``): a
    single-server policy on its one server, ``split`` and ``splitfarm``
    on their front end's two single-unit sides.  ``scalar``, a window
    or an instrument runs on the event loop (``engine="scalar"``).  All
    three give bit-identical results, the submitted requests included.

    ``demand_sampler`` optionally sizes each request: any sampler from
    :mod:`repro.workload.sizes`, or any ``(rng) -> float`` callable,
    called in its scalar form ``sampler(rng)`` on each user's own stream
    once per submission.  The result's ``submitted`` holds every
    request in submission order.  ``think_time`` and ``horizon`` must be
    positive and finite.
    """
    check_policy(policy, config)
    population = ClosedLoopPopulation(
        n_users, think_time, horizon, seed=seed, demand_sampler=demand_sampler
    )
    return serve_feed(population, policy, config)
