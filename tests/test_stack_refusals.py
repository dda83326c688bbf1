"""One refusal per bad combination, whichever entry point it comes through.

Every entry point that serves a policy builds its stack with
``repro.shaping.build_stack``, so a combination no stack can run is
refused by one check with one message: ``run_policy``,
``run_resilient``, ``run_chaos``, ``run_closed_loop`` and
``ServiceHarness`` must all say the same thing.
"""

import math

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.exceptions import ConfigurationError
from repro.faults import run_chaos, run_resilient
from repro.serve import ServiceHarness
from repro.shaping import RunConfig, run_policy
from repro.workload import run_closed_loop

WORKLOAD = Workload(np.linspace(0.0, 1.0, 20), name="refusals")
PLAN = (4.0, 2.0, 0.5)

#: Entry point name -> ``(policy, plan, options)`` caller.  ``options``
#: are RunConfig fields or fault-plane keywords, whichever it takes.
ENTRY_POINTS = {
    "run_policy": lambda policy, plan, options: run_policy(
        WORKLOAD, policy, config=RunConfig(*plan, **options)
    ),
    "run_resilient": lambda policy, plan, options: run_resilient(
        WORKLOAD, policy, *plan, **options
    ),
    "run_chaos": lambda policy, plan, options: run_chaos(
        WORKLOAD, policy, *plan, seed=0, **options
    ),
    "run_closed_loop": lambda policy, plan, options: run_closed_loop(
        policy, RunConfig(*plan, **options), n_users=2, think_time=1.0, horizon=2.0
    ),
    "ServiceHarness": lambda policy, plan, options: ServiceHarness(
        policy, *plan, **options
    ),
}
EVERY = tuple(ENTRY_POINTS)
#: The entry points that take a RunConfig (rate recording).
CONFIGURED = ("run_policy", "run_closed_loop")
#: The fault-plane entry points (adaptive control).
FAULT_PLANE = ("run_resilient", "run_chaos", "ServiceHarness")

SPLITFARM_ADAPTIVE = (
    "adaptive control is not supported for splitfarm: Q1 completions span "
    "both size partitions, so no single driver carries the controller's inputs"
)
FCFS_ADAPTIVE = (
    "policy 'fcfs' has no admission bound to adapt (use a classifying "
    "policy or adaptive=False)"
)

CASES = [
    pytest.param(
        "split", (0.0, 2.0, 0.5), {}, EVERY,
        "bad configuration: cmin=0.0, delta_c=2.0, delta=0.5",
        id="zero-cmin",
    ),
    pytest.param(
        "miser", (4.0, -1.0, 0.5), {}, EVERY,
        "bad configuration: cmin=4.0, delta_c=-1.0, delta=0.5",
        id="negative-delta_c",
    ),
    pytest.param(
        "split", (4.0, 2.0, 0.0), {}, EVERY,
        "bad configuration: cmin=4.0, delta_c=2.0, delta=0.0",
        id="zero-delta",
    ),
    pytest.param(
        "fcfs", (math.nan, 2.0, 0.5), {}, EVERY, "cmin must be finite, got nan",
        id="nan-cmin",
    ),
    pytest.param(
        "split", (math.inf, 2.0, 0.5), {}, EVERY, "cmin must be finite, got inf",
        id="infinite-cmin",
    ),
    pytest.param(
        "fairqueue", (4.0, math.nan, 0.5), {}, EVERY,
        "delta_c must be finite, got nan",
        id="nan-delta_c",
    ),
    pytest.param(
        "miser", (4.0, math.inf, 0.5), {}, EVERY, "delta_c must be finite, got inf",
        id="infinite-delta_c",
    ),
    pytest.param(
        "split", (4.0, 2.0, math.nan), {}, EVERY, "delta must be finite, got nan",
        id="nan-delta",
    ),
    pytest.param(
        "wf2q", (4.0, 2.0, math.inf), {}, EVERY, "delta must be finite, got inf",
        id="infinite-delta",
    ),
    pytest.param(
        "fcfs", (4.0, 2.0, -math.inf), {}, EVERY, "delta must be finite, got -inf",
        id="negative-infinite-delta",
    ),
    pytest.param(
        "lifo", PLAN, {}, EVERY, "unknown policy 'lifo'", id="unknown-policy"
    ),
    pytest.param(
        "split", PLAN, {"aqm_shared": True}, EVERY,
        "aqm_shared requires an aqm policy",
        id="aqm_shared-without-aqm",
    ),
    pytest.param(
        "split", PLAN, {"aqm": "none"}, EVERY,
        "unknown aqm window policy 'none'; "
        "choose from ['adaptive', 'codel', 'static', 'unbounded'] or None",
        id="window-named-none",
    ),
    pytest.param(
        "splitfarm", PLAN, {"adaptive": True}, FAULT_PLANE, SPLITFARM_ADAPTIVE,
        id="adaptive-splitfarm",
    ),
    pytest.param(
        "fcfs", PLAN, {"adaptive": True}, FAULT_PLANE, FCFS_ADAPTIVE,
        id="adaptive-fcfs",
    ),
    pytest.param(
        "split", PLAN, {"record_rates": 1.0}, CONFIGURED,
        "rate recording is single-server only",
        id="rates-on-split",
    ),
    pytest.param(
        "splitfarm", PLAN, {"record_rates": 1.0}, CONFIGURED,
        "rate recording is single-server only",
        id="rates-on-splitfarm",
    ),
    pytest.param(
        "split", PLAN, {"engine": "quantum"}, CONFIGURED,
        "unknown execution engine 'quantum'; choose from ['scalar'] or 'auto'",
        id="unknown-engine",
    ),
    pytest.param(
        "split", PLAN, {"engine": "Scalar"}, CONFIGURED,
        "unknown execution engine 'Scalar'; choose from ['scalar'] or 'auto'",
        id="engine-name-case",
    ),
    pytest.param(
        "fcfs", PLAN, {"engine": "batch"}, CONFIGURED,
        "unknown execution engine 'batch'; choose from ['scalar'] or 'auto'",
        id="retired-batch-engine",
    ),
]


@pytest.mark.parametrize(("policy", "plan", "options", "entries", "message"), CASES)
def test_one_message_through_every_entry_point(
    policy, plan, options, entries, message
):
    said = {}
    for name in entries:
        with pytest.raises(ConfigurationError) as refused:
            ENTRY_POINTS[name](policy, plan, options)
        said[name] = str(refused.value)
    assert said == {name: message for name in entries}
