"""Name-based construction of recombination schedulers.

Central place mapping the paper's policy names ("fcfs", "split",
"fairqueue", "miser") to the objects that implement them, so experiment
and benchmark code can be written against policy names.  The name→factory
mapping is a :class:`repro.core.registry.Registry` — the same helper
behind the kernel backends and the in-flight window policies — so tests
can install policy doubles with ``REGISTRY.register``.
"""

from __future__ import annotations

from ..core.registry import Registry
from ..exceptions import ConfigurationError
from .base import Scheduler
from .classifier import OnlineRTTClassifier
from .fair import FairQueueScheduler
from .drr import DRRScheduler
from .edf import EDFScheduler
from .fcfs import FCFSScheduler
from .miser import MiserScheduler
from .sized import BoostScheduler, NudgeScheduler, SRPTScheduler

#: Policies served by a single shared server (Split is a topology, not a
#: scheduler — see repro.server.cluster.SplitSystem).
SINGLE_SERVER_POLICIES = (
    "fcfs",
    "fairqueue",
    "wf2q",
    "drr",
    "miser",
    "edf",
    "srpt",
    "nudge",
    "boost",
)
#: Multi-server topologies constructed outside this registry: "split" is
#: the paper's two-queue system (repro.server.cluster.SplitSystem) and
#: "splitfarm" the SPLIT-style size-threshold farm dispatcher
#: (repro.server.sizesplit.SizeSplitSystem).
TOPOLOGY_POLICIES = ("split", "splitfarm")
ALL_POLICIES = SINGLE_SERVER_POLICIES + TOPOLOGY_POLICIES
#: Policies with no RTT classifier (no Q1/Q2 classes, no deadlines):
#: size-/order-aware baselines the decomposition policies compete with.
#: The adaptive fault-plane controller cannot steer these.
CLASSIFIER_FREE_POLICIES = ("fcfs", "srpt", "nudge", "boost")

def _classifier(cmin, delta, admission):
    return OnlineRTTClassifier(cmin, delta, mode=admission)


#: Scheduler factory registry.  Each entry maps a policy name to a
#: callable ``(cmin, delta_c, delta, admission) -> Scheduler``.  No
#: environment variable or default: policies are always named explicitly.
REGISTRY: Registry = Registry("policy")


@REGISTRY.register("fcfs")
def _make_fcfs(cmin, delta_c, delta, admission):
    return FCFSScheduler()


@REGISTRY.register("fairqueue")
def _make_fairqueue(cmin, delta_c, delta, admission):
    classifier = _classifier(cmin, delta, admission)
    return FairQueueScheduler(classifier, cmin, delta_c, variant="sfq")


@REGISTRY.register("wf2q")
def _make_wf2q(cmin, delta_c, delta, admission):
    classifier = _classifier(cmin, delta, admission)
    return FairQueueScheduler(classifier, cmin, delta_c, variant="wf2q")


@REGISTRY.register("drr")
def _make_drr(cmin, delta_c, delta, admission):
    classifier = _classifier(cmin, delta, admission)
    return DRRScheduler(classifier, cmin, delta_c)


@REGISTRY.register("miser")
def _make_miser(cmin, delta_c, delta, admission):
    classifier = _classifier(cmin, delta, admission)
    return MiserScheduler(classifier)


@REGISTRY.register("edf")
def _make_edf(cmin, delta_c, delta, admission):
    classifier = _classifier(cmin, delta, admission)
    return EDFScheduler(classifier, service_rate=cmin + delta_c)


@REGISTRY.register("srpt")
def _make_srpt(cmin, delta_c, delta, admission):
    return SRPTScheduler(service_rate=cmin + delta_c)


@REGISTRY.register("nudge")
def _make_nudge(cmin, delta_c, delta, admission):
    return NudgeScheduler()


@REGISTRY.register("boost")
def _make_boost(cmin, delta_c, delta, admission):
    return BoostScheduler(scale=delta)


def make_scheduler(
    policy: str,
    cmin: float,
    delta_c: float,
    delta: float,
    admission: str = "count",
) -> Scheduler:
    """Build a single-server scheduler for ``policy``.

    ``admission`` selects the classifier's admission mode: ``"count"``
    (the paper's ``lenQ1 < floor(C·δ)`` bound) or ``"work"`` (cumulative
    admitted :attr:`~repro.core.request.Request.service_demand` bounded
    by ``C·δ``).  FCFS has no classifier, so the mode is a no-op there.

    Raises
    ------
    ConfigurationError
        For unknown policies, or for the multi-server topologies
        ("split" — use :class:`repro.server.cluster.SplitSystem`;
        "splitfarm" — use :class:`repro.server.sizesplit.SizeSplitSystem`).
    """
    if policy in TOPOLOGY_POLICIES:
        raise ConfigurationError(
            f"{policy} is a multi-server topology, not a single-server "
            "scheduler; use repro.server.cluster.SplitSystem (split, the "
            "paper's two-server system) or "
            "repro.server.sizesplit.SizeSplitSystem (splitfarm)"
        )
    if policy not in REGISTRY:
        raise ConfigurationError(f"unknown policy {policy!r}; known: {ALL_POLICIES}")
    return REGISTRY.get(policy)(cmin, delta_c, delta, admission)
