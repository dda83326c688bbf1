"""SPLIT-style size-threshold dispatch over a partitioned server farm.

Li, Harchol-Balter & Scheller-Wolf's SPLIT family (PAPERS.md) protects
the tail in multiserver systems by *partitioning* the farm: small jobs
get their own servers so they never queue behind a large job's long
service, while large jobs keep dedicated capacity instead of being
starved.  :class:`SizeSplitSystem` is that dispatcher grafted onto this
repo's shaping stack:

* a front end routes every arrival by ``service_demand`` against a fixed
  :data:`THRESHOLD` — at most one queue is ever polluted by large
  services;
* each side is a one-unit :class:`~repro.server.farm.ServerFarm` slice
  of the total capacity ``Cmin + ΔC`` (:data:`SMALL_SHARE` to the small
  side);
* the RTT classifier still stamps ``Q1`` deadlines and admission slots,
  so the graduated-QoS accounting (deadline misses, per-class response
  times) stays comparable with the paper's policies — but *placement* is
  by size, not by class, which is exactly the SPLIT-vs-decomposition
  contrast the ``tailbakeoff`` experiment measures.

The rules — the size threshold, the capacity split, the classifier and
the slot-releasing schedulers — live in :class:`SizeSplitFrontEnd`,
apart from any engine: :class:`SizeSplitSystem` drives its sides on the
event engine and :func:`~repro.server.driver.serve_direct` without one.
The aggregation surface (``completed`` / ``overall`` / ``by_class`` /
``fault_ledger`` / ``add_completion_hook``) is
:class:`~repro.server.cluster.TopologySystem`'s, shared with
:class:`~repro.server.cluster.SplitSystem`, so the run layer and the
closed-loop source drive either topology unchanged.
"""

from __future__ import annotations

from typing import Callable

from ..core.request import Request
from ..exceptions import ConfigurationError
from ..obs.registry import MetricsRegistry
from ..sched.classifier import OnlineRTTClassifier
from ..sim.engine import Simulator
from .base import Server
from .cluster import SlotReleasingFCFS, TopologySystem
from .constant_rate import ConstantRateModel
from .driver import Side
from .farm import ServerFarm, constant_rate_farm

#: The partitions, in the order results merge them.
SMALL_SIDE, LARGE_SIDE = 0, 1

#: Demand cutoff: requests with ``service_demand <= THRESHOLD`` are small
#: (:class:`~repro.sched.sized.NudgeScheduler`'s default too).
THRESHOLD = 2.0
#: Fraction of the total rate ``cmin + delta_c`` the small side gets.
SMALL_SHARE = 0.5
#: Service units in each side's farm.
UNITS_PER_SIDE = 1


class SizeSplitFrontEnd:
    """The size-threshold farm's rules, apart from any engine.

    The classifier runs RTT admission on ``cmin``/``delta`` for QoS
    accounting; :meth:`route` places a request by size: the small side
    takes ``service_demand <= THRESHOLD``.  The sides split the total
    rate ``cmin + delta_c``, :data:`SMALL_SHARE` of it to the small
    side; each is a single FCFS unit of its side's rate.
    """

    def __init__(
        self, cmin: float, delta_c: float, delta: float, admission: str = "count"
    ):
        total = cmin + delta_c
        if total <= 0:
            raise ConfigurationError(
                f"splitfarm needs positive total capacity, got {total}"
            )
        self.classifier = OnlineRTTClassifier(cmin, delta, mode=admission)
        # Primary requests land on either side (placement is by size), so
        # *both* schedulers must release the classifier's Q1 slot.
        #: Small side, then large side.
        self.sides = (
            Side(
                SlotReleasingFCFS(self.classifier, "small.fcfs"),
                ConstantRateModel(SMALL_SHARE * total),
                "small",
            ),
            Side(
                SlotReleasingFCFS(self.classifier, "large.fcfs"),
                ConstantRateModel((1.0 - SMALL_SHARE) * total),
                "large",
            ),
        )

    def route(self, request: Request) -> int:
        """Classify ``request`` for QoS accounting; its side is by size."""
        self.classifier.classify(request)
        if request.service_demand <= THRESHOLD:
            return SMALL_SIDE
        return LARGE_SIDE


class SizeSplitSystem(TopologySystem):
    """Front end routing small/large requests to partitioned farms.

    Parameters
    ----------
    sim:
        Simulation engine shared by both partitions.
    cmin, delta_c, delta:
        Decomposition capacity, extra capacity, and the primary-class
        response bound — the classifier still runs RTT admission on
        ``cmin``/``delta`` exactly as the single-server policies do; the
        farm partitions split the *total* rate ``cmin + delta_c``.
    metrics:
        Optional registry; the drivers emit under ``small.driver`` /
        ``large.driver`` and the front end counts ``splitfarm.routed_*``.
    farm_factory:
        Constructor ``(sim, capacity, units, name) -> ServerFarm`` for
        the two partitions; defaults to
        :func:`~repro.server.farm.constant_rate_farm`.
    retry:
        Optional retry policy handed to both drivers.
    admission:
        Classifier admission mode (``"count"`` or ``"work"``).
    aqm:
        Optional in-flight window policy name (:mod:`repro.server.aqm`);
        ``None`` keeps the historical unbuffered dispatch path.
    aqm_shared:
        Share one window across both partitions (floored at the sum of
        their farm concurrencies) instead of one window per partition.
    """

    window_keys = ("small", "large")

    def __init__(
        self,
        sim: Simulator,
        cmin: float,
        delta_c: float,
        delta: float,
        metrics: MetricsRegistry | None = None,
        farm_factory: Callable[[Simulator, float, int, str], ServerFarm] | None = None,
        retry=None,
        admission: str = "count",
        aqm: str | None = None,
        aqm_shared: bool = False,
    ):
        front = SizeSplitFrontEnd(cmin, delta_c, delta, admission)
        factory = farm_factory if farm_factory is not None else constant_rate_farm
        super().__init__(
            sim,
            front,
            lambda side: factory(sim, side.model.capacity, UNITS_PER_SIDE, side.name),
            ("small.driver", "large.driver"),
            metrics,
            retry,
            aqm,
            aqm_shared,
            delta,
        )
        self.small_driver, self.large_driver = self.drivers
        self._m_routed_small = self.metrics.counter("splitfarm.routed_small")
        self._m_routed_large = self.metrics.counter("splitfarm.routed_large")
        self.routed_small = 0
        self.routed_large = 0

    @property
    def servers(self) -> list[Server]:
        """All service units, small partition first (fault targets)."""
        units: list[Server] = []
        for driver in self.drivers:
            farm = driver.server
            units.extend(getattr(farm, "units", [farm]))
        return units

    def on_arrival(self, request: Request) -> None:
        """Classify for QoS accounting, then place by size."""
        side = self.route(request)
        if side == SMALL_SIDE:
            self.routed_small += 1
            self._m_routed_small.inc()
        else:
            self.routed_large += 1
            self._m_routed_large.inc()
        self.drivers[side].on_arrival(request)
