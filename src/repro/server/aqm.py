"""Driver-level queue-depth management: bounded in-flight windows (AQM).

The paper's RTT decomposition treats the server's ``δ``-window as the
only queue that matters — but real storage stacks interpose a *device
queue* between the scheduler and the medium (NCQ slots, HBA queues,
cloud-volume in-flight limits).  Every request pushed into that queue
has **left the scheduler**: the recombiner can no longer reorder,
demote, or shed it, so a deep device queue silently converts any
policy into FIFO and destroys the tail — the bufferbloat effect
Mirvakili et al. measure in cloud storage (PAPERS.md).

This module is the knob that manages that queue.  A *window* bounds how
many requests may be in flight at the device (device queue + in
service) at once:

* :class:`InflightWindow` — a static depth ``k`` (``None`` = unbounded,
  the bufferbloat baseline);
* :class:`CoDelWindow` — CoDel-style adaptive sizing: the window
  *sojourn* (time from entering the window to starting service) is
  measured at every dequeue; sustained sojourn above ``target`` for a
  full ``interval`` starts squeezing the window on an accelerating
  MarkFirst-style schedule (``interval / sqrt(n)`` between squeezes),
  and a full interval of healthy sojourn *with the window saturated*
  grows it back (an unsaturated window never inflates);
* :class:`AdaptiveWindow` — gradient/AIMD sizing: multiplicative
  decrease when sojourn exceeds target, additive increase only while
  the window is actually saturated (so an idle window never inflates).

Windows register in a :class:`repro.core.registry.Registry`, as the
kernel backends and the policies do; :func:`make_window` is the factory
the run layer calls with the ``aqm=`` name from a
:class:`~repro.shaping.RunConfig`.  A run arms exactly the window it
names: nothing in the environment or the process adds one.

Floor semantics
---------------
A window smaller than the server's service concurrency would idle
units and throttle throughput, so every driver raises the window's
*floor* by its server's ``concurrency`` (1 for a single server, ``k``
for a :class:`~repro.server.farm.ServerFarm`).  Floors accumulate:
a window shared by two drivers (the ``aqm_shared`` topologies) floors
at the *sum* of their concurrencies.  Adaptive controllers never
squeeze below the floor.

Capacity interaction
--------------------
A depth-``k`` device queue consumes ``k·E[S]`` of the deadline budget
(a freshly dispatched request waits behind up to ``k - 1`` residents),
which is why :class:`~repro.core.capacity.CapacityPlanner` accepts a
``device_depth`` and plans against the effective bound
``δ_eff = δ − k·E[S]`` — see ``docs/api.md``.
"""

from __future__ import annotations

import math

from ..core.registry import Registry
from ..core.request import Request
from ..exceptions import ConfigurationError
from ..obs.registry import NULL_REGISTRY, MetricsRegistry

#: Default static window depth (the "static" registry entry).
DEFAULT_STATIC_DEPTH = 4

#: Initial depth of the adaptive controllers: deliberately deep (the
#: bufferbloat regime) so the experiments show the controller *finding*
#: the small window rather than being handed it.
DEFAULT_INITIAL_DEPTH = 64


class InflightWindow:
    """Static bounded in-flight window between scheduler and server.

    Tracks occupancy (device queue + in service) and per-request window
    sojourn; subclasses hook :meth:`_observe` to adapt :attr:`depth`.

    Parameters
    ----------
    depth:
        Maximum requests in flight at the device.  ``None`` means
        unbounded — the bufferbloat baseline every adaptive policy is
        measured against.
    """

    name = "static"

    def __init__(self, depth: int | None = DEFAULT_STATIC_DEPTH):
        if depth is not None and depth < 1:
            raise ConfigurationError(f"window depth must be >= 1, got {depth}")
        self._depth = depth
        #: Accumulated concurrency floor (see module docstring).
        self._floor = 0
        self._resize()
        self.occupancy = 0
        self.max_occupancy = 0
        self.dispatches = 0
        self.squeezes = 0
        self.grows = 0
        self.gated = 0
        self.sojourn_sum = 0.0
        self.last_sojourn = 0.0
        #: Window-entry instants of the current residents.  Keyed by
        #: ``id`` of *live* objects only (entries are removed at exit,
        #: and a resident request cannot be collected), so — unlike the
        #: driver's old timeout table — id reuse cannot alias entries.
        self._entered: dict[int, float] = {}
        #: Callbacks run after a slot frees.  A driver sharing this
        #: window registers one so a peer's exit can unblock its own
        #: gated backlog (see :meth:`add_drain_hook`).
        self._drain_hooks: list = []
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self._g_depth = self._g_occupancy = self._g_sojourn = None
        self._m_squeezes = self._m_grows = self._m_gated = None

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int | None:
        """Current in-flight limit (``None`` = unbounded)."""
        return self._limit

    def _resize(self) -> None:
        """Recompute :attr:`depth` after the nominal depth or the floor moved.

        The limit is cached because the dispatch loop asks
        :meth:`has_slot` once per request.
        """
        self._limit = (
            None if self._depth is None else max(self._depth, self._floor, 1)
        )

    def raise_floor(self, concurrency: int) -> None:
        """Add a server's service concurrency to the window floor.

        Called once per attached driver; floors accumulate so a shared
        window never starves any of the servers behind it.
        """
        if concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        self._floor += concurrency
        self._resize()

    def has_slot(self) -> bool:
        """Whether another request may enter the window right now."""
        limit = self._limit
        return limit is None or self.occupancy < limit

    # ------------------------------------------------------------------
    # Lifecycle accounting (driven by DeviceDriver)
    # ------------------------------------------------------------------

    def on_enter(self, request: Request, now: float) -> None:
        """``request`` left the scheduler and is now in flight."""
        self._entered[id(request)] = now
        self.occupancy += 1
        if self.occupancy > self.max_occupancy:
            self.max_occupancy = self.occupancy
        if self._g_occupancy is not None:
            self._g_occupancy.set(self.occupancy)

    def on_dispatch(self, request: Request, now: float) -> float:
        """``request`` reached the head of the device queue; returns sojourn."""
        entered = self._entered.get(id(request), now)
        sojourn = now - entered
        self.dispatches += 1
        self.sojourn_sum += sojourn
        self.last_sojourn = sojourn
        self._observe(sojourn, now)
        if self._g_sojourn is not None:
            self._g_sojourn.set(sojourn)
            self._g_depth.set(-1.0 if self.depth is None else float(self.depth))
        return sojourn

    def on_exit(self, request: Request, now: float) -> bool:
        """``request`` left the window (completed, aborted, lost, preempted).

        Returns whether the request was actually resident — ``False``
        for a double exit (e.g. a timeout abort racing a completion),
        so callers never under-count their residency share.
        """
        if self._entered.pop(id(request), None) is None:
            return False
        self.occupancy -= 1
        if self._g_occupancy is not None:
            self._g_occupancy.set(self.occupancy)
        for hook in self._drain_hooks:
            hook()
        return True

    def add_drain_hook(self, fn) -> None:
        """Register ``fn()`` to run whenever a slot frees.

        This is how a *shared* window stays live: without it, a driver
        gated on slots held by a peer would never learn that the peer's
        completion freed one, and its backlog would strand when arrivals
        stop.  Drivers defer the actual re-dispatch by one zero-delay
        event so the exiting driver finishes its own completion
        accounting (and gets first claim on the slot) before peers pull.
        """
        self._drain_hooks.append(fn)

    def on_gated(self) -> None:
        """The driver had pending work but no window slot (backpressure)."""
        self.gated += 1
        if self._m_gated is not None:
            self._m_gated.inc()

    def _observe(self, sojourn: float, now: float) -> None:
        """Adaptive-controller hook; the static window never resizes."""

    # ------------------------------------------------------------------
    # Controller helpers shared by the adaptive subclasses
    # ------------------------------------------------------------------

    def _squeeze_to(self, depth: int) -> None:
        floor = max(self._floor, 1)
        depth = max(depth, floor)
        if self._depth is None or depth < self._depth:
            self._depth = depth
            self._resize()
            self.squeezes += 1
            if self._m_squeezes is not None:
                self._m_squeezes.inc()

    def _grow_to(self, depth: int) -> None:
        if self._depth is not None and depth > self._depth:
            self._depth = depth
            self._resize()
            self.grows += 1
            if self._m_grows is not None:
                self._m_grows.inc()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def mean_sojourn(self) -> float:
        return self.sojourn_sum / self.dispatches if self.dispatches else 0.0

    def bind_metrics(self, registry: MetricsRegistry, prefix: str = "aqm") -> None:
        """Emit ``<prefix>.*`` gauges/counters into ``registry``.

        Idempotent per window: the first driver to bind wins (relevant
        only for shared windows, where one instrument set describes the
        one shared occupancy).
        """
        if self.metrics.enabled:
            return
        self.metrics = registry
        self._g_depth = registry.gauge(f"{prefix}.depth")
        self._g_occupancy = registry.gauge(f"{prefix}.occupancy")
        self._g_sojourn = registry.gauge(f"{prefix}.sojourn")
        self._m_squeezes = registry.counter(f"{prefix}.squeezes")
        self._m_grows = registry.counter(f"{prefix}.grows")
        self._m_gated = registry.counter(f"{prefix}.gated")
        self._g_depth.set(-1.0 if self.depth is None else float(self.depth))

    def snapshot(self) -> dict:
        """Window statistics for results and benchmark reports."""
        return {
            "policy": self.name,
            "depth": self.depth,
            "occupancy": self.occupancy,
            "max_occupancy": self.max_occupancy,
            "dispatches": self.dispatches,
            "squeezes": self.squeezes,
            "grows": self.grows,
            "gated": self.gated,
            "mean_sojourn": self.mean_sojourn,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        depth = "inf" if self.depth is None else self.depth
        return (
            f"<{type(self).__name__} depth={depth} "
            f"occupancy={self.occupancy}>"
        )


class CoDelWindow(InflightWindow):
    """CoDel-style adaptive in-flight window.

    The classic CoDel AQM drops packets whose queue sojourn stays above
    ``target`` for a full ``interval``; applied to window sizing, the
    same signal *squeezes the window* instead — requests are never
    dropped, they simply stay in the scheduler where the recombination
    policy can still order them.

    Parameters
    ----------
    target:
        Acceptable window sojourn in seconds.  The registry default is
        ``δ/2``: the device may consume at most half the deadline
        budget, leaving the other half to the scheduler queue the
        admission bound already accounts for.
    interval:
        Observation window in seconds (registry default ``δ``).
        Sojourn must stay above target for a whole interval before the
        first squeeze; each further squeeze follows after
        ``interval / sqrt(n)`` — the accelerating control law.
    initial:
        Starting depth (default :data:`DEFAULT_INITIAL_DEPTH` — the
        bufferbloat regime the controller must dig itself out of).
    min_depth, max_depth:
        Hard clamp on the adaptive range; ``max_depth`` defaults to
        ``initial``.
    """

    name = "codel"

    def __init__(
        self,
        target: float,
        interval: float,
        initial: int = DEFAULT_INITIAL_DEPTH,
        min_depth: int = 1,
        max_depth: int | None = None,
    ):
        if target <= 0 or interval <= 0:
            raise ConfigurationError(
                f"target and interval must be positive, got "
                f"target={target}, interval={interval}"
            )
        if min_depth < 1 or initial < min_depth:
            raise ConfigurationError(
                f"need 1 <= min_depth <= initial, got "
                f"min_depth={min_depth}, initial={initial}"
            )
        super().__init__(depth=initial)
        self.target = target
        self.interval = interval
        self.min_depth = min_depth
        self.max_depth = max_depth if max_depth is not None else initial
        self._first_above: float | None = None
        self._below_since: float | None = None
        self._squeezing = False
        self._squeeze_count = 0
        self._next_squeeze = 0.0
        self._squeezing_left_at: float | None = None

    def _observe(self, sojourn: float, now: float) -> None:
        if sojourn < self.target:
            self._first_above = None
            if self._squeezing:
                self._squeezing = False
                self._squeezing_left_at = now
            depth = self.depth
            saturated = depth is not None and self.occupancy >= depth
            if not saturated:
                # An unsaturated window gains nothing from more depth —
                # and growing during quiet spells would re-inflate the
                # buffer just in time for the next burst.
                self._below_since = None
                return
            if self._below_since is None:
                self._below_since = now
            elif now - self._below_since >= self.interval:
                # A full interval saturated *and* below target: the
                # window is the throughput bottleneck — grow one step.
                self._grow_to(min(self.max_depth, (self._depth or 0) + 1))
                self._below_since = now
            return
        self._below_since = None
        if not self._squeezing:
            if self._first_above is None:
                self._first_above = now + self.interval
                return
            if now < self._first_above:
                return
            # Entering the squeezing state.  MarkFirst-style schedule:
            # re-entering shortly after leaving resumes the accelerated
            # cadence instead of restarting from one squeeze per
            # interval (CoDel's count memory).
            recent = (
                self._squeezing_left_at is not None
                and now - self._squeezing_left_at < 8 * self.interval
            )
            self._squeeze_count = (
                max(1, self._squeeze_count - 2) if recent else 1
            )
            self._squeezing = True
            self._squeeze_once()
            self._next_squeeze = now + self.interval / math.sqrt(
                self._squeeze_count
            )
            return
        if now >= self._next_squeeze:
            self._squeeze_count += 1
            self._squeeze_once()
            self._next_squeeze = now + self.interval / math.sqrt(
                self._squeeze_count
            )

    def _squeeze_once(self) -> None:
        depth = self._depth if self._depth is not None else self.max_depth
        # Shave an eighth (at least one slot) per squeeze event; the
        # accelerating schedule, not the step size, supplies urgency.
        step = max(1, depth // 8)
        self._squeeze_to(max(self.min_depth, depth - step))


class AdaptiveWindow(InflightWindow):
    """Gradient/AIMD in-flight window.

    Multiplicative decrease whenever the measured window sojourn
    exceeds ``target`` (at most once per ``interval``); additive
    increase only while the window is *saturated* — occupancy pinned at
    the limit with sojourn healthy — so the window tracks the smallest
    depth that sustains throughput.

    Parameters
    ----------
    target, interval:
        As for :class:`CoDelWindow` (registry defaults ``δ/2`` / ``δ``).
    initial, min_depth, max_depth:
        Adaptive range; ``max_depth`` defaults to ``initial``.
    decrease:
        Multiplicative back-off factor in ``(0, 1)``.
    increase:
        Additive growth per saturated interval (slots).
    """

    name = "adaptive"

    def __init__(
        self,
        target: float,
        interval: float,
        initial: int = DEFAULT_INITIAL_DEPTH,
        min_depth: int = 1,
        max_depth: int | None = None,
        decrease: float = 0.7,
        increase: int = 1,
    ):
        if target <= 0 or interval <= 0:
            raise ConfigurationError(
                f"target and interval must be positive, got "
                f"target={target}, interval={interval}"
            )
        if not 0.0 < decrease < 1.0:
            raise ConfigurationError(
                f"decrease must be in (0, 1), got {decrease}"
            )
        if increase < 1:
            raise ConfigurationError(f"increase must be >= 1, got {increase}")
        if min_depth < 1 or initial < min_depth:
            raise ConfigurationError(
                f"need 1 <= min_depth <= initial, got "
                f"min_depth={min_depth}, initial={initial}"
            )
        super().__init__(depth=initial)
        self.target = target
        self.interval = interval
        self.min_depth = min_depth
        self.max_depth = max_depth if max_depth is not None else initial
        self.decrease = decrease
        self.increase = increase
        self._last_decrease = float("-inf")
        self._saturated_since: float | None = None

    def _observe(self, sojourn: float, now: float) -> None:
        if sojourn > self.target:
            self._saturated_since = None
            if now - self._last_decrease >= self.interval:
                depth = self._depth if self._depth is not None else self.max_depth
                self._squeeze_to(
                    max(self.min_depth, int(depth * self.decrease))
                )
                self._last_decrease = now
            return
        depth = self.depth
        if depth is not None and self.occupancy >= depth:
            if self._saturated_since is None:
                self._saturated_since = now
            elif now - self._saturated_since >= self.interval:
                self._grow_to(min(self.max_depth, depth + self.increase))
                self._saturated_since = now
        else:
            self._saturated_since = None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: AQM window registry.  Entries are factories ``(delta) -> window`` —
#: the response-time bound parameterizes the adaptive targets, exactly
#: as it parameterizes the admission bound.  ``aqm=None`` means *no
#: window at all* (today's driver, bit-identical), which is a
#: structural absence rather than a registry entry.
REGISTRY: Registry = Registry("aqm window policy")


@REGISTRY.register("unbounded")
def _make_unbounded(delta: float) -> InflightWindow:
    window = InflightWindow(depth=None)
    window.name = "unbounded"
    return window


@REGISTRY.register("static")
def _make_static(delta: float) -> InflightWindow:
    return InflightWindow(depth=DEFAULT_STATIC_DEPTH)


@REGISTRY.register("codel")
def _make_codel(delta: float) -> CoDelWindow:
    return CoDelWindow(target=delta / 2.0, interval=delta)


@REGISTRY.register("adaptive")
def _make_adaptive(delta: float) -> AdaptiveWindow:
    return AdaptiveWindow(target=delta / 2.0, interval=delta)


#: Names accepted by the ``aqm=`` knob (``None`` additionally means
#: "no window").
AQM_POLICIES = tuple(REGISTRY.names())


def resolve_aqm(name: str | None) -> str | None:
    """The window policy a run given ``aqm=name`` arms: ``name`` itself.

    ``None`` means no window; an unknown name raises.
    """
    if name is not None:
        REGISTRY.get(name)
    return name


def make_window(name: str | None, delta: float) -> InflightWindow | None:
    """Build the in-flight window selected by ``name``.

    ``None`` returns ``None`` — the dormant path: the driver keeps its
    historical unbuffered dispatch loop, bit-identical to the
    pre-AQM stack (certified by the golden corpus).
    """
    if name is None:
        return None
    factory = REGISTRY.get(name)
    if delta <= 0:
        raise ConfigurationError(f"delta must be positive, got {delta}")
    return factory(delta)
