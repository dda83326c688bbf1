"""Declarative fault schedules: what goes wrong, when, and how badly.

A :class:`FaultSchedule` is an immutable description of the failures a
run should suffer — crash/repair cycles, service-rate droops
(brownouts), and latency-spike storms.  It is pure data: the
:class:`~repro.faults.injector.FaultInjector` turns it into first-class
simulator events that flip shared state.

:func:`random_schedule` derives a reproducible chaos schedule from a run
seed via :func:`repro.sim.rng.derive_seed`, so ``--jobs N`` parallel
chaos sweeps stay bit-identical to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from ..exceptions import ConfigurationError
from ..sim.rng import derive_seed, make_rng


@dataclass(frozen=True)
class Crash:
    """A fail-stop window: the target goes down at ``start`` and is
    repaired ``duration`` seconds later.

    ``unit`` selects the victim in multi-server topologies: a unit index
    for a :class:`~repro.server.farm.ServerFarm`, 0 (primary) or 1
    (overflow) for a :class:`~repro.server.cluster.SplitSystem`; ignored
    by single-server runs.
    """

    start: float
    duration: float
    unit: int = 0

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"crash start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ConfigurationError(
                f"crash duration must be positive, got {self.duration}"
            )
        if self.unit < 0:
            raise ConfigurationError(f"crash unit must be >= 0, got {self.unit}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class RateDroop:
    """A brownout window: service times inflate by ``factor`` in
    ``[start, end)``."""

    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"droop start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ConfigurationError(
                f"droop must end after it starts: [{self.start}, {self.end})"
            )
        if self.factor <= 1.0:
            raise ConfigurationError(
                f"droop factor must exceed 1, got {self.factor}"
            )


@dataclass(frozen=True)
class SpikeStorm:
    """A flakiness window: inside ``[start, end)`` each service draws a
    latency spike of ``factor`` with ``probability`` (an internal retry,
    say)."""

    start: float
    end: float
    probability: float
    factor: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"storm start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ConfigurationError(
                f"storm must end after it starts: [{self.start}, {self.end})"
            )
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"storm probability must be in (0, 1], got {self.probability}"
            )
        if self.factor <= 1.0:
            raise ConfigurationError(
                f"storm factor must exceed 1, got {self.factor}"
            )


FaultEvent = Union[Crash, RateDroop, SpikeStorm]


class FaultSchedule:
    """An ordered, validated collection of fault events.

    Crash windows targeting the same unit must not overlap (a server
    cannot crash while already down); droop windows must not overlap
    each other (their factors would be ambiguous), and likewise storms.
    Different event kinds may freely overlap — a droop during a crash of
    another unit is a perfectly good bad day.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self.crashes: tuple[Crash, ...] = ()
        self.droops: tuple[RateDroop, ...] = ()
        self.storms: tuple[SpikeStorm, ...] = ()
        crashes, droops, storms = [], [], []
        for event in events:
            if isinstance(event, Crash):
                crashes.append(event)
            elif isinstance(event, RateDroop):
                droops.append(event)
            elif isinstance(event, SpikeStorm):
                storms.append(event)
            else:
                raise ConfigurationError(f"unknown fault event {event!r}")
        self.crashes = tuple(sorted(crashes, key=lambda c: (c.unit, c.start)))
        self.droops = tuple(sorted(droops, key=lambda d: d.start))
        self.storms = tuple(sorted(storms, key=lambda s: s.start))
        for a, b in zip(self.crashes, self.crashes[1:]):
            if a.unit == b.unit and b.start < a.end:
                raise ConfigurationError(
                    f"crash windows overlap on unit {a.unit}: "
                    f"[{a.start}, {a.end}) and [{b.start}, {b.end})"
                )
        for kind, windows in (("droop", self.droops), ("storm", self.storms)):
            for a, b in zip(windows, windows[1:]):
                if b.start < a.end:
                    raise ConfigurationError(
                        f"{kind} windows overlap: [{a.start}, {a.end}) "
                        f"and [{b.start}, {b.end})"
                    )

    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self.crashes + self.droops + self.storms

    def __len__(self) -> int:
        return len(self.crashes) + len(self.droops) + len(self.storms)

    def __bool__(self) -> bool:
        return len(self) > 0

    @property
    def last_clear(self) -> float:
        """Instant the final fault window closes (0.0 when empty).

        The chaos acceptance criterion — Q1 compliance restored to the
        healthy baseline — is evaluated on arrivals after this instant.
        """
        ends = [c.end for c in self.crashes]
        ends += [d.end for d in self.droops]
        ends += [s.end for s in self.storms]
        return max(ends) if ends else 0.0

    def describe(self) -> str:
        parts = []
        for c in self.crashes:
            parts.append(f"crash(unit={c.unit}, [{c.start:g}, {c.end:g}))")
        for d in self.droops:
            parts.append(f"droop(x{d.factor:g}, [{d.start:g}, {d.end:g}))")
        for s in self.storms:
            parts.append(
                f"storm(p={s.probability:g}, x{s.factor:g}, "
                f"[{s.start:g}, {s.end:g}))"
            )
        return "; ".join(parts) if parts else "no faults"


def random_schedule(
    seed: int,
    horizon: float,
    crashes: int = 1,
    droops: int = 1,
    storms: int = 1,
    units: int = 1,
    max_crash_fraction: float = 0.15,
    max_factor: float = 4.0,
) -> FaultSchedule:
    """Derive a reproducible chaos schedule from ``seed``.

    Events land in ``[0.1 * horizon, 0.85 * horizon]`` so every run has a
    clean warm-up and a post-fault recovery tail to measure compliance
    restoration against.  Each event class draws from its own
    :func:`~repro.sim.rng.derive_seed` stream, so adding storms does not
    move the crashes.
    """
    if horizon <= 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if units <= 0:
        raise ConfigurationError(f"units must be positive, got {units}")
    window_lo, window_hi = 0.1 * horizon, 0.85 * horizon
    events: list[FaultEvent] = []

    def slots(n: int, kind: str):
        """Non-overlapping sub-windows, one per event, across the span."""
        rng = make_rng(derive_seed(seed, "faults.schedule", kind))
        span = (window_hi - window_lo) / max(1, n)
        for i in range(n):
            lo = window_lo + i * span
            start = lo + rng.uniform(0.0, 0.4) * span
            length = rng.uniform(0.15, 0.5) * span
            length = min(length, max_crash_fraction * horizon, lo + span - start)
            yield rng, start, start + max(length, 0.02 * span)

    for rng, start, end in slots(crashes, "crash"):
        unit = int(rng.integers(0, units))
        events.append(Crash(start=start, duration=end - start, unit=unit))
    for rng, start, end in slots(droops, "droop"):
        events.append(
            RateDroop(start=start, end=end, factor=1.0 + rng.uniform(0.5, max_factor))
        )
    for rng, start, end in slots(storms, "storm"):
        events.append(
            SpikeStorm(
                start=start,
                end=end,
                probability=rng.uniform(0.05, 0.4),
                factor=1.0 + rng.uniform(1.0, max_factor),
            )
        )
    return FaultSchedule(events)
