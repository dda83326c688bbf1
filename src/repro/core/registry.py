"""Generic named-strategy registry: registration and lookup.

The RTT kernel backends (:mod:`repro.perf.kernels`), the in-flight
window policies (:mod:`repro.server.aqm`) and the scheduling policy
factory (:mod:`repro.sched.registry`) each map names to values and
refuse an unknown name with a message listing the alternatives.
:class:`Registry` is that idiom, once.  Which entry a run uses is an
argument of the run, never a process-wide setting.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Tuple, TypeVar

from ..exceptions import ConfigurationError

T = TypeVar("T")


class Registry(Generic[T]):
    """Named values with one "unknown name" message.

    Parameters
    ----------
    kind:
        Human-readable noun used in error messages ("kernel backend",
        "aqm window policy", "policy").
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, T] = {}

    def register(self, name: str, value: T | None = None):
        """Register ``value`` under ``name``.

        Usable directly (``registry.register("fcfs", factory)``) or as a
        decorator (``@registry.register("fcfs")``).  Re-registering a
        name replaces the entry, which is how tests install doubles.
        """
        key = name.strip().lower()
        if value is None:

            def decorator(fn: T) -> T:
                self._entries[key] = fn
                return fn

            return decorator
        self._entries[key] = value
        return value

    def names(self) -> Tuple[str, ...]:
        """Registered entry names, in registration order."""
        return tuple(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def get(self, name: str) -> T:
        """The registered value for ``name``."""
        try:
            return self._entries[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; choose from {sorted(self._entries)}"
            ) from None
