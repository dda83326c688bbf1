"""Asyncio ingestion front end: timestamped, size-carrying requests in.

The wire format is newline-delimited JSON — one object per request:

.. code-block:: json

    {"arrival": 12.5, "size": 2.0}

Both fields are optional: a missing ``arrival`` stamps the submission at
the harness's current virtual time, a missing ``size`` means unit
demand.  Each accepted line is staged into the harness's
:class:`~repro.serve.harness.StagedSource` — entering the serving plane
through exactly the same admission gate as a replayed trace — and
answered with the staged index:

.. code-block:: json

    {"ok": true, "index": 42, "arrival": 12.5}

Two entry points share all validation logic, so the protocol is testable
without sockets:

* :meth:`IngestServer.submit` / :meth:`IngestServer.handle_line` —
  direct, synchronous, used by the CLI and the tests;
* :meth:`IngestServer.serve` — a real ``asyncio.start_server`` endpoint
  speaking the same lines over TCP.

Out-of-order timestamps are clamped forward (an ingest endpoint cannot
rewrite history): the staged arrival is never before the previously
staged one nor before the harness clock.  A field that is not a finite
number (``NaN``, ``Infinity``, a boolean, a string, ...) is refused with
an ``ok: false`` reply before the clamp, and so are an ``arrival`` more
than :data:`MAX_LEAD` past the clamp point (the later of the clock and
the last staged arrival) and a ``size`` outside [:data:`MIN_SIZE`,
:data:`MAX_SIZE`].  An accepted line therefore lands at most an hour of
virtual time past the clamp point: a far-future
timestamp cannot drag every later line onto a clock too coarse to resolve
its service time, nor stretch the periodic sampling of an adaptive or
autoscaled harness, which runs to the staged horizon.
"""

from __future__ import annotations

import asyncio
import json
import math

from ..exceptions import ConfigurationError
from .harness import ServiceHarness

#: Furthest an ``arrival`` may lie past the later of the clock and the
#: last staged arrival, in virtual seconds (one hour).
MAX_LEAD = 3600.0

#: Accepted ``size`` range, in units of the unit-cost request: within a
#: factor 2**20 (about a million) of it either way.
MIN_SIZE = 2.0**-20
MAX_SIZE = 2.0**20

#: The scanner ``json.loads`` runs (the default decoder's), without the
#: per-call checks around it. A stripped line it reads to the end holds
#: one whole JSON value, which ``json.loads`` would return unchanged.
_scan = json.JSONDecoder().scan_once

#: The fields a line may carry.
_FIELDS = frozenset(("arrival", "size"))
#: The types of a JSON number.
_NUMBER = (int, float)


class IngestServer:
    """Front door of the serving plane.

    Parameters
    ----------
    harness:
        The :class:`~repro.serve.harness.ServiceHarness` to feed.
    clock:
        Zero-argument callable supplying "now" for unstamped
        submissions; defaults to the harness's virtual clock.
    """

    def __init__(self, harness: ServiceHarness, clock=None):
        self.harness = harness
        #: ``None``: the harness's virtual clock.
        self._clock = clock
        self._last = 0.0
        self._server: asyncio.AbstractServer | None = None
        self.accepted = 0
        self.malformed = 0

    # ------------------------------------------------------------------
    # Protocol core (socket-free)
    # ------------------------------------------------------------------

    def submit(self, arrival: float | None = None, size: float | None = None) -> dict:
        """Stage one request; returns the response object."""
        # Clamp forward to here: monotone staging is the source's contract.
        clock = self._clock
        now = float(self.harness.sim.now if clock is None else clock())
        last = self._last
        # ``max(last, now)``, and ``max(requested, floor)`` below: the
        # first argument on a tie, so a -0.0 arrival stages as -0.0.
        floor = now if now > last else last
        try:
            stamped = floor
            if arrival is not None:
                requested = _finite("arrival", arrival)
                if requested > floor + MAX_LEAD:
                    raise ConfigurationError(
                        f"arrival {requested:g} lies more than {MAX_LEAD:g} s "
                        f"past the endpoint's clock ({floor:g})"
                    )
                stamped = floor if floor > requested else requested
            if size is not None:
                size = _finite("size", size)
                if not MIN_SIZE <= size <= MAX_SIZE:
                    raise ConfigurationError(
                        f"size must be positive, within [{MIN_SIZE:g}, "
                        f"{MAX_SIZE:g}], got {size:g}"
                    )
            index = self.harness.source.stage(stamped, size)
        except ConfigurationError as exc:
            self.malformed += 1
            return {"ok": False, "error": str(exc)}
        self._last = stamped
        self.accepted += 1
        return {"ok": True, "index": index, "arrival": stamped}

    def handle_line(self, line: str) -> dict:
        """Parse and stage one protocol line (never raises)."""
        line = line.strip()
        if not line:
            self.malformed += 1
            return {"ok": False, "error": "empty line"}
        try:
            payload, end = _scan(line, 0)
        except (StopIteration, ValueError, TypeError):
            end = -1
        if end != len(line):
            # Anything else takes json.loads itself: its message for a
            # byte-order mark or trailing data, its decoding of bytes.
            try:
                payload = json.loads(line)
            except ValueError as exc:
                self.malformed += 1
                return {"ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(payload, dict):
            self.malformed += 1
            return {"ok": False, "error": "expected a JSON object"}
        if not _FIELDS.issuperset(payload):
            self.malformed += 1
            unknown = sorted(set(payload) - _FIELDS)
            return {"ok": False, "error": f"unknown fields {unknown}"}
        arrival = payload.get("arrival")
        size = payload.get("size")
        # JSON true/false parse to bool, an int subclass: not a number.
        # JSON values are of the exact built-in types, so the type of a
        # bool is not in _NUMBER.
        if arrival is not None and type(arrival) not in _NUMBER:
            self.malformed += 1
            return {"ok": False, "error": "arrival must be a number"}
        if size is not None and type(size) not in _NUMBER:
            self.malformed += 1
            return {"ok": False, "error": "size must be a number"}
        return self.submit(arrival, size)

    # ------------------------------------------------------------------
    # TCP endpoint
    # ------------------------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind the JSON-lines endpoint; returns the bound address."""
        self._server = await asyncio.start_server(self._handle_client, host, port)
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = self.handle_line(line.decode("utf-8", "replace"))
                writer.write((json.dumps(response) + "\n").encode())
                await writer.drain()
        finally:
            writer.close()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


def _finite(name: str, value) -> float:
    """``value`` as a float, refused unless finite."""
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {number}")
    return number
