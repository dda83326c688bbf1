"""IngestServer: the JSON-lines front door, with and without sockets."""

from __future__ import annotations

import asyncio
import json
import math
import struct
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.faults.retry import RetryPolicy
from repro.serve import IngestServer, ServiceHarness
from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.ingest import MAX_LEAD
from repro.units import MAX_SIZE, MIN_SIZE

CMIN, DELTA_C, DELTA = 4.0, 2.0, 0.5


def _harness() -> ServiceHarness:
    return ServiceHarness("split", CMIN, DELTA_C, DELTA)


class TestProtocol:
    @pytest.mark.parametrize(
        ("line", "error"),
        [
            ("", "empty line"),
            ("   ", "empty line"),
            ("{not json", "bad JSON"),
            ("[1, 2]", "JSON object"),
            ('{"arrival": 1.0, "qos": "gold"}', "unknown fields"),
            ('{"arrival": "soon"}', "arrival must be a number"),
            ('{"size": "big"}', "size must be a number"),
            ('{"size": -2.0}', "positive"),
            ('{"arrival": true}', "arrival must be a number"),
            ('{"size": false}', "size must be a number"),
            ('{"arrival": NaN}', "finite"),
            ('{"arrival": -Infinity}', "finite"),
            ('{"size": Infinity}', "finite"),
            ('{"arrival": 1e400}', "finite"),  # json parses it as inf
            ('{"arrival": 3600.5}', "past the endpoint's clock"),
            ('{"arrival": 1e308}', "past the endpoint's clock"),
            ('{"size": 5e-324}', "within"),
            ('{"size": 2e6}', "within"),
            # Nesting past the decoder's recursion limit, well inside the
            # endpoint's 64 KiB line limit.
            pytest.param("[" * 5000 + "]" * 5000, "bad JSON", id="deep array"),
            pytest.param(
                '{"a":' * 5000 + "1" + "}" * 5000, "bad JSON", id="deep object"
            ),
        ],
    )
    def test_malformed_lines_never_raise(self, line, error):
        server = IngestServer(_harness())
        response = server.handle_line(line)
        assert response["ok"] is False
        assert error in response["error"]
        assert server.malformed == 1
        assert server.accepted == 0

    def test_accepted_lines_stage_in_order(self):
        harness = _harness()
        server = IngestServer(harness)
        first = server.handle_line('{"arrival": 1.5}')
        second = server.handle_line('{"arrival": 3.0, "size": 2.5}')
        assert first == {"ok": True, "index": 0, "arrival": 1.5}
        assert second == {"ok": True, "index": 1, "arrival": 3.0}
        assert server.accepted == 2
        result = harness.run()
        assert result.ledger["completed"] == 2
        assert harness.source.requests[1].service_demand == 2.5

    def test_out_of_order_submissions_are_clamped_forward(self):
        server = IngestServer(_harness())
        server.submit(arrival=5.0)
        stale = server.submit(arrival=1.0)
        assert stale["ok"] is True
        assert stale["arrival"] == 5.0  # history cannot be rewritten

    def test_far_future_arrival_is_refused_alone(self):
        harness = _harness()
        server = IngestServer(harness)
        assert server.submit(arrival=1.0)["ok"] is True
        assert server.submit(arrival=1.0 + MAX_LEAD)["ok"] is True  # the limit
        far = server.submit(arrival=2.0 + 2 * MAX_LEAD)
        assert far["ok"] is False
        assert "past the endpoint's clock" in far["error"]
        # The refused line moved nothing: the next one stages as asked.
        after = server.submit(arrival=2.0 + MAX_LEAD, size=2.0)
        assert after == {"ok": True, "index": 2, "arrival": 2.0 + MAX_LEAD}
        result = harness.run()
        assert result.ledger["completed"] == 3
        assert result.responses[2] >= 2.0 / (CMIN + DELTA_C)

    def test_unstamped_submission_uses_the_clock(self):
        ticks = iter([2.5, 7.25])
        server = IngestServer(_harness(), clock=lambda: next(ticks))
        assert server.submit()["arrival"] == 2.5
        assert server.submit()["arrival"] == 7.25

    def test_clock_defaults_to_virtual_time(self):
        harness = _harness()
        server = IngestServer(harness)
        server.submit(arrival=2.0)
        harness.run()
        assert harness.sim.now >= 2.0
        # Post-run submissions stamp at (clamped) virtual now.
        response = server.submit(arrival=0.0)
        assert response["arrival"] == harness.sim.now


_NUMBERS = (
    st.floats()  # NaN and +-Infinity included; json.dumps writes them
    | st.floats(min_value=0.0, max_value=50.0)
    | st.integers()
    | st.sampled_from(
        [
            0, -0.0, 5e-324, 1e-300, MIN_SIZE, MAX_SIZE, 2 * MAX_SIZE,
            MAX_LEAD, MAX_LEAD + 1, 1e12, 2.0**53, sys.float_info.max, 10**400,
        ]
    )
)
_VALUES = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
_FIELD = _NUMBERS | _VALUES
_LINES = st.one_of(
    st.fixed_dictionaries({}, optional={"arrival": _FIELD, "size": _FIELD}),
    st.dictionaries(st.sampled_from(["arrival", "size"]) | st.text(max_size=6), _FIELD),
    _VALUES,
).map(json.dumps) | st.text(max_size=30)

FUZZ_CMIN, FUZZ_DELTA_C = 400.0, 20.0


def _plain_harness() -> ServiceHarness:
    return ServiceHarness("split", FUZZ_CMIN, FUZZ_DELTA_C, 0.05)


def _adaptive_harness() -> ServiceHarness:
    # The fault-mode plane perfbench's chaos-serve feeds through the
    # endpoint (retries, CoDel, shadow autoscaler, adaptive controller):
    # its sampler and autoscaler tick until the staged horizon.
    delta = 0.5
    return ServiceHarness(
        "split",
        FUZZ_CMIN,
        FUZZ_DELTA_C,
        delta,
        aqm="codel",
        reject_on_overload=True,
        autoscaler=AutoscalerConfig(
            interval=1.0, cmin_floor=FUZZ_CMIN, mode="shadow"
        ),
        retry=RetryPolicy(
            timeout_q1=10 * delta,
            timeout_q2=40 * delta,
            max_retries=3,
            backoff_base=delta / 2,
        ),
        adaptive=True,
    )


class TestFuzzedLines:
    @pytest.mark.parametrize("build", [_plain_harness, _adaptive_harness])
    @given(lines=st.lists(_LINES, max_size=10))
    def test_bad_lines_never_break_the_run(self, build, lines):
        harness = build()
        server = IngestServer(harness)
        last = 0.0
        for line in lines:
            reply = server.handle_line(line)
            if reply["ok"]:
                assert math.isfinite(reply["arrival"])
                assert last <= reply["arrival"] <= last + MAX_LEAD
                last = reply["arrival"]
        assert server.accepted + server.malformed == len(lines)
        result = harness.run()  # final audit raises on any leak
        assert result.conservation.ok
        assert result.violations == ()
        terminal = (
            len(result.completed) + len(result.dropped) + len(result.shed)
        )
        assert terminal + len(result.rejected) == server.accepted
        # No server runs faster than the whole plan, so every completed
        # request took at least its demand over that capacity (less float
        # rounding): a clock too coarse to add the service time would
        # complete it in no time.
        for request in result.completed:
            response = result.responses[request.index]
            assert math.isfinite(response)
            floor = request.service_demand / (FUZZ_CMIN + FUZZ_DELTA_C)
            assert response >= floor * (1 - 1e-3)


class TestSocketEndpoint:
    def test_tcp_round_trip(self):
        harness = _harness()
        server = IngestServer(harness)
        lines = [
            b'{"arrival": 1.0}\n',
            b"not json\n",
            b'{"arrival": 2.0, "size": 2.5}\n',
        ]

        async def drive():
            host, port = await server.serve()
            reader, writer = await asyncio.open_connection(host, port)
            for line in lines:
                writer.write(line)
            await writer.drain()
            replies = [
                json.loads(await reader.readline()) for _ in range(len(lines))
            ]
            writer.close()
            await writer.wait_closed()
            await server.close()
            return replies

        replies = asyncio.run(drive())
        assert replies[0] == {"ok": True, "index": 0, "arrival": 1.0}
        assert replies[1]["ok"] is False
        assert replies[2] == {"ok": True, "index": 1, "arrival": 2.0}
        assert server.accepted == 2
        assert server.malformed == 1
        # The staged requests then run under virtual time as usual.
        result = harness.run()
        assert result.ledger["completed"] == 2

    def test_close_is_idempotent(self):
        server = IngestServer(_harness())

        async def drive():
            await server.serve()
            await server.close()
            await server.close()

        asyncio.run(drive())


# ---------------------------------------------------------------------------
# Differential: the endpoint against a plain reading of its protocol
# ---------------------------------------------------------------------------


def _reference_finite(name: str, value) -> float:
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be finite, got {number}")
    return number


class _ReferenceIngest:
    """The protocol read plainly: ``handle_line``, ``submit``, ``stage``.

    ``json.loads``, ``max`` and a loop over the fields, with the same
    checks and messages; staged records are kept in ``records``. The
    endpoint must answer every line as this does and stage the same
    records, bit for bit.
    """

    def __init__(self, clock):
        self._clock = clock
        self._last = 0.0
        self.records: list[tuple[float, float | None]] = []

    def stage(self, arrival, size=None) -> int:
        arrival = float(arrival)
        if not math.isfinite(arrival):
            raise ConfigurationError(
                f"staged arrival must be finite, got {arrival}"
            )
        if self.records and arrival < self.records[-1][0]:
            raise ConfigurationError(
                f"staged arrival {arrival} precedes the last staged "
                f"arrival {self.records[-1][0]}; stage in order"
            )
        if size is not None and not (size > 0 and math.isfinite(size)):
            raise ConfigurationError(
                f"size must be positive and finite, got {size}"
            )
        self.records.append((arrival, None if size is None else float(size)))
        return len(self.records) - 1

    def submit(self, arrival=None, size=None) -> dict:
        floor = max(self._last, float(self._clock()))
        try:
            stamped = floor
            if arrival is not None:
                requested = _reference_finite("arrival", arrival)
                if requested > floor + MAX_LEAD:
                    raise ConfigurationError(
                        f"arrival {requested:g} lies more than {MAX_LEAD:g} s "
                        f"past the endpoint's clock ({floor:g})"
                    )
                stamped = max(requested, floor)
            if size is not None:
                size = _reference_finite("size", size)
                if not MIN_SIZE <= size <= MAX_SIZE:
                    raise ConfigurationError(
                        f"size must be positive, within [{MIN_SIZE:g}, "
                        f"{MAX_SIZE:g}], got {size:g}"
                    )
            index = self.stage(stamped, size)
        except ConfigurationError as exc:
            return {"ok": False, "error": str(exc)}
        self._last = stamped
        return {"ok": True, "index": index, "arrival": stamped}

    def handle_line(self, line: str) -> dict:
        line = line.strip()
        if not line:
            return {"ok": False, "error": "empty line"}
        try:
            payload = json.loads(line)
        except ValueError as exc:
            return {"ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(payload, dict):
            return {"ok": False, "error": "expected a JSON object"}
        unknown = set(payload) - {"arrival", "size"}
        if unknown:
            return {"ok": False, "error": f"unknown fields {sorted(unknown)}"}
        arrival = payload.get("arrival")
        size = payload.get("size")
        for name, value in (("arrival", arrival), ("size", size)):
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                return {"ok": False, "error": f"{name} must be a number"}
        return self.submit(arrival=arrival, size=size)


def _bits(record: tuple) -> tuple:
    """A staged record by type and IEEE bit pattern (-0.0 is not 0.0)."""
    return tuple(
        None if x is None else (type(x).__name__, struct.pack("<d", x))
        for x in record
    )


#: Numbers on the edges of the float conversion: integers beyond the
#: float range, next to ordinary values.
_EDGE_NUMBERS = st.sampled_from(
    [0, 1, 1.0, 2**1024, -(2**1024), 10**400, -(10**400)]
) | st.floats(min_value=-2.0, max_value=8.0)
#: Signed zeros: at a 0.0 floor, ``max`` keeps its first argument on a
#: tie, so a -0.0 arrival stages as -0.0.
_SIGNED_ZERO_LINES = st.sampled_from(
    [
        '{"arrival": -0.0}',
        '{"arrival": 0.0}',
        '{"arrival": -0}',
        '{"arrival": -0.0, "size": 1.0}',
        '{"size": -0.0}',
    ]
)
#: Lines JSON-encoding leaves out: a byte-order mark, trailing data,
#: white space around a value, a repeated key.
_RAW_LINES = st.sampled_from(
    [
        '\ufeff{"arrival": 1.0}',
        '{"arrival": 1.0} x',
        '{"arrival": 1.0}{}',
        '{"arrival": 1.0}\t\n',
        ' \x0b{"arrival": 2.5, "size": 1}\r',
        '{"arrival": 1.0, "arrival": 3.0}',
        '{"arrival": true}',
        '{"size": 1e400}',
        '{"arrival": 1} // note',
        "NaN",
        "[{}]",
    ]
)
_DIFFERENTIAL_LINES = (
    _LINES
    | st.fixed_dictionaries(
        {}, optional={"arrival": _EDGE_NUMBERS, "size": _EDGE_NUMBERS}
    ).map(json.dumps)
    | _SIGNED_ZERO_LINES
    | _RAW_LINES
)


class TestReferenceDifferential:
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.0, 0.5, 3.0, MAX_LEAD]),
                _DIFFERENTIAL_LINES,
            ),
            max_size=12,
        )
    )
    @example(steps=[(0.0, '{"arrival": -0.0}')])
    @example(steps=[(0.0, '{"arrival": 1.0}'), (0.0, '{"size": true}')])
    @example(steps=[(2.0, '{"arrival": 1.5}'), (0.0, '{"arrival": 1.0} x')])
    def test_replies_and_records_match_line_for_line(self, steps):
        harness = _plain_harness()
        server = IngestServer(harness)
        reference = _ReferenceIngest(clock=lambda: harness.sim.now)
        for advance, line in steps:
            if advance:
                # An unstarted harness: the clock moves, nothing fires.
                harness.sim.run(until=harness.sim.now + advance)
            # repr tells -0.0 from 0.0 and an int from a float.
            assert repr(server.handle_line(line)) == repr(
                reference.handle_line(line)
            )
        staged = list(zip(harness.source._arrivals, harness.source._sizes))
        assert [_bits(r) for r in staged] == [_bits(r) for r in reference.records]
        assert server.accepted == len(staged)
        assert server.accepted + server.malformed == len(steps)
