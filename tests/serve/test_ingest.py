"""IngestServer: the JSON-lines front door, with and without sockets."""

from __future__ import annotations

import asyncio
import json
import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults.retry import RetryPolicy
from repro.serve import IngestServer, ServiceHarness
from repro.serve.autoscaler import AutoscalerConfig
from repro.serve.ingest import MAX_LEAD, MAX_SIZE, MIN_SIZE

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
