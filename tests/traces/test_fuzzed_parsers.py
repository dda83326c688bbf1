"""Fuzzed SPC and HPL trace input: a finite record or a located refusal.

Trace files come from outside the process.  Every line either parses to
a record whose timestamp is finite and non-negative, or raises
``TraceFormatError`` naming its line; no other exception escapes, from
a single line or from a whole file.
"""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.exceptions import TraceFormatError
from repro.traces import hpl, spc

_NUMBERS = st.one_of(
    st.integers(),
    st.floats(),  # NaN and +-inf included
    st.floats(min_value=0.0, max_value=1e4),
    st.sampled_from([-0.0, 5e-324, 1e308, 10**400, -(10**30)]),
).map(str) | st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e-9", "0x10", "1_0", " 7 "]
)
_FIELDS = st.one_of(
    _NUMBERS,
    st.sampled_from(["r", "R", "w", "W", "read", "write", "q", "", "#"]),
    st.text(max_size=6),
)


def _lines(separator: str):
    return st.lists(_FIELDS, max_size=7).map(separator.join) | st.text(max_size=30)


SPC_LINES = _lines(",")
HPL_LINES = _lines(" ") | _lines("\t")

FORMATS = {
    "spc": (spc, SPC_LINES),
    "hpl": (hpl, HPL_LINES),
}


def _parse(module, line: str, number: int):
    """The parsed record (``None`` for a skipped line), or the refusal."""
    try:
        return module.parse_line(line, line_number=number)
    except TraceFormatError as exc:
        assert exc.line_number == number
        assert str(exc).startswith(f"line {number}: ")
        return exc


def _assert_finite(record) -> None:
    assert math.isfinite(record.timestamp) and record.timestamp >= 0


def _expected(module, text: str):
    """Records of ``text`` line by line, or the first line's refusal."""
    records = []
    for number, line in enumerate(io.StringIO(text), start=1):
        if module is spc and not line.strip():
            continue  # SPC files skip blank lines before parsing
        parsed = _parse(module, line, number)
        if isinstance(parsed, TraceFormatError):
            return parsed
        if parsed is not None:
            records.append(parsed)
    return records


class TestFuzzedLines:
    @given(line=SPC_LINES)
    @example(line="0,1,512,r,nan")
    @example(line="0,1,512,r,-inf")
    @example(line="0,1,512,r,-1.5")
    @example(line="0,1,-512,r,1.5")
    def test_spc_line(self, line):
        parsed = _parse(spc, line, 7)
        if not isinstance(parsed, TraceFormatError):
            _assert_finite(parsed)

    @given(line=HPL_LINES)
    @example(line="nan 0 1 512 R")
    @example(line="inf 0 1 512 R")
    @example(line="-1.0 0 1 512 R")
    @example(line="1.0 0 1 -512 R")
    def test_hpl_line(self, line):
        parsed = _parse(hpl, line, 7)
        if parsed is not None and not isinstance(parsed, TraceFormatError):
            _assert_finite(parsed)

    @pytest.mark.parametrize(
        ("module", "line"),
        [(spc, "0,1,512,r,nan"), (spc, "0,1,512,r,-1"), (hpl, "inf 0 1 512 R")],
    )
    def test_timestamp_refusals_name_the_line(self, module, line):
        with pytest.raises(TraceFormatError, match="^line 3: .*timestamp"):
            module.parse_line(line, line_number=3)


class TestFuzzedFiles:
    @pytest.mark.parametrize("name", sorted(FORMATS))
    @given(data=st.data())
    def test_file_reads_whole_or_refuses_its_first_bad_line(self, name, data):
        module, lines = FORMATS[name]
        text = "\n".join(data.draw(st.lists(lines, max_size=8)))
        expected = _expected(module, text)
        try:
            records = list(module.iter_records(io.StringIO(text)))
        except TraceFormatError as exc:
            assert isinstance(expected, TraceFormatError)
            assert exc.line_number == expected.line_number
            return
        assert not isinstance(expected, TraceFormatError), expected
        assert records == expected
        for record in records:
            _assert_finite(record)
        workload = module.read_workload(io.StringIO(text))
        assert len(workload) == len(records)
