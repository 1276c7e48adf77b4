"""The block CSV parser against its line-at-a-time reference.

``RecordBatch.from_csv`` parses blocks of canonical lines with array
operations and hands every other block to ``_parse_csv_lines``.  The
property here writes mixes of canonical, non-canonical-but-valid and
malformed lines (CRLF and bare CR endings, a missing final newline,
bytes that are not UTF-8) and demands the same batch as the line parser
alone, in both error modes: bit-identical columns, the same
``taxi_table`` order, the same ``skipped_lines``, and the same first
error message.  Small block sizes put the odd lines first and last in
their blocks.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.columnar.batch as batch_module
from repro.columnar import RecordBatch
from repro.columnar.batch import _parse_csv_lines, open_csv
from repro.states.states import TaxiState
from repro.trace.record import MdtRecord

HEADER = (MdtRecord.CSV_HEADER + "\n").encode()
STATES = [state.value for state in TaxiState]


def line_parser_batch(path: Path, on_error: str) -> RecordBatch:
    """The reference: every line through ``_parse_csv_lines``."""
    batch = RecordBatch()
    with open_csv(path) as fh:
        for fields in _parse_csv_lines(fh, on_error):
            if fields is None:
                batch.skipped_lines += 1
            else:
                batch.append_fields(*fields)
    return batch


def outcome(parse, path: Path, on_error: str):
    """The batch's exact contents, or the error message."""
    try:
        batch = parse(path, on_error)
    except ValueError as exc:
        return "ValueError", str(exc)
    return (
        batch.ts.tobytes(),
        batch.lon.tobytes(),
        batch.lat.tobytes(),
        batch.speed.tobytes(),
        batch.state.tobytes(),
        batch.taxi.tobytes(),
        batch.taxi_table,
        batch.skipped_lines,
    )


def assert_parsers_agree(data: bytes, block_chars: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "day.csv"
        path.write_bytes(data)
        for on_error in ("skip", "raise"):
            with mock.patch.object(batch_module, "BLOCK_CHARS", block_chars):
                blocks = outcome(RecordBatch.from_csv, path, on_error)
            assert blocks == outcome(line_parser_batch, path, on_error)


#: Block sizes in characters: one line a block, a few, and the default.
BLOCK_SIZES = [1, 60, 100, 150, 400, batch_module.BLOCK_CHARS]


# -- line strategies ------------------------------------------------------------

_stamp = st.builds(
    "{:02d}/{:02d}/{:04d} {:02d}:{:02d}:{:02d}".format,
    st.integers(1, 28),
    st.sampled_from([1, 8, 12]),
    st.sampled_from([1969, 2008, 2024]),
    st.integers(0, 23),
    st.integers(0, 59),
    st.integers(0, 59),
)
_taxi = st.one_of(
    st.sampled_from(["SH0001A", "SH0002B", "SH0003C", "T9"]),
    st.text(
        st.characters(blacklist_characters=",\n\r", blacklist_categories=["Cs"]),
        min_size=1,
        max_size=9,
    ),
)
_decimal = st.one_of(
    st.builds(
        "{:.{}f}".format,
        st.floats(-250, 250, allow_nan=False),
        st.integers(0, 9),
    ),
    st.integers(-999, 999).map(str),
    st.sampled_from([
        "-0.0", "0", "5.", "007.50", "103.889727", "1.242012",
        # The widest the block parser takes: 15 characters.
        "999999999999999", "-99999999999999", "12345678901.234",
    ]),
)
_canonical = st.builds(
    lambda *fields: ",".join(fields),
    _stamp, _taxi, _decimal, _decimal, _decimal, st.sampled_from(STATES),
)

#: Valid lines off the canonical shape: each is parsed by the line parser.
_ODD_VALUES = [
    " 1.5", "1.5 ", "+1.5", ".5", "1_0", "1e2", "١٢",
    # Too wide for an exact integer of digits: 16 to 18 characters.
    "9007199254740993", "12345678901234.57", "0.1234567890123456",
]
_ODD_STAMPS = [" 01/08/2008 10:00:00", "01/08/2008 10:00:00 ", "1/8/2008 10:00:00"]
_ODD_STATES = ["free", " POB", "Oncall "]

#: Malformed lines: each is skipped (or raises).
_BAD_VALUES = [
    "nope", "inf", "-inf", "nan", "", "-", "1.2.3", "123.4.5", "--1", "1-2",
]
_BAD_STAMPS = [
    "31/02/2008 10:00:00", "01/13/2008 10:00:00", "00/08/2008 10:00:00",
    "01/08/2008 24:00:00", "01/08/2008 23:59:60", "01/08/0000 10:00:00",
    "٠١/٠٨/٢٠٠٨ ١٠:٠٠:٠٠", "garbage",
]
_BAD_STATES = ["WARP", "", "FREEE", "FREE\x00"]


@st.composite
def _variant(draw, canonical_line: str) -> str:
    """A canonical line with one field swapped for an odd or bad one."""
    fields = canonical_line.split(",")
    kind = draw(st.sampled_from(["value", "stamp", "state", "arity", "taxi"]))
    if kind == "value":
        column = draw(st.integers(2, 4))
        fields[column] = draw(st.sampled_from(_ODD_VALUES + _BAD_VALUES))
    elif kind == "stamp":
        fields[0] = draw(st.sampled_from(_ODD_STAMPS + _BAD_STAMPS))
    elif kind == "state":
        fields[5] = draw(st.sampled_from(_ODD_STATES + _BAD_STATES))
    elif kind == "arity":
        fields = fields[:-1] if draw(st.booleans()) else fields + ["x"]
    else:
        fields[1] = ""
    return ",".join(fields)


@st.composite
def _line(draw) -> bytes:
    canonical = draw(_canonical)
    kind = draw(
        st.sampled_from(["canonical"] * 6 + ["variant", "blank", "undecodable"])
    )
    if kind == "canonical":
        return canonical.encode()
    if kind == "variant":
        return draw(_variant(canonical)).encode()
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"])).encode()
    # Bytes that are not UTF-8: a Latin-1 byte, a stray continuation
    # byte or a truncated sequence, inside or at the end of a line.
    junk = draw(st.sampled_from([b"\xe9", b"\x80", b"\xe2\x82", b"\xff"]))
    raw = canonical.encode()
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + junk + raw[at:]


@st.composite
def csv_bytes(draw) -> bytes:
    lines = draw(st.lists(_line(), min_size=1, max_size=40))
    endings = draw(
        st.lists(
            st.sampled_from([b"\n"] * 6 + [b"\r\n", b"\r"]),
            min_size=len(lines),
            max_size=len(lines),
        )
    )
    body = b"".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        body = body.rstrip(b"\r\n")  # no final newline
    return HEADER + body


# -- the property -----------------------------------------------------------------


class TestBlockParserMatchesLineParser:
    @settings(max_examples=300, deadline=None)
    @given(csv_bytes(), st.sampled_from(BLOCK_SIZES))
    @example(
        HEADER + b"01/08/2008 10:00:00,SH0001A,103.8,1.3,5.0,free\n"
        b"01/08/2008 10:00:01,SH0001A,103.8,1.3,5.0,FREE\n",
        1,
    )
    @example(
        HEADER + b"01/08/2008 10:00:00,SH0001A,103.8,1.3,5.0,FREE\n"
        b"31/02/2008 10:00:01,SH0001A,103.8,1.3,5.0,FREE",
        100,
    )
    @example(
        HEADER + b"01/08/2008 10:00:00,SH\xe9,103.8,1.3,5.0,FREE\r\n",
        batch_module.BLOCK_CHARS,
    )
    def test_same_batch_in_both_error_modes(self, data, block_chars):
        assert_parsers_agree(data, block_chars)

    @pytest.mark.parametrize("position", ["first", "last"])
    @pytest.mark.parametrize(
        "column, text",
        [(2, v) for v in _ODD_VALUES + _BAD_VALUES]
        + [(0, v) for v in _ODD_STAMPS + _BAD_STAMPS]
        + [(5, v) for v in _ODD_STATES + _BAD_STATES]
        + [(1, "")],
    )
    def test_each_listed_case_in_a_canonical_block(self, column, text, position):
        lines = [
            f"01/08/2008 10:00:0{i},SH000{i}A,103.8{i},1.3,5.0,FREE"
            for i in range(4)
        ]
        at = 0 if position == "first" else -1
        fields = lines[at].split(",")
        fields[column] = text
        lines[at] = ",".join(fields)
        data = HEADER + "".join(line + "\n" for line in lines).encode()
        # One block, and blocks of two or three lines.
        for block_chars in (batch_module.BLOCK_CHARS, 100, 150):
            assert_parsers_agree(data, block_chars)

    def test_ids_apart_only_by_trailing_nul_bytes_stay_apart(self):
        data = HEADER + (
            b"01/08/2008 10:00:00,SH1,103.8,1.3,5.0,FREE\n"
            b"01/08/2008 10:00:01,SH1\x00,103.8,1.3,5.0,FREE\n"
            b"01/08/2008 10:00:02,SH1\x00\x00,103.8,1.3,5.0,FREE\n"
        )
        assert_parsers_agree(data, batch_module.BLOCK_CHARS)

    def test_misaligned_fields_are_not_canonical(self):
        # Seven fields then five: the field count of the two lines adds
        # up, and every column would pass its own check if the second
        # line's fields slid into the first's row.
        data = HEADER + (
            b"01/08/2008 10:00:00,SH0001A,1.0,2.0,3.0,FREE,01/08/2008 10:00:01\n"
            b"01/08/2008 10:00:02,123,103.8,1.3,FREE\n"
        )
        assert_parsers_agree(data, batch_module.BLOCK_CHARS)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "day.csv"
            path.write_bytes(data)
            assert RecordBatch.from_csv(path, on_error="skip").skipped_lines == 2


class TestUndecodableLine:
    def test_skip_mode_counts_it(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            HEADER
            + b"01/08/2008 10:00:00,SH0001\xe9,103.8,1.3,5.0,FREE\n"
            + b"01/08/2008 10:00:01,SH0002A,103.8,1.3,5.0,FREE\n"
        )
        batch = RecordBatch.from_csv(path, on_error="skip")
        assert batch.skipped_lines == 1
        assert batch.taxi_table == ["SH0002A"]

    def test_raise_mode_names_the_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(
            HEADER + b"01/08/2008 10:00:00,SH0001\xe9,103.8,1.3,5.0,FREE\n"
        )
        with pytest.raises(ValueError, match=r"not valid UTF-8: .*SH0001\\xe9"):
            RecordBatch.from_csv(path)

