import io
import math
import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT
from support import (SHARED_CPU, STOPPING_FORK, cut, failing_helpers, helpers_send, noisy_quadratic, run_isolated,
                     share_the_cpu, wait_long)

from quadfit import (
    CsvError,
    CsvSchema,
    DegenerateAbscissa,
    EmptyData,
    InsufficientData,
    InvalidEncoding,
    MalformedRow,
    MissingColumn,
    NonNumericValue,
    Series,
    parse_csv,
)
from quadfit import ingest
from quadfit.ingest import _BLOCK_BYTES, _plain_columns, _reader_columns, validate_series


def parse(text: str, **schema_kwargs) -> Series:
    schema = CsvSchema(**schema_kwargs) if schema_kwargs else CsvSchema()
    return parse_csv(text.encode("utf-8"), schema)


class TestParseCsv:
    def test_minimal_file(self):
        s = parse("Month,Values\n1,10.5\n2,12.0\n")
        assert s.xs == (1.0, 2.0)
        assert s.ys == (10.5, 12.0)

    def test_extra_column_ignored(self):
        s = parse("Month,Extra,Values\n1,x,3\n")
        assert s.xs == (1.0,) and s.ys == (3.0,)

    def test_non_numeric_cell(self):
        with pytest.raises(NonNumericValue) as exc:
            parse("Month,Values\n1,abc\n")
        assert exc.value.row == 1
        assert exc.value.column == "Values"
        assert exc.value.value == "abc"

    def test_blank_cell(self):
        with pytest.raises(NonNumericValue):
            parse("Month,Values\n1,\n")

    def test_nan_and_inf_rejected(self):
        for cell in ("nan", "inf", "-inf", "Infinity"):
            with pytest.raises(NonNumericValue):
                parse(f"Month,Values\n1,{cell}\n")

    def test_row_number_is_one_based_data_row(self):
        with pytest.raises(NonNumericValue) as exc:
            parse("Month,Values\n1,2\n2,3\nx,4\n")
        assert exc.value.row == 3
        assert exc.value.column == "Month"

    def test_missing_column(self):
        with pytest.raises(MissingColumn) as exc:
            parse("Month,Numbers\n1,2\n")
        assert exc.value.column == "Values"

    def test_malformed_row(self):
        with pytest.raises(MalformedRow) as exc:
            parse("Month,Values\n1,2\n3\n")
        assert exc.value.row == 2
        assert (exc.value.expected, exc.value.got) == (2, 1)

    @pytest.mark.parametrize("text, row, message", [
        (f'"{"M" * 131073}",Values\n1,2\n', 0,
         "header: field larger than field limit (131072)"),
        (f'Month,Values\n"{"1" * 131073}",2\n', 1,
         "row 1: field larger than field limit (131072)"),
        (f'{"M" * 131073},Month,Values\n1,2,3\n', 0,
         "header: field larger than field limit (131072)"),
        (f'Month,Values,Note\n1,2,3\n4,5,{"6" * 131073}\n', 2,
         "row 2: field larger than field limit (131072)"),
        (f'Month,Values\n1,2\n{"3" * 131073},4\n', 2,
         "row 2: field larger than field limit (131072)"),
        ('Month,Values\n1,1\n2,"2\n3,3\n', 2, "row 2: unexpected end of data"),
    ], ids=["header", "data-row", "unquoted-header", "unquoted-unused", "unquoted-selected",
            "unbalanced-quote"])
    def test_csv_error_names_row_and_reason(self, text, row, message):
        # A field past csv.field_size_limit(), quoted or not, or a quote
        # left open to the end of the file, is a csv.Error, which must
        # reach the user with csv's own reason, not a field count or a
        # non-numeric cell.
        with pytest.raises(MalformedRow) as exc:
            parse(text)
        assert exc.value.row == row
        assert str(exc.value) == message

    def test_empty_input(self):
        with pytest.raises(EmptyData):
            parse("")

    def test_header_only(self):
        with pytest.raises(EmptyData):
            parse("Month,Values\n")

    def test_invalid_encoding(self):
        with pytest.raises(InvalidEncoding):
            parse_csv(b"Month,Values\n1,\xff\n")

    def test_bom_skipped(self):
        s = parse_csv("﻿Month,Values\n1,2\n".encode("utf-8"))
        assert s.xs == (1.0,)

    def test_crlf(self):
        s = parse("Month,Values\r\n1,2\r\n3,4\r\n")
        assert s.xs == (1.0, 3.0)

    def test_no_trailing_newline(self):
        s = parse("Month,Values\n1,2")
        assert s.ys == (2.0,)

    def test_quoted_fields(self):
        s = parse('Month,Values\n"1","2.5"\n')
        assert s.ys == (2.5,)

    def test_quoted_delimiter_inside_field(self):
        s = parse('Note,Month,Values\n"a,b",1,2\n')
        assert s.xs == (1.0,)

    def test_whitespace_trimmed(self):
        s = parse("Month,Values\n 1 ,  2.5\n")
        assert s.xs == (1.0,) and s.ys == (2.5,)

    def test_header_whitespace_trimmed(self):
        s = parse(" Month , Values \n1,2\n")
        assert s.xs == (1.0,)

    def test_scientific_notation(self):
        s = parse("Month,Values\n1,1.5e2\n")
        assert s.ys == (150.0,)

    def test_row_order_preserved(self):
        s = parse("Month,Values\n3,30\n1,10\n2,20\n")
        assert s.xs == (3.0, 1.0, 2.0)
        assert s.ys == (30.0, 10.0, 20.0)

    def test_reads_binary_stream(self):
        stream = io.BytesIO(b"Month,Values\n1,2\n")
        assert parse_csv(stream).xs == (1.0,)

    @pytest.mark.parametrize("data", ["Month,Values\n1,2\n", io.StringIO("Month,Values\n1,2\n")],
                             ids=["str", "text-stream"])
    def test_text_is_refused_by_name(self, data):
        with pytest.raises(TypeError, match="^parse_csv needs bytes or a binary stream, got str$"):
            parse_csv(data)

    def test_custom_schema(self):
        s = parse("t,v\n1,2\n", x_column="t", y_column="v")
        assert s.xs == (1.0,)


class TestErrorPrecedence:
    """The first bad row is reported, whatever is wrong with later rows."""

    def test_bad_cell_before_short_row(self):
        with pytest.raises(NonNumericValue) as exc:
            parse("Month,Values\n1,2\n2,abc\n3,4\n4\n")
        assert (exc.value.row, exc.value.column, exc.value.value) == (2, "Values", "abc")

    def test_short_row_before_bad_cell(self):
        with pytest.raises(MalformedRow) as exc:
            parse("Month,Values\n1,2\n2\n3,4\n4,abc\n")
        assert exc.value.row == 2
        assert (exc.value.expected, exc.value.got) == (2, 1)

    def test_x_column_named_before_y(self):
        with pytest.raises(NonNumericValue) as exc:
            parse("Values,Month\n1,2\nbad y,bad x\n")
        assert (exc.value.row, exc.value.column, exc.value.value) == (2, "Month", "bad x")

    @pytest.mark.parametrize("cell, shown", [
        ("inf", "inf"), ("1e999", "1e999"), (" nan ", "nan"), ("-Infinity ", "-Infinity"),
        ("\u00a0 ", ""), ("1 000", "1 000"),
    ])
    def test_bad_cell_names_its_stripped_text(self, cell, shown):
        with pytest.raises(NonNumericValue) as exc:
            parse(f"Month,Values\n1,2\n2,{cell}\n")
        assert (exc.value.row, exc.value.column, exc.value.value) == (2, "Values", shown)

    def test_bad_cell_before_csv_error(self):
        with pytest.raises(NonNumericValue) as exc:
            parse('Month,Values\n1,abc\n2,"3\n')
        assert exc.value.row == 1

    @pytest.mark.parametrize("cell, value", [
        ("\u00a012.5\u2003", 12.5),
        ("\u3000-3\u2028", -3.0),
        ("\t7\x0b\x0c", 7.0),
        ("\x1c8\x1f", 8.0),  # str.strip() removes these, float() does not
    ])
    def test_underscored_and_space_padded_cells(self, cell, value):
        # Padding that str.strip() removes may be any whitespace; underscored
        # cells are refused (test_cell_outside_the_grammar).
        s = parse(f"Month,Values\n{cell},{cell}\n")
        assert s.xs == (value,) and s.ys == (value,)


class TestNumericCellGrammar:
    """A selected cell, stripped, is ASCII and holds no "_", though float()
    also reads digit separators and the digits of other scripts."""

    @pytest.mark.parametrize("cell", [
        "1_0", "1_000", "\u0662", "\uff13", "\u0661\u0662", "1\u0662", " \uff13 ", "_1",
    ])
    def test_cell_outside_the_grammar(self, cell):
        with pytest.raises(NonNumericValue) as exc:
            parse(f"Month,Values\n1,2\n2,{cell}\n3,4\n")
        assert (exc.value.row, exc.value.column, exc.value.value) == (2, "Values", cell.strip())

    def test_x_cell_named_before_y(self):
        with pytest.raises(NonNumericValue) as exc:
            parse("Month,Values\n1,2\n\uff12,1_0\n")
        assert (exc.value.row, exc.value.column, exc.value.value) == (2, "Month", "\uff12")

    @pytest.mark.parametrize("header, row", [
        ("station_id,Month,Values", "kyiv_1,1,2"),
        ("Станція,Month,Values", "Щербаківська,1,2"),
        ("Month,Values,note_\u00e9", "1,2,\u0662_\uff13"),
    ], ids=["underscore", "cyrillic", "both"])
    def test_unused_columns_may_hold_anything(self, header, row):
        s = parse(f"{header}\n{row}\n")
        assert s.xs == (1.0,) and s.ys == (2.0,)

    def test_selected_column_names_may_hold_anything(self):
        s = parse("month_no,Значення\n1,2\n", x_column="month_no", y_column="Значення")
        assert s.xs == (1.0,) and s.ys == (2.0,)


def outcome(parse, data, schema=CsvSchema()):
    """What parse makes of data: the reprs of its columns and their bounds,
    or its error."""
    try:
        columns = parse(data, schema)
    except CsvError as exc:
        return type(exc).__name__, str(exc)
    return tuple(repr(list(column)) for column in columns)


def parsed_columns(data, schema):
    series = parse_csv(data, schema)
    return series.xs, series.ys, series._x_bounds, series._y_bounds


# Cells of plain input, as the split path takes it: numbers, with padding
# that float() strips from bytes too.
PLAIN_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["1", "-2.5", " 3 ", "4E2", "+.5", "-0", "0012", "\t7", "\x0b6\x0c"])
# Cells that are not plain: blank or not numbers, forms that float() reads
# but the cell grammar refuses or that float() reads only from a stripped
# str, values that are not finite, and quotes, NULs and line breaks.
ODD_CELLS = ["", "x", "1_0", "\u0662", "\xa01", "\x1c8", "nan", "-inf", "1e999", '"5"',
             '"1,2"', "a\x00b", "1\r", "1\n2"]
# Bytes written over or into the input anywhere, the header included.
EDITS = [b'"', b'"a,b"', b"_", b"\x00", b"\r", b"\n", b"\r\n", b",", b"", b"\x0c",
         "é".encode(), b"\xef\xbb\xbf", b"\xff"]
SCHEMAS = [CsvSchema(), CsvSchema("Values", "Month"), CsvSchema("station_id", "Значення")]


@st.composite
def csv_bytes(draw):
    """CSV input and a schema: plain input, with up to two defects."""
    schema = draw(st.sampled_from(SCHEMAS))
    extra = draw(st.lists(st.sampled_from(["Note", "station_id", "Значення", "", '"a,b"']),
                          max_size=2))
    names = draw(st.permutations([schema.x_column, schema.y_column] + extra))
    names = [draw(st.sampled_from(["{}", " {} ", "{}\t"])).format(name) for name in names]
    width = len(names)
    counts = draw(st.lists(st.sampled_from([width] * 20 + [0, width - 1, width + 1]),
                           max_size=6))
    rows = [draw(st.lists(PLAIN_CELLS, min_size=n, max_size=n)) for n in counts]
    byte_edits = 0
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        row = draw(st.sampled_from(rows)) if rows else []
        if row and draw(st.integers(0, 3)):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        else:
            byte_edits += 1
    lines = [",".join(names)] + [",".join(row) for row in rows]
    if draw(st.integers(0, 4)) == 4:
        # Longer than a block, anywhere among the drawn rows.
        plain = ",".join(f"{k}.25" for k in range(width))
        at = draw(st.integers(1, len(lines)))
        lines[at:at] = [plain] * (_BLOCK_BYTES // len(plain) + 1)
    data = (draw(st.sampled_from(["\n", "\r\n"])).join(lines)
            + draw(st.sampled_from(["\n", "\r\n", ""]))).encode("utf-8")
    for _ in range(byte_edits):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(EDITS)) + data[at + draw(st.integers(0, 2)):]
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + data, schema


class TestPlainColumns:
    """The split path takes plain input and gives the csv reader's values;
    on any other input it declines, and the reader path decides."""

    @settings(max_examples=300, deadline=None)
    @given(case=csv_bytes())
    def test_split_path_agrees_with_the_reader_or_declines(self, case):
        data, schema = case
        body = data.removeprefix(b"\xef\xbb\xbf")  # as parse_csv hands it on
        got = _plain_columns(body, schema)
        if got is not None:
            assert repr(got) == repr(_reader_columns(body, schema))
        assert outcome(parsed_columns, data, schema) == outcome(_reader_columns, body, schema)

    BULK = "".join(f"{1 + 11 * i / 999:.6f},{40 + i % 17 * 0.37:.4f}\n" for i in range(1000))

    @pytest.mark.parametrize("text, schema", [
        ("Month,Values\n" + BULK, CsvSchema()),
        (("Month,Values\n" + BULK).replace("\n", "\r\n"), CsvSchema()),
        ("Month,Values\n" + BULK.rstrip("\n"), CsvSchema()),
        ("Note,Values,Month,Extra\n1,2,3,4\n5,6,7,8\n", CsvSchema()),
        (" station_id , Значення\n1,2\n", CsvSchema("station_id", "Значення")),
        ((REPO_ROOT / "data" / "pm25_monthly.csv").read_text(encoding="utf-8"), CsvSchema()),
    ], ids=["lf", "crlf", "no-final-newline", "extra-columns", "named-columns", "bundled-data"])
    def test_plain_input_takes_the_split_path(self, text, schema):
        data = text.encode("utf-8")
        got = _plain_columns(data, schema)
        assert got is not None and repr(got) == repr(_reader_columns(data, schema))

    def test_bulk_input_spans_blocks(self):
        data = ("Month,Values\n" + self.BULK * 8).encode("ascii")
        assert len(data) > 2 * _BLOCK_BYTES
        got = _plain_columns(data, CsvSchema())
        assert got is not None and repr(got) == repr(_reader_columns(data, CsvSchema()))

    def test_crlf_in_a_later_block_only(self):
        # The first block is LF only and is not copied to replace CRLF; the
        # blocks after it hold CRLF endings, which are.
        data = ("Month,Values\n" + self.BULK * 5
                + (self.BULK * 4).replace("\n", "\r\n")).encode("ascii")
        assert len(data) > 2 * _BLOCK_BYTES and data.index(b"\r") > _BLOCK_BYTES + 100
        got = _plain_columns(data, CsvSchema())
        assert got is not None and repr(got) == repr(_reader_columns(data, CsvSchema()))

    def test_lone_cr_in_a_later_lf_only_block_declines(self):
        # float() would read the cell b"\r2" as 2.0; the reader ends the
        # row at the CR.
        data = ("Month,Values\n" + self.BULK * 5 + "1,\r2\n" + self.BULK).encode("ascii")
        assert data.index(b"\r") > _BLOCK_BYTES + 100
        assert _plain_columns(data, CsvSchema()) is None
        assert outcome(parsed_columns, data) == outcome(_reader_columns, data)

    def test_overflowing_column_sum_declines_to_the_reader(self):
        data = b"Month,Values\n1.7e308,1\n1.7e308,2\n"
        assert _plain_columns(data, CsvSchema()) is None
        assert parse_csv(data) == Series((1.7e308, 1.7e308), (1.0, 2.0))

    def test_opposite_infinities_in_one_column_decline(self):
        # Their sum is nan, not inf; the reader names the first of them.
        data = b"Month,Values\n1,1e999\n2,-1e999\n"
        assert _plain_columns(data, CsvSchema()) is None
        with pytest.raises(NonNumericValue) as exc:
            parse_csv(data)
        assert (exc.value.row, exc.value.column, exc.value.value) == (1, "Values", "1e999")

    @pytest.mark.parametrize("data", [
        b"Month,Values",
        b'"Month",Values\n1,2\n',
        b"Month,Values\xff\n1,2\n",
        b"Month,Value\n1,2\n",
        b"Month,Values,Note\n1,2,\xc3\xa9\n",
        b'Month,Values,Note\n1,2,"a"\n',
        b"Month,Values,Note\n1,2,a_b\n",
        b"Month,Values,Note\n1,2,a\x00b\n",
        b"Month,Values\n1,2\r3,4\n",
        b"Month,Values\n1,2,3\n4\n",
        b"Month,Values\n1,2\n\n",
        b"Month,Values,Note\n1,2," + b"3" * 131073 + b"\n",
        b"Month,Values\n",
        b"Month,Values\n1,abc\n",
        b"Month,Values\n1,\x1c8\n",
        b"Month,Values\n1,nan\n",
        b"Month,Values\n1e999,2\n",
    ], ids=["no-newline", "quoted-header", "header-not-utf8", "missing-column", "non-ascii-row",
            "quote", "underscore", "nul", "lone-cr", "commas-right-only-in-total", "blank-row",
            "row-past-field-limit", "no-rows", "not-a-float", "float-rejects-unstripped",
            "nan", "overflow"])
    def test_other_input_is_declined(self, data):
        assert _plain_columns(data, CsvSchema()) is None

    def test_nul_in_unused_column_follows_the_reader(self):
        # Python 3.10's reader refuses a NUL anywhere in a line; later ones
        # keep it as a character.  The split path declines, so parse_csv
        # does whatever the running interpreter's reader does.
        data = b"Month,Values,Note\n1,2,a\x00b\n"
        assert _plain_columns(data, CsvSchema()) is None
        assert outcome(parsed_columns, data) == outcome(_reader_columns, data)


def series_outcome(data, schema=CsvSchema()):
    """parse_csv's Series as its repr and its bounds in hex, or its error's
    type, message and row."""
    try:
        series = parse_csv(data, schema)
    except CsvError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "row", None)
    return repr(series), [bound.hex() for bound in series._x_bounds + series._y_bounds]


def split_and_in_process(monkeypatch, data, schema=CsvSchema(), split_min=0):
    """series_outcome of data where inputs of split_min bytes or more are
    split, the number of helpers that parse forked, and series_outcome of
    data parsed in process.  No helper outlives the split parse."""
    share_the_cpu(monkeypatch)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(ingest, "_SPLIT_MIN_BYTES", split_min)
    split = series_outcome(data, schema)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(ingest, "_SPLIT_MIN_BYTES", math.inf)
    return split, len(forks), series_outcome(data, schema)


@pytest.fixture
def parsed_here(monkeypatch):
    """One entry for each run of rows _plain_rows parses in this process."""
    calls, rows = [], ingest._plain_rows
    monkeypatch.setattr(ingest, "_plain_rows", lambda *args: calls.append(args[1:3]) or rows(*args))
    return calls


def plain_rows(count: int, width: int = 3, end: str = "\n") -> list[str]:
    """count distinct plain rows of width cells, each ending in end."""
    return [",".join([f"{i + 1}", f"{(i * 7919) % 101 / 8}", "n"][:width]) + end for i in range(count)]


@pytest.mark.forks
class TestSplitParse:
    """From _SPLIT_MIN_BYTES of input a helper process parses the plain
    path's last rows.  Every input gives the Series of the parse in process,
    bounds to the bit, or its error with the same row."""

    @settings(max_examples=200, deadline=None)
    @given(case=csv_bytes())
    def test_every_drawn_input_parses_as_in_process(self, case):
        with pytest.MonkeyPatch.context() as monkeypatch:
            split, _, alone = split_and_in_process(monkeypatch, *case)
        assert split == alone

    @pytest.mark.parametrize("below", [0, 1], ids=["at", "one-byte-below"])
    def test_the_threshold_is_a_size_in_bytes(self, below, monkeypatch):
        size = ingest._SPLIT_MIN_BYTES - below
        head = "Month,Values\n"
        rows = [f"{i:07d},2.5\n" for i in range((size - len(head)) // 12 - 1)]
        rows[0] = rows[0].replace(",", "," + " " * (size - len(head) - 12 * len(rows)))
        data = (head + "".join(rows)).encode("ascii")
        assert len(data) == size
        split, forks, alone = split_and_in_process(monkeypatch, data, split_min=ingest._SPLIT_MIN_BYTES)
        assert (split, forks) == (alone, 1 - below)
        assert alone[0].startswith("Series(")

    @pytest.mark.parametrize("at", [b"\r", b"\n", b","])
    def test_a_cut_inside_a_crlf_block(self, at, monkeypatch):
        # The byte after _SPLIT_SHARE of the rows' bytes is the CR or the LF
        # of a CRLF ending, or a comma; the cut is at the first LF from it.
        # Padding the last cell moves that byte.
        head = b"Month,Values\r\n"
        rows = "".join(plain_rows(300, width=2, end="\r\n")).encode("ascii")
        last = rows.rindex(b",") + 1
        for pad in range(40):
            data = head + rows[:last] + b" " * pad + rows[last:]
            if data[len(head) + int((len(data) - len(head)) * ingest._SPLIT_SHARE):][:1] == at:
                break
        else:
            pytest.fail(f"no padding puts {at!r} at the cut")
        split, forks, alone = split_and_in_process(monkeypatch, data)
        assert (split, forks) == (alone, 1)
        assert alone[0].startswith("Series(")

    @pytest.mark.parametrize("row, outcome", [
        ('180,"2.5",n\n', "Series"),
        ("180,2.5,\u00e9\n", "Series"),
        ("180,inf,n\n", "NonNumericValue"),
        ("180,1.7e308,n\n181,1.7e308,n\n", "Series"),
    ], ids=["quote", "non-ascii", "inf", "overflowing-sum"])
    def test_a_defect_in_the_helpers_rows_only(self, row, outcome, monkeypatch, parsed_here):
        # Rows the plain path declines, or whose column sum overflows, among
        # the helper's rows: the helper says so, and the reader parses the
        # whole input.  This process parses only its own rows, and then all
        # of them in process.
        rows = plain_rows(200)
        rows[179] = row
        data = ("Month,Values,Note\n" + "".join(rows)).encode("utf-8")
        assert data.index(row.encode("utf-8")) > len(data) * ingest._SPLIT_SHARE
        wait_long(monkeypatch)
        split, forks, alone = split_and_in_process(monkeypatch, data)
        assert (split, forks, len(parsed_here)) == (alone, 1, 2)
        assert alone[0].startswith(outcome)

    @pytest.mark.parametrize("first, second", [("-0.0", "0.0"), ("0.0", "-0.0")])
    def test_signed_zero_extremes_in_both_parts(self, first, second, monkeypatch):
        # x's least value and y's greatest are a zero in each process's
        # rows: the bounds keep the first zero's sign, as min and max over
        # one list do.
        rows = [f"{i + 1},{-(i % 7) - 1}\n" for i in range(200)]
        rows[20] = f"{first},{first}\n"
        rows[180] = f"{second},{second}\n"
        data = ("Month,Values\n" + "".join(rows)).encode("ascii")
        split, forks, alone = split_and_in_process(monkeypatch, data)
        assert (split, forks) == (alone, 1)
        x_min, _, _, y_max = alone[1]
        assert x_min == y_max == float(first).hex()

    @pytest.mark.parametrize("data", [b"Month,Values\n1,2\n", b"Month,Values\n-0.0,2"],
                             ids=["newline", "no-final-newline"])
    def test_a_single_row_is_not_cut(self, data, monkeypatch):
        split, forks, alone = split_and_in_process(monkeypatch, data)
        assert (split, forks) == (alone, 0)

    def test_the_parse_takes_the_helpers_rows(self, monkeypatch, parsed_here):
        # This process parses only its own rows, then the whole in process.
        # A helper that sends its values doubled changes the Series, so the
        # split is not the parse in process by another route.
        data = ("Month,Values,Note\n" + "".join(plain_rows(2000))).encode("ascii")
        wait_long(monkeypatch)
        split, forks, alone = split_and_in_process(monkeypatch, data)
        assert (split, forks, len(parsed_here)) == (alone, 1, 2)

        def doubled(record):
            values = struct.unpack("%dd" % (len(record) // 8), record)
            return struct.pack("%dd" % len(values), *(2 * v for v in values))

        helpers_send(monkeypatch, lambda send: lambda record: send(doubled(record)))
        split, forks, alone = split_and_in_process(monkeypatch, data)
        assert (split != alone, forks) == (True, 1)

    @pytest.mark.parametrize("last, parsed", [
        (None, 3),
        (lambda send, record: send(record[:-3]), 3),
        (lambda send, record: send(record[:-8]), 3),
        (cut(lambda record: len(record) // 2), 3),
        (lambda send, record: send(record + bytes(8)), 3),
        (lambda send, record: send(b""), 2),
    ], ids=["nothing", "cuts-a-double", "a-double-short", "half", "a-double-more", "declined"])
    def test_a_payload_not_framed_right_is_parsed_in_process(self, last, parsed, monkeypatch, capfd,
                                                             parsed_here):
        # The helper sends no record, a record of another length than its
        # rows take, half of its record, or an empty record that declines
        # its rows, and fails.  This process parses the helper's rows itself,
        # or, where they were declined, the whole input with the reader; and
        # then the whole in process.
        data = ("Month,Values,Note\n" + "".join(plain_rows(2000))).encode("ascii")
        wait_long(monkeypatch)
        failing_helpers(monkeypatch, 0, last)
        split, forks, alone = split_and_in_process(monkeypatch, data)
        assert (split, forks, len(parsed_here)) == (alone, 1, parsed)
        assert alone[0].startswith("Series(")
        assert capfd.readouterr() == ("", "")

    def test_a_stopped_helper_is_killed_and_the_parse_finished_in_process(self, tmp_path):
        # A helper stopped right after the fork sends nothing.  The parse
        # waits for it no longer than it has worked itself (or 20 ms),
        # parses the helper's rows in process, and kills and reaps it: it
        # returns well within 5 s, where it takes about 0.1 s, and never
        # hangs.
        series = noisy_quadratic(100_000, 5)
        csv = tmp_path / "bulk.csv"
        csv.write_text("Month,Values\n" + "".join(f"{x},{y}\n" for x, y in zip(series.xs, series.ys)),
                       encoding="ascii")
        assert csv.stat().st_size >= ingest._SPLIT_MIN_BYTES
        script = SHARED_CPU + STOPPING_FORK + """
import json, math, sys, time
from quadfit import ingest
with open(sys.argv[1], "rb") as fh:
    data = fh.read()
start = time.monotonic()
split = ingest.parse_csv(data)
seconds = time.monotonic() - start
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
ingest._SPLIT_MIN_BYTES = math.inf
alone = ingest.parse_csv(data)
bounds = [[b.hex() for b in s._x_bounds + s._y_bounds] for s in (split, alone)]
print(json.dumps([repr(split) == repr(alone), bounds[0] == bounds[1], len(stopped), reaped, seconds < 5.0]))
"""
        assert run_isolated(script, str(csv)) == [True, True, 1, True, True]


class TestCsvSchema:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            CsvSchema(x_column="", y_column="y")

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            CsvSchema(x_column="a", y_column="a")


class TestRoundTrip:
    @settings(max_examples=60)
    @given(
        xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
        data=st.data(),
    )
    def test_series_survives_round_trip(self, xs, data):
        ys = data.draw(st.lists(st.floats(-1e6, 1e6),
                                min_size=len(xs), max_size=len(xs)))
        series = Series(tuple(xs), tuple(ys))
        text = "Month,Values\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys))
        assert parse_csv(text.encode("utf-8")) == series  # bit-exact: repr round-trips floats

    def test_fixed_example(self):
        series = Series((1.0, 2.5), (0.1, -3.75))
        assert parse_csv(b"Month,Values\n1.0,0.1\n2.5,-3.75\n") == series


class TestValidateSeries:
    def test_monthly_data_passes(self):
        series = Series(tuple(range(1, 13)), tuple(float(v) for v in range(12)))
        assert validate_series(series, 2) is None

    def test_too_few_points(self):
        got = validate_series(Series((1, 2), (1, 2)), 2)
        assert isinstance(got, InsufficientData)

    def test_degenerate_abscissa(self):
        got = validate_series(Series((1, 1, 1, 1), (1, 2, 3, 4)), 2)
        assert isinstance(got, DegenerateAbscissa)


class TestParseTotality:
    @settings(max_examples=300)
    @given(raw=st.binary(max_size=400))
    def test_any_bytes_give_series_or_one_typed_error(self, raw):
        try:
            got = parse_csv(raw)
        except CsvError:
            return
        assert isinstance(got, Series)

    @settings(max_examples=300)
    @given(text=st.text(max_size=400))
    def test_any_text_gives_series_or_one_typed_error(self, text):
        try:
            got = parse_csv(text.encode("utf-8"))
        except CsvError:
            return
        assert isinstance(got, Series)
