import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from quadfit.ingest import validate_series


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
        ('Month,Values\n1,1\n2,"2\n3,3\n', 2, "row 2: unexpected end of data"),
    ], ids=["header", "data-row", "unbalanced-quote"])
    def test_csv_error_names_row_and_reason(self, text, row, message):
        # A quoted field past csv.field_size_limit(), or a quote left open
        # to the end of the file, is a csv.Error, which must reach the user
        # with csv's own reason, not a field count or a non-numeric cell.
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
