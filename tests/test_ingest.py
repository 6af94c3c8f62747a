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

    @pytest.mark.parametrize("text, row, where", [
        (f'"{"M" * 131073}",Values\n1,2\n', 0, "header: "),
        (f'Month,Values\n"{"1" * 131073}",2\n', 1, "row 1: "),
    ], ids=["header", "data-row"])
    def test_csv_error_names_row_and_reason(self, text, row, where):
        # A quoted field past csv.field_size_limit() is a csv.Error, which
        # must reach the user with csv's own reason, not a field count.
        with pytest.raises(MalformedRow) as exc:
            parse(text)
        assert exc.value.row == row
        assert str(exc.value) == where + "field larger than field limit (131072)"

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

    def test_custom_delimiter(self):
        s = parse("Month;Values\n1;2\n", delimiter=";")
        assert s.ys == (2.0,)


class TestCsvSchema:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            CsvSchema(x_column="", y_column="y")

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            CsvSchema(x_column="a", y_column="a")

    def test_rejects_long_delimiter(self):
        with pytest.raises(ValueError):
            CsvSchema(delimiter=",,")


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
