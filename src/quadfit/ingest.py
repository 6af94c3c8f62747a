"""Two-column CSV ingestion for monthly (or generic) time series.

Accepts RFC-4180-style quoting, LF or CRLF line endings and an optional
UTF-8 BOM.  Extra columns are ignored; blank or non-numeric cells in the
selected columns fail loudly rather than being dropped.
"""

from __future__ import annotations

import csv
import io
import math

from ._record import record
from .errors import (
    EmptyData,
    InvalidEncoding,
    MalformedRow,
    MissingColumn,
    NonNumericValue,
    QuadfitError,
)
from .fitting import Series, _validation_error


@record
class CsvSchema:
    """Which columns hold the abscissa and the value, and the delimiter."""

    x_column: str = "Month"
    y_column: str = "Values"
    delimiter: str = ","

    def __post_init__(self):
        if not self.x_column or not self.y_column:
            raise ValueError("column names must be nonempty")
        if self.x_column == self.y_column:
            raise ValueError("x and y columns must be distinct")
        if len(self.delimiter) != 1:
            raise ValueError("delimiter must be a single character")


def _parse_cell(text: str, row: int, column: str) -> float:
    stripped = text.strip()
    try:
        value = float(stripped)
    except ValueError:
        raise NonNumericValue(row, column, stripped) from None
    if not math.isfinite(value):
        raise NonNumericValue(row, column, stripped)
    return value


def parse_csv(data, schema: CsvSchema = CsvSchema()) -> Series:
    """Parse CSV bytes (or a binary stream) into a Series.

    The first row must be a header containing the schema's two column
    names; rows are kept in file order.

    Raises:
        InvalidEncoding: input is not UTF-8.
        MissingColumn: a schema column is absent from the header.
        EmptyData: no header or no data rows.
        MalformedRow: a row's field count differs from the header's, or
            the csv module cannot split the header or a row into fields.
        NonNumericValue: a selected cell is blank, non-numeric or non-finite.
    """
    if hasattr(data, "read"):
        data = data.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(f"input is not valid UTF-8: {exc}") from None

    reader = csv.reader(io.StringIO(text, newline=""), delimiter=schema.delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyData("input has no header row") from None
    except csv.Error as exc:
        raise MalformedRow(0, reason=str(exc)) from exc

    names = [cell.strip() for cell in header]
    for column in (schema.x_column, schema.y_column):
        if column not in names:
            raise MissingColumn(column)
    x_idx = names.index(schema.x_column)
    y_idx = names.index(schema.y_column)

    xs: list[float] = []
    ys: list[float] = []
    row_num = 0
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise MalformedRow(row_num + 1, reason=str(exc)) from exc
        row_num += 1
        if len(row) != len(names):
            raise MalformedRow(row_num, len(names), len(row))
        xs.append(_parse_cell(row[x_idx], row_num, schema.x_column))
        ys.append(_parse_cell(row[y_idx], row_num, schema.y_column))

    if not xs:
        raise EmptyData("input has a header row but no data rows")
    return Series(tuple(xs), tuple(ys))


def validate_series(series: Series, degree: int) -> QuadfitError | None:
    """Check that a series can support a degree-d fit.

    Returns None when it can, otherwise the specific error instance
    (InvalidDegree, InsufficientData or DegenerateAbscissa) without raising;
    the series itself is never modified.  Finiteness is already guaranteed
    by Series construction.
    """
    return _validation_error(series, degree)
