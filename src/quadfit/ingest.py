"""Two-column CSV ingestion for monthly (or generic) time series.

Reads comma-delimited text with RFC-4180-style quoting, LF or CRLF line
endings and an optional UTF-8 BOM; a quote left open is an error, not a
cell that runs to the end of the file.  Extra columns are ignored; blank
or non-numeric cells in the selected columns fail loudly rather than
being dropped.  A numeric cell, once stripped of whitespace, is ASCII and
holds no "_": float() alone would also read "1_0" as 10 and the digits of
other scripts.

Plain input, with ASCII rows and no quotes, is split as bytes; all other
input goes through the csv reader, which also raises every error.  Both
give the same values.
"""

# csv.py only re-exports _csv's reader and Error, and imports re, and with
# it enum and functools, for its Sniffer.
import _csv
import io
import math

from ._record import record
from .errors import (
    EmptyData,
    InvalidEncoding,
    MalformedRow,
    MissingColumn,
    NonNumericValue,
)
# validate_series, the fit's input check, for perfbench/traced_child.py:71.
from .fitting import Series, _checked_series, _validation_error as validate_series

# The split path's block size in bytes, before the cut at the next newline.
_BLOCK_BYTES = 1 << 16
# Every byte but the comma and the newline, for bytes.translate to delete.
_NOT_SEPARATORS = bytes(set(range(256)) - set(b",\n"))


@record
class CsvSchema:
    """Which columns hold the abscissa and the value."""

    x_column: str = "Month"
    y_column: str = "Values"

    def __post_init__(self):
        if not self.x_column or not self.y_column:
            raise ValueError("column names must be nonempty")
        if self.x_column == self.y_column:
            raise ValueError("x and y columns must be distinct")


def _parse_cell(text: str, row: int, column: str) -> float:
    stripped = text.strip()
    try:
        value = float(stripped) if stripped.isascii() and "_" not in stripped else math.nan
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
        NonNumericValue: a selected cell is blank, not an ASCII number
            without "_", or non-finite.
        TypeError: data, or what its read() returns, is not bytes.
    """
    if hasattr(data, "read"):
        data = data.read()
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"parse_csv needs bytes or a binary stream, got {type(data).__name__}")
    # Drop a leading BOM as decode("utf-8-sig") would, with the same error
    # messages and offsets, without importing that codec's module.
    if data[:3] == b"\xef\xbb\xbf":
        data = data[3:]
    return _checked_series(*(_plain_columns(data, schema) or _reader_columns(data, schema)))


def _plain_columns(data, schema: CsvSchema):
    """The schema's columns as float lists, split from the bytes, or None.

    A fast path that accepts input or declines it and never raises, so that
    every error, its message and its row number come from _reader_columns.
    It accepts input whose header line is UTF-8 without a quote, CR or NUL,
    and whose rows are ASCII without a quote, "_", NUL or a CR outside a
    CRLF ending, each with one comma fewer than the header has names, none
    longer than the csv field limit, and whose selected cells float() reads
    from bytes as finite.  The csv reader splits such input into the same
    cells, and keeps the same values.  Rows are split in blocks cut at
    newlines, so that one block's cells are freed before the next is cut.
    """
    header_end = data.find(b"\n") + 1
    if not header_end:
        return None
    header = data[:header_end - 1].removesuffix(b"\r")
    limit = _csv.field_size_limit()
    if len(header) > limit or any(c in header for c in b'"\r\0'):
        return None
    try:
        names = [cell.strip() for cell in header.decode("utf-8").split(",")]
    except UnicodeDecodeError:
        return None
    if schema.x_column not in names or schema.y_column not in names:
        return None
    x_idx = names.index(schema.x_column)
    y_idx = names.index(schema.y_column)
    width = len(names)
    row_separators = b"," * (width - 1) + b"\n"
    xs: list[float] = []
    ys: list[float] = []
    start = header_end
    while start < len(data):
        stop = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        block = data[start:stop].replace(b"\r\n", b"\n")
        start = stop
        if not block.endswith(b"\n"):
            block += b"\n"
        if not block.isascii() or any(c in block for c in b'"_\r\0'):
            return None
        # Row by row, not in total: the commas and newlines, in order, are
        # width - 1 commas then a newline for every row.
        if block.translate(None, _NOT_SEPARATORS) != row_separators * block.count(b"\n"):
            return None
        if len(block) > limit and max(map(len, block.split(b"\n"))) > limit:
            return None
        cells = block.replace(b"\n", b",").split(b",")
        del cells[-1]  # after the newline that ends the block
        try:
            xs += map(float, cells[x_idx::width])
            ys += map(float, cells[y_idx::width])
        except ValueError:
            return None
    if not xs or not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        return None
    return xs, ys


def _reader_columns(data, schema: CsvSchema):
    """The schema's columns as float lists, read by the csv module.

    The path for quoted or unusual input, which _plain_columns declines,
    and the only source of the errors parse_csv raises.  Each selected cell
    goes through _parse_cell, the one statement of the cell grammar; the
    loop is kept plain rather than tuned for speed.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(f"input is not valid UTF-8: {exc}") from None

    reader = _csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyData("input has no header row") from None
    except _csv.Error as exc:
        raise MalformedRow(0, reason=str(exc)) from exc

    names = [cell.strip() for cell in header]
    for column in (schema.x_column, schema.y_column):
        if column not in names:
            raise MissingColumn(column)
    x_idx = names.index(schema.x_column)
    y_idx = names.index(schema.y_column)

    width = len(names)
    xs: list[float] = []
    ys: list[float] = []
    row_num = 0
    try:
        for row in reader:
            row_num += 1
            if len(row) != width:
                raise MalformedRow(row_num, width, len(row))
            xs.append(_parse_cell(row[x_idx], row_num, schema.x_column))
            ys.append(_parse_cell(row[y_idx], row_num, schema.y_column))
    except _csv.Error as exc:
        raise MalformedRow(row_num + 1, reason=str(exc)) from exc

    if not xs:
        raise EmptyData("input has a header row but no data rows")
    return xs, ys

