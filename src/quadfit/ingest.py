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
give the same values.  Where the command line's run has a helper process
(see fitting._Run and _helper), forked before the parse while this process
holds little more than the input's bytes, the helper splits the last 45 %
of the plain rows and sends their values back as binary doubles, while
the caller splits the rest, and it keeps those rows for the run's later
stages.  parse_csv runs in process.  A helper whose record does not
arrive changes no value or error.
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
from .fitting import Series, _bounds, _checked_series, _Run, _validation_error as validate_series

# The split path's block size in bytes, before the cut at the next newline.
_BLOCK_BYTES = 1 << 16
# Where the run has a helper process, this process parses this share of
# the plain rows' bytes, and the helper the rest (see _plain_layout): more
# than half, as the helper starts a fork later and packs what it sends.
_SPLIT_SHARE = 0.55
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
    return _parse(data, schema)


def _parse(data, schema: CsvSchema, run: _Run | None = None) -> Series:
    """parse_csv, with the helper of run where it has one (see
    _plain_columns)."""
    if hasattr(data, "read"):
        data = data.read()
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"parse_csv needs bytes or a binary stream, got {type(data).__name__}")
    data = _without_bom(data)
    return _checked_series(*(_plain_columns(data, schema, run) or _reader_columns(data, schema)))


def _without_bom(data):
    """data without a leading BOM, dropped as decode("utf-8-sig") would,
    with the same error messages and offsets, without importing that
    codec's module."""
    return data[3:] if data[:3] == b"\xef\xbb\xbf" else data


def _plain_columns(data, schema: CsvSchema, run: _Run | None = None):
    """The schema's columns as float lists with their _bounds, split from
    the bytes, or None.

    A fast path that accepts input or declines it and never raises, so that
    every error, its message and its row number come from _reader_columns.
    It accepts input whose header _plain_layout accepts and whose rows
    _plain_rows does.  The csv reader splits such input into the same
    cells, and keeps the same values.

    Where run's helper process runs (see fitting._Run), the rows are cut
    where _plain_layout says, and the helper, which computes the same cut,
    runs _plain_rows on the second part while this process runs it on the
    first.  The helper sends its columns and their bounds back in one
    record of native doubles, which this process appends to its own
    without a conversion through text, and holds those rows for the run's
    later stages.  Rows are accepted or declined one by one, so the two
    parts accept what the whole does, and the bounds of the whole are those
    of the parts (see _bounds).  Where no record of that form arrives, this
    process stops the helper and parses those rows itself by the same code,
    so the helper changes no value, bound or error, only the time.
    """
    layout = _plain_layout(data, schema)
    if layout is None:
        return None
    start, mid, columns = layout
    end = len(data)
    helper = run.running() if run and mid < end else None
    if helper is None:
        return _plain_rows(data, start, end, *columns)
    rows = _plain_rows(data, start, mid, *columns)
    rest = _received_rows(helper.take()) if rows else None
    if rest:
        run.held = len(rest[0])
    elif rest is None:
        # Its record never came, or this process declined its own rows.
        helper.stop()
        rest = rows and _plain_rows(data, mid, end, *columns)
    if not (rows and rest):
        return None
    xs, ys, (x_min, x_max), (y_min, y_max) = rows
    more_xs, more_ys, (more_x_min, more_x_max), (more_y_min, more_y_max) = rest
    xs += more_xs
    ys += more_ys
    return (xs, ys, (min(x_min, more_x_min), max(x_max, more_x_max)),
            (min(y_min, more_y_min), max(y_max, more_y_max)))


def _plain_layout(data, schema: CsvSchema):
    """Where the rows begin, where a helper's rows begin, and the selected
    columns' indices and the header's width for _plain_rows; or None.

    Accepts a header line that is UTF-8 without a quote, CR or NUL, no
    longer than the csv field limit, and names both schema columns.  A
    helper's rows begin after the first newline past _SPLIT_SHARE of the
    rows' bytes, or at the end where there is none.
    """
    header_end = data.find(b"\n") + 1
    if not header_end:
        return None
    header = data[:header_end - 1].removesuffix(b"\r")
    if len(header) > _csv.field_size_limit() or any(c in header for c in b'"\r\0'):
        return None
    try:
        names = [cell.strip() for cell in header.decode("utf-8").split(",")]
    except UnicodeDecodeError:
        return None
    if schema.x_column not in names or schema.y_column not in names:
        return None
    end = len(data)
    mid = data.find(b"\n", header_end + int((end - header_end) * _SPLIT_SHARE)) + 1 or end
    return header_end, mid, (names.index(schema.x_column), names.index(schema.y_column), len(names))


def _plain_rows(data, start: int, stop: int, x_idx: int, y_idx: int, width: int):
    """The selected columns of the rows in data[start:stop], which begins a
    line and ends one or the data, as float lists with their _bounds, or None.

    Accepts rows that are ASCII without a quote, "_", NUL or a CR outside a
    CRLF ending, each with width - 1 commas, none longer than the csv field
    limit, and whose selected cells float() reads from bytes, with a finite
    sum over both columns: that one sum is inf or nan when a cell is, and
    declines the rare finite columns whose sum overflows.  Declines when
    there are no rows.  Rows are split in blocks cut at newlines, so that
    one block's cells are freed before the next is cut; only a block that
    holds a CR is copied to turn its CRLF endings into LF.
    """
    limit = _csv.field_size_limit()
    row_separators = b"," * (width - 1) + b"\n"
    xs: list[float] = []
    ys: list[float] = []
    while start < stop:
        cut = data.find(b"\n", start + _BLOCK_BYTES, stop) + 1 or stop
        block = data[start:cut]
        start = cut
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n")
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
    # Not finite when a cell is not, or when finite cells overflow the sum.
    if not xs or not math.isfinite(sum(xs) + sum(ys)):
        return None
    return xs, ys, _bounds(xs), _bounds(ys)


def _serve_rows(state, send, receive):
    """The helper's work for a parse: state is the run's input and schema.
    Where _plain_layout accepts the input and gives the helper rows, send
    what _plain_rows returns for them as one record of native doubles: the
    x and y bounds, the xs and the ys; or an empty record where they were
    declined.  Holds those rows, or none, for the later stages."""
    from _struct import pack  # loaded only where a helper forks
    data, schema = state
    data = _without_bom(data)
    layout = _plain_layout(data, schema)
    if layout is None or layout[1] == len(data):
        return (), ()  # the parse takes no record
    _, mid, columns = layout
    rows = _plain_rows(data, mid, len(data), *columns)
    if rows is None:
        send(b"")
        return (), ()
    xs, ys, x_bounds, y_bounds = rows
    send(pack("%dd" % (4 + 2 * len(xs)), *x_bounds, *y_bounds, *xs, *ys))
    return xs, ys


def _received_rows(record):
    """The rows in a record of _serve_rows, as _plain_rows returned them but
    with each column a view of doubles; () where they were declined, and
    None where no record, or one of another length, came."""
    if record == b"":
        return ()
    # 8 bytes for each of 4 bounds and 2n values, n >= 1.
    if record is None or len(record) % 16 or len(record) < 48:
        return None
    view = memoryview(record).cast("d")
    n = (len(view) - 4) // 2
    return view[4:4 + n], view[4 + n:], (view[0], view[1]), (view[2], view[3])


def _reader_columns(data, schema: CsvSchema):
    """The schema's columns as float lists with their _bounds, read by the
    csv module.

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
    return xs, ys, _bounds(xs), _bounds(ys)

