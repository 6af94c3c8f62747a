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
the caller splits the rest.  As soon as it has them, the caller sends the
helper the rows it lacks, all of them where the csv reader parsed the
input, so that the helper holds every row for the run's later stages.
parse_csv runs in process.  A helper whose record does not arrive
changes no value or error.
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
    _split_columns).  The helper then holds every row: this process sends
    it the rows it lacks, however they were parsed."""
    if hasattr(data, "read"):
        data = data.read()
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"parse_csv needs bytes or a binary stream, got {type(data).__name__}")
    data = _without_bom(data)
    helper = run.running() if run else None
    if helper is None:
        return _checked_series(*(_plain_columns(data, schema) or _reader_columns(data, schema)))
    columns = _split_columns(data, schema, run)
    if columns is None:
        columns = _reader_columns(data, schema)
        _send_rows(run, columns)
    return _checked_series(*columns)


def _without_bom(data):
    """data without a leading BOM, dropped as decode("utf-8-sig") would,
    with the same error messages and offsets, without importing that
    codec's module."""
    return data[3:] if data[:3] == b"\xef\xbb\xbf" else data


def _plain_columns(data, schema: CsvSchema):
    """The schema's columns as float lists with their _bounds, split from
    the bytes, or None.

    A fast path that accepts input or declines it and never raises, so that
    every error, its message and its row number come from _reader_columns.
    It accepts input whose header _plain_layout accepts and whose rows
    _plain_rows does.  The csv reader splits such input into the same
    cells, and keeps the same values.
    """
    layout = _plain_layout(data, schema)
    return layout and _plain_rows(data, layout[0], len(data), *layout[2])


def _split_columns(data, schema: CsvSchema, run: _Run):
    """_plain_columns, with the rows cut where _plain_layout says, where
    run's helper runs (see fitting._Run).

    The helper, which computes the same cut, runs _plain_rows on the
    second part while this process runs it on the first, and sends its
    columns and their bounds back in one record of native doubles, which
    this process appends to its own without a conversion through text.
    Rows are accepted or declined one by one, so the two parts accept what
    the whole does, and the bounds of the whole are those of the parts (see
    _bounds).  Where no record of that form arrives, this process stops the
    helper and parses those rows itself by the same code, so the helper
    changes no value, bound or error, only the time.  The record is taken
    where this process declines its own rows too, so that the helper runs
    on; the csv reader then parses every row, and the caller sends them.

    Where this process keeps the helper's rows, it sends the helper its
    own, with the bounds of all, as soon as it has the record.
    """
    layout = _plain_layout(data, schema)
    if layout is None:
        return None
    start, mid, columns = layout
    end = len(data)
    if mid == end:
        rows = _plain_rows(data, start, end, *columns)
        if rows:
            _send_rows(run, rows)
        return rows
    rows = _plain_rows(data, start, mid, *columns)
    rest = _received_rows(run.helper.take())
    if rest is None:
        # Its record never came, or came in another form.
        run.helper.stop()
        rest = rows and _plain_rows(data, mid, end, *columns)
    if not (rows and rest):
        return None
    xs, ys, (x_min, x_max), (y_min, y_max) = rows
    more_xs, more_ys, (more_x_min, more_x_max), (more_y_min, more_y_max) = rest
    columns = (xs, ys, (min(x_min, more_x_min), max(x_max, more_x_max)),
               (min(y_min, more_y_min), max(y_max, more_y_max)))
    # Before the lists grow: the helper lacks this process's rows alone.
    _send_rows(run, columns, len(more_xs))
    xs += more_xs
    ys += more_ys
    return columns


def _send_rows(run: _Run, columns, kept: int = 0) -> None:
    """Send run's helper, where it runs, the rows it lacks: the xs of
    columns, an (xs, ys, x bounds, y bounds) of lists and pairs, and, where
    the run has a chart, their ys, with the bounds of every row.  The rows
    come first in the series, before the last `kept` rows the helper
    parsed itself.  One message: a line of the count sent and `kept`, then
    native doubles: the bounds, the xs and any ys."""
    helper = run.running()
    if helper is None:
        return
    from _struct import pack  # loaded only where a helper forks
    xs, ys, x_bounds, y_bounds = columns
    ys = ys if run.chart else ()
    helper.send(b"%d %d\n" % (len(xs), kept)
                + pack("%dd" % (4 + len(xs) + len(ys)), *x_bounds, *y_bounds, *xs, *ys))


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
    what _plain_rows returns for them as one record of native doubles, in
    the run's mapping where it has one: the x and y bounds, the xs and the
    ys; or an empty record where they were declined.  Then take the rows it
    lacks from _send_rows, and return every row for the later stages: the
    xs, the ys (empty where none were sent) and the bounds."""
    from _struct import pack  # loaded only where a helper forks
    data, schema = state
    data = _without_bom(data)
    layout = _plain_layout(data, schema)
    xs = ys = ()
    if layout is not None and layout[1] < len(data):
        _, mid, columns = layout
        rows = _plain_rows(data, mid, len(data), *columns)
        if rows is None:
            send(b"")
        else:
            xs, ys, x_bounds, y_bounds = rows
            send(pack("%dd" % (4 + 2 * len(xs)), *x_bounds, *y_bounds, *xs, *ys), mapped=True)
    head, _, body = receive().partition(b"\n")
    count, kept = map(int, head.split())
    view = memoryview(body).cast("d")
    more_ys = view[4 + count:]
    xs = [*view[4:4 + count], *xs[len(xs) - kept:]]
    ys = [*more_ys, *ys[len(ys) - kept:]] if more_ys else ()
    return xs, ys, (view[0], view[1]), (view[2], view[3])


def _rows_room(rows: int) -> int:
    """The most bytes a record of _serve_rows takes, for input of at most
    `rows` rows: 8 for each of 4 bounds and 2 values a row."""
    return 8 * (4 + 2 * rows)


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

