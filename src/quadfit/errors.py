"""Exception taxonomy shared by all quadfit modules.

Every failure surfaced by the library is an instance of QuadfitError, so
callers (notably the CLI) can report the error class name as a stable
diagnostic token.
"""

from __future__ import annotations


class QuadfitError(Exception):
    """Base class for all quadfit errors."""


# -- fitting ---------------------------------------------------------------

class InvalidDegree(QuadfitError):
    """Polynomial degree is negative (or otherwise unusable)."""


class RankDeficient(QuadfitError):
    """x values are too clustered to resolve every term of the degree."""


class InsufficientData(QuadfitError):
    """Too few observations for the requested degree."""


class DegenerateAbscissa(QuadfitError):
    """Too few distinct x values (or all x equal, so no data window)."""


class NumericalOverflow(QuadfitError):
    """Finite input whose x span, coefficients or sums of squares overflow a float."""


# -- quadratic analysis ----------------------------------------------------

class NotQuadratic(QuadfitError):
    """Leading coefficient is zero; treat the polynomial as linear."""


# -- metrics ---------------------------------------------------------------

class UndefinedRSquared(QuadfitError):
    """Constant data with nonzero residuals: 1 - ss_res/0 is undefined."""


# -- CSV ingestion ---------------------------------------------------------

class CsvError(QuadfitError):
    """Base class for CSV parsing failures."""


class MissingColumn(CsvError):
    """A required column name is absent from the header row."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} not found in header")


class MalformedRow(CsvError):
    """A data row has the wrong number of fields, or the csv module cannot
    split the header (row 0) or a data row into fields, for ``reason``."""

    def __init__(self, row: int, expected: int | None = None, got: int | None = None,
                 reason: str | None = None):
        self.row = row
        self.expected = expected
        self.got = got
        where = f"row {row}" if row else "header"
        super().__init__(f"{where}: {reason or f'expected {expected} fields, got {got}'}")


class NonNumericValue(CsvError):
    """A cell that should hold a finite decimal number does not."""

    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(f"row {row}, column {column!r}: {value!r} is not a finite number")


class EmptyData(CsvError):
    """Input contains a header row only (or nothing at all)."""


class InvalidEncoding(CsvError):
    """Input bytes are not valid UTF-8."""
