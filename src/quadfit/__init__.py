"""Least-squares polynomial fitting for two-column series data.

Pure-Python toolkit: fit a low-degree polynomial to (x, y) samples read
from CSV, measure the fit (R^2), inspect quadratic structure (roots,
vertex form), and render a deterministic SVG chart of data plus curve.
"""

from .errors import (
    CsvError,
    DegenerateAbscissa,
    EmptyData,
    InsufficientData,
    InvalidDegree,
    InvalidEncoding,
    MalformedRow,
    MissingColumn,
    NonNumericValue,
    NotQuadratic,
    NumericalOverflow,
    QuadfitError,
    RankDeficient,
    UndefinedRSquared,
)
from .fitting import DomainWindow, PolynomialModel, Series, eval_poly, fit_polynomial
from .ingest import CsvSchema, parse_csv
from .metrics import FitReport, fit_report
from .plot import PlotSpec, format_equation, render_plot
from .quadratic import (
    RootSet,
    VertexForm,
    discriminant,
    from_vertex_form,
    quadratic_roots,
    to_vertex_form,
)

__version__ = "1.0.0"

__all__ = [
    "CsvError",
    "CsvSchema",
    "DegenerateAbscissa",
    "DomainWindow",
    "EmptyData",
    "FitReport",
    "InsufficientData",
    "InvalidDegree",
    "InvalidEncoding",
    "MalformedRow",
    "MissingColumn",
    "NonNumericValue",
    "NotQuadratic",
    "NumericalOverflow",
    "PlotSpec",
    "PolynomialModel",
    "QuadfitError",
    "RankDeficient",
    "RootSet",
    "Series",
    "UndefinedRSquared",
    "VertexForm",
    "discriminant",
    "eval_poly",
    "fit_polynomial",
    "fit_report",
    "format_equation",
    "from_vertex_form",
    "parse_csv",
    "quadratic_roots",
    "render_plot",
    "to_vertex_form",
]
