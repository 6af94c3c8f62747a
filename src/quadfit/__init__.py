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
    InvalidSampleCount,
    MalformedRow,
    MissingColumn,
    NonNumericValue,
    NotQuadratic,
    QuadfitError,
    RankDeficient,
    UndefinedRSquared,
)
from .fitting import (
    DEFAULT_DEGREE,
    RANK_TOLERANCE,
    DomainWindow,
    PolynomialModel,
    Series,
    convert_domain,
    eval_poly,
    fit_polynomial,
    sample_curve,
)
from .ingest import CsvSchema, parse_csv, series_to_csv, validate_series
from .metrics import (
    FitReport,
    fit_report,
    r_squared,
    residuals,
    total_sum_of_squares,
)
from .plot import (
    PlotSpec,
    format_equation,
    month_ticks,
    plot_geometry,
    render_plot,
)
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
    "DEFAULT_DEGREE",
    "DegenerateAbscissa",
    "DomainWindow",
    "EmptyData",
    "FitReport",
    "InsufficientData",
    "InvalidDegree",
    "InvalidEncoding",
    "InvalidSampleCount",
    "MalformedRow",
    "MissingColumn",
    "NonNumericValue",
    "NotQuadratic",
    "PlotSpec",
    "PolynomialModel",
    "QuadfitError",
    "RANK_TOLERANCE",
    "RankDeficient",
    "RootSet",
    "Series",
    "UndefinedRSquared",
    "VertexForm",
    "convert_domain",
    "discriminant",
    "eval_poly",
    "fit_polynomial",
    "fit_report",
    "format_equation",
    "from_vertex_form",
    "month_ticks",
    "parse_csv",
    "plot_geometry",
    "quadratic_roots",
    "r_squared",
    "render_plot",
    "residuals",
    "sample_curve",
    "series_to_csv",
    "to_vertex_form",
    "total_sum_of_squares",
    "validate_series",
    "__version__",
]
