"""Deterministic SVG rendering of the scatter-plus-fitted-curve figure.

The layout mirrors the usual monthly-series chart: black data markers, a
purple fitted curve, month names on the x axis when the data covers (part
of) a calendar year, a two-line title, and a legend carrying the fitted
equation and R^2.  The curve is sampled once per figure, and the axes
and data-to-pixel transform come from those samples and the data.  Output
depends only on the inputs: fixed colors, fixed fonts by family name, and
fixed 2-decimal coordinate formatting, so equal inputs give byte-identical
documents.
"""

from __future__ import annotations

import math

from ._record import record
from .fitting import PolynomialModel, Series, eval_poly
from .metrics import FitReport

MONTH_LABELS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

DATA_COLOR = "black"
CURVE_COLOR = "purple"
GRID_COLOR = "#d9d9d9"
FRAME_COLOR = "#444444"
FONT_FAMILY = "sans-serif"

# Fraction of the combined data+curve range added on each side of an axis.
AXIS_PADDING = 0.05

_MARGIN_LEFT = 80.0
_MARGIN_RIGHT = 40.0
_MARGIN_TOP = 70.0
_MARGIN_BOTTOM = 60.0


@record
class PlotSpec:
    """User-facing labels and render parameters for the figure."""

    description: str
    metric_name: str
    y_label: str
    width: int = 1200
    height: int = 700
    curve_samples: int = 200

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("figure dimensions must be positive")
        if self.curve_samples < 2:
            raise ValueError("curve_samples must be at least 2")


@record
class PlotGeometry:
    """Axis bounds plus the affine data-to-pixel transform of a figure."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    left: float
    top: float
    width: float
    height: float

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        px = self.left + (x - self.x_lo) / (self.x_hi - self.x_lo) * self.width
        py = self.top + self.height - (y - self.y_lo) / (self.y_hi - self.y_lo) * self.height
        return px, py


def format_equation(model: PolynomialModel, r_squared: float) -> str:
    """Legend text: fitted equation on one line, R^2 on the next.

    Coefficients render in descending powers with 4 decimal places and
    literal " + " separators, so negative coefficients appear as "+ -1.2345",
    and for a quadratic the first line is exactly
    "Fitted curve: Ax^2 + Bx + C".
    """
    terms = []
    for k in range(model.degree, -1, -1):
        coeff = f"{model.coeffs[k]:.4f}"
        if k == 0:
            terms.append(coeff)
        elif k == 1:
            terms.append(f"{coeff}x")
        else:
            terms.append(f"{coeff}x^{k}")
    return f"Fitted curve: {' + '.join(terms)}\nR^2 = {r_squared:.4f}"


def _nice_ticks(lo: float, hi: float, max_ticks: int) -> list[float]:
    """At most max_ticks positions at a 1/2/5-stepped interval inside [lo, hi]."""
    span = hi - lo
    magnitude = 10.0 ** math.floor(math.log10(span / max_ticks))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if span / step <= max_ticks:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    i = 0
    while first + i * step <= hi + step * 1e-9:
        ticks.append(first + i * step)
        i += 1
    return ticks


def month_ticks(x_min: float, x_max: float) -> list[tuple[float, str]]:
    """Tick positions and labels for the x axis.

    Data lying within [1, 12] gets calendar-month ticks at the integers
    (clipped to the data range); anything else falls back to numeric ticks.
    """
    if not x_min < x_max:
        raise ValueError(f"empty axis range [{x_min}, {x_max}]")
    if 1.0 <= x_min and x_max <= 12.0:
        return [(float(m), MONTH_LABELS[m - 1])
                for m in range(1, 13) if x_min <= m <= x_max]
    return [(pos, f"{pos:g}") for pos in _nice_ticks(x_min, x_max, 12)]


def _padded(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    if span == 0.0:
        return lo - 0.5, hi + 0.5
    return lo - AXIS_PADDING * span, hi + AXIS_PADDING * span


def sample_curve(model: PolynomialModel, x_min: float, x_max: float, n: int) -> list[tuple[float, float]]:
    """n >= 2 points on the curve, x equally spaced over [x_min, x_max].

    Both endpoints are hit exactly.
    """
    step = (x_max - x_min) / (n - 1)
    xs = [x_min + i * step for i in range(n - 1)] + [x_max]
    return [(x, eval_poly(model, x)) for x in xs]


def plot_geometry(series: Series, curve: list[tuple[float, float]], spec: PlotSpec) -> PlotGeometry:
    """Axis bounds and transform used by render_plot for these inputs.

    Axes cover the data and the curve from sample_curve, whose end points
    are the data's x range, padded by AXIS_PADDING on each side.
    """
    y_values = list(series.ys) + [y for _, y in curve]
    x_lo, x_hi = _padded(curve[0][0], curve[-1][0])
    y_lo, y_hi = _padded(min(y_values), max(y_values))
    return PlotGeometry(
        x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi,
        left=_MARGIN_LEFT, top=_MARGIN_TOP,
        width=spec.width - _MARGIN_LEFT - _MARGIN_RIGHT,
        height=spec.height - _MARGIN_TOP - _MARGIN_BOTTOM,
    )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text content, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_plot(series: Series, model: PolynomialModel, report: FitReport, spec: PlotSpec) -> str:
    """Render the figure to a standalone SVG 1.1 document (as a string)."""
    x_min, x_max = min(series.xs), max(series.xs)
    curve = sample_curve(model, x_min, x_max, spec.curve_samples)
    geo = plot_geometry(series, curve, spec)
    right = geo.left + geo.width
    bottom = geo.top + geo.height

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="white"/>',
    ]

    # Grid under everything else, clipped to the plotting area.
    xticks = month_ticks(x_min, x_max)
    yticks = _nice_ticks(geo.y_lo, geo.y_hi, 10)
    out.append('<g stroke="%s" stroke-width="1">' % GRID_COLOR)
    for pos, _ in xticks:
        px, _py = geo.to_px(pos, geo.y_lo)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(geo.top)}" '
                   f'x2="{_fmt(px)}" y2="{_fmt(bottom)}"/>')
    for pos in yticks:
        _px, py = geo.to_px(geo.x_lo, pos)
        out.append(f'<line x1="{_fmt(geo.left)}" y1="{_fmt(py)}" '
                   f'x2="{_fmt(right)}" y2="{_fmt(py)}"/>')
    out.append('</g>')

    out.append(f'<rect x="{_fmt(geo.left)}" y="{_fmt(geo.top)}" '
               f'width="{_fmt(geo.width)}" height="{_fmt(geo.height)}" '
               f'fill="none" stroke="{FRAME_COLOR}" stroke-width="1"/>')

    points = " ".join(",".join(map(_fmt, geo.to_px(x, y))) for x, y in curve)
    out.append(f'<polyline id="fitted-curve" fill="none" stroke="{CURVE_COLOR}" '
               f'stroke-width="2" points="{points}"/>')

    out.append('<g id="data-points">')
    for x, y in zip(series.xs, series.ys):
        px, py = geo.to_px(x, y)
        out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="{DATA_COLOR}"/>')
    out.append('</g>')

    # Tick marks and labels.
    out.append(f'<g font-family="{FONT_FAMILY}" font-size="13" fill="black">')
    for pos, label in xticks:
        px, _py = geo.to_px(pos, geo.y_lo)
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(bottom)}" '
                   f'x2="{_fmt(px)}" y2="{_fmt(bottom + 5)}" stroke="black"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(bottom + 20)}" '
                   f'text-anchor="middle">{_escape(label)}</text>')
    for pos in yticks:
        _px, py = geo.to_px(geo.x_lo, pos)
        out.append(f'<line x1="{_fmt(geo.left - 5)}" y1="{_fmt(py)}" '
                   f'x2="{_fmt(geo.left)}" y2="{_fmt(py)}" stroke="black"/>')
        out.append(f'<text x="{_fmt(geo.left - 9)}" y="{_fmt(py + 4)}" '
                   f'text-anchor="end">{pos:g}</text>')
    out.append('</g>')

    # Axis labels and the two-line title.
    cx = geo.left + geo.width / 2.0
    out.append(f'<g font-family="{FONT_FAMILY}" fill="black">')
    out.append(f'<text x="{_fmt(cx)}" y="{_fmt(bottom + 45)}" font-size="15" '
               f'text-anchor="middle">Month</text>')
    out.append(f'<text x="22" y="{_fmt(geo.top + geo.height / 2.0)}" font-size="15" '
               f'text-anchor="middle" transform="rotate(-90 22 '
               f'{_fmt(geo.top + geo.height / 2.0)})">{_escape(spec.y_label)}</text>')
    out.append(f'<text x="{_fmt(cx)}" y="28" font-size="18" '
               f'text-anchor="middle">{_escape(spec.metric_name)} by Month in</text>')
    out.append(f'<text x="{_fmt(cx)}" y="50" font-size="18" '
               f'text-anchor="middle">{_escape(spec.description)}</text>')
    out.append('</g>')

    out.append(_legend(model, report, geo))
    out.append('</svg>')
    return "\n".join(out) + "\n"


def _legend(model: PolynomialModel, report: FitReport, geo: PlotGeometry) -> str:
    equation_line, r2_line = format_equation(model, report.r_squared).split("\n")
    rows = ["Actual Data", equation_line, r2_line]
    char_w = 7.3  # crude sans-serif advance at font-size 14; deterministic
    width = 48 + char_w * max(len(r) for r in rows)
    row_h = 22.0
    x0 = geo.left + geo.width - width - 12
    y0 = geo.top + 12

    out = [f'<g id="legend" font-family="{FONT_FAMILY}" font-size="14">']
    out.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(width)}" '
               f'height="{_fmt(3 * row_h + 14)}" fill="white" fill-opacity="0.85" '
               f'stroke="{FRAME_COLOR}" stroke-width="1"/>')
    rows_y = [y0 + 12 + row_h * i for i in range(3)]
    out.append(f'<circle cx="{_fmt(x0 + 22)}" cy="{_fmt(rows_y[0])}" r="4" '
               f'fill="{DATA_COLOR}"/>')
    out.append(f'<line x1="{_fmt(x0 + 10)}" y1="{_fmt(rows_y[1])}" '
               f'x2="{_fmt(x0 + 34)}" y2="{_fmt(rows_y[1])}" '
               f'stroke="{CURVE_COLOR}" stroke-width="2"/>')
    for text, ry in zip(rows, rows_y):
        out.append(f'<text x="{_fmt(x0 + 42)}" y="{_fmt(ry + 5)}" '
                   f'fill="black">{_escape(text)}</text>')
    out.append('</g>')
    return "\n".join(out)
