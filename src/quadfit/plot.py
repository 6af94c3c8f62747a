"""Deterministic SVG rendering of the scatter-plus-fitted-curve figure.

The layout mirrors the usual monthly-series chart: black data markers, a
purple fitted curve, month names on the x axis when the data covers (part
of) a calendar year, a two-line title, and a legend carrying the fitted
equation and R^2.  Other ticks sit at whole multiples of a 1/2/5 step
inside the axis, with labels that tell neighbouring ticks apart.  Every
figure is WIDTH x HEIGHT pixels with a CURVE_SAMPLES-point curve.  The
curve is sampled once per figure, and the axes and data-to-pixel
transform come from those samples and the data.  Output depends only on
the inputs: fixed colors, fixed fonts by family name, and fixed
2-decimal coordinate formatting, so equal inputs give byte-identical
documents.  render_plot returns the document as one string; the command
line writes the same bytes in pieces, with the data markers formatted in
blocks of _MARKER_BLOCK.
"""

import math
import sys

from ._record import record
from .fitting import PolynomialModel, Series, _evaluate
from .metrics import FitReport

MONTH_LABELS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
                "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

DATA_COLOR = "black"
CURVE_COLOR = "purple"
GRID_COLOR = "#d9d9d9"
FRAME_COLOR = "#444444"
FONT_FAMILY = "sans-serif"

# Figure size in pixels, and the number of points drawn on the curve.
WIDTH = 1200
HEIGHT = 700
CURVE_SAMPLES = 200

# Data markers formatted per piece of the streamed document.
_MARKER_BLOCK = 4096

# Fraction of the combined data+curve range added on each side of an axis.
AXIS_PADDING = 0.05

_MARGIN_LEFT = 80.0
_MARGIN_RIGHT = 40.0
_MARGIN_TOP = 70.0
_MARGIN_BOTTOM = 60.0
_PLOT_WIDTH = WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_HEIGHT = HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

# The characters XML 1.0 forbids: C0 controls but tab, LF and CR, and
# U+FFFE and U+FFFF.  It forbids the surrogates too, tested by range.
_XML_FORBIDDEN = "".join(map(chr, [*range(9), 11, 12, *range(14, 32)])) + "\ufffe\uffff"


@record
class PlotSpec:
    """The chart's texts: second title line, metric name and y axis label.

    Construction fails with ValueError when a text holds a character that
    XML 1.0 forbids or a lone surrogate, which UTF-8 cannot encode either.
    """

    description: str
    metric_name: str
    y_label: str

    def __post_init__(self):
        for name in ("description", "metric_name", "y_label"):
            for c in getattr(self, name):
                if c in _XML_FORBIDDEN or "\ud800" <= c <= "\udfff":
                    raise ValueError(f"{name} holds {c!r}, which an SVG document cannot carry")


def format_equation(model: PolynomialModel, r_squared: float) -> str:
    """Legend text: fitted equation on one line, R^2 on the next.

    Coefficients render in descending powers with 4 decimal places and
    literal " + " separators, so negative coefficients appear as "+ -1.2345",
    and for a quadratic the first line is exactly
    "Fitted curve: Ax^2 + Bx + C".  A coefficient of magnitude 1e6 or
    more, or nonzero and below 1e-4, renders as 1.2345e+06 or 1.2345e-05
    instead, which keeps each term short and never shows a nonzero
    coefficient as 0.0000.
    """
    terms = []
    for k in range(model.degree, -1, -1):
        value = model.coeffs[k]
        magnitude = abs(value)
        if magnitude >= 1e6 or 0.0 < magnitude < 1e-4:
            coeff = f"{value:.4e}"
        else:
            coeff = f"{value:.4f}"
        if k == 0:
            terms.append(coeff)
        elif k == 1:
            terms.append(f"{coeff}x")
        else:
            terms.append(f"{coeff}x^{k}")
    return f"Fitted curve: {' + '.join(terms)}\nR^2 = {r_squared:.4f}"


def _nice_ticks(lo: float, hi: float, max_ticks: int) -> list[tuple[float, str]]:
    """Ascending (position, label) pairs of the ticks of [lo, hi].

    The step is the least 1, 2 or 5 times a power of ten that fits at most
    max_ticks steps into the span.  Each position is the product k * step
    of a whole k, from k = ceil(lo / step) up; positions lie inside
    [lo, hi] give or take step * 1e-9, and none repeats.  Labels
    print with %g, or, where two %g labels read the same, with the fewest
    more significant digits that tell every tick from the next.
    """
    span = hi - lo
    # The raw step is held at 1e-322 or more: a subnormal span over
    # max_ticks can underflow to zero, and 10.0 ** -324 is zero.
    magnitude = 10.0 ** math.floor(math.log10(max(span / max_ticks, 1e-322)))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if span / step <= max_ticks:
            break
    slack = step * 1e-9
    positions = []
    for k in range(math.ceil(lo / step), math.ceil(hi / step) + 1):
        # Near a float's precision neighbouring multiples round to one
        # float, and a multiple can round past an end.
        pos = k * step
        if lo - slack <= pos <= hi + slack and pos not in positions[-1:]:
            positions.append(pos)
    # 17 significant digits tell any two floats apart.
    for digits in range(6, 18):
        labels = [f"{pos:.{digits}g}" for pos in positions]
        if len(set(labels)) == len(labels):
            return list(zip(positions, labels))


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
    return _nice_ticks(x_min, x_max, 12)


def _padded(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    if span == 0.0:
        lo, hi = lo - 0.5, hi + 0.5
        if lo == hi:
            # Beyond 2**53 the half unit rounds away: step one float
            # towards zero instead, which cannot overflow.
            inner = math.nextafter(lo, 0.0)
            lo, hi = min(lo, inner), max(hi, inner)
        return lo, hi
    # Near the end of the float range the pad shrinks, so that the padded
    # range and its width stay finite.
    top = sys.float_info.max
    pad = min(AXIS_PADDING * span, (top - span) / 4)
    return max(lo - pad, -top), min(hi + pad, top)


def sample_curve(model: PolynomialModel, x_min: float, x_max: float, n: int) -> list[tuple[float, float]]:
    """n >= 2 points on the curve, x equally spaced over [x_min, x_max].

    Both endpoints are hit exactly.
    """
    step = (x_max - x_min) / (n - 1)
    xs = [x_min + i * step for i in range(n - 1)] + [x_max]
    return list(zip(xs, _evaluate(model, xs)))


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text content, as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_plot(series: Series, model: PolynomialModel, report: FitReport, spec: PlotSpec) -> str:
    """Render the figure to a standalone SVG 1.1 document (as a string).

    Axes cover the data and the sampled curve, whose end points are the
    data's x range, padded by AXIS_PADDING on each side.
    """
    return "".join(_svg_chunks(series, model, report, spec))


def _svg_chunks(series: Series, model: PolynomialModel, report: FitReport, spec: PlotSpec):
    """render_plot's document in pieces: everything before the data
    markers, the markers in blocks of _MARKER_BLOCK, then the rest.

    Everything that can fail (bounds, ticks, legend, escaping) runs before
    the first piece is yielded, so a caller that writes the pieces to a
    file can take the first one before it opens the file.
    """
    x_min, x_max = min(series.xs), max(series.xs)
    curve_xs, curve_ys = zip(*sample_curve(model, x_min, x_max, CURVE_SAMPLES))
    x_lo, x_hi = _padded(x_min, x_max)
    y_lo, y_hi = _padded(min(min(series.ys), min(curve_ys)), max(max(series.ys), max(curve_ys)))
    left, top, width, height = _MARGIN_LEFT, _MARGIN_TOP, _PLOT_WIDTH, _PLOT_HEIGHT
    right = left + width
    bottom = top + height

    x_span, y_span = x_hi - x_lo, y_hi - y_lo

    def pixels(xs, ys) -> list[float]:
        """The points (xs[i], ys[i]) in pixels, flat: px0, py0, px1, py1, ...

        One % over a "%.2f" template per point formats the list; at 1e5
        points a string per point, later joined, costs more.  %.2f is the
        formatter f"{v:.2f}" uses."""
        coords = [0.0] * (2 * len(xs))
        coords[::2] = [left + (x - x_lo) / x_span * width for x in xs]
        coords[1::2] = [bottom - (y - y_lo) / y_span * height for y in ys]
        return coords

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    # Each tick's pixel, on the bottom (x) or left (y) edge.
    xticks = month_ticks(x_min, x_max)
    yticks = _nice_ticks(y_lo, y_hi, 10)
    x_px = pixels([pos for pos, _ in xticks], [y_lo] * len(xticks))[::2]
    y_px = pixels([x_lo] * len(yticks), [pos for pos, _ in yticks])[1::2]

    # Grid under everything else, clipped to the plotting area.
    out.append('<g stroke="%s" stroke-width="1">' % GRID_COLOR)
    for px in x_px:
        out.append(f'<line x1="{px:.2f}" y1="{top:.2f}" '
                   f'x2="{px:.2f}" y2="{bottom:.2f}"/>')
    for py in y_px:
        out.append(f'<line x1="{left:.2f}" y1="{py:.2f}" '
                   f'x2="{right:.2f}" y2="{py:.2f}"/>')
    out.append('</g>')

    out.append(f'<rect x="{left:.2f}" y="{top:.2f}" '
               f'width="{width:.2f}" height="{height:.2f}" '
               f'fill="none" stroke="{FRAME_COLOR}" stroke-width="1"/>')

    points = " ".join(["%.2f,%.2f"] * CURVE_SAMPLES) % tuple(pixels(curve_xs, curve_ys))
    out.append(f'<polyline id="fitted-curve" fill="none" stroke="{CURVE_COLOR}" '
               f'stroke-width="2" points="{points}"/>')

    out.append('<g id="data-points">')
    markers_at = len(out)
    out.append('</g>')

    # Tick marks and labels.
    out.append(f'<g font-family="{FONT_FAMILY}" font-size="13" fill="black">')
    for px, (_, label) in zip(x_px, xticks):
        out.append(f'<line x1="{px:.2f}" y1="{bottom:.2f}" '
                   f'x2="{px:.2f}" y2="{bottom + 5:.2f}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{bottom + 20:.2f}" '
                   f'text-anchor="middle">{_escape(label)}</text>')
    for py, (_, label) in zip(y_px, yticks):
        out.append(f'<line x1="{left - 5:.2f}" y1="{py:.2f}" '
                   f'x2="{left:.2f}" y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{left - 9:.2f}" y="{py + 4:.2f}" '
                   f'text-anchor="end">{label}</text>')
    out.append('</g>')

    # Axis labels and the two-line title.
    cx = left + width / 2.0
    out.append(f'<g font-family="{FONT_FAMILY}" fill="black">')
    out.append(f'<text x="{cx:.2f}" y="{bottom + 45:.2f}" font-size="15" '
               f'text-anchor="middle">Month</text>')
    out.append(f'<text x="22" y="{top + height / 2.0:.2f}" font-size="15" '
               f'text-anchor="middle" transform="rotate(-90 22 '
               f'{top + height / 2.0:.2f})">{_escape(spec.y_label)}</text>')
    out.append(f'<text x="{cx:.2f}" y="28" font-size="18" '
               f'text-anchor="middle">{_escape(spec.metric_name)} by Month in</text>')
    out.append(f'<text x="{cx:.2f}" y="50" font-size="18" '
               f'text-anchor="middle">{_escape(spec.description)}</text>')
    out.append('</g>')

    out.append(_legend(model, report))
    out.append('</svg>')
    out.append("")  # the final newline, without copying the document again

    yield "\n".join(out[:markers_at]) + "\n"
    # One marker per line, each block ending in a newline.
    marker = f'<circle cx="%.2f" cy="%.2f" r="4" fill="{DATA_COLOR}"/>\n'
    xs, ys = series.xs, series.ys
    for i in range(0, len(xs), _MARKER_BLOCK):
        coords = pixels(xs[i:i + _MARKER_BLOCK], ys[i:i + _MARKER_BLOCK])
        yield (marker * (len(coords) // 2)) % tuple(coords)
    yield "\n".join(out[markers_at:])


def _wrap_terms(line: str, limit: int) -> list[str]:
    """Break a " + "-separated line between terms into rows of at most
    limit characters; each row after the first starts with "+ "."""
    first, *terms = line.split(" + ")
    rows = [first]
    for term in terms:
        if len(rows[-1]) + 3 + len(term) <= limit:
            rows[-1] += " + " + term
        else:
            rows.append("+ " + term)
    return rows


def _legend(model: PolynomialModel, report: FitReport) -> str:
    char_w = 7.3  # crude sans-serif advance at font-size 14; deterministic
    # The box stays inside the plot frame, 12 px in from either side, so
    # a longer equation (degree 10 prints 11 terms) continues on more rows.
    max_chars = int((_PLOT_WIDTH - 24 - 48) / char_w)
    equation_line, r2_line = format_equation(model, report.r_squared).split("\n")
    rows = ["Actual Data", *_wrap_terms(equation_line, max_chars), r2_line]
    width = 48 + char_w * max(len(r) for r in rows)
    row_h = 22.0
    x0 = _MARGIN_LEFT + _PLOT_WIDTH - width - 12
    y0 = _MARGIN_TOP + 12

    out = [f'<g id="legend" font-family="{FONT_FAMILY}" font-size="14">']
    out.append(f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{width:.2f}" '
               f'height="{len(rows) * row_h + 14:.2f}" fill="white" fill-opacity="0.85" '
               f'stroke="{FRAME_COLOR}" stroke-width="1"/>')
    rows_y = [y0 + 12 + row_h * i for i in range(len(rows))]
    out.append(f'<circle cx="{x0 + 22:.2f}" cy="{rows_y[0]:.2f}" r="4" '
               f'fill="{DATA_COLOR}"/>')
    out.append(f'<line x1="{x0 + 10:.2f}" y1="{rows_y[1]:.2f}" '
               f'x2="{x0 + 34:.2f}" y2="{rows_y[1]:.2f}" '
               f'stroke="{CURVE_COLOR}" stroke-width="2"/>')
    for text, ry in zip(rows, rows_y):
        out.append(f'<text x="{x0 + 42:.2f}" y="{ry + 5:.2f}" '
                   f'fill="black">{_escape(text)}</text>')
    out.append('</g>')
    return "\n".join(out)
