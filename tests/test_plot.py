import hashlib
import math
import os
import random
import sys
import xml.dom.minidom
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracle import exact_report
from conftest import DERIVED_XS, DERIVED_YS

from quadfit import (
    PlotSpec,
    PolynomialModel,
    Series,
    eval_poly,
    fit_polynomial,
    fit_report,
    format_equation,
    parse_csv,
    render_plot,
)
from quadfit.plot import (
    _MARKER_BLOCK,
    AXIS_PADDING,
    CURVE_SAMPLES,
    WIDTH,
    _escape,
    _nice_ticks,
    month_ticks,
    sample_curve,
)

SPEC = PlotSpec(description="Kyiv, Shcherbakovskaya St.",
                metric_name="PM2.5",
                y_label="PM2.5 Index")

# SHA-256 of the figure test_bulk_figure_bytes_are_pinned renders.
BULK_FIGURE_SHA256 = "48db9b64f1b81dfeb308384ecba2fab7d495ea7c63cc0748286edcfd509fdeaf"


def noisy_quadratic(rows: int, seed: int) -> Series:
    """The README's fitted quadratic plus N(0, 1.5^2) noise, x evenly over
    [1, 12], values rounded as a CSV of 6 and 4 decimals would hold them."""
    rng = random.Random(seed)
    xs, ys = [], []
    for i in range(rows):
        x = 1.0 + 11.0 * i / (rows - 1)
        y = 71.061363636 + x * (-11.840434565 + x * 0.89802697303) + rng.gauss(0.0, 1.5)
        xs.append(round(x, 6))
        ys.append(round(y, 4))
    return Series(xs, ys)


def quadratic_year():
    xs = tuple(float(x) for x in range(1, 13))
    ys = tuple(3.0 * x * x - 2.0 * x + 1.0 for x in xs)
    series = Series(xs, ys)
    model, _ = fit_polynomial(series, 2)
    return series, model, fit_report(model, series)


def plot_area(dom) -> tuple[float, float, float, float]:
    """Left, top, width and height of the frame drawn around the plot area."""
    frame = [r for r in dom.getElementsByTagName("rect")
             if r.getAttribute("fill") == "none"][0]
    return tuple(float(frame.getAttribute(k)) for k in ("x", "y", "width", "height"))


def data_to_px(series: Series, dom):
    """The data-to-pixel map a figure of these data should use: the data's
    x and y ranges, padded by AXIS_PADDING on each side, onto the frame."""
    left, top, width, height = plot_area(dom)

    def padded(lo, hi):
        return lo - AXIS_PADDING * (hi - lo), hi + AXIS_PADDING * (hi - lo)

    x_lo, x_hi = padded(min(series.xs), max(series.xs))
    y_lo, y_hi = padded(min(series.ys), max(series.ys))
    return lambda x, y: (left + (x - x_lo) / (x_hi - x_lo) * width,
                         top + height - (y - y_lo) / (y_hi - y_lo) * height)


def drawn_points(dom) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Pixel positions of the data markers, and of the curve's vertices."""
    group = [g for g in dom.getElementsByTagName("g")
             if g.getAttribute("id") == "data-points"][0]
    markers = [(float(c.getAttribute("cx")), float(c.getAttribute("cy")))
               for c in group.getElementsByTagName("circle")]
    polyline = dom.getElementsByTagName("polyline")[0]
    curve = [tuple(map(float, p.split(",")))
             for p in polyline.getAttribute("points").split()]
    return markers, curve


def render_sample(path) -> tuple[str, Series, PolynomialModel]:
    with open(path, "rb") as fh:
        series = parse_csv(fh)
    model, _ = fit_polynomial(series, 2)
    report = fit_report(model, series)
    return render_plot(series, model, report, SPEC), series, model


def texts_of(dom) -> list[str]:
    out = []
    for node in dom.getElementsByTagName("text"):
        out.append("".join(child.data for child in node.childNodes
                           if child.nodeType == child.TEXT_NODE))
    return out


class TestFormatEquation:
    def test_quadratic_legend_format(self):
        got = format_equation(PolynomialModel((1.0, -2.0, 3.0)), 0.9876)
        assert got == "Fitted curve: 3.0000x^2 + -2.0000x + 1.0000\nR^2 = 0.9876"

    def test_identity_quadratic(self):
        got = format_equation(PolynomialModel((0.0, 0.0, 1.0)), 1.0)
        assert got == "Fitted curve: 1.0000x^2 + 0.0000x + 0.0000\nR^2 = 1.0000"

    def test_rounding_boundary(self):
        got = format_equation(PolynomialModel((0.00004, 0.0, 1.0)), 0.5)
        assert got.startswith("Fitted curve: 1.0000x^2 + 0.0000x + 4.0000e-05")

    def test_linear_fallback(self):
        got = format_equation(PolynomialModel((1.0, 2.0)), 0.25)
        assert got == "Fitted curve: 2.0000x + 1.0000\nR^2 = 0.2500"

    def test_cubic_fallback(self):
        got = format_equation(PolynomialModel((1.0, 2.0, 3.0, 4.0)), 0.0)
        assert got.splitlines()[0] == \
            "Fitted curve: 4.0000x^3 + 3.0000x^2 + 2.0000x + 1.0000"

    def test_large_coefficients_in_exponent_form(self):
        got = format_equation(PolynomialModel((1e6, -2.5e154, 999999.0)), 0.5)
        assert got.splitlines()[0] == \
            "Fitted curve: 999999.0000x^2 + -2.5000e+154x + 1.0000e+06"

    def test_huge_coefficients_keep_the_legend_on_the_canvas(self):
        # In fixed point each term of this fit prints about 150 digits,
        # which pushed the legend box about 2560 px left of the canvas.
        series = Series((1.0, 2.0, 3.0), (1e154, 1e154, 1.1e154))
        model, _ = fit_polynomial(series, 2)
        dom = xml.dom.minidom.parseString(
            render_plot(series, model, fit_report(model, series), SPEC))
        legend = [g for g in dom.getElementsByTagName("g")
                  if g.getAttribute("id") == "legend"][0]
        box = legend.getElementsByTagName("rect")[0]
        assert 0.0 <= float(box.getAttribute("x"))

    @pytest.mark.parametrize("rows,seed", [(20_000, 1), (2_000, 1), (200, 1)])
    def test_degree_ten_legend_shows_every_term_on_the_canvas(self, rows, seed):
        # The high-order coefficients of a degree-10 fit to a noisy
        # quadratic are below 1e-4, and its 11 terms are wider than the plot.
        series = noisy_quadratic(rows, seed)
        model, _ = fit_polynomial(series, 10)
        report = fit_report(model, series)
        dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
        legend = [g for g in dom.getElementsByTagName("g")
                  if g.getAttribute("id") == "legend"][0]
        box = legend.getElementsByTagName("rect")[0]
        x, width = float(box.getAttribute("x")), float(box.getAttribute("width"))
        assert 0.0 <= x and x + width <= WIDTH
        rows_text = texts_of(legend)
        assert rows_text[0] == "Actual Data"
        assert rows_text[-1] == f"R^2 = {report.r_squared:.4f}"
        equation = " ".join(rows_text[1:-1])
        assert equation == format_equation(model, report.r_squared).split("\n")[0]
        printed = [term.split("x")[0]
                   for term in equation.removeprefix("Fitted curve: ").split(" + ")]
        assert len(printed) == 11
        for text, coeff in zip(printed, reversed(model.coeffs)):
            assert coeff != 0.0 and float(text) != 0.0


class TestSampleCurve:
    def test_three_point_identity_line(self):
        got = sample_curve(PolynomialModel((0, 1)), 1, 12, 3)
        assert got == [(1.0, 1.0), (6.5, 6.5), (12.0, 12.0)]

    def test_default_200_points(self):
        pts = sample_curve(PolynomialModel((0, 1)), 1, 12, CURVE_SAMPLES)
        assert len(pts) == 200
        assert pts[0][0] == 1.0 and pts[-1][0] == 12.0
        spacing = 11.0 / 199.0
        for i in range(1, 199):
            assert pts[i][0] == pytest.approx(1.0 + i * spacing, abs=1e-12)

    def test_two_points_square(self):
        assert sample_curve(PolynomialModel((0, 0, 1)), 0, 1, 2) == [(0.0, 0.0), (1.0, 1.0)]


class TestMonthTicks:
    def test_full_year(self):
        ticks = month_ticks(1, 12)
        assert [t[0] for t in ticks] == [float(m) for m in range(1, 13)]
        assert [t[1] for t in ticks] == ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                         "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]

    def test_half_year(self):
        ticks = month_ticks(1, 6)
        assert [t[1] for t in ticks] == ["Jan", "Feb", "Mar", "Apr", "May", "Jun"]

    def test_interior_window(self):
        ticks = month_ticks(2.5, 9.5)
        assert [t[1] for t in ticks] == ["Mar", "Apr", "May", "Jun",
                                         "Jul", "Aug", "Sep"]

    def test_numeric_fallback(self):
        ticks = month_ticks(0, 50)
        assert 2 <= len(ticks) <= 12
        positions = [t[0] for t in ticks]
        assert positions == sorted(positions)
        assert all(0 <= p <= 50 for p in positions)
        assert all(label == f"{pos:g}" for pos, label in ticks)

    def test_below_january_uses_numbers(self):
        assert all(label not in ("Jan",) for _, label in month_ticks(0.5, 12))

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            month_ticks(3, 3)

    def test_pressure_labels_tell_neighbours_apart(self):
        # %g keeps 6 significant digits: 101.325 twice, then 101.326 four times.
        labels = [label for _, label in _nice_ticks(101.3252, 101.3262, 10)]
        assert labels == ["101.3252", "101.3254", "101.3256", "101.3258", "101.326", "101.3262"]

    def test_minute_timestamp_labels_tell_neighbours_apart(self):
        # %g printed 1.7e+09 seven times.
        labels = [label for _, label in month_ticks(1700000000, 1700000660)]
        assert labels == ["1.7e+09"] + [f"1.700000{d}e+09" for d in range(1, 7)]


def offset_ranges(offset):
    """(lo, hi) at an offset, from a few ulps wide to wider than the offset."""
    for ulps in (1, 2, 3, 5, 8, 13, 100, 1000):
        hi = offset
        for _ in range(ulps):
            hi = math.nextafter(hi, math.inf)
        yield offset, hi
    for span in (1e-9, 1e-3, 0.3, 1.0, 7.0, 660.0, 1e4, 1e9, 1e16):
        if offset + span > offset:
            yield offset, offset + span
            yield -offset - span, -offset


@pytest.mark.parametrize("offset", [0.0, 2024.0, 1e8, 1.7e9, 1e15])
@pytest.mark.parametrize("ticks", [month_ticks, lambda lo, hi: _nice_ticks(lo, hi, 10)],
                         ids=["x", "y"])
def test_ticks_ascend_inside_the_range_with_distinct_labels(ticks, offset):
    for lo, hi in offset_ranges(offset):
        pairs = ticks(lo, hi)
        positions = [pos for pos, _ in pairs]
        labels = [label for _, label in pairs]
        assert positions and all(a < b for a, b in zip(positions, positions[1:])), (lo, hi)
        # Within a billionth of the span: the end slack that keeps a tick
        # whose multiple rounds just past an end.
        slack = (hi - lo) * 1e-9
        assert all(lo - slack <= pos <= hi + slack for pos in positions), (lo, hi)
        assert len(set(labels)) == len(labels), (lo, hi)


class TestRenderPlot:
    def test_deterministic(self):
        series, model, report = quadratic_year()
        first = render_plot(series, model, report, SPEC)
        second = render_plot(series, model, report, SPEC)
        assert first == second

    def test_well_formed_xml(self):
        series, model, report = quadratic_year()
        dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
        assert dom.documentElement.tagName == "svg"

    def test_curve_covers_data_endpoints(self):
        # The curve rises over [1, 12], so its y range is the data's.
        series, model, report = quadratic_year()
        dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
        _, curve = drawn_points(dom)
        assert len(curve) == CURVE_SAMPLES
        to_px = data_to_px(series, dom)
        for (px, py), x in ((curve[0], 1.0), (curve[-1], 12.0)):
            want_px, want_py = to_px(x, eval_poly(model, x))
            assert abs(px - want_px) < 0.01
            assert abs(py - want_py) < 0.01

    def test_legend_r_squared_line(self):
        series, model, report = quadratic_year()
        dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
        assert "R^2 = 1.0000" in texts_of(dom)

    def test_legend_matches_format_equation(self):
        series, model, report = quadratic_year()
        dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
        eq_line, r2_line = format_equation(model, report.r_squared).split("\n")
        labels = texts_of(dom)
        assert eq_line in labels and r2_line in labels and "Actual Data" in labels

    def test_legend_equation_matches_oracle_coefficients(self):
        series = Series(DERIVED_XS, DERIVED_YS)
        model, _ = fit_polynomial(series, 2)
        report = fit_report(model, series)
        dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
        coeffs, _, _, _, r2 = exact_report(DERIVED_XS, DERIVED_YS, 2)
        oracle_model = PolynomialModel(tuple(float(c) for c in coeffs))
        want = format_equation(oracle_model, float(r2)).split("\n")[0]
        assert want == "Fitted curve: 1.2500x^2 + -0.9500x + 0.7500"
        assert want in texts_of(dom)

    def test_marker_geometry_matches_transform(self):
        series, model, report = quadratic_year()
        dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
        markers, _ = drawn_points(dom)
        assert len(markers) == len(series)
        to_px = data_to_px(series, dom)
        for (px, py), x, y in zip(markers, series.xs, series.ys):
            want_px, want_py = to_px(x, y)
            # printed with 2 decimals, so within half a hundredth of a pixel
            assert abs(px - want_px) < 0.006
            assert abs(py - want_py) < 0.006

    @pytest.mark.parametrize("rows", [2, _MARKER_BLOCK - 1, _MARKER_BLOCK,
                                      _MARKER_BLOCK + 1, 2 * _MARKER_BLOCK + 3])
    def test_markers_in_blocks_are_the_points_in_order(self, rows):
        # Each marker on its own line, in data order, across block edges.
        series = noisy_quadratic(rows, rows)
        model, _ = fit_polynomial(series, 1)
        svg = render_plot(series, model, fit_report(model, series), SPEC)
        body = svg.split('<g id="data-points">\n', 1)[1].split("\n</g>", 1)[0]
        to_px = data_to_px(series, xml.dom.minidom.parseString(svg))
        assert [line.split('"')[1] for line in body.split("\n")] == \
            [f"{to_px(x, 0.0)[0]:.2f}" for x in series.xs]

    def test_everything_inside_plot_area(self):
        # The second model's curve rises far above the data, and the y axis
        # must cover it too.
        series, model, _ = quadratic_year()
        for model in (model, PolynomialModel((0.0, 0.0, 10.0))):
            report = fit_report(model, series)
            dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
            left, top, width, height = plot_area(dom)
            markers, curve = drawn_points(dom)
            for px, py in markers + curve:
                assert left <= px <= left + width
                assert top <= py <= top + height

    def test_title_and_axis_labels(self):
        series, model, report = quadratic_year()
        labels = texts_of(xml.dom.minidom.parseString(
            render_plot(series, model, report, SPEC)))
        assert "PM2.5 by Month in" in labels
        assert "Kyiv, Shcherbakovskaya St." in labels
        assert "Month" in labels
        assert "PM2.5 Index" in labels

    def test_month_tick_labels_present(self):
        series, model, report = quadratic_year()
        labels = texts_of(xml.dom.minidom.parseString(
            render_plot(series, model, report, SPEC)))
        for month in ("Jan", "Jun", "Dec"):
            assert month in labels

    def test_user_text_is_escaped(self):
        series, model, report = quadratic_year()
        spec = PlotSpec(description="A & B <Street>", metric_name="PM<10>",
                        y_label="x & y")
        svg = render_plot(series, model, report, spec)
        dom = xml.dom.minidom.parseString(svg)  # would fail on raw & or <
        assert "A & B <Street>" in texts_of(dom)

    @pytest.mark.parametrize("field, text", [
        ("description", "a\x01b"), ("metric_name", "\x00"), ("y_label", "\ud800"),
        ("description", "\udcff"), ("metric_name", "\ufffe"), ("y_label", "x\uffff"),
    ])
    def test_spec_refuses_text_an_svg_cannot_carry(self, field, text):
        texts = {"description": "d", "metric_name": "m", "y_label": "y", field: text}
        with pytest.raises(ValueError, match=f"^{field} holds "):
            PlotSpec(**texts)

    @given(text=st.text() | st.text(alphabet="&<>;\"'amp#lt"))
    def test_escape_matches_saxutils(self, text):
        assert _escape(text) == escape(text)

    def test_colors(self):
        series, model, report = quadratic_year()
        svg = render_plot(series, model, report, SPEC)
        assert 'stroke="purple"' in svg
        assert 'fill="black"' in svg

    def test_flat_data_has_nonempty_y_range(self):
        series = Series((1.0, 2.0, 3.0, 4.0), (5.0, 5.0, 5.0, 5.0))
        model, _ = fit_polynomial(series, 2)
        report = fit_report(model, series)
        dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
        y_labels = [float(t.firstChild.data) for t in dom.getElementsByTagName("text")
                    if t.getAttribute("text-anchor") == "end"]
        assert min(y_labels) < 5.0 < max(y_labels)

    @pytest.mark.parametrize("level", [1e16, -1.7976931348623157e308])
    def test_flat_data_beyond_half_unit_resolution(self, level):
        # From 2**53 up a half-unit pad rounds away, and at the largest
        # float a pad away from zero would overflow.
        series = Series((1.0, 2.0, 3.0, 4.0), (level,) * 4)
        model = PolynomialModel((level,))
        report = fit_report(model, series)
        dom = xml.dom.minidom.parseString(render_plot(series, model, report, SPEC))
        left, top, width, height = plot_area(dom)
        markers, curve = drawn_points(dom)
        assert len({py for _, py in markers + curve}) == 1
        assert top <= markers[0][1] <= top + height
        grid = dom.getElementsByTagName("g")[0]
        grid_ys = {line.getAttribute("y1") for line in grid.getElementsByTagName("line")
                   if line.getAttribute("y1") == line.getAttribute("y2")}
        assert len(grid_ys) >= 2

    def test_x_range_as_wide_as_the_float_range(self):
        # x spans the largest float: a 5% pad on either side would overflow.
        series = Series((0.0, 0.0, -sys.float_info.max), (0.0, 0.0, 0.0))
        model, _ = fit_polynomial(series, 1)
        svg = render_plot(series, model, fit_report(model, series), SPEC)
        assert "nan" not in svg
        dom = xml.dom.minidom.parseString(svg)
        left, _, width, _ = plot_area(dom)
        markers, curve = drawn_points(dom)
        assert [px for px, _ in markers] == [left + width, left + width, left]
        assert all(left <= px <= left + width for px, _ in curve)

    def test_all_x_equal_raises(self):
        # No fit accepts such a series, but render_plot takes any model.
        series = Series((3.0, 3.0, 3.0), (1.0, 2.0, 3.0))
        model = PolynomialModel((2.0,))
        report = fit_report(model, series)
        with pytest.raises(ValueError):
            render_plot(series, model, report, SPEC)


class TestGoldenFigure:
    def test_matches_committed_golden(self, sample_csv_path, golden_dir):
        svg, _, _ = render_sample(sample_csv_path)
        golden = golden_dir / "pm25_monthly.svg"
        if os.environ.get("QUADFIT_UPDATE_GOLDEN"):
            golden.parent.mkdir(parents=True, exist_ok=True)
            golden.write_text(svg, encoding="utf-8")
        assert golden.exists(), "golden file missing; run with QUADFIT_UPDATE_GOLDEN=1"
        assert svg == golden.read_text(encoding="utf-8")

    def test_bulk_figure_bytes_are_pinned(self):
        # The golden file draws 12 markers; this pins 5 000 of them, and
        # every other byte of a larger figure, to a recorded digest.
        series = noisy_quadratic(5_000, 7)
        model, _ = fit_polynomial(series, 2)
        svg = render_plot(series, model, fit_report(model, series), SPEC)
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == BULK_FIGURE_SHA256

    def test_sample_renders_identically_twice(self, sample_csv_path):
        first, _, _ = render_sample(sample_csv_path)
        second, _, _ = render_sample(sample_csv_path)
        assert first == second
