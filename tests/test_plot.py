import os
import xml.dom.minidom

import pytest

from oracle import exact_report
from conftest import DERIVED_XS, DERIVED_YS

from quadfit import (
    PlotSpec,
    PolynomialModel,
    Series,
    fit_polynomial,
    fit_report,
    format_equation,
    parse_csv,
    render_plot,
)
from quadfit.plot import month_ticks, plot_geometry, sample_curve

SPEC = PlotSpec(description="Kyiv, Shcherbakovskaya St.",
                metric_name="PM2.5",
                y_label="PM2.5 Index")


def quadratic_year():
    xs = tuple(float(x) for x in range(1, 13))
    ys = tuple(3.0 * x * x - 2.0 * x + 1.0 for x in xs)
    series = Series(xs, ys)
    model, _ = fit_polynomial(series, 2)
    return series, model, fit_report(model, series)


def geometry(series: Series, model: PolynomialModel, spec: PlotSpec):
    """The curve samples and transform render_plot uses for these inputs."""
    curve = sample_curve(model, min(series.xs), max(series.xs), spec.curve_samples)
    return curve, plot_geometry(series, curve, spec)


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
        assert got.startswith("Fitted curve: 1.0000x^2 + 0.0000x + 0.0000")

    def test_linear_fallback(self):
        got = format_equation(PolynomialModel((1.0, 2.0)), 0.25)
        assert got == "Fitted curve: 2.0000x + 1.0000\nR^2 = 0.2500"

    def test_cubic_fallback(self):
        got = format_equation(PolynomialModel((1.0, 2.0, 3.0, 4.0)), 0.0)
        assert got.splitlines()[0] == \
            "Fitted curve: 4.0000x^3 + 3.0000x^2 + 2.0000x + 1.0000"


class TestSampleCurve:
    def test_three_point_identity_line(self):
        got = sample_curve(PolynomialModel((0, 1)), 1, 12, 3)
        assert got == [(1.0, 1.0), (6.5, 6.5), (12.0, 12.0)]

    def test_default_200_points(self):
        pts = sample_curve(PolynomialModel((0, 1)), 1, 12, SPEC.curve_samples)
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
        series, model, report = quadratic_year()
        svg = render_plot(series, model, report, SPEC)
        dom = xml.dom.minidom.parseString(svg)
        polyline = dom.getElementsByTagName("polyline")[0]
        points = polyline.getAttribute("points").split()
        assert len(points) == SPEC.curve_samples
        _, geo = geometry(series, model, SPEC)
        first_px = float(points[0].split(",")[0])
        last_px = float(points[-1].split(",")[0])
        assert abs(first_px - geo.to_px(1.0, 0)[0]) < 0.01
        assert abs(last_px - geo.to_px(12.0, 0)[0]) < 0.01

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
        svg = render_plot(series, model, report, SPEC)
        dom = xml.dom.minidom.parseString(svg)
        group = [g for g in dom.getElementsByTagName("g")
                 if g.getAttribute("id") == "data-points"][0]
        circles = group.getElementsByTagName("circle")
        assert len(circles) == len(series)
        _, geo = geometry(series, model, SPEC)
        for circle, x, y in zip(circles, series.xs, series.ys):
            px, py = geo.to_px(x, y)
            assert circle.getAttribute("cx") == f"{px:.2f}"
            assert circle.getAttribute("cy") == f"{py:.2f}"
            # printed (2-decimal) coordinates stay within half a pixel
            assert abs(float(circle.getAttribute("cx")) - px) <= 0.5
            assert abs(float(circle.getAttribute("cy")) - py) <= 0.5

    def test_everything_inside_plot_area(self):
        series, model, report = quadratic_year()
        curve, geo = geometry(series, model, SPEC)
        for x, y in list(zip(series.xs, series.ys)) + curve:
            px, py = geo.to_px(x, y)
            assert geo.left - 0.01 <= px <= geo.left + geo.width + 0.01
            assert geo.top - 0.01 <= py <= geo.top + geo.height + 0.01

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

    def test_colors(self):
        series, model, report = quadratic_year()
        svg = render_plot(series, model, report, SPEC)
        assert 'stroke="purple"' in svg
        assert 'fill="black"' in svg

    def test_flat_data_has_nonempty_y_range(self):
        series = Series((1.0, 2.0, 3.0, 4.0), (5.0, 5.0, 5.0, 5.0))
        model, _ = fit_polynomial(series, 2)
        report = fit_report(model, series)
        _, geo = geometry(series, model, PlotSpec("", "", ""))
        assert geo.y_lo < 5.0 < geo.y_hi
        xml.dom.minidom.parseString(render_plot(series, model, report,
                                                PlotSpec("", "", "")))

    def test_all_x_equal_raises(self):
        # No fit accepts such a series, but render_plot takes any model.
        series = Series((3.0, 3.0, 3.0), (1.0, 2.0, 3.0))
        model = PolynomialModel((2.0,))
        report = fit_report(model, series)
        with pytest.raises(ValueError):
            render_plot(series, model, report, SPEC)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            PlotSpec("d", "m", "y", width=0)
        with pytest.raises(ValueError):
            PlotSpec("d", "m", "y", curve_samples=1)


class TestGoldenFigure:
    def test_matches_committed_golden(self, sample_csv_path, golden_dir):
        svg, _, _ = render_sample(sample_csv_path)
        golden = golden_dir / "pm25_monthly.svg"
        if os.environ.get("QUADFIT_UPDATE_GOLDEN"):
            golden.parent.mkdir(parents=True, exist_ok=True)
            golden.write_text(svg, encoding="utf-8")
        assert golden.exists(), "golden file missing; run with QUADFIT_UPDATE_GOLDEN=1"
        assert svg == golden.read_text(encoding="utf-8")

    def test_sample_renders_identically_twice(self, sample_csv_path):
        first, _, _ = render_sample(sample_csv_path)
        second, _, _ = render_sample(sample_csv_path)
        assert first == second
