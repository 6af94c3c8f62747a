"""Command line front end: CSV in, fit report out, optional SVG chart.

Exit codes: 0 on success, 1 when the data cannot be read or fitted,
2 for command line usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import CsvError, QuadfitError
from .fitting import DEFAULT_DEGREE, PolynomialModel, fit_polynomial
from .ingest import CsvSchema, parse_csv
from .metrics import FitReport, fit_report
from .plot import PlotSpec, format_equation, render_plot
from .quadratic import discriminant, quadratic_roots, to_vertex_form


def _degree(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"degree must be an integer, got {text!r}")
    if not 1 <= value <= 10:
        raise argparse.ArgumentTypeError(f"degree must be between 1 and 10, got {value}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="quadfit",
        description="Fit a low-degree polynomial to two-column CSV data, "
                    "report the fit, and optionally render an SVG chart.",
    )
    parser.add_argument("-i", "--input", required=True, metavar="PATH",
                        help="input CSV file, or - for standard input")
    parser.add_argument("--svg", metavar="PATH",
                        help="write an SVG chart to PATH")
    parser.add_argument("--report", metavar="PATH", default="-",
                        help="write the fit report to PATH (default: stdout)")
    parser.add_argument("--degree", type=_degree, default=DEFAULT_DEGREE,
                        help="polynomial degree, 1 to 10 (default: %(default)s)")
    parser.add_argument("--description", default="",
                        help="second title line of the chart (e.g. a location)")
    parser.add_argument("--metric", default="",
                        help="metric name used in the chart title")
    parser.add_argument("--y-label", default="",
                        help="y axis label of the chart")
    parser.add_argument("--x-col", default="Month", metavar="NAME",
                        help="x column name (default: %(default)s)")
    parser.add_argument("--y-col", default="Values", metavar="NAME",
                        help="y column name (default: %(default)s)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    return parser.parse_args(argv)


def format_report(model: PolynomialModel, report: FitReport) -> str:
    """Line-oriented key=value report; quadratic structure when degree is 2."""
    lines = [f"degree={model.degree}"]
    for k, coeff in enumerate(model.coeffs):
        lines.append(f"coeff[{k}]={coeff:.10e}")
    lines.append(f"ss_res={report.ss_res:.10e}")
    lines.append(f"ss_tot={report.ss_tot:.10e}")
    lines.append(f"r_squared={report.r_squared:.6f}")
    if model.degree == 2:
        a, b, c = model.coeffs[2], model.coeffs[1], model.coeffs[0]
        roots = quadratic_roots(a, b, c)
        vertex = to_vertex_form(a, b, c)
        if roots.roots:
            roots_text = ",".join(f"{r:.10e}" for r in roots.roots)
        else:
            roots_text = "none"
        equation = "; ".join(format_equation(model, report.r_squared).splitlines())
        lines.append(f"discriminant={discriminant(a, b, c):.10e}")
        lines.append(f"roots={roots_text}")
        lines.append(f"vertex_h={vertex.h:.10e}")
        lines.append(f"vertex_k={vertex.k:.10e}")
        lines.append(f"equation={equation}")
    return "\n".join(lines) + "\n"


def run(args: argparse.Namespace) -> None:
    schema = CsvSchema(x_column=args.x_col, y_column=args.y_col)
    if args.input == "-":
        series = parse_csv(sys.stdin.buffer.read(), schema)
    else:
        with open(args.input, "rb") as fh:
            series = parse_csv(fh, schema)
    model, _ = fit_polynomial(series, args.degree)
    report = fit_report(model, series)

    text = format_report(model, report)
    if args.report == "-":
        sys.stdout.write(text)
    else:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)

    if args.svg is not None:
        spec = PlotSpec(description=args.description,
                        metric_name=args.metric,
                        y_label=args.y_label)
        svg = render_plot(series, model, report, spec)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself on --help/--version (0) and usage errors (2);
        # fold that into the return-code contract so callers never see the raise.
        return int(exc.code or 0)
    try:
        run(args)
    except CsvError as exc:
        print(f"quadfit: {args.input}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except QuadfitError as exc:
        print(f"quadfit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"quadfit: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
