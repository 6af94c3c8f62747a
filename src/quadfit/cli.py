"""Command line front end: CSV in, fit report out, optional SVG chart.

Exit codes: 0 on success, 1 when the data cannot be read or fitted or an
output cannot be written, 2 for command line usage errors (argparse's
convention).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import CsvError, QuadfitError
from .fitting import DEFAULT_DEGREE, PolynomialModel, fit_polynomial
from .ingest import CsvSchema, parse_csv
from .metrics import FitReport, fit_report
from .plot import PlotSpec, format_equation, render_plot
from .quadratic import _roots_from_discriminant, discriminant, to_vertex_form


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
    """Line-oriented key=value report; quadratic structure when degree is 2.

    The structure lines need a nonzero x^2 coefficient: exactly linear data
    fits with a zero one, and then there is no parabola to describe.
    """
    lines = [f"degree={model.degree}"]
    for k, coeff in enumerate(model.coeffs):
        lines.append(f"coeff[{k}]={coeff:.10e}")
    lines.append(f"ss_res={report.ss_res:.10e}")
    lines.append(f"ss_tot={report.ss_tot:.10e}")
    lines.append(f"r_squared={report.r_squared:.6f}")
    if model.degree == 2 and model.coeffs[2] != 0.0:
        a, b, c = model.coeffs[2], model.coeffs[1], model.coeffs[0]
        disc = discriminant(a, b, c)
        roots = _roots_from_discriminant(a, b, c, disc)
        vertex = to_vertex_form(a, b, c)
        if roots.roots:
            roots_text = ",".join(f"{r:.10e}" for r in roots.roots)
        else:
            roots_text = "none"
        equation = "; ".join(format_equation(model, report.r_squared).splitlines())
        lines.append(f"discriminant={disc:.10e}")
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

    # Render before writing anything, so a render that fails leaves
    # stdout empty and no report file.
    if args.svg is not None:
        spec = PlotSpec(description=args.description,
                        metric_name=args.metric,
                        y_label=args.y_label)
        svg = render_plot(series, model, report, spec)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)

    if args.report == "-":
        sys.stdout.write(text)
    else:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(message: str) -> int:
    """Print a one-line diagnostic to stderr and return exit code 1."""
    try:
        print(f"quadfit: {message}", file=sys.stderr)
    except OSError:
        pass  # stderr is unwritable too; the exit code still tells
    return 1


def main(argv=None) -> int:
    try:
        try:
            args = parse_args(argv)
        except SystemExit as exc:
            # argparse exits itself on --help/--version (0) and usage errors (2);
            # fold that into the return-code contract so callers never see the raise.
            code = int(exc.code or 0)
        else:
            run(args)
            code = 0
        # Buffered stdout reports a full disk or a closed pipe only when it is
        # flushed, and --help and --version leave their text in the buffer.
        # It is None when the process started with file descriptor 1 closed.
        if sys.stdout is not None:
            sys.stdout.flush()
    except CsvError as exc:
        return _fail(f"{args.input}: {type(exc).__name__}: {exc}")
    except QuadfitError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        return _fail(str(exc))
    return code


def console_entry() -> None:
    """Process entry of the `quadfit` command and `python -m quadfit.cli`.

    Runs main(), flushes stdout and stderr, and ends the process with
    os._exit, skipping interpreter teardown (garbage collection and module
    cleanup), which would only run after every output is written.  Each
    file main() writes is closed before it returns, and quadfit registers
    no atexit hook; hooks that other code registers do not run.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue
        try:
            stream.flush()
        except OSError:
            pass  # main() has reported an unwritable stdout; stderr cannot report
    os._exit(code)


if __name__ == "__main__":
    console_entry()
