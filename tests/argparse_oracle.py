"""The argparse command line parser quadfit used to have, kept as a reference.

tests/test_cli_parity.py checks that `quadfit.cli.parse_args` gives the same
exit code, fields, stdout and stderr as this parser, which is the one place
argparse remains.  The two functions below are copied unchanged.
"""

import argparse

from quadfit import __version__
from quadfit.fitting import DEFAULT_DEGREE


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
