"""quadfit.cli.parse_args behaves as the argparse parser it replaced.

The reference is tests/argparse_oracle.py.  For each argv both parsers run
in-process with COLUMNS=80, and the outcomes must match: the exit code, the
nine fields run() reads, and everything written to stdout and stderr.

argparse from Python 3.13 lays --help out differently and handles -hx
otherwise, so the outcomes of the help, version and example argvs are also
pinned below: parse_args must give them on every version, and the oracle on
3.10-3.12, where the comparisons with it run.
"""

import contextlib
import io
import os
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import argparse_oracle

from quadfit import __version__
from quadfit.cli import OPTIONS, parse_args

needs_old_argparse = pytest.mark.skipif(
    sys.version_info >= (3, 13),
    reason="argparse from Python 3.13 lays out --help differently from the "
           "3.10-3.12 text that quadfit prints, and for -hx it prints help and "
           "exits 0 where quadfit, like argparse 3.10-3.12, exits 2")

FIELDS = ("input", "svg", "report", "degree", "description", "metric",
          "y_label", "x_col", "y_col")

# Option strings, prefixes, attached values and near misses, and values.
# An attached "--" on --degree is left out: argparse keeps the value as an
# unconverted empty list, where quadfit refuses it (TestAttachedDoubleDash
# in test_cli.py).
VOCABULARY = [
    *OPTIONS,
    "--in", "--deg", "--de", "--des", "--y", "--y-l", "--x-c", "--rep", "--ver", "--he",
    "--input=f.csv", "--in=f.csv", "--degree=3", "--degree=11", "--deg=abc",
    "--de=2", "--svg=", "--metric=--", "--y-label=a=b", "--y=1", "--version=1",
    "--=x", "-i=--", "--input=--",
    "-if.csv", "-i=f.csv", "-hi", "-hif", "-hx", "-h=", "-h=i", "--help=x",
    "--", "-", "-5", "-.5", "-5.", "-1e3", "-x", "---x", "--nope",
    "f.csv", "0", "1", "10", "11", "abc", " 3", "1_0", "", "a b", "-a b", "²", "٣",
]
TOKENS = st.sampled_from(VOCABULARY) | st.text(alphabet="-=hiv5 .dx", max_size=5)


USAGE = """\
usage: quadfit [-h] -i PATH [--svg PATH] [--report PATH] [--degree DEGREE]
               [--description DESCRIPTION] [--metric METRIC]
               [--y-label Y_LABEL] [--x-col NAME] [--y-col NAME] [--version]
"""
HELP = USAGE + """
Fit a low-degree polynomial to two-column CSV data, report the fit, and
optionally render an SVG chart.

options:
  -h, --help            show this help message and exit
  -i PATH, --input PATH
                        input CSV file, or - for standard input
  --svg PATH            write an SVG chart to PATH
  --report PATH         write the fit report to PATH (default: stdout)
  --degree DEGREE       polynomial degree, 1 to 10 (default: 2)
  --description DESCRIPTION
                        second title line of the chart (e.g. a location)
  --metric METRIC       metric name used in the chart title
  --y-label Y_LABEL     y axis label of the chart
  --x-col NAME          x column name (default: Month)
  --y-col NAME          y column name (default: Values)
  --version             show program's version number and exit
"""


def usage_error(message):
    return 2, None, "", f"{USAGE}quadfit: error: {message}\n"


# The outcome argparse 3.10-3.12 gives for each argv.
PINNED = {
    ("--help",): (0, None, HELP, ""),
    ("-h",): (0, None, HELP, ""),
    ("--version",): (0, None, f"quadfit {__version__}\n", ""),
    ("-i", "f.csv", "--de", "3"):
        usage_error("ambiguous option: --de could match --degree, --description"),
    ("-hi", "f.csv"): (0, None, HELP, ""),
    ("-hi",): usage_error("argument -i/--input: expected one argument"),
    ("-hx",): usage_error("argument -h/--help: ignored explicit argument 'x'"),
    ("-h=",): usage_error("argument -h/--help: ignored explicit argument ''"),
    ("--help=x",): usage_error("argument -h/--help: ignored explicit argument 'x'"),
    ("-i", "--"): usage_error("argument -i/--input: expected one argument"),
    ("-i", "f.csv", "--metric", "-x"): usage_error("argument --metric: expected one argument"),
    ("-i", "f.csv", "--", "-i", "g.csv"): usage_error("unrecognized arguments: -- -i g.csv"),
    ("--help", "--de"):
        usage_error("ambiguous option: --de could match --degree, --description"),
    ("--nope", "--svg"): usage_error("argument --svg: expected one argument"),
    ("-i", "f.csv", "--degree", "11", "--help"):
        usage_error("argument --degree: degree must be between 1 and 10, got 11"),
    ("--help", "--degree", "11"): (0, None, HELP, ""),
    ("-i", "f.csv", "--metric", "-5", "--y-label", "-.5", "--x-col", "-a b"):
        (0, ("f.csv", None, "-", 2, "", "-5", "-.5", "-a b", "Values"), "", ""),
    ("-if.csv", "--deg=3", "--y-l", "a", "--x-c=b", "--rep", "r.txt"):
        (0, ("f.csv", None, "r.txt", 3, "", "", "a", "b", "Values"), "", ""),
}


def outcome(parse, argv):
    """(exit code, field values or None, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    return 0, tuple(getattr(args, name) for name in FIELDS), out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PINNED, ids=" ".join)
def test_parse_args_gives_pinned_outcome(argv):
    assert outcome(parse_args, argv) == PINNED[argv]


@needs_old_argparse
@pytest.mark.parametrize("argv", PINNED, ids=" ".join)
def test_oracle_gives_pinned_outcome(argv):
    assert outcome(argparse_oracle.parse_args, argv) == PINNED[argv]


@needs_old_argparse
@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--version"]])
def test_help_and_version_text(argv):
    want = outcome(argparse_oracle.parse_args, argv)
    assert want[0] == 0 and want[2]
    assert outcome(parse_args, argv) == want


@needs_old_argparse
@settings(max_examples=1000, deadline=None)
@given(argv=st.lists(TOKENS, max_size=7))
@example(argv=["-i", "f.csv", "--de", "3"])
@example(argv=["-hi", "f.csv"])
@example(argv=["-hi"])
@example(argv=["-hx"])
@example(argv=["-h="])
@example(argv=["--help=x"])
@example(argv=["-i", "--"])
@example(argv=["-i", "f.csv", "--metric", "-x"])
@example(argv=["-i", "f.csv", "--", "-i", "g.csv"])
@example(argv=["--help", "--de"])
@example(argv=["--nope", "--svg"])
@example(argv=["-i", "f.csv", "--degree", "11", "--help"])
@example(argv=["--help", "--degree", "11"])
@example(argv=["-i", "f.csv", "--metric", "-5", "--y-label", "-.5", "--x-col", "-a b"])
@example(argv=["-if.csv", "--deg=3", "--y-l", "a", "--x-c=b", "--rep", "r.txt"])
def test_parse_args_matches_argparse(argv):
    want = outcome(argparse_oracle.parse_args, argv)
    # argparse turns an attached value of exactly "--" into an empty list;
    # quadfit keeps the string (TestAttachedDoubleDash in test_cli.py).
    assume(not any(isinstance(value, list) for value in want[1] or ()))
    assert outcome(parse_args, argv) == want
