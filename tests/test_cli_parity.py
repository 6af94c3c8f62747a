"""quadfit.cli.parse_args behaves as the argparse parser it replaced.

The reference is tests/argparse_oracle.py.  For each argv both parsers run
in-process with COLUMNS=80, and the outcomes must match: the exit code, the
nine fields run() reads, and everything written to stdout and stderr.
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

from quadfit.cli import OPTIONS, parse_args

pytestmark = pytest.mark.skipif(
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


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--version"]])
def test_help_and_version_text(argv):
    want = outcome(argparse_oracle.parse_args, argv)
    assert want[0] == 0 and want[2]
    assert outcome(parse_args, argv) == want


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
