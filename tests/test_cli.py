import ast
import builtins
import contextlib
import io
import itertools
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import exact_report, normal_equations_fit
from support import (
    SHARED_CPU,
    cut,
    failing_helpers,
    helpers_send,
    noisy_quadratic,
    run_isolated,
    share_the_cpu,
    wait_long,
)
from conftest import DERIVED_XS, DERIVED_YS, REPO_ROOT

from quadfit import (
    FitReport,
    NumericalOverflow,
    PlotSpec,
    PolynomialModel,
    Series,
    eval_poly,
    fit_polynomial,
    fit_report,
    parse_csv,
    render_plot,
)
from quadfit import _helper, cli, fitting, ingest, plot
from quadfit.cli import format_report, main, parse_args
from quadfit.plot import _MARKER_BLOCK, WIDTH

DERIVED_CSV = "Month,Values\n1,1\n2,4\n3,9\n4,17\n"


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def parse_report(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        fields[key] = value
    return fields


class TestParseArgs:
    def test_typical_invocation(self):
        args = parse_args(["-i", "data.csv", "--metric", "PM2.5",
                           "--description", "Kyiv, Shcherbakovskaya St.",
                           "--y-label", "PM2.5 Index"])
        assert args.input == "data.csv"
        assert args.degree == 2
        assert args.metric == "PM2.5"
        assert args.description == "Kyiv, Shcherbakovskaya St."
        assert args.y_label == "PM2.5 Index"
        assert args.x_col == "Month" and args.y_col == "Values"
        assert args.report == "-" and args.svg is None

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "quadfit" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        [],                                 # missing --input
        ["-i", "f.csv", "--nope"],          # unknown flag
        ["-i", "f.csv", "--degree", "0"],   # below guardrail
        ["-i", "f.csv", "--degree", "11"],  # above guardrail
        ["-i", "f.csv", "--degree", "abc"],
    ])
    def test_usage_errors_exit_two(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err != ""

    def test_degree_bounds_accepted(self):
        assert parse_args(["-i", "f", "--degree", "1"]).degree == 1
        assert parse_args(["-i", "f", "--degree", "10"]).degree == 10


# argparse's test of whether an option-like string is a negative number.
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
# Decimal digits, a dot, a newline, a superscript two (a digit, but not a
# decimal), an Arabic-Indic two (a decimal), a letter, a dash and a space.
NUMBER_ALPHABET = "05.\n\u00b2\u0662a- "


class TestNegativeNumber:
    def test_matches_argparse_pattern_on_short_strings(self):
        for length in range(5):
            for chars in itertools.product(NUMBER_ALPHABET, repeat=length):
                arg = "-" + "".join(chars)
                assert cli._is_negative_number(arg) == bool(NEGATIVE_NUMBER.match(arg)), arg

    @settings(max_examples=500)
    @given(text=st.text())
    def test_matches_argparse_pattern_on_any_text(self, text):
        for arg in (text, "-" + text):
            assert cli._is_negative_number(arg) == bool(NEGATIVE_NUMBER.match(arg))


class TestFormatReport:
    def _report(self, coeffs):
        model = PolynomialModel(coeffs)
        return model, FitReport(ss_res=0.25, ss_tot=4.0, r_squared=0.9375, n=5)

    def test_degree_two_field_order(self):
        model, report = self._report((6.0, -5.0, 1.0))
        keys = [line.partition("=")[0]
                for line in format_report(model, report).splitlines()]
        assert keys == ["degree", "coeff[0]", "coeff[1]", "coeff[2]",
                        "ss_res", "ss_tot", "r_squared",
                        "discriminant", "roots", "vertex_h", "vertex_k",
                        "equation"]

    def test_two_real_roots(self):
        model, report = self._report((6.0, -5.0, 1.0))
        fields = parse_report(format_report(model, report))
        assert fields["roots"] == "2.0000000000e+00,3.0000000000e+00"
        assert fields["discriminant"] == "1.0000000000e+00"
        assert fields["vertex_h"] == "2.5000000000e+00"
        assert fields["vertex_k"] == "-2.5000000000e-01"

    def test_double_root(self):
        model, report = self._report((0.0, 0.0, 1.0))
        fields = parse_report(format_report(model, report))
        assert fields["roots"] == "0.0000000000e+00"

    def test_no_real_roots(self):
        model, report = self._report((1.0, 0.0, 1.0))
        fields = parse_report(format_report(model, report))
        assert fields["roots"] == "none"

    def test_equation_is_single_line(self):
        model, report = self._report((6.0, -5.0, 1.0))
        fields = parse_report(format_report(model, report))
        assert fields["equation"] == \
            "Fitted curve: 1.0000x^2 + -5.0000x + 6.0000; R^2 = 0.9375"

    def test_degree_one_has_no_quadratic_fields(self):
        model = PolynomialModel((1.0, 2.0))
        report = FitReport(ss_res=0.0, ss_tot=1.0, r_squared=1.0, n=3)
        keys = [line.partition("=")[0]
                for line in format_report(model, report).splitlines()]
        assert keys == ["degree", "coeff[0]", "coeff[1]",
                        "ss_res", "ss_tot", "r_squared"]


class TestEndToEnd:
    def test_success_with_report_and_svg(self, tmp_path, sample_csv_path, capsys):
        svg_path = tmp_path / "chart.svg"
        code = main(["-i", str(sample_csv_path), "--svg", str(svg_path),
                     "--metric", "PM2.5", "--y-label", "PM2.5 Index",
                     "--description", "Kyiv, Shcherbakovskaya St."])
        assert code == 0
        fields = parse_report(capsys.readouterr().out)
        assert fields["degree"] == "2"
        assert svg_path.exists()
        assert svg_path.read_text(encoding="utf-8").startswith("<svg")

    def test_report_written_to_file(self, tmp_path, sample_csv_path):
        report_path = tmp_path / "fit.txt"
        assert main(["-i", str(sample_csv_path),
                     "--report", str(report_path)]) == 0
        assert "r_squared=" in report_path.read_text(encoding="utf-8")

    def test_report_self_consistency(self, tmp_path, capsys):
        path = write_csv(tmp_path, DERIVED_CSV)
        assert main(["-i", path]) == 0
        fields = parse_report(capsys.readouterr().out)
        coeffs = tuple(float(fields[f"coeff[{k}]"]) for k in range(3))
        model = PolynomialModel(coeffs)
        series = Series(DERIVED_XS, DERIVED_YS)
        ss_res = math.fsum((y - eval_poly(model, x)) ** 2
                           for x, y in zip(series.xs, series.ys))
        reported = float(fields["ss_res"])
        assert abs(ss_res - reported) <= 1e-6 * max(reported, 1e-30)

    def test_report_matches_oracle_to_four_decimals(self, tmp_path, capsys):
        path = write_csv(tmp_path, DERIVED_CSV)
        assert main(["-i", path]) == 0
        fields = parse_report(capsys.readouterr().out)
        want = normal_equations_fit(DERIVED_XS, DERIVED_YS, 2)
        for k in range(3):
            got = float(fields[f"coeff[{k}]"])
            assert f"{got:.4f}" == f"{float(want[k]):.4f}"

    def test_outputs_byte_identical_across_runs(self, tmp_path, sample_csv_path):
        paths = {}
        for run in ("a", "b"):
            report = tmp_path / f"report_{run}.txt"
            svg = tmp_path / f"chart_{run}.svg"
            assert main(["-i", str(sample_csv_path), "--report", str(report),
                         "--svg", str(svg), "--metric", "PM2.5",
                         "--y-label", "idx", "--description", "Kyiv"]) == 0
            paths[run] = (report.read_bytes(), svg.read_bytes())
        assert paths["a"] == paths["b"]

    def test_reads_stdin(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(DERIVED_CSV.encode()))
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["-i", "-"]) == 0
        assert "degree=2" in capsys.readouterr().out

    def test_degree_one_fit(self, tmp_path, capsys):
        path = write_csv(tmp_path, DERIVED_CSV)
        assert main(["-i", path, "--degree", "1"]) == 0
        fields = parse_report(capsys.readouterr().out)
        assert fields["degree"] == "1"
        assert "discriminant" not in fields

    def test_custom_columns(self, tmp_path, capsys):
        path = write_csv(tmp_path, "t,v\n1,1\n2,4\n3,9\n4,17\n")
        assert main(["-i", path, "--x-col", "t", "--y-col", "v"]) == 0
        assert "degree=2" in capsys.readouterr().out

    def test_linear_data_at_degree_two(self, tmp_path, capsys):
        # The fit's x^2 coefficient is exactly 0, so there is no parabola
        # to describe: the report stops after r_squared.
        path = write_csv(tmp_path, "Month,Values\n-1,0\n0,1\n1,2\n")
        assert main(["-i", path]) == 0
        out, err = capsys.readouterr()
        fields = parse_report(out)
        assert list(fields) == ["degree", "coeff[0]", "coeff[1]", "coeff[2]",
                                "ss_res", "ss_tot", "r_squared"]
        assert fields["coeff[2]"] == "0.0000000000e+00"
        assert fields["r_squared"] == "1.000000"
        assert err == ""

    def test_small_y_keeps_two_roots(self, tmp_path, capsys):
        # y = 1e-8 (x - 3)(x - 9): a small unit of y is not a double root.
        rows = "".join(f"{x},{1e-8 * (x - 3) * (x - 9)!r}\n" for x in range(1, 13))
        path = write_csv(tmp_path, "Month,Values\n" + rows)
        assert main(["-i", path]) == 0
        fields = parse_report(capsys.readouterr().out)
        assert fields["roots"] == "3.0000000000e+00,9.0000000000e+00"

    def test_root_at_zero_prints_without_a_sign(self, tmp_path, capsys):
        # y = x^2 + 5x: the root 0 is c/q with c = 0 and q < 0.
        rows = "".join(f"{x},{x * x + 5 * x}\n" for x in range(-2, 3))
        assert main(["-i", write_csv(tmp_path, "Month,Values\n" + rows)]) == 0
        fields = parse_report(capsys.readouterr().out)
        assert fields["roots"] == "-5.0000000000e+00,0.0000000000e+00"

    def test_lead_past_a_quarter_of_the_float_range(self, tmp_path, capsys):
        # The x^2 coefficient is about 5.1e307, so 4a and 2a overflow, but
        # 4ac, the double root and the vertex do not.
        csv_text = "Month,Values\n-1.4e-154,1\n0,0\n1.4e-154,1\n"
        assert main(["-i", write_csv(tmp_path, csv_text)]) == 0
        out, err = capsys.readouterr()
        fields = parse_report(out)
        assert [fields[key] for key in ("discriminant", "roots", "vertex_h", "vertex_k")] \
            == ["0.0000000000e+00"] * 4
        assert err == ""

    def test_tiny_y_keeps_its_fit(self, tmp_path, sample_csv_path, capsys):
        # The squares of y * 1e-170 are below the float range, but R^2 and
        # the roots do not change, and the vertex scales with y.
        lines = sample_csv_path.read_text(encoding="utf-8").splitlines()
        rows = "".join(f"{x},{float(y) * 1e-170!r}\n"
                       for x, y in (line.split(",") for line in lines[1:]))
        path = write_csv(tmp_path, lines[0] + "\n" + rows)
        for degree in ("1", "2"):
            assert main(["-i", str(sample_csv_path), "--degree", degree]) == 0
            want = parse_report(capsys.readouterr().out)
            assert main(["-i", path, "--degree", degree]) == 0
            got = parse_report(capsys.readouterr().out)
            assert got["r_squared"] == want["r_squared"]
            assert got.get("roots") == want.get("roots")
            for key in ("vertex_h", "vertex_k"):
                if key in want:
                    scale = 1e-170 if key == "vertex_k" else 1.0
                    assert float(got[key]) == pytest.approx(float(want[key]) * scale,
                                                            rel=1e-9, abs=0.0)

    def test_large_constant_data(self, tmp_path, capsys):
        # The fit works on y - y0, so it reproduces constant data exactly,
        # however large y is.
        rows = "".join(f"{x},4090082241507.382\n" for x in range(1, 7))
        path = write_csv(tmp_path, "Month,Values\n" + rows)
        assert main(["-i", path, "--degree", "1"]) == 0
        out, err = capsys.readouterr()
        assert parse_report(out)["r_squared"] == "1.000000"
        assert err == ""


class TestFailureModes:
    def test_truncated_csv(self, tmp_path, capsys):
        path = write_csv(tmp_path, "Month,Values\n1,10\n2,12\n")
        assert main(["-i", path]) == 1
        assert "InsufficientData" in capsys.readouterr().err

    def test_non_numeric_cell(self, tmp_path, capsys):
        path = write_csv(tmp_path, "Month,Values\n1,abc\n2,3\n3,4\n")
        assert main(["-i", path]) == 1
        err = capsys.readouterr().err
        assert "NonNumericValue" in err and path in err

    def test_missing_column(self, tmp_path, capsys):
        path = write_csv(tmp_path, "Month,Other\n1,2\n")
        assert main(["-i", path]) == 1
        assert "MissingColumn" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["-i", str(tmp_path / "absent.csv")]) == 1
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize("csv_text, line", [
        ("Month,Values\n1,10\n2,12\n",
         "quadfit: InsufficientData: degree 2 needs 3 observations, got 2\n"),
        ("Month,Values\n1,10\n1,11\n2,12\n2,13\n",
         "quadfit: DegenerateAbscissa: degree 2 needs 3 distinct x values, got 2\n"),
    ], ids=["too-few-points", "repeated-x"])
    def test_unfittable_data(self, tmp_path, capsys, csv_text, line):
        assert main(["-i", write_csv(tmp_path, csv_text)]) == 1
        assert capsys.readouterr().err == line

    def test_bad_degree(self, tmp_path, capsys, monkeypatch):
        # --degree rejects this itself (exit 2), so hand run() the value
        # directly to check that the fit's own check reaches the user.
        args = parse_args(["-i", write_csv(tmp_path, DERIVED_CSV)])
        args.degree = -1
        monkeypatch.setattr(cli, "parse_args", lambda argv: args)
        assert main([]) == 1
        assert capsys.readouterr().err == \
            "quadfit: InvalidDegree: degree must be nonnegative, got -1\n"

    @pytest.mark.parametrize("csv_text", [
        "Month,Values\n-1e308,1\n0,3\n1e308,2\n5e307,7\n",
        "Month,Values\n1,1e200\n2,-1e200\n3,1e200\n4,-1e200\n",
        "Month,Values\n1,1e300\n2,-1e300\n3,1e300\n4,-1e300\n",
    ], ids=["x-1e308", "y-1e200", "y-1e300"])
    def test_huge_finite_input(self, tmp_path, capsys, csv_text):
        # Every value is a finite float, but the x span or the sums of
        # squares leave the float range.
        assert main(["-i", write_csv(tmp_path, csv_text)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("quadfit: NumericalOverflow: ")
        assert err.count("\n") == 1 and err.endswith(" too large\n")

    def test_narrow_x_window(self, tmp_path, capsys):
        # The window's half-width rounds to 0: the x values, not their
        # size, are what the fit cannot hold.
        csv_text = "Month,Values\n0,1\n5e-324,2\n0,3\n"
        assert main(["-i", write_csv(tmp_path, csv_text), "--degree", "1"]) == 1
        assert capsys.readouterr().err == ("quadfit: NumericalOverflow: the fit overflows a "
                                           "float; the x values are too close together\n")

    @pytest.mark.parametrize("degree", ["2", "3"])
    def test_tiny_x_spacing(self, capsys, monkeypatch, degree):
        # The coefficients in powers of x need 1/half**degree, which
        # overflows though 1/half does not.
        csv_text = "Month,Values\n1e-300,1\n2e-300,2\n3e-300,0\n4e-300,5\n5e-300,1\n"
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(csv_text.encode())))
        assert main(["-i", "-", "--degree", degree]) == 1
        assert capsys.readouterr() == ("", "quadfit: NumericalOverflow: the fit overflows a "
                                           "float; the x values are too close together\n")

    def test_quadratic_structure_overflow(self, tmp_path, capsys):
        # The fit and its sums of squares are finite, but b*b in the
        # discriminant and the vertex k is not.
        csv_text = "Month,Values\n0,1e152\n0.01,-2e152\n0.03,1e152\n"
        assert main(["-i", write_csv(tmp_path, csv_text)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("quadfit: NumericalOverflow: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert re.search(r"\b(nan|inf)\b", out) is None

    @pytest.mark.parametrize("flags, line", [
        (["--x-col", "Values", "--y-col", "Values"],
         "quadfit: QuadfitError: x and y columns must be distinct\n"),
        (["--x-col", ""], "quadfit: QuadfitError: column names must be nonempty\n"),
    ], ids=["same-column", "empty-name"])
    def test_bad_column_names(self, tmp_path, capsys, flags, line):
        # The input does not exist: the names are refused before it is read.
        assert main(["-i", str(tmp_path / "absent.csv"), *flags]) == 1
        assert capsys.readouterr() == ("", line)

    def test_diagnostic_is_single_line(self, tmp_path, capsys):
        path = write_csv(tmp_path, "Month,Values\n1,10\n2,12\n")
        main(["-i", path])
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1


class TestAttachedDoubleDash:
    """An attached value of exactly "--" is that string, as any other is."""

    def test_degree_is_a_usage_error(self, sample_csv_path, capsys):
        assert main(["-i", str(sample_csv_path), "--degree=--"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(
            "\nquadfit: error: argument --degree: degree must be an integer, got '--'\n")

    @pytest.mark.parametrize("flag", ["--input=--", "-i--", "-i=--"])
    def test_input_names_a_missing_file(self, flag, capsys):
        assert main([flag]) == 1
        assert capsys.readouterr() == \
            ("", "quadfit: [Errno 2] No such file or directory: '--'\n")

    def test_metric_titles_the_chart(self, tmp_path, sample_csv_path, capsys):
        svg_path = tmp_path / "chart.svg"
        assert main(["-i", str(sample_csv_path), "--metric=--", "--svg", str(svg_path)]) == 0
        assert ">-- by Month in</text>" in svg_path.read_text(encoding="utf-8")
        assert capsys.readouterr().out == readme_report().decode()


README_FLAGS = ["--metric", "PM2.5", "--y-label", "PM2.5 Index",
                "--description", "Kyiv, Shcherbakovskaya St."]
DISK_FULL = b"quadfit: [Errno 28] No space left on device\n"
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs /dev/full")


def run_cli(*argv, **popen_args):
    """`python -m quadfit.cli` in a child process, stdout block-buffered."""
    # PYTHONUNBUFFERED would make a failed stdout write raise inside run();
    # a buffered stdout fails only when it is flushed, which is the case
    # these tests need to reach.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(REPO_ROOT / "src"), COLUMNS="80")
    popen_args = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen_args}
    return subprocess.run([sys.executable, "-m", "quadfit.cli", *map(str, argv)],
                          cwd=REPO_ROOT, env=env, timeout=60, **popen_args)


def readme_report() -> bytes:
    """README's sample report, from its degree=2 line to its equation= line."""
    lines = (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("degree=2")
    end = next(i for i in range(start, len(lines))
               if lines[i].startswith("equation="))
    return ("\n".join(lines[start:end + 1]) + "\n").encode()


class TestProcessEntry:
    def test_report_matches_readme(self, sample_csv_path):
        proc = run_cli("-i", sample_csv_path)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == readme_report()

    def test_svg_matches_golden(self, tmp_path, sample_csv_path, golden_dir):
        svg_path = tmp_path / "chart.svg"
        proc = run_cli("-i", sample_csv_path, "--svg", svg_path, *README_FLAGS)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert svg_path.read_bytes() == (golden_dir / "pm25_monthly.svg").read_bytes()

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_version_and_help_print_their_full_text(self, flag, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([flag]) == 0
        proc = run_cli(flag)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_missing_file(self, tmp_path):
        proc = run_cli("-i", tmp_path / "absent.csv")
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr.startswith(b"quadfit: ") and proc.stderr.count(b"\n") == 1

    def test_usage_error_exits_two(self, sample_csv_path):
        assert run_cli("-i", sample_csv_path, "--degree", "11").returncode == 2

    @needs_dev_full
    @pytest.mark.parametrize("argv", [["-i", "data/pm25_monthly.csv"],
                                      ["--help"], ["--version"]])
    def test_unwritable_stdout_exits_one(self, argv):
        with open("/dev/full", "wb") as full:
            proc = run_cli(*argv, stdout=full)
        assert (proc.returncode, proc.stderr) == (1, DISK_FULL)

    @needs_dev_full
    @pytest.mark.parametrize("input_name, code", [("pm25_monthly.csv", 0),
                                                  ("absent.csv", 1)])
    def test_unwritable_stderr_keeps_the_exit_code(self, input_name, code):
        with open("/dev/full", "wb") as full:
            proc = run_cli("-i", "data/" + input_name, stderr=full)
        assert proc.returncode == code
        assert proc.stdout == (readme_report() if code == 0 else b"")

    @needs_dev_full
    def test_unwritable_stdout_and_stderr_exit_one(self, sample_csv_path):
        with open("/dev/full", "wb") as full:
            proc = run_cli("-i", sample_csv_path, stdout=full, stderr=full)
        assert proc.returncode == 1

    def test_closed_stdout_is_not_flushed(self, tmp_path, sample_csv_path):
        # With file descriptor 1 closed at start, sys.stdout is None; --help
        # and --version then write their text to stderr, as argparse does.
        for flag in ("--help", "--version"):
            proc = run_cli(flag, stdout=None, preexec_fn=lambda: os.close(1))
            assert (proc.returncode, proc.stderr) == (0, run_cli(flag).stdout)
        report = tmp_path / "fit.txt"
        proc = run_cli("-i", sample_csv_path, "--report", report,
                       stdout=None, preexec_fn=lambda: os.close(1))
        assert proc.returncode == 0, proc.stderr
        assert report.read_bytes() == readme_report()

    def test_closed_stdout_fails_before_reading_input(self, tmp_path, sample_csv_path):
        svg_path = tmp_path / "chart.svg"
        proc = run_cli("-i", sample_csv_path, "--svg", svg_path,
                       stdout=None, preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (1, b"quadfit: standard output is closed\n")
        assert not svg_path.exists()

    def test_closed_stdin_exits_one(self):
        proc = run_cli("-i", "-", preexec_fn=lambda: os.close(0))
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, b"", b"quadfit: standard input is closed\n")

    def test_main_reports_unwritable_stdout_in_process(self, sample_csv_path,
                                                      capsys, monkeypatch):
        class FullStdout(io.StringIO):
            def flush(self):
                raise OSError(28, "No space left on device")

        def no_exit(code):
            raise AssertionError("main() must return, not end the process")

        monkeypatch.setattr(os, "_exit", no_exit)
        monkeypatch.setattr(sys, "stdout", FullStdout())
        assert main(["-i", str(sample_csv_path)]) == 1
        assert capsys.readouterr().err.encode() == DISK_FULL

    def test_console_script_is_the_process_entry(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        target = re.fullmatch(r'quadfit = "quadfit\.cli:(\w+)"', scripts.strip())[1]
        source = (REPO_ROOT / "src" / "quadfit" / "cli.py").read_text(encoding="utf-8")
        guard, = [node for node in ast.parse(source).body if isinstance(node, ast.If)
                  and ast.unparse(node.test) == "__name__ == '__main__'"]
        assert [ast.unparse(stmt) for stmt in guard.body] == [f"{target}()"]
        assert callable(getattr(cli, target))

    @pytest.mark.forks
    @pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="helpers fork only where pidfds exist")
    @pytest.mark.parametrize("rows, degree, defect, svg", [
        pytest.param(20_000, 10, None, None, id="exit-0"),
        pytest.param(20_000, 10, "overflow", None, id="exit-1"),
        pytest.param(100_000, 2, None, "chart.svg", id="svg-exit-0"),
        pytest.param(100_000, 2, None, "/dev/full", id="svg-full-exit-1", marks=needs_dev_full),
        pytest.param(100_000, 2, "bad-cell", "chart.svg", id="bad-cell-exit-1"),
        pytest.param(100_000, 2, "overflow", "chart.svg", id="svg-overflow-exit-1"),
    ])
    def test_no_process_outlives_a_large_fit(self, tmp_path, rows, degree, defect, svg):
        # 20,000 rows at degree 10 fork a helper for the fit, and 1e5 rows
        # with --svg one before the parse, which serves the fit and the
        # chart's markers too.  It is reaped before the command returns,
        # here where the chart cannot be written, the fit overflows or a
        # cell among the helper's rows is bad too.  Helpers share the command's CPU, so that one
        # allowed one CPU forks them too.  The command line leads its own
        # process group, so any helper left would still be in it.
        lines = noisy_csv(rows).splitlines()
        if defect == "overflow":
            # y - y0 overflows, in the fit, after the helper has started.
            lines[1] = lines[1].split(",")[0] + ",-1.7e308"
            lines[2] = lines[2].split(",")[0] + ",1.7e308"
        elif defect == "bad-cell":
            lines[75_000] = lines[75_000].split(",")[0] + ",7x"
        csv = tmp_path / "large.csv"
        csv.write_text("\n".join(lines) + "\n", encoding="ascii")
        argv = ["-i", str(csv), "--degree", str(degree)]
        if svg:
            argv += ["--svg", str(tmp_path / svg)]
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        entry = SHARED_CPU + "from quadfit.cli import console_entry\nconsole_entry()\n"
        with subprocess.Popen([sys.executable, "-c", entry, *argv],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
                              start_new_session=True) as proc:
            stderr = proc.communicate(timeout=60)[1]
        assert proc.returncode == (1 if defect or svg == "/dev/full" else 0), stderr
        if defect == "bad-cell":
            assert stderr == (f"quadfit: {csv}: NonNumericValue: row 75000, column 'Values': "
                              "'7x' is not a finite number\n").encode()
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)

    @pytest.mark.forks
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_a_process_allowed_one_cpu_forks_no_helper(self, tmp_path):
        # The gate as it is: pinned to one CPU, the command forks nothing
        # for the parse, fit or chart of 1e5 rows, or the fit of 20,000 at
        # degree 10, and writes what it does with every helper turned off.
        big, fit = tmp_path / "big.csv", tmp_path / "fit.csv"
        big.write_text(noisy_csv(100_000), encoding="ascii")
        fit.write_text(noisy_csv(20_000), encoding="ascii")
        script = """
import json, math, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from quadfit import cli, fitting, ingest, plot
big, fit, out = sys.argv[1:]

def run(name):
    return [cli.main(["-i", big, "--svg", f"{out}/{name}.svg", "--report", f"{out}/{name}.txt"]),
            cli.main(["-i", fit, "--degree", "10", "--report", f"{out}/{name}-fit.txt"])]

pinned = run("pinned")
ingest._SPLIT_MIN_BYTES = fitting._HELPER_MIN_WORK = plot._SPLIT_MIN_MARKERS = math.inf
print(json.dumps([pinned, run("alone"), len(forks)]))
"""
        assert run_isolated(script, str(big), str(fit), str(tmp_path)) == [[0, 0], [0, 0], 0]
        for suffix in (".svg", ".txt", "-fit.txt"):
            assert (tmp_path / f"pinned{suffix}").read_bytes() == (tmp_path / f"alone{suffix}").read_bytes()


def noisy_csv(rows: int) -> str:
    """rows points, x evenly over [1, 12], y scattered about a parabola."""
    lines = ["Month,Values"]
    for i in range(rows):
        x = 1.0 + 11.0 * i / (rows - 1)
        lines.append(f"{x:.6f},{(x - 6.0) ** 2 + (i * 7919) % 101 / 20.0:.4f}")
    return "\n".join(lines) + "\n"


def outputs(tmp_path, name, csv, *argv):
    """main's exit code, stdout and stderr, run in process on csv with
    argv, and the bytes of the SVG it writes with --svg (None where it
    writes none, or with no --svg where argv ends in "--no-svg")."""
    svg = tmp_path / f"{name}.svg"
    args = ["-i", str(csv), *argv]
    if args[-1] == "--no-svg":
        del args[-1]
    else:
        args += ["--svg", str(svg)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue(), svg.read_bytes() if svg.exists() else None


def in_process(monkeypatch, *args):
    """outputs(*args) with no helper, each threshold left as it was found."""
    with monkeypatch.context() as patch:
        for module, name in ((ingest, "_SPLIT_MIN_BYTES"), (fitting, "_HELPER_MIN_WORK"),
                             (plot, "_SPLIT_MIN_MARKERS")):
            patch.setattr(module, name, math.inf)
        return outputs(*args)


@pytest.mark.forks
@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="helpers fork only where pidfds exist")
class TestOneHelperPerRun:
    """A run forks at most one helper, at its first stage large enough, and
    that helper serves every later stage.  Whatever becomes of it, the run
    writes what it writes with no helper, and leaves no process behind."""

    @pytest.fixture(autouse=True)
    def helpers(self, monkeypatch):
        """Each helper a run forks, on this process's CPU where no other
        is allowed."""
        share_the_cpu(monkeypatch)
        started, start = [], _helper.start

        def recorded(work, room=0):
            helper = start(work, room)
            if helper:
                started.append(helper)
            return helper
        monkeypatch.setattr(_helper, "start", recorded)
        return started

    @staticmethod
    def checked(tmp_path, monkeypatch, csv, *argv):
        """outputs for csv and argv, once they are shown to equal those of
        the run in process and no child of this process is left."""
        got = outputs(tmp_path, "split", csv, *argv)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert got == in_process(monkeypatch, tmp_path, "alone", csv, *argv)
        return got

    @pytest.mark.parametrize("rows, degree, svg, records", [
        (None, 2, True, None),
        # Past _SPLIT_MIN_BYTES: forked before the parse, it sends its rows,
        # the four scalars in t and its markers.
        (40_000, 2, True, 6),
        # Below it, forked at the fit, for its 20 scalars.
        (20_000, 10, False, 20),
        # Below both, forked at the chart.
        (plot._SPLIT_MIN_MARKERS, 1, True, 1),
    ], ids=["bundled", "parse-fit-chart", "fit", "chart"])
    def test_forks_per_run(self, rows, degree, svg, records, tmp_path, monkeypatch, helpers):
        wait_long(monkeypatch)
        csv = SAMPLE_CSV if rows is None else write_csv(tmp_path, noisy_csv(rows))
        if rows == 40_000:
            assert os.path.getsize(csv) >= ingest._SPLIT_MIN_BYTES
        elif rows:
            assert os.path.getsize(csv) < ingest._SPLIT_MIN_BYTES
        # The run in process that checked compares with forks nothing.
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        code, *_ = self.checked(tmp_path, monkeypatch, csv, "--degree", str(degree),
                                *(() if svg else ("--no-svg",)))
        assert code == 0
        assert len(forks) == len(helpers) == (0 if records is None else 1)
        assert [helper.arrived for helper in helpers] == ([] if records is None else [records])
        assert all(helper.cpu is not None for helper in helpers)

    # The records of 40,000 rows at degree 2: the rows (0), mean(t) (1), the
    # last scalar (4) and the markers (5).
    @pytest.mark.parametrize("at", [0, 1, 4, 5], ids=["parse", "fit-first", "fit-last", "chart"])
    @pytest.mark.parametrize("fate", ["fails", "cut", "stops"])
    def test_a_helper_lost_at_any_stage_changes_nothing(self, fate, at, tmp_path, monkeypatch, helpers):
        # The helper fails at its record `at`, is cut off half way through
        # it, or stops itself there.  The run waits for it no longer than
        # the stage's bound, kills it, and does that share and every later
        # one in process.
        if fate == "stops":
            def wrap(send):
                sent = 0

                def stopping(record, mapped=False):
                    nonlocal sent
                    if sent == at:
                        os.kill(os.getpid(), signal.SIGSTOP)
                    sent += 1
                    send(record, mapped)
                return stopping
            helpers_send(monkeypatch, wrap)
        else:
            wait_long(monkeypatch)
            failing_helpers(monkeypatch, at, cut(lambda record: len(record) // 2) if fate == "cut" else None)
        csv = write_csv(tmp_path, noisy_csv(40_000))
        start = time.monotonic()
        code, *_ = self.checked(tmp_path, monkeypatch, csv)
        assert code == 0 and time.monotonic() - start < 10.0
        helper, = helpers
        assert helper.arrived <= at if fate == "stops" else helper.arrived == at

    @pytest.mark.parametrize("defect, error", [
        ("bad-cell", "NonNumericValue"), ("quoted-cell", None), ("overflow", "NumericalOverflow"),
    ])
    def test_a_failing_run_fails_as_in_process(self, defect, error, tmp_path, monkeypatch, helpers):
        # A bad cell or a quoted one among the helper's rows, or y values
        # whose deviations overflow in the fit, with the helper forked
        # before the parse.
        wait_long(monkeypatch)
        lines = noisy_csv(40_000).splitlines()
        x = lines[30_000].split(",")[0]
        lines[30_000] = {"bad-cell": f"{x},7x", "quoted-cell": f'{x},"7.5"',
                         "overflow": f"{x},1.7e308"}[defect]
        if defect == "overflow":
            lines[1] = lines[1].split(",")[0] + ",-1.7e308"
        csv = write_csv(tmp_path, "\n".join(lines) + "\n")
        code, out, err, _ = self.checked(tmp_path, monkeypatch, csv)
        assert (code, out == "") == ((1, True) if error else (0, False))
        assert error is None or f": {error}: " in err
        assert len(helpers) == 1


@pytest.mark.forks
@pytest.mark.parametrize("rows, degree", [
    *((None, degree) for degree in range(1, 11)), (20_000, 10),
], ids=[*(f"bundled-{degree}" for degree in range(1, 11)), "seeded-20000-10"])
def test_report_equals_the_library_path(tmp_path, capsys, sample_csv_path, rows, degree):
    # The command line reports on the fit's own residual; the library's
    # fit_report evaluates the model.  Both must print the same report.
    if rows is None:
        data = sample_csv_path.read_bytes()
    else:
        series = noisy_quadratic(rows, seed=20)
        data = "".join(map("{},{}\n".format, ("Month", *series.xs), ("Values", *series.ys))).encode()
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    assert main(["-i", str(path), "--degree", str(degree)]) == 0
    series = parse_csv(data)
    model, _ = fit_polynomial(series, degree)
    assert capsys.readouterr() == (format_report(model, fit_report(model, series)), "")


class TestStreamedSvg:
    """The CLI writes render_plot's document in blocks of markers."""

    @pytest.mark.parametrize("rows", [2, _MARKER_BLOCK - 1, _MARKER_BLOCK,
                                      _MARKER_BLOCK + 1, 2 * _MARKER_BLOCK + 3,
                                      "offset", "descending"])
    def test_file_equals_render_plot(self, tmp_path, rows, capsys):
        # A one-point figure has an empty x range, which render_plot refuses.
        # Offset months, and rows whose least and greatest x are not the
        # first and last, check the axes against the data's own bounds.
        if rows == "offset":
            text = "Month,Values\n" + "".join(
                f"{202401 + i / 12:.6f},{(i % 12 - 6) ** 2 + i * 7919 % 101 / 20:.4f}\n"
                for i in range(60))
        elif rows == "descending":
            header, *lines = noisy_csv(_MARKER_BLOCK + 1).splitlines(keepends=True)
            text = header + "".join(reversed(lines))
        else:
            text = noisy_csv(rows)
        svg_path = tmp_path / "chart.svg"
        assert main(["-i", write_csv(tmp_path, text), "--svg", str(svg_path),
                     "--degree", "1", *README_FLAGS]) == 0
        series = parse_csv(text.encode())
        model, _ = fit_polynomial(series, 1)
        spec = PlotSpec(description=README_FLAGS[5], metric_name=README_FLAGS[1],
                        y_label=README_FLAGS[3])
        want = render_plot(series, model, fit_report(model, series), spec)
        assert svg_path.read_bytes() == want.encode("utf-8")

    @needs_dev_full
    def test_full_disk_prints_one_line_and_no_report(self, tmp_path):
        path = write_csv(tmp_path, noisy_csv(_MARKER_BLOCK + 1))
        proc = run_cli("-i", path, "--svg", "/dev/full")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", DISK_FULL)

    def test_failed_render_writes_nothing(self, tmp_path, sample_csv_path,
                                          capsys, monkeypatch):
        def legend(*_):
            raise NumericalOverflow("the legend overflows")

        monkeypatch.setattr(plot, "_legend", legend)
        svg_path = tmp_path / "chart.svg"
        report_path = tmp_path / "fit.txt"
        assert main(["-i", str(sample_csv_path), "--svg", str(svg_path)]) == 1
        assert main(["-i", str(sample_csv_path), "--svg", str(svg_path),
                     "--report", str(report_path)]) == 1
        assert not svg_path.exists() and not report_path.exists()
        assert capsys.readouterr() == ("", "quadfit: NumericalOverflow: the legend overflows\n" * 2)


@pytest.mark.parametrize("svg", [False, True])
def test_each_column_is_scanned_once(tmp_path, monkeypatch, capsys, svg):
    # The Series measures each column's bounds as it is built; the fit's
    # window, y's scale and the chart's axes all read them there.
    rows = 1000
    scans = []

    def counting(name):
        real = getattr(builtins, name)

        def scan(*args, **kwargs):
            if len(args) == 1 and hasattr(args[0], "__len__") and len(args[0]) == rows:
                scans.append(name)
            return real(*args, **kwargs)
        return scan

    argv = ["-i", write_csv(tmp_path, noisy_csv(rows))]
    if svg:
        argv += ["--svg", str(tmp_path / "chart.svg")]
    monkeypatch.setattr(builtins, "min", counting("min"))
    monkeypatch.setattr(builtins, "max", counting("max"))
    code = main(argv)
    monkeypatch.undo()
    assert code == 0
    assert sorted(scans) == ["max", "max", "min", "min"]


# Any finite float, with the extremes and subnormals drawn often.
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    (1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 0.0))


# The x attributes and polyline vertices of an SVG document, in pixels.
DRAWN_X = re.compile(r'\b(?:x|x1|x2|cx)="([^"]*)"|points="([^"]*)"')


def drawn_xs(svg: str) -> list[float]:
    out = []
    for x, points in DRAWN_X.findall(svg):
        if points:
            out += [float(p.split(",")[0]) for p in points.split()]
        else:
            out.append(float(x))
    return out


# y values a few ulps apart, whose R^2 a fit that rounds on y's own grid
# gets wrong.
NEAR_CONSTANT_ROWS = [(1.0, 1.0), (2.0, 1.0000000000000002), (3.0, 1.0), (4.0, 1.0),
                      (5.0, 1.0000000000000004)]

# Cells that float() reads but the numeric-cell grammar refuses.
OFF_GRAMMAR = ("1_0", "\u0662", "\uff13", "2_5e-1", "\u0661.5")
CELL = FINITE | st.sampled_from(OFF_GRAMMAR)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(CELL, CELL), min_size=3, max_size=8),
       degree=st.integers(1, 3))
@example(rows=[(0.0, 0.0), (0.0, 5e-324), (1.0, 0.0)], degree=1)
@example(rows=[(999999999999999.8, -2.0), (1e15, 3.0)], degree=1)
@example(rows=[(1.0, 1e154), (2.0, 1e154), (3.0, 1.1e154)], degree=2)
@example(rows=[(1.0, 2.0), (2.0, "1_0"), ("\uff13", 5.0)], degree=1)
@example(rows=[(0.0, 0.0), (0.0, 0.0), (1.797693134662316e+308, 0.0)], degree=1)
# A spread of a few ulps of y: exact R^2 0.28125 and 27/56.
@example(rows=NEAR_CONSTANT_ROWS, degree=1)
@example(rows=NEAR_CONSTANT_ROWS, degree=2)
@example(rows=[(float(x), 4090082241507.382) for x in range(1, 7)], degree=2)
def test_any_finite_csv_gives_report_or_one_error(rows, degree):
    # A float's str() is its repr, which round-trips.
    text = "Month,Values\n" + "".join(f"{x},{y}\n" for x, y in rows)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        svg_path = os.path.join(tmp, "chart.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["-i", path, "--degree", str(degree), "--svg", svg_path])
        svg = None
        if os.path.exists(svg_path):
            with open(svg_path, encoding="utf-8") as fh:
                svg = fh.read()
    assert code in (0, 1)
    assert (out.getvalue() == "") == (code == 1)
    assert (err.getvalue() == "") == (code == 0)
    assert re.search(r"\b(nan|inf)\b", out.getvalue() + err.getvalue()) is None
    if any(isinstance(cell, str) for row in rows for cell in row):
        assert code == 1 and "NonNumericValue" in err.getvalue()
    assert (svg is not None) == (code == 0)
    if svg is not None:
        xs = drawn_xs(svg)
        assert xs and all(0.0 <= x <= WIDTH for x in xs)
        report = parse_report(out.getvalue())
        _, _, ss_res, ss_tot, want = exact_report([x for x, _ in rows], [y for _, y in rows], degree)
        # The printed R^2 is the exact one to its six decimals: within half
        # a unit of the last, give or take the oracle's 1e-9.
        printed = Fraction(report["r_squared"])
        assert abs(printed - (1 if want is None else want)) <= Fraction(1, 2 * 10**6) + Fraction(1, 10**9)
        # The sums to their 11 digits and the oracle's 1e-9 of ss_tot; one
        # that underflows is off by up to the smallest subnormal.
        tiny = Fraction(2.0 ** -1074)
        assert abs(Fraction(report["ss_tot"]) - ss_tot) <= Fraction(1e-10) * ss_tot + tiny
        assert abs(Fraction(report["ss_res"]) - ss_res) <= Fraction(1e-9) * ss_tot + tiny
        if ss_tot == 0:
            assert Fraction(report["ss_tot"]) == Fraction(report["ss_res"]) == 0


# A cell the plain path declines and the csv reader reads.
QUOTED = st.builds('"{}"'.format, FINITE)


@pytest.mark.forks
@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="helpers fork only where pidfds exist")
@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(CELL | QUOTED, CELL | QUOTED), min_size=3, max_size=8),
       degree=st.integers(1, 3), fork_at=st.sampled_from(["parse", "fit", "chart"]))
@example(rows=[(1.0, 2.0), (2.0, 3.0), (3.0, 5.0), (4.0, '"7.5"')], degree=1, fork_at="parse")
@example(rows=[(1.0, 2.0), (2.0, 3.0), (3.0, 5.0), (4.0, "1_0")], degree=1, fork_at="parse")
@example(rows=[(1.0, 2.0), (2.0, 3.0), (3.0, 5.0), (4.0, 1e308)], degree=2, fork_at="parse")
@example(rows=NEAR_CONSTANT_ROWS, degree=2, fork_at="fit")
def test_any_csv_gives_the_same_outcome_through_the_helper(rows, degree, fork_at):
    # Each threshold lowered so that the run's helper forks at fork_at,
    # before the parse (where the helper parses the last rows), the fit or
    # the chart, and waited for until it sends or ends.  The run gives the
    # exit code, report, error line and SVG bytes of the run in process,
    # and leaves no child process.
    text = "Month,Values\n" + "".join(f"{x},{y}\n" for x, y in rows)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        csv = write_csv(pathlib.Path(tmp), text)
        share_the_cpu(monkeypatch)
        wait_long(monkeypatch)
        monkeypatch.setattr(ingest, "_SPLIT_MIN_BYTES", 1 if fork_at == "parse" else math.inf)
        monkeypatch.setattr(fitting, "_HELPER_MIN_WORK", 1 if fork_at == "fit" else math.inf)
        monkeypatch.setattr(plot, "_SPLIT_MIN_MARKERS", 1)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        got = outputs(pathlib.Path(tmp), "split", csv, "--degree", str(degree))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(forks) <= 1
        assert got == in_process(monkeypatch, pathlib.Path(tmp), "alone", csv, "--degree", str(degree))


SAMPLE_CSV = REPO_ROOT / "data" / "pm25_monthly.csv"
# Text characters that XML 1.0 forbids or UTF-8 cannot encode, drawn often,
# among any character, lone surrogates included.
UNWRITABLE = "\x00\x01\x08\x0b\x0c\x0e\x1f\ud800\udcff\udfff\ufffe\uffff"
CHART_TEXT = st.text(st.characters(exclude_categories=())
                     | st.sampled_from(UNWRITABLE + "\t\n\r&<>\"'\x7f\ud7ff\ue000\ufffd"),
                     max_size=6)


def writable(text: str) -> bool:
    return all(c in "\t\n\r" or " " <= c < "\ud800" or "\ue000" <= c < "\ufffe"
               or c > "\uffff" for c in text)


@settings(max_examples=150, deadline=None)
@given(description=CHART_TEXT, metric=CHART_TEXT, y_label=CHART_TEXT)
@example(description="", metric="\udcff", y_label="")  # an undecodable argv byte
@example(description="", metric="a\x01b", y_label="")
def test_chart_text_gives_a_parsable_svg_or_one_error(description, metric, y_label):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        svg_path = os.path.join(tmp, "chart.svg")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # Attached, so a text that starts with "-" is still the value.
            code = main(["-i", str(SAMPLE_CSV), "--svg", svg_path,
                         f"--description={description}", f"--metric={metric}",
                         f"--y-label={y_label}"])
        svg = None
        if os.path.exists(svg_path):
            with open(svg_path, "rb") as fh:
                svg = fh.read()
    if all(map(writable, (description, metric, y_label))):
        assert (code, err.getvalue()) == (0, "")
        ET.fromstring(svg)
    else:
        assert code == 1 and out.getvalue() == "" and svg is None
        line = err.getvalue()
        assert line.startswith("quadfit: ") and line.count("\n") == 1 and line.endswith("\n")
