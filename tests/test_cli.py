import io
import math
import re

import pytest

from oracle import normal_equations_fit
from conftest import DERIVED_XS, DERIVED_YS

from quadfit import FitReport, PolynomialModel, Series, eval_poly
from quadfit import cli
from quadfit.cli import format_report, main, parse_args

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
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_quadratic_structure_overflow(self, tmp_path, capsys):
        # The fit and its sums of squares are finite, but b*b in the
        # discriminant and the vertex k is not.
        csv_text = "Month,Values\n0,1e152\n0.01,-2e152\n0.03,1e152\n"
        assert main(["-i", write_csv(tmp_path, csv_text)]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("quadfit: NumericalOverflow: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert re.search(r"\b(nan|inf)\b", out) is None

    def test_diagnostic_is_single_line(self, tmp_path, capsys):
        path = write_csv(tmp_path, "Month,Values\n1,10\n2,12\n")
        main(["-i", path])
        err = capsys.readouterr().err
        assert err.endswith("\n") and err.count("\n") == 1
