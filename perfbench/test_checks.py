"""Tests of the benchmark's own output checks.

Run from the repo root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import sys

import pytest

import checks
import run

sys.path.insert(0, str(run.SRC))
from quadfit.cli import format_report  # noqa: E402
from quadfit.fitting import Series, fit_polynomial  # noqa: E402
from quadfit.metrics import fit_report  # noqa: E402

# The README's report for the bundled data at degree 2.
README_REPORT = """\
degree=2
coeff[0]=7.1061363636e+01
coeff[1]=-1.1840434565e+01
coeff[2]=8.9802697303e-01
ss_res=1.6159478022e+01
ss_tot=1.0964491667e+03
r_squared=0.985262
discriminant=-1.1506419444e+02
roots=none
vertex_h=6.5924715633e+00
vertex_k=3.2032499552e+01
equation=Fitted curve: 0.8980x^2 + -11.8404x + 71.0614; R^2 = 0.9853
"""

# What the CLI prints, with exit code 0, for the bundled values at
# x = 202401..202412 and degree 4: the fit is silently wrong on offset
# abscissae, with ss_res far above ss_tot.
YYYYMM_REPORT = """\
degree=4
coeff[0]=-1.7012883965e+19
coeff[1]=3.3621139734e+14
coeff[2]=-2.4915992465e+09
coeff[3]=8.2065653417e+03
coeff[4]=-1.0136217949e-02
ss_res=3.0247645994e+09
ss_tot=1.0964491667e+03
r_squared=-2758690.138090
"""


def replace_line(report: str, key: str, value: str) -> str:
    return "".join(f"{key}={value}\n" if line.startswith(f"{key}=") else line + "\n"
                   for line in report.splitlines())


@pytest.fixture(scope="module")
def bundled():
    xs, ys = run.read_points(run.BUNDLED_CSV.read_bytes())
    return (checks.LeastSquaresReference.build(xs, ys, 2),
            checks.ExactReference.build(xs, ys, 2))


@pytest.fixture(scope="module")
def generated():
    """A bulk_quadratic-style input of 2000 rows, its reference and report."""
    xs, ys = run.read_points(run.generate_csv(2000, seed=3))
    series = Series(xs, ys)
    model, _ = fit_polynomial(series, 2)
    text = format_report(model, fit_report(model, series))
    return checks.LeastSquaresReference.build(xs, ys, 2, run.PLANTED), text


def problems(refs, text: str) -> list[str]:
    rep = checks.read_report(text)
    return [p for ref in refs for p in ref.problems(rep)]


def test_readme_report_passes(bundled):
    assert problems(bundled, README_REPORT) == []


def test_generated_report_passes(generated):
    ref, text = generated
    assert problems([ref], text) == []


@pytest.mark.parametrize("k", [0, 1, 2])
def test_perturbed_coefficient_fails_exact_check(bundled, k):
    rep = checks.read_report(README_REPORT)
    text = replace_line(README_REPORT, f"coeff[{k}]", f"{rep.coeffs[k] * (1 + 1e-6):.10e}")
    assert any(f"coeff[{k}]" in p for p in problems(bundled, text))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_perturbed_coefficient_fails_least_squares_check(generated, k):
    ref, text = generated
    rep = checks.read_report(text)
    text = replace_line(text, f"coeff[{k}]", f"{rep.coeffs[k] * 1.01:.10e}")
    assert any("coefficients give ss_res" in p for p in problems([ref], text))


def test_inconsistent_r_squared_fails(bundled, generated):
    assert any("r_squared" in p for p in problems(bundled[:1], replace_line(
        README_REPORT, "r_squared", "0.985263")))
    ref, text = generated
    r2 = checks.read_report(text).r_squared
    assert any("r_squared" in p for p in problems([ref], replace_line(
        text, "r_squared", f"{r2 - 2e-6:.6f}")))


def test_ss_res_above_planted_fails(generated):
    ref, text = generated
    worse = checks.read_report(text).ss_res * 1.01
    assert any("planted" in p for p in problems([ref], replace_line(
        text, "ss_res", f"{worse:.10e}")))


def test_offset_abscissae_defect_fails(bundled):
    _, ys = run.read_points(run.BUNDLED_CSV.read_bytes())
    xs = [202400.0 + month for month in range(1, 13)]
    ref = checks.LeastSquaresReference.build(xs, ys, 4)
    assert any("> ss_tot" in p for p in problems([ref], YYYYMM_REPORT))


def test_same_seed_gives_identical_csv():
    assert run.generate_csv(1000, seed=7) == run.generate_csv(1000, seed=7)
    assert run.generate_csv(1000, seed=7) != run.generate_csv(1000, seed=8)


def test_svg_check():
    golden = run.GOLDEN_SVG.read_bytes()
    assert checks.svg_problems(golden, 12) == []
    assert checks.svg_problems(golden, 13) != []
    assert checks.svg_problems(golden[:-20], 12) != []
