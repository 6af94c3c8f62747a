"""End-to-end acceptance checks, one test per criterion.

Each test states its tolerances inline, performs every check it names, and
prints a single "acceptance N (<name>): PASS" line once its assertions have
all held (visible with -s, or in captured output).  Randomized criteria use
a fixed seed so runs are reproducible.
"""

import math
import random
import re
import time
import xml.dom.minidom

from oracle import max_rel_err, normal_equations_fit
from support import random_fit_instance
from conftest import DERIVED_XS, DERIVED_YS

from quadfit import (
    CsvError,
    PlotSpec,
    PolynomialModel,
    Series,
    eval_poly,
    fit_polynomial,
    fit_report,
    format_equation,
    from_vertex_form,
    parse_csv,
    quadratic_roots,
    render_plot,
    to_vertex_form,
)
from quadfit.cli import main

SEED = 20260817


def test_acceptance_1_exact_recovery():
    started = time.perf_counter()
    xs = tuple(float(x) for x in range(1, 13))
    ys = tuple(3.0 * x * x - 2.0 * x + 1.0 for x in xs)
    series = Series(xs, ys)
    model, _ = fit_polynomial(series, 2)
    for got, want in zip(model.coeffs, (1.0, -2.0, 3.0)):
        assert abs(got - want) <= 1e-9
    report = fit_report(model, series)
    assert abs(report.r_squared - 1.0) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    print("acceptance 1 (exact recovery): PASS")


def test_acceptance_2_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(SEED)
    for case in range(200):
        xs, ys, degree = random_fit_instance(rng)
        model, _ = fit_polynomial(Series(tuple(xs), tuple(ys)), degree)
        want = normal_equations_fit(xs, ys, degree)
        err = max_rel_err(model.coeffs, want)
        assert err <= 1e-8, f"case {case}: relative error {err:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    print("acceptance 2 (oracle equivalence, 200 cases): PASS")


def test_acceptance_3_r_squared_contract():
    # Perfect fit scores exactly 1.
    xs = tuple(float(x) for x in range(1, 13))
    ys = tuple(3.0 * x * x - 2.0 * x + 1.0 for x in xs)
    assert fit_report(PolynomialModel((1.0, -2.0, 3.0)), Series(xs, ys)).r_squared == 1.0

    # The mean predictor scores 0.
    mean = math.fsum(ys) / len(ys)
    assert abs(fit_report(PolynomialModel((mean,)), Series(xs, ys)).r_squared) <= 1e-12

    # Raising the degree never lowers R^2 (nested column spaces).
    rng = random.Random(SEED)
    for _ in range(100):
        data_xs, data_ys, degree = random_fit_instance(rng, max_n=25, max_degree=3)
        if len(data_xs) < degree + 2:
            degree -= 1
        series = Series(tuple(data_xs), tuple(data_ys))
        lo, _ = fit_polynomial(series, degree)
        hi, _ = fit_polynomial(series, degree + 1)
        r_lo = fit_report(lo, series).r_squared
        r_hi = fit_report(hi, series).r_squared
        assert r_hi >= r_lo - 1e-10

    # R^2 is invariant under y -> lambda * y.
    for _ in range(20):
        data_xs, data_ys, degree = random_fit_instance(rng, max_n=25, max_degree=3)
        base = Series(tuple(data_xs), tuple(data_ys))
        m0, _ = fit_polynomial(base, degree)
        r0 = fit_report(m0, base).r_squared
        for lam in (2.0, -3.5, 1e6, 1e-6, 1e-170, 2.0 ** -600):
            scaled = Series(tuple(data_xs), tuple(y * lam for y in data_ys))
            m1, _ = fit_polynomial(scaled, degree)
            assert abs(fit_report(m1, scaled).r_squared - r0) <= 1e-10
    print("acceptance 3 (R^2 contract suite): PASS")


def test_acceptance_4_quadratic_analysis():
    rng = random.Random(SEED)
    cases = []
    for _ in range(500):
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 10.0)
        cases.append((a, rng.uniform(-10, 10), rng.uniform(-10, 10)))
    cases.append((1.0, 1e8, 1.0))  # stable-formula stress case

    for a, b, c in cases:
        root_set = quadratic_roots(a, b, c)
        bound = 1e-8 * max(abs(a), abs(b), abs(c), 1.0)
        for r in root_set.roots:
            assert abs(a * r * r + b * r + c) <= bound
        if root_set.multiplicity == 1:
            r1, r2 = root_set.roots
            scale = max(1.0, abs(b / a))
            assert abs((r1 + r2) - (-b / a)) <= 1e-8 * scale
            assert abs(r1 * r2 - c / a) <= 1e-8 * max(1.0, abs(c / a))
        got = from_vertex_form(to_vertex_form(a, b, c))
        for g, w in zip(got, (a, b, c)):
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w))

    # The stress case's small root must come out accurately, which the
    # textbook (-b + sqrt(disc)) / (2a) form cannot deliver.
    small = quadratic_roots(1.0, 1e8, 1.0).roots[1]
    assert abs(small - (-1e-8)) <= 1e-14
    print("acceptance 4 (quadratic analysis, 500 cases + stress): PASS")


FUZZ_FIXED = [
    b"",
    b"\n",
    b"Month,Values",
    b"Month,Values\n",
    b"Month,Values\n1,2\n",
    b"Month,Values\r\n1,2\r\n",
    b"\xef\xbb\xbfMonth,Values\n1,2\n",      # UTF-8 BOM
    b"Month,Values\n1\n",                     # short row
    b"Month,Values\n1,2,3\n",                 # long row
    b"Month,Values\n1,abc\n",
    b"Month,Values\n,2\n",
    b"Month,Values\nnan,2\n",
    b"Month,Values\n1,inf\n",
    b'Month,Values\n"1","2"\n',
    b'Note,Month,Values\n"a,b",1,2\n',
    b'Month,Values\n"unclosed,1\n',
    b"Values,Month\n10,1\n",
    b"Wrong,Header\n1,2\n",
    b"\xff\xfe\x00M",                         # not UTF-8
    b"Month,Values\n1,2\x00\n",               # NUL byte
    b"Month,Values\n 1 , 2.5 \n",
    b"Month,Values\n1,1e400\n",               # overflows to inf
    b"Month,Month2,Values,Values\n1,9,2,8\n",  # duplicate-ish names
]


def test_acceptance_5_csv_robustness():
    rng = random.Random(SEED)
    corpus = list(FUZZ_FIXED)
    alphabet = b'01239.,-+e"\n\r MonthValues;\t\xc3\xa9\xff'
    for _ in range(300):
        corpus.append(bytes(rng.choice(alphabet)
                            for _ in range(rng.randint(0, 120))))
    outcomes = {"series": 0, "error": 0}
    for raw in corpus:
        try:
            got = parse_csv(raw)
        except CsvError:
            outcomes["error"] += 1
        else:
            assert isinstance(got, Series)
            outcomes["series"] += 1
    assert sum(outcomes.values()) == len(corpus)
    print(f"acceptance 5 (CSV robustness, {len(corpus)} inputs, "
          f"{outcomes['series']} parsed / {outcomes['error']} typed errors): PASS")


def test_acceptance_6_golden_figure(sample_csv_path, golden_dir):
    with open(sample_csv_path, "rb") as fh:
        series = parse_csv(fh)
    model, _ = fit_polynomial(series, 2)
    report = fit_report(model, series)
    spec = PlotSpec(description="Kyiv, Shcherbakovskaya St.",
                    metric_name="PM2.5", y_label="PM2.5 Index")

    first = render_plot(series, model, report, spec)
    second = render_plot(series, model, report, spec)
    assert first == second
    golden = (golden_dir / "pm25_monthly.svg").read_text(encoding="utf-8")
    assert first == golden

    eq_line, r2_line = format_equation(model, report.r_squared).split("\n")
    assert re.fullmatch(
        r"Fitted curve: -?\d+\.\d{4}x\^2 \+ -?\d+\.\d{4}x \+ -?\d+\.\d{4}",
        eq_line)
    assert re.fullmatch(r"R\^2 = -?\d+\.\d{4}", r2_line)
    dom = xml.dom.minidom.parseString(first)
    labels = ["".join(c.data for c in node.childNodes
                      if c.nodeType == c.TEXT_NODE)
              for node in dom.getElementsByTagName("text")]
    assert eq_line in labels and r2_line in labels
    print("acceptance 6 (golden figure): PASS")


def test_acceptance_7_cli_end_to_end(tmp_path, sample_csv_path, capsys):
    svg_path = tmp_path / "out.svg"
    code = main(["-i", str(sample_csv_path), "--svg", str(svg_path),
                 "--metric", "PM2.5", "--y-label", "PM2.5 Index",
                 "--description", "Kyiv, Shcherbakovskaya St."])
    out = capsys.readouterr().out
    assert code == 0 and svg_path.exists()

    fields = dict(line.partition("=")[::2] for line in out.splitlines())
    degree = int(fields["degree"])
    model = PolynomialModel(tuple(float(fields[f"coeff[{k}]"])
                                  for k in range(degree + 1)))
    with open(sample_csv_path, "rb") as fh:
        series = parse_csv(fh)
    ss_res = math.fsum((y - eval_poly(model, x)) ** 2
                       for x, y in zip(series.xs, series.ys))
    reported = float(fields["ss_res"])
    assert abs(ss_res - reported) <= 1e-6 * max(abs(reported), 1e-30)

    truncated = tmp_path / "short.csv"
    truncated.write_text("Month,Values\n1,10\n2,12\n", encoding="utf-8")
    assert main(["-i", str(truncated)]) == 1
    assert "InsufficientData" in capsys.readouterr().err

    assert main(["-i", str(sample_csv_path), "--no-such-flag"]) == 2
    assert capsys.readouterr().err != ""
    print("acceptance 7 (CLI end to end): PASS")
