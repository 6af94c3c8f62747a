import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import exact_report, gauss_solve
from support import fit_instances
from conftest import (
    DERIVED_COEFFS,
    DERIVED_R_SQUARED,
    DERIVED_SS_RES,
    DERIVED_SS_TOT,
    DERIVED_XS,
    DERIVED_YS,
)

from quadfit import (
    NumericalOverflow,
    PolynomialModel,
    Series,
    UndefinedRSquared,
    eval_poly,
    fit_polynomial,
    fit_report,
    parse_csv,
)
from quadfit.metrics import CONSTANT_DATA_RESIDUAL_TOLERANCE, total_sum_of_squares


class TestTotalSumOfSquares:
    def test_constant_input_is_exactly_zero(self):
        assert total_sum_of_squares([0.1, 0.1, 0.1]) == 0.0
        assert total_sum_of_squares([1e6 + 0.3] * 7) == 0.0

    def test_simple_value(self):
        # mean 2, deviations (-1, 0, 1)
        assert total_sum_of_squares([1.0, 2.0, 3.0]) == pytest.approx(2.0, abs=1e-15)

    def test_squares_are_correctly_rounded(self):
        # Deviations +-7.324658; the sum is 2 * 7.324658**2 rounded once.
        # C pow, which ** calls, gives 7.324658 ** 2 one ulp high.
        assert total_sum_of_squares((0.0, 14.649316)) == 107.301229633928

    @settings(max_examples=60)
    @given(ys=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           shift=st.floats(-1000, 1000))
    def test_nonnegative(self, ys, shift):
        assert total_sum_of_squares([y + shift for y in ys]) >= 0.0


class TestRSquared:
    def test_perfect_fit_is_one(self):
        series = Series((1, 2, 3), (2.0, 4.0, 9.0))
        assert fit_report(PolynomialModel((3.0, -2.5, 1.5)), series).r_squared == 1.0

    def test_mean_predictor_is_zero(self):
        ys = (1.0, 4.0, 9.0, 17.0)
        mean = math.fsum(ys) / len(ys)
        got = fit_report(PolynomialModel((mean,)), Series((1, 2, 3, 4), ys)).r_squared
        assert abs(got) <= 1e-12

    def test_fixed_dataset_matches_oracle(self, derived_series):
        model, _ = fit_polynomial(derived_series, 2)
        _, _, _, _, want = exact_report(DERIVED_XS, DERIVED_YS, 2)
        assert want == Fraction(2934, 2935)
        got = fit_report(model, derived_series).r_squared
        assert got == pytest.approx(float(want), abs=1e-9)

    def test_constant_data_with_matching_fit(self):
        series = Series((1, 2, 3), (5.0, 5.0, 5.0))
        assert fit_report(PolynomialModel((5.0,)), series).r_squared == 1.0

    def test_constant_data_with_wrong_fit(self):
        # The model gives 5, 5 and 6 at x = 1, 2 and 3.
        series = Series((1, 2, 3), (5.0, 5.0, 5.0))
        with pytest.raises(UndefinedRSquared):
            fit_report(PolynomialModel((6.0, -1.5, 0.5)), series)

    @pytest.mark.parametrize("coeff, ys", [
        (5e153, (0.0, 1e-150, 3e-150)),  # ss_res / ss_tot passes the float range
        (1.0, (0.0, 1e-160, 3e-160)),    # so does the ratio of the rescaled sums
    ])
    def test_r_squared_past_the_float_range_raises(self, coeff, ys):
        with pytest.raises(NumericalOverflow):
            fit_report(PolynomialModel((coeff,)), Series((1, 2, 3), ys))


class TestFitReport:
    def test_exact_quadratic(self):
        xs = tuple(range(1, 13))
        ys = tuple(3 * x * x - 2 * x + 1 for x in xs)
        model, _ = fit_polynomial(Series(xs, ys), 2)
        report = fit_report(model, Series(xs, ys))
        assert abs(report.r_squared - 1.0) <= 1e-12
        assert report.n == 12

    def test_constant_data(self):
        series = Series((1, 2, 3, 4), (5, 5, 5, 5))
        model, _ = fit_polynomial(series, 2)
        report = fit_report(model, series)
        assert report.r_squared == 1.0
        assert report.ss_tot == 0.0
        assert report.ss_res <= 1e-12

    def test_large_constant_data(self):
        # The fitted constant fsum(ys)/n may be an ulp off a large y.
        for m in (1.1, 2.3, 4.090082241507382, 7.7):
            for k in range(16):
                value = m * 10.0 ** k
                for n in range(3, 13):
                    series = Series(tuple(range(1, n + 1)), (value,) * n)
                    for degree in range(1, min(3, n - 1) + 1):
                        model, _ = fit_polynomial(series, degree)
                        got = fit_report(model, series).r_squared
                        assert got == 1.0, (value, n, degree)

    def test_fixed_dataset_full_report(self, derived_series):
        model, _ = fit_polynomial(derived_series, 2)
        report = fit_report(model, derived_series)
        assert model.coeffs == pytest.approx(list(DERIVED_COEFFS), abs=1e-9)
        assert report.ss_res == pytest.approx(DERIVED_SS_RES, abs=1e-9)
        assert report.ss_tot == pytest.approx(DERIVED_SS_TOT, abs=1e-9)
        assert report.r_squared == pytest.approx(DERIVED_R_SQUARED, abs=1e-9)
        assert report.n == 4

    @settings(max_examples=50)
    @given(data=fit_instances(max_n=25, max_degree=3))
    def test_bounded_for_least_squares_fits(self, data):
        xs, ys, degree = data
        series = Series(tuple(xs), tuple(ys))
        model, _ = fit_polynomial(series, degree)
        report = fit_report(model, series)
        assert -1e-12 <= report.r_squared <= 1.0
        assert report.ss_res >= 0.0 and report.ss_tot >= 0.0

    @settings(max_examples=50)
    @given(data=fit_instances(max_n=25, max_degree=3))
    def test_monotone_in_degree(self, data):
        xs, ys, degree = data
        if degree + 2 > len(xs):
            return
        series = Series(tuple(xs), tuple(ys))
        lo, _ = fit_polynomial(series, degree)
        hi, _ = fit_polynomial(series, degree + 1)
        r_lo = fit_report(lo, series).r_squared
        r_hi = fit_report(hi, series).r_squared
        assert r_hi >= r_lo - 1e-10

    @settings(max_examples=50)
    @given(data=fit_instances(max_n=25, max_degree=3),
           lam=st.one_of(st.floats(-1e6, -1e-6), st.floats(1e-6, 1e6),
                         st.sampled_from((1e-170, -1e-170, 2.0 ** -600))))
    def test_scale_equivariance(self, data, lam):
        # At 1e-170 and 2**-600 the squared deviations are below the
        # smallest normal float.
        xs, ys, degree = data
        base = Series(tuple(xs), tuple(ys))
        scaled = Series(tuple(xs), tuple(y * lam for y in ys))
        m1, _ = fit_polynomial(base, degree)
        m2, _ = fit_polynomial(scaled, degree)
        r1 = fit_report(m1, base).r_squared
        r2 = fit_report(m2, scaled).r_squared
        assert abs(r1 - r2) <= 1e-10

    @settings(max_examples=50)
    @given(data=fit_instances(max_n=25, max_degree=3))
    def test_variance_decomposition(self, data):
        xs, ys, degree = data
        series = Series(tuple(xs), tuple(ys))
        model, _ = fit_polynomial(series, degree)
        report = fit_report(model, series)
        mean = math.fsum(series.ys) / len(series)
        ss_exp = math.fsum((eval_poly(model, x) - mean) ** 2 for x in series.xs)
        assert report.ss_tot == pytest.approx(report.ss_res + ss_exp,
                                              rel=1e-8, abs=1e-8)


def reference_ss_res(model, series):
    """ss_res point by point through eval_poly, each residual squared as
    d * d, or None when it overflows."""
    residuals = [y - eval_poly(model, x) for x, y in zip(series.xs, series.ys)]
    try:
        total = math.fsum(d * d for d in residuals)
    except OverflowError:
        return None
    return total if math.isfinite(total) else None


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(coeffs=st.lists(FINITE, min_size=1, max_size=11),
       points=st.lists(st.tuples(FINITE, st.floats(-1e150, 1e150)),
                       min_size=1, max_size=30))
@example(coeffs=[1.0], points=[(1.0, 0.0), (2.0, 1e-160), (3.0, 3e-160)])
def test_fit_report_ss_res_matches_pointwise_evaluation(coeffs, points):
    # |y| <= 1e150 keeps ss_tot finite, so only the residuals, or their
    # ratio to ss_tot in R^2, can overflow.
    model = PolynomialModel(tuple(coeffs))
    series = Series(tuple(x for x, _ in points), tuple(y for _, y in points))
    want = reference_ss_res(model, series)
    try:
        got = fit_report(model, series).ss_res
    except NumericalOverflow:
        if want is not None:
            # Each sum is off by a few roundings at most.
            ys = [Fraction(y) for y in series.ys]
            mean = sum(ys) / len(ys)
            ratio = Fraction(want) / sum((y - mean) ** 2 for y in ys)
            assert ratio > Fraction(sys.float_info.max) * Fraction(1 - 1e-9)
            return
        got = None
    except UndefinedRSquared:
        assert total_sum_of_squares(series.ys) == 0.0
        assert want > CONSTANT_DATA_RESIDUAL_TOLERANCE * len(series)
        return
    assert (got is None) == (want is None)
    if got is not None:
        assert got.hex() == want.hex()


@pytest.mark.parametrize("degree", range(1, 11))
def test_ss_res_matches_oracle_on_bundled_data(degree, sample_csv_path):
    # To the 11 digits the report prints.  At degree 10 an evaluation in
    # powers of x printed 5.9631559076e-02, below the least-squares minimum
    # 5.9631559101e-02.
    with open(sample_csv_path, "rb") as fh:
        series = parse_csv(fh)
    model, _ = fit_polynomial(series, degree)
    _, _, want, _, _ = exact_report(series.xs, series.ys, degree)
    assert f"{fit_report(model, series).ss_res:.10e}" == f"{float(want):.10e}"


OFFSET_ABSCISSAE = {
    "yyyymm": [202401.0 + i for i in range(12)],
    "epoch_days": [19723.0 + 30.4 * i for i in range(12)],
    "years": [2025.0 + i for i in range(12)],
}


@pytest.mark.parametrize("name, degree", [
    (name, degree) for name in OFFSET_ABSCISSAE for degree in range(2, 7)
])
def test_r_squared_does_not_depend_on_the_x_origin(name, degree, sample_csv_path):
    # The bundled y values against x = 1..12 and against the same months
    # written as YYYYMM, as epoch days and as years: an affine change of x
    # leaves the least-squares fit, and so R^2, as it is.
    with open(sample_csv_path, "rb") as fh:
        ys = parse_csv(fh).ys
    r_squared = []
    for xs in ([float(i) for i in range(1, 13)], OFFSET_ABSCISSAE[name]):
        series = Series(tuple(xs), ys)
        r_squared.append(fit_report(fit_polynomial(series, degree)[0], series).r_squared)
    assert abs(r_squared[1] - r_squared[0]) <= 1e-9


# Unit roundoff of a binary64 float.
U = 2.0 ** -53


def pinv_norm_bound(ts, degree):
    """An upper bound on ||V^+||_2 for the matrix V of the powers t^0..t^degree
    at ts: ||V^+||_2^2 = ||G^-1||_2 <= ||G^-1||_F with G = V^T V, inverted
    in exact rational arithmetic."""
    ts = [Fraction(t) for t in ts]
    size = degree + 1
    gram = [[sum(t ** (i + j) for t in ts) for j in range(size)] for i in range(size)]
    total = Fraction(0)
    for j in range(size):
        column = gauss_solve(gram, [Fraction(int(i == j)) for i in range(size)])
        total += sum(c * c for c in column)
    return math.sqrt(math.sqrt(float(total)))


def offset_ratio(xs):
    """max |x| over the window's half-width: how far the data sit from zero."""
    lo, hi = min(xs), max(xs)
    return max(-lo, hi) / ((hi - lo) / 2)


@settings(max_examples=60, deadline=None)
@given(data=fit_instances(max_n=25, max_degree=3),
       alpha=st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3)),
       beta=st.floats(-1e6, 1e6))
def test_fit_does_not_depend_on_an_affine_change_of_x(data, alpha, beta):
    # x and x' = alpha*x + beta map onto the same t in [-1, 1] (mirrored for
    # alpha < 0), so in exact arithmetic the two fits agree.  Rounding x'
    # and the map moves each t by at most
    #     delta = 16u (1 + M/h + M'/h'),
    # M and h being max |x| and the half-width of the window (M', h' of
    # x').  The power columns t^k move by at most 2k*delta, so the moved
    # matrix differs from V = [t^k] by E with ||E||_F <= 2 delta
    # sqrt(n sum k^2).  While ||E|| ||V^+|| <= 1/4, the projection onto the
    # fitted polynomials moves by at most 2 ||E|| ||V^+||, and it fixes
    # constants, so the fitted values move by at most that times
    # ||y - mean|| = sqrt(ss_tot).  Each fit and its evaluation in t add at
    # most 16 n u ||V^+|| ||y|| on their own.  R^2 then moves by at most
    # d (2 sqrt(ss_tot) + d) / ss_tot, d being the bound on the values.
    xs, ys, degree = data
    moved = [alpha * x + beta for x in xs]
    n = len(xs)
    lo, hi = min(xs), max(xs)
    ts = [(x - (lo + hi) / 2) / ((hi - lo) / 2) for x in xs]
    pinv = pinv_norm_bound(ts, degree)
    delta = 16 * U * (1 + offset_ratio(xs) + offset_ratio(moved))
    e_norm = 2 * delta * math.sqrt(n * sum(k * k for k in range(degree + 1)))
    assert e_norm * pinv <= 0.25
    ss_tot = total_sum_of_squares(ys)
    y_norm = math.sqrt(math.fsum(y * y for y in ys))
    bound = 2 * pinv * (e_norm * math.sqrt(ss_tot) + 16 * n * U * y_norm)

    fitted, r_squared = [], []
    for points in (xs, moved):
        series = Series(tuple(points), tuple(ys))
        model, _ = fit_polynomial(series, degree)
        fitted.append([eval_poly(model, x) for x in points])
        r_squared.append(fit_report(model, series).r_squared)
    moved_by = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(*fitted)))
    assert moved_by <= bound
    if ss_tot == 0.0:
        assert r_squared == [1.0, 1.0]
    else:
        assert abs(r_squared[1] - r_squared[0]) <= bound * (2 * math.sqrt(ss_tot) + bound) / ss_tot
