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
    QuadfitError,
    Series,
    UndefinedRSquared,
    eval_poly,
    fit_polynomial,
    fit_report,
    parse_csv,
)
from quadfit.fitting import _fit
from quadfit.metrics import _residual_report


def total_sum_of_squares(ys):
    """fit_report's ss_tot, for the constant model ys[0] at x = 0, 1, ..."""
    series = Series(tuple(map(float, range(len(ys)))), tuple(ys))
    return fit_report(PolynomialModel((ys[0],)), series).ss_tot


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

    @pytest.mark.parametrize("coeff, y", [
        (1.0000000000000002, 1.0),  # one ulp off
        (5e-324, 0.0),              # off by so little that ss_res underflows to 0
    ])
    def test_constant_data_missed_by_any_amount_is_undefined(self, coeff, y):
        with pytest.raises(UndefinedRSquared):
            fit_report(PolynomialModel((coeff,)), Series((1, 2, 3), (y, y, y)))

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
        assert report.ss_res == 0.0

    def test_large_constant_data(self):
        # The fit works on y - y0, so it reproduces constant data exactly,
        # however large y is.
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


def reference_ss_res(residuals):
    """ss_res of pointwise residuals, each squared as d * d, or None when
    it overflows."""
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
# The model overflows at the first point, so no residual is squared.
@example(coeffs=[2.9173184279657142e302, 3.4789556872075708e16],
         points=[(5.167327149794274e291, 0.0), (0.0, 0.0), (0.0, 1.2786682062094304e148)])
# A residual of 1e-150 beside y's spread of 1e150: scaled as y's
# deviations are, its square underflows to 0; the exact ss_res is 1e-300.
@example(coeffs=[-1e-150, 1e150], points=[(0.0, 0.0), (1.0, 1e150)])
def test_fit_report_ss_res_matches_pointwise_evaluation(coeffs, points):
    # |y| <= 1e150 keeps ss_tot finite, so only the residuals, or their
    # ratio to ss_tot in R^2, can overflow.
    model = PolynomialModel(tuple(coeffs))
    series = Series(tuple(x for x, _ in points), tuple(y for _, y in points))
    residuals = [y - eval_poly(model, x) for x, y in zip(series.xs, series.ys)]
    want = reference_ss_res(residuals)
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
        assert len(set(series.ys)) == 1
        assert any(residuals)
        return
    assert (got is None) == (want is None)
    if got is None:
        return
    if all(d * d >= sys.float_info.min for d in residuals if d):
        assert got.hex() == want.hex()
    else:
        # A plain square below the smallest normal float keeps fewer than
        # 53 bits, or none.  fit_report scales its residuals up first, so
        # it is held to the exact sum: a rounding of each square and one of
        # the sum, and one more where ss_res itself is subnormal.
        exact = sum(Fraction(d) ** 2 for d in residuals)
        assert abs(Fraction(got) - exact) <= Fraction(2.0 ** -51) * exact + Fraction(2.0 ** -1074)


# Unit roundoff of a binary64 float.
U = 2.0 ** -53


@settings(max_examples=30, deadline=None)
@given(data=fit_instances(max_n=25, max_degree=3))
def test_fit_residual_ss_res_matches_fit_report(data):
    # The command line sums the residual the fit leaves behind, fit_report
    # the data minus the model it evaluates.  On these well-conditioned
    # fits each vector is off the exact residual by a few roundings of the
    # largest |y|, so they differ by at most D = 16 n u max|y|, and their
    # sums of squares by at most D (2 sqrt(ss_res) + D).
    xs, ys, degree = data
    series = Series(tuple(xs), tuple(ys))
    fit = _fit(series, degree)
    fitted = _residual_report(fit)
    evaluated = fit_report(fit.model, series)
    bound = 16 * len(ys) * U * max(map(abs, ys))
    assert abs(fitted.ss_res - evaluated.ss_res) <= bound * (2 * math.sqrt(evaluated.ss_res) + bound)
    # Both within the oracle tolerance on R^2, 1e-9, which is ss_res within
    # 1e-9 ss_tot; exactly constant data has an exact ss_res of 0.
    _, _, want, ss_tot, _ = exact_report(xs, ys, degree)
    for report in (fitted, evaluated):
        if ss_tot == 0:
            assert report.ss_res == 0.0
        else:
            assert abs(Fraction(report.ss_res) - want) <= Fraction(1e-9) * ss_tot


CONSTANT_YS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 4090082241507.382,
               1e308, -1e308, -1.7976931348623157e308)


@settings(max_examples=200, deadline=None)
@given(y=st.sampled_from(CONSTANT_YS) | FINITE,
       offset=st.sampled_from((0.0, 1e15, -1e15)) | st.floats(-1e15, 1e15),
       span=st.floats(-300, 300).map(lambda k: 10.0 ** k),
       n=st.integers(2, 12), data=st.data())
def test_fitted_models_reproduce_constant_data(y, offset, span, n, data):
    # Wherever the fit succeeds, its residual on constant data is exactly
    # 0, both as the fit leaves it and as fit_report evaluates the model.
    degree = data.draw(st.integers(0, min(4, n - 1)))
    series = Series(tuple(offset + span * i / (n - 1) for i in range(n)), (y,) * n)
    try:
        fit = _fit(series, degree)
    except QuadfitError:
        return
    for report in (_residual_report(fit), fit_report(fit.model, series)):
        assert report.ss_res == 0.0 and report.r_squared == 1.0


# The smallest normal float is why the fit scales y's deviations by a
# power of two, as well as shifting them: their squares would underflow.
NEAR_CONSTANT_CENTRES = (1.0, 0.1, 1e8, 123.456, 1e-5, -7.5, 2.2250738585072014e-308, 1e150)


@settings(max_examples=60, deadline=None)
@given(centre=st.sampled_from(NEAR_CONSTANT_CENTRES), degree=st.integers(1, 3),
       steps=st.lists(st.integers(-6, 6), min_size=4, max_size=12))
def test_near_constant_data_gets_the_exact_r_squared(centre, degree, steps):
    # y within 6 ulps of a centre, so y's own grid is as coarse as its
    # spread; the command line's R^2 is still within 1e-9 of the exact one.
    ys = [centre + k * math.ulp(centre) for k in steps]
    xs = [float(i) for i in range(1, len(ys) + 1)]
    got = _residual_report(_fit(Series(tuple(xs), tuple(ys)), degree)).r_squared
    *_, want = exact_report(xs, ys, degree)
    assert abs(Fraction(got) - (1 if want is None else want)) <= Fraction(1, 10**9)


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
