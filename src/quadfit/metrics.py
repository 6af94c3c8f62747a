"""Sums of squares and the coefficient of determination.

Each square is a product d * d, which IEEE 754 rounds correctly (d ** 2
calls C pow, which need not), and the squares are summed by math.fsum
(exact compensated summation), each times its own power of two: ss_tot on
the fit's scale (y - y0) * 2**e.  R^2 is the ratio of the two sums, and
each is scaled back for the report.  A sum that leaves the float range
raises NumericalOverflow, and so does an R^2 past it.
"""

import math
import operator

from ._record import record
from .errors import NumericalOverflow, UndefinedRSquared
from .fitting import PolynomialModel, Series, _centred_deviations, _evaluate, _Fit

_SUM_OVERFLOW = "a sum of squares overflows a float; the values are too large"


@record
class FitReport:
    """Residual diagnostics of a model on the data it was fitted to."""

    ss_res: float
    ss_tot: float
    r_squared: float
    n: int


def _scaled_back(total: float, exponent: int) -> float:
    """A sum of squares taken on the scale 2**exponent, times 2**(-2 exponent)."""
    try:
        return math.ldexp(total, -2 * exponent)
    except OverflowError:
        raise NumericalOverflow(_SUM_OVERFLOW) from None


def fit_report(model: PolynomialModel, series: Series) -> FitReport:
    """Bundle ss_res, ss_tot and R^2 = 1 - ss_res/ss_tot for a model on its data.

    The residuals are y minus the model at each x, evaluated here, so the
    report describes whatever model it is given; the command line sums the
    residual the fit leaves behind instead.  The model's values are rounded
    on y's grid, so where y's spread is a few ulps of its size, this R^2 is
    as coarse as the spread.  When all observations are equal, the ratio is
    undefined; a model that reproduces every y exactly scores 1.

    Raises:
        NumericalOverflow: a sum of squares, or the ratio ss_res/ss_tot,
            leaves the float range.
        UndefinedRSquared: constant data that the model does not reproduce.
    """
    try:
        _, _, ss_tot, exponent = _centred_deviations(series)
    except OverflowError:
        raise NumericalOverflow(_SUM_OVERFLOW) from None
    residuals = list(map(operator.sub, series.ys, _evaluate(model, series.xs)))
    top = max(map(abs, residuals))
    if not math.isfinite(top):
        raise NumericalOverflow(_SUM_OVERFLOW)
    # Scaled by their own largest value into [1/2, 1): no square overflows,
    # and only one negligible beside the largest underflows.
    scale = -math.frexp(top)[1]
    return _residual_report(_Fit(model, [math.ldexp(r, scale) for r in residuals], scale, ss_tot, exponent))


def _residual_report(fit: _Fit) -> FitReport:
    """FitReport from fit's residual and ss_tot, each on its own scale: the
    sums and rules of fit_report, raising what it raises."""
    residuals, scale, ss_tot, exponent = fit.residual, fit.scale, fit.ss_tot, fit.exponent
    n = len(residuals)
    # Scaled residuals are small and finite, but max() can pass over a nan.
    res = math.fsum(map(operator.mul, residuals, residuals))
    if not math.isfinite(res):
        raise NumericalOverflow(_SUM_OVERFLOW)
    ss_res = _scaled_back(res, scale)
    if ss_tot == 0.0:
        # Constant data: R^2 is 1 only for a model that reproduces every y.
        # res is tested, not ss_res, which can underflow for one that misses.
        if res != 0.0:
            raise UndefinedRSquared(f"constant data with nonzero residuals (ss_res={ss_res:.3e})")
        return FitReport(ss_res, ss_tot, 1.0, n)
    try:
        ratio = math.ldexp(res / ss_tot, 2 * (exponent - scale))
    except OverflowError:
        raise NumericalOverflow(
            "R^2 overflows a float; the residuals are too large for the spread of y") from None
    return FitReport(ss_res, _scaled_back(ss_tot, exponent), 1.0 - ratio, n)
