"""Sums of squares and the coefficient of determination.

Each square is a product d * d, which IEEE 754 rounds correctly (d ** 2
calls C pow, which need not), and the squares are summed by math.fsum
(exact compensated summation).  The total sum of squares is computed on
deviations from the first observation so that constant data yields
ss_tot == 0.0 exactly, not rounding dust.  A sum that leaves the float
range raises NumericalOverflow, and so does an R^2 past it.
"""

import math
import operator

from ._record import record
from .errors import NumericalOverflow, UndefinedRSquared
from .fitting import PolynomialModel, Series, _evaluate

# With constant data y0, residual mass up to this bound per observation,
# times max(1, y0^2), still counts as a perfect fit (R^2 = 1); anything
# larger is undefined.
CONSTANT_DATA_RESIDUAL_TOLERANCE = 1e-12

# A square below 2**-1022, the smallest normal float, keeps fewer than 53
# bits: it is off by up to 2**-1075, and is 0 below that.  With ss_tot at
# least n times this bound, n such errors come to at most 2**-53 of ss_tot,
# one rounding; below it, R^2 is taken from sums of rescaled deviations and
# residuals, and exactly constant data is told apart from underflow.
SQUARE_UNDERFLOW_BOUND = 2.0 ** -1022


@record
class FitReport:
    """Residual diagnostics of a model on the data it was fitted to."""

    ss_res: float
    ss_tot: float
    r_squared: float
    n: int


def _finite_fsum(values) -> float:
    """math.fsum of values, or NumericalOverflow when it is not finite."""
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise NumericalOverflow("a sum of squares overflows a float; the values are too large")
    return total


def total_sum_of_squares(ys) -> float:
    """Sum of squared deviations from the mean.

    Deviations are taken around ys[0] first (the sum is translation
    invariant), which makes the result exactly zero for constant input.
    """
    first = ys[0]
    shifted = [y - first for y in ys]
    mean = _finite_fsum(shifted) / len(shifted)
    deviations = [d - mean for d in shifted]
    return _finite_fsum(map(operator.mul, deviations, deviations))


def fit_report(model: PolynomialModel, series: Series) -> FitReport:
    """Bundle ss_res, ss_tot and R^2 = 1 - ss_res/ss_tot for a model on its data.

    The residuals are y minus the model at each x, evaluated here, so the
    report describes whatever model it is given.  The command line reports
    on the residual vector the fit itself leaves behind instead, by the
    same sums.  When all observations are equal, the ratio is undefined;
    a model that reproduces the constant within tolerance scores 1.  Below
    SQUARE_UNDERFLOW_BOUND, R^2 comes from rescaled sums; ss_res and
    ss_tot are reported as summed.

    Raises:
        NumericalOverflow: a sum of squares, or the ratio ss_res/ss_tot,
            leaves the float range.
        UndefinedRSquared: constant data that the model does not reproduce.
    """
    ys = series.ys
    return _residual_report(ys, list(map(operator.sub, ys, _evaluate(model, series.xs))))


def _residual_report(ys, residuals) -> FitReport:
    """FitReport of observations ys from their residuals y - fit: the sums
    and rules of fit_report, raising what it raises."""
    ss_tot = total_sum_of_squares(ys)
    ss_res = _finite_fsum(map(operator.mul, residuals, residuals))
    n = len(ys)
    if ss_tot >= n * SQUARE_UNDERFLOW_BOUND:
        res, tot = ss_res, ss_tot
    else:
        deviations = [y - ys[0] for y in ys]
        top = max(map(abs, deviations))
        if top == 0.0:
            # A product, not y0 ** 2, so that a huge y0 gives inf, not OverflowError.
            scale = max(1.0, abs(ys[0]))
            if ss_res > CONSTANT_DATA_RESIDUAL_TOLERANCE * n * scale * scale:
                raise UndefinedRSquared(f"constant data with nonzero residual mass ({ss_res:.3e})")
            return FitReport(ss_res, ss_tot, 1.0, n)
        # Scaling by a power of two is exact and leaves ss_res/ss_tot as it
        # is; this one brings the largest deviation into [0.5, 1).
        exponent = -math.frexp(top)[1]
        tot = total_sum_of_squares([math.ldexp(d, exponent) for d in deviations])
        try:
            scaled = [math.ldexp(r, exponent) for r in residuals]
            res = math.fsum(map(operator.mul, scaled, scaled))
        except OverflowError:
            res = math.inf
    ratio = res / tot
    if ratio == math.inf:
        raise NumericalOverflow("R^2 overflows a float; the residuals are too large for the spread of y")
    return FitReport(ss_res, ss_tot, 1.0 - ratio, n)
