"""Sums of squares and the coefficient of determination.

Sums of squares use math.fsum (exact compensated summation), and the total
sum of squares is computed on deviations from the first observation so that
constant data yields ss_tot == 0.0 exactly, not rounding dust.  A sum that
leaves the float range raises NumericalOverflow.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import NumericalOverflow, UndefinedRSquared
from .fitting import PolynomialModel, Series, eval_poly

# With constant data, residual mass up to this bound per observation still
# counts as a perfect fit (R^2 = 1); anything larger is undefined.
CONSTANT_DATA_RESIDUAL_TOLERANCE = 1e-12


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
    shifted = [y - ys[0] for y in ys]
    mean = _finite_fsum(shifted) / len(shifted)
    return _finite_fsum((d - mean) ** 2 for d in shifted)


def _r_squared_from_sums(ss_res: float, ss_tot: float, n: int) -> float:
    """1 - ss_res/ss_tot, or the constant-data rule when ss_tot is zero."""
    if ss_tot == 0.0:
        if ss_res <= CONSTANT_DATA_RESIDUAL_TOLERANCE * n:
            return 1.0
        raise UndefinedRSquared(
            f"constant data with nonzero residual mass ({ss_res:.3e})"
        )
    return 1.0 - ss_res / ss_tot


def r_squared(series: Series, fitted) -> float:
    """1 - ss_res/ss_tot, the proportion of variance explained.

    When ss_tot is zero (all observations equal), the ratio is undefined;
    a fit that reproduces the constant within tolerance scores 1, anything
    else raises UndefinedRSquared.
    """
    if len(fitted) != len(series):
        raise ValueError(f"{len(fitted)} fitted values for {len(series)} observations")
    ss_res = _finite_fsum((y - f) ** 2 for y, f in zip(series.ys, fitted))
    return _r_squared_from_sums(ss_res, total_sum_of_squares(series.ys), len(series))


def fit_report(model: PolynomialModel, series: Series) -> FitReport:
    """Bundle ss_res, ss_tot and R^2 for a model on its data.

    Raises:
        NumericalOverflow: a sum of squares leaves the float range.
        UndefinedRSquared: constant data that the model does not reproduce.
    """
    ss_res = _finite_fsum((y - eval_poly(model, x)) ** 2
                          for x, y in zip(series.xs, series.ys))
    ss_tot = total_sum_of_squares(series.ys)
    return FitReport(
        ss_res=ss_res,
        ss_tot=ss_tot,
        r_squared=_r_squared_from_sums(ss_res, ss_tot, len(series)),
        n=len(series),
    )
