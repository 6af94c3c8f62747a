"""Least-squares polynomial fitting on a scaled domain.

The fit pipeline is: map the abscissae affinely onto [-1, 1], fit there
with Forsythe's orthogonal polynomials (G. E. Forsythe, "Generation and
use of orthogonal polynomials for data-fitting with a digital computer",
J. SIAM 5(2), 1957), and convert the coefficients back to the original
x domain.  The polynomials come from a three-term recurrence and the
residual is projected onto each in turn, so the fit takes O(n*d) time
and a few length-n vectors, and never forms normal equations, which
square the condition number.  Coefficients are always stored in
ascending powers, so ``coeffs[0]`` is the constant term.

All arithmetic is 64-bit binary floating point; no external math library
is used anywhere in the package.  Finite input that the fit cannot hold
in floats raises NumericalOverflow.
"""

from __future__ import annotations

import math
import operator

from ._record import record
from .errors import (
    DegenerateAbscissa,
    InsufficientData,
    InvalidDegree,
    NumericalOverflow,
    RankDeficient,
)

# An orthogonal polynomial whose norm over the data falls below this
# fraction of the largest such norm marks the fit as rank deficient.  In
# exact arithmetic the norms equal the R diagonal of a QR factorization of
# the scaled Vandermonde matrix, so the test is the classical one.
RANK_TOLERANCE = 1e-10

DEFAULT_DEGREE = 2


@record
class Series:
    """Paired observation vectors: abscissa (e.g. month index) and value.

    Both vectors are stored as tuples of floats.  Construction fails with
    ValueError unless the vectors have equal nonzero length and every
    element is finite.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        xs = tuple(float(x) for x in self.xs)
        ys = tuple(float(y) for y in self.ys)
        if len(xs) != len(ys):
            raise ValueError(f"xs and ys differ in length ({len(xs)} vs {len(ys)})")
        if not xs:
            raise ValueError("series must contain at least one observation")
        if not all(math.isfinite(v) for v in xs + ys):
            raise ValueError("series values must be finite")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)


@record
class PolynomialModel:
    """Polynomial in ascending-power coefficient order.

    For a quadratic, ``coeffs == (c, b, a)`` with y = a*x^2 + b*x + c.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@record
class DomainWindow:
    """Abscissa bounds of the data a model was fitted on."""

    x_min: float
    x_max: float

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError(f"empty domain window [{self.x_min}, {self.x_max}]")


def eval_poly(model: PolynomialModel, x: float) -> float:
    """Evaluate the polynomial at x by Horner's scheme."""
    result = 0.0
    for c in reversed(model.coeffs):
        result = result * x + c
    return result


def _orthogonal_fit(ts: list[float], ys, degree: int) -> list[float]:
    """Least-squares coefficients in ascending powers of t, by Forsythe's method.

    Builds the monic polynomials orthogonal over the points,
    p_{k+1} = (t - a_k) p_k - b_k p_{k-1}, projects the running residual
    onto each (modified Gram-Schmidt), and accumulates c_k p_k in powers
    of t.  Each p_k is held both as its values at the points and as its
    power-in-t coefficients.

    Raises:
        RankDeficient: some ||p_k|| falls below RANK_TOLERANCE times the
            largest, so the points cannot resolve a degree-k term.
    """
    residual = list(ys)
    p_prev, p = [0.0] * len(ts), [1.0] * len(ts)
    poly_prev, poly = [], [1.0]
    coeffs = [0.0] * (degree + 1)
    norm2_prev = norm2_max = 0.0
    for k in range(degree + 1):
        # Compared squared, and before any division: p_0 = 1 makes
        # norm2_max positive, so a zero norm2 always raises here.
        norm2 = math.fsum(map(operator.mul, p, p))
        norm2_max = max(norm2_max, norm2)
        if norm2 < RANK_TOLERANCE * RANK_TOLERANCE * norm2_max:
            raise RankDeficient(
                f"x values cannot resolve a degree-{k} term within tolerance"
            )
        c = math.fsum(map(operator.mul, residual, p)) / norm2
        for j, q in enumerate(poly):
            coeffs[j] += c * q
        if k == degree:
            break
        residual = [r - c * v for r, v in zip(residual, p)]
        tp = list(map(operator.mul, ts, p))
        a = math.fsum(map(operator.mul, tp, p)) / norm2
        b = norm2 / norm2_prev if k else 0.0
        p_prev, p = p, [u - a * v - b * w for u, v, w in zip(tp, p, p_prev)]
        nxt = [0.0] + poly
        for j, q in enumerate(poly):
            nxt[j] -= a * q
        for j, q in enumerate(poly_prev):
            nxt[j] -= b * q
        poly_prev, poly = poly, nxt
        norm2_prev = norm2
    return coeffs


def _validation_error(series: Series, degree: int):
    """Error instance for unfittable inputs, or None when they are fine."""
    if degree < 0:
        return InvalidDegree(f"degree must be nonnegative, got {degree}")
    if len(series) < degree + 1:
        return InsufficientData(
            f"degree {degree} needs {degree + 1} observations, got {len(series)}"
        )
    distinct = len(set(series.xs))
    if distinct < degree + 1:
        return DegenerateAbscissa(
            f"degree {degree} needs {degree + 1} distinct x values, got {distinct}"
        )
    if distinct == 1:
        return DegenerateAbscissa("all x values are equal; data window is undefined")
    return None


def fit_polynomial(series: Series, degree: int = DEFAULT_DEGREE) -> tuple[PolynomialModel, DomainWindow]:
    """Least-squares polynomial fit with domain scaling for conditioning.

    The abscissae are mapped affinely into [-1, 1] over the data window,
    the scaled problem is solved by Forsythe's orthogonal-polynomial
    recurrence, and the coefficients are converted back to the original
    domain, so the returned model is expressed in plain powers of x.

    Raises:
        InvalidDegree, InsufficientData, DegenerateAbscissa: unfittable input.
        RankDeficient: x values too clustered for the degree (pathological
            spacing).
        NumericalOverflow: the x span, a sum or a coefficient overflows a float.
    """
    err = _validation_error(series, degree)
    if err is not None:
        raise err

    window = DomainWindow(min(series.xs), max(series.xs))
    span = window.x_max - window.x_min
    ts = [(2.0 * x - window.x_min - window.x_max) / span for x in series.xs]
    try:
        scaled = _orthogonal_fit(ts, series.ys, degree)
        return PolynomialModel(tuple(convert_domain(scaled, window))), window
    except (OverflowError, ValueError):
        # An infinite span makes ts NaN, and so the coefficients, which
        # PolynomialModel rejects with ValueError.  math.fsum raises
        # OverflowError past the float range and ValueError on inf - inf.
        raise NumericalOverflow(
            "the fit overflows a float; the x or y values are too large"
        ) from None


def convert_domain(scaled_coeffs, window: DomainWindow) -> list[float]:
    """Re-express coefficients fitted in the scaled domain in plain x.

    Given p(t) with t = (2x - x_min - x_max)/(x_max - x_min), returns q
    such that q(x) = p(t(x)) identically, by Horner-style composition with
    the affine map.
    """
    span = window.x_max - window.x_min
    alpha = -(window.x_min + window.x_max) / span
    beta = 2.0 / span

    coeffs = [float(c) for c in scaled_coeffs]
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        nxt = [0.0] * (len(out) + 1)
        for k, q in enumerate(out):
            nxt[k] += q * alpha
            nxt[k + 1] += q * beta
        nxt[0] += c
        out = nxt
    return out

