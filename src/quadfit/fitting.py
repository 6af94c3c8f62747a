"""Least-squares polynomial fitting on a scaled domain.

The fit maps the abscissae affinely onto t in [-1, 1] over the data
window and fits there with Forsythe's orthogonal polynomials (G. E.
Forsythe, "Generation and use of orthogonal polynomials for data-fitting
with a digital computer", J. SIAM 5(2), 1957).  The polynomials come from
a three-term recurrence and the residual is projected onto each in turn,
so the fit takes O(n*d) time and never forms normal equations, which
square the condition number.

Half of the recurrence depends on t alone: mean(t), each ||p_k||^2 and
each a_k.  Where the command line's run has a helper process (see _Run,
and _helper, which says where a process may fork, on which CPU its helper
runs and how long the fit waits), the helper computes those scalars on its
own copy of t and sends each as soon as it has it, while the fitting
process computes everything else and takes each scalar from the helper in
place of computing it.  The helper holds every row from the end of the
parse, and maps the xs onto t while it waits for the fit's request, which
is the degree alone.  fit_polynomial runs in process.  From the first
scalar that does not arrive, the fitting process computes that one and
every later one itself, by the same code, so the helper changes no float
and no error.  The fitting process holds at most five length-n lists at
once, and the helper four besides the rows it holds.

The fitted model keeps its coefficients in powers of t together with its
window, and every value of it is taken in t, by one helper here.  The one
exception is the fit's own residual, y minus the fit at each point: the
recurrence keeps it up to date as it projects, and hands it back with the
model, so that the command line's ss_res and R^2 need no evaluation.  The
model's coefficients in powers of x are derived once, for printing and for
the report's quadratic analysis: far from zero relative to the window they
need not reproduce the fit.
Coefficients are always stored in ascending powers, so the first is the
constant term.

A Series measures each column's bounds once, as it is built, and one
helper forms y's scale and ss_tot for the fit and fit_report alike.

All arithmetic is 64-bit binary floating point; no external math library
is used anywhere in the package.  Finite input that the fit cannot hold
in floats raises NumericalOverflow.
"""

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

# The two causes a NumericalOverflow from the fit names.
_TOO_LARGE = "the x or y values are too large"
_TOO_CLOSE = "the x values are too close together"


@record
class Series:
    """Paired observation vectors: abscissa (e.g. month index) and value.

    Both vectors are stored as tuples of floats, with each one's (min, max)
    measured once.  Construction fails with ValueError unless the vectors
    have equal nonzero length and every element is finite.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        xs = tuple(map(float, self.xs))
        ys = tuple(map(float, self.ys))
        if len(xs) != len(ys):
            raise ValueError(f"xs and ys differ in length ({len(xs)} vs {len(ys)})")
        if not xs:
            raise ValueError("series must contain at least one observation")
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
            raise ValueError("series values must be finite")
        _store_columns(self, xs, ys, _bounds(xs), _bounds(ys))

    def __len__(self) -> int:
        return len(self.xs)


def _bounds(values) -> tuple[float, float]:
    """(min, max) of values.  Each is the first extremal element, so the
    bounds of two runs of values joined are min and max of their bounds,
    the first run's given first: a zero bound keeps the sign it has in the
    joined run."""
    return min(values), max(values)


def _checked_series(xs: list[float], ys: list[float],
                    x_bounds: tuple[float, float], y_bounds: tuple[float, float]) -> Series:
    """A Series of xs and ys as tuples, with the given _bounds of each,
    without __post_init__'s conversion and checks: the caller has already
    made every value a finite float, and the two lists equal in length and
    nonempty."""
    series = object.__new__(Series)
    _store_columns(series, xs, ys, x_bounds, y_bounds)
    return series


def _store_columns(series: Series, xs, ys, x_bounds, y_bounds) -> None:
    """Store the columns as tuples, and their bounds as _x_bounds and
    _y_bounds, which are derived and so take no part in ==, hash or repr."""
    object.__setattr__(series, "xs", tuple(xs))
    object.__setattr__(series, "ys", tuple(ys))
    object.__setattr__(series, "_x_bounds", x_bounds)
    object.__setattr__(series, "_y_bounds", y_bounds)


@record
class DomainWindow:
    """Abscissa bounds of the data a model was fitted on.

    The window maps x to t = (x - mid)/half, which takes it onto [-1, 1].
    Each bound is halved before mid and half are formed, so both stay finite
    for finite bounds, and the window (-1, 1) maps every x to itself.
    Construction fails with ValueError unless both bounds are finite and the
    halved bounds differ, which x_min < x_max ensures except for bounds a
    step apart among the smallest subnormals.
    """

    x_min: float
    x_max: float

    def __post_init__(self):
        lo, hi = self.x_min, self.x_max
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"domain window bounds must be finite, got [{lo}, {hi}]")
        half = hi / 2 - lo / 2
        if not half > 0.0:
            raise ValueError(f"empty domain window [{lo}, {hi}]")
        object.__setattr__(self, "_mid", lo / 2 + hi / 2)
        object.__setattr__(self, "_half", half)


@record
class PolynomialModel:
    """Polynomial in ascending powers of t, the abscissa mapped by its window.

    Every value is taken in t.  The default window (-1, 1) maps x to itself,
    so for a quadratic ``PolynomialModel((c, b, a))`` is y = a*x^2 + b*x + c.
    ``coeffs`` holds the same polynomial in ascending powers of x, derived
    once for printing and for the report's quadratic analysis; construction
    fails with ValueError when a coefficient in either basis is not finite.
    """

    scaled: tuple[float, ...]
    window: DomainWindow = DomainWindow(-1.0, 1.0)

    def __post_init__(self):
        scaled = tuple(map(float, self.scaled))
        if not scaled:
            raise ValueError("a polynomial needs at least one coefficient")
        coeffs = tuple(convert_domain(scaled, self.window))
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "scaled", scaled)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.scaled) - 1


def _to_t(window: DomainWindow, xs) -> list[float]:
    """xs mapped by the window onto t; the only place x becomes t."""
    mid, half = window._mid, window._half
    return [(x - mid) / half for x in xs]


def _horner(coeffs, xs) -> list[float]:
    """Values at xs of the polynomial with ascending coefficients coeffs (at
    least one), by Horner's scheme: one pass over all points per step."""
    values = [coeffs[-1]] * len(xs)
    for c in reversed(coeffs[:-1]):
        values = [v * x + c for v, x in zip(values, xs)]
    return values


def _evaluate(model: PolynomialModel, xs) -> list[float]:
    """Values of the model at xs: each x mapped to t, then Horner in t."""
    return _horner(model.scaled, _to_t(model.window, xs))


def eval_poly(model: PolynomialModel, x: float) -> float:
    """Value of the model at x, taken in t by Horner's scheme."""
    return _evaluate(model, (x,))[0]


def _centred_deviations(series: Series) -> tuple[list[float], float, float, int]:
    """c = d - mean(d), mean(d), the sum of c * c (ss_tot * 4**e) and e, for
    d = (y - y0) * 2**e, y0 the first y, with max |d| in [1/2, 1) unless 2**e
    would overflow (e = 0 for constant data).  Nearby floats differ exactly
    (Chan, Golub and LeVeque, Am. Stat. 37(3), 1983), and no sum of d
    underflows or overflows; OverflowError if y - y0 does."""
    ys = series.ys
    y0 = ys[0]
    lo, hi = series._y_bounds
    top = max(hi - y0, y0 - lo)
    if top == math.inf:
        raise OverflowError("y - y0 overflows")
    exponent = min(-math.frexp(top)[1], 1023)
    scale = 2.0 ** exponent
    deviations = [(y - y0) * scale for y in ys]
    mean = math.fsum(deviations) / len(deviations)
    centred = [d - mean for d in deviations]
    return centred, mean, math.fsum(map(operator.mul, centred, centred)), exponent


def _polynomials(ts: list[float], degree: int, scalar):
    """Yield p_k with its coefficients in powers of t, then ||p_k||^2, for
    k = 1, ..., degree: the half of Forsythe's recurrence that depends on t
    alone.

    p_1 = t - mean(t), and p_{k+1} = (t - a_k) p_k - b_k p_{k-1}, where
    a_k = (t p_k, p_k) / ||p_k||^2 and b_k = ||p_k||^2 / ||p_{k-1}||^2 with
    ||p_0||^2 = n.  Each p_k is held both as its values at the points and
    as its power-in-t coefficients.  Each of the scalars mean(t),
    ||p_k||^2 and a_k (for k < degree), in that order, is
    scalar(compute): compute() itself, or the same float taken from the
    helper that computes it.  ||p_k||^2 is taken only once the caller asks
    for it, so that the caller's own work on p_k comes before any wait for
    the helper.

    Neither p_0 nor t * p_k is stored: the step from p_1 drops b * p_0,
    which is b, and t * p_k is formed where the sum for a and the
    recurrence use it, so every float is the same product, taken in the
    same order.  Three length-n lists are alive at once: p_{k-1}, p_k and
    p_{k+1} while it is built.
    """
    n = len(ts)
    a = scalar(lambda: math.fsum(ts) / n)
    p_prev, p = None, [t - a for t in ts]
    poly_prev, poly = [1.0], [-a, 1.0]
    norm2_prev = float(n)
    for k in range(1, degree + 1):
        if k == degree:
            # p_{k-1} is freed before the caller builds its last residual:
            # the fit's peak memory stays at that of the steps before it.
            del p_prev
        yield p, poly
        norm2 = scalar(lambda: math.fsum(map(operator.mul, p, p)))
        yield norm2
        if k == degree:
            return
        a = scalar(lambda: math.fsum(map(operator.mul, map(operator.mul, ts, p), p)) / norm2)
        b = norm2 / norm2_prev
        if p_prev is None:
            # b * p_0 is b * 1.0, which is b.
            p_prev, p = p, [t * v - a * v - b for t, v in zip(ts, p)]
        else:
            p_prev, p = p, [t * v - a * v - b * w for t, v, w in zip(ts, p, p_prev)]
        nxt = [0.0] + poly
        for j, q in enumerate(poly):
            nxt[j] -= a * q
        for j, q in enumerate(poly_prev):
            nxt[j] -= b * q
        poly_prev, poly = poly, nxt
        norm2_prev = norm2


class _Run:
    """The command line's run of the parse, the fit and the chart, with its
    one helper process (see _helper), forked as the run is made where
    serves are given: the helper runs each serve(state, send, receive) in
    turn, the first on state and each later one on what the one before
    returned, every row of the series after the parse, as (xs, ys, x
    bounds, y bounds).  It ends itself after the last, so that its exit
    overlaps this process's work instead of adding to its stop.  A run is a
    context manager that stops its helper on exit.  It is kept here, not in
    _helper, so that a run that forks nothing loads no helper module.

    helper is None where none was forked; room is the bytes of the
    helper's mapping (see _helper.start); chart is whether the run renders
    a chart, for which the helper needs the ys too."""

    __slots__ = ("helper", "chart")

    def __init__(self, serves, state, room: int = 0, chart: bool = False):
        self.helper, self.chart = None, chart
        if serves:
            from ._helper import start  # loaded only where a run forks

            def work(send, receive):
                held = state
                for serve in serves:
                    held = serve(held, send, receive)
            self.helper = start(work, room)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.helper:
            self.helper.stop()

    def running(self):
        """The run's helper, or None where it has stopped or none runs."""
        return self.helper if self.helper and self.helper.running else None


def _scalars(records):
    """scalar(compute) for _polynomials: each scalar read from the next of
    records, an iterator; once they end, compute() for that scalar and
    every later one."""
    def scalar(compute):
        record = next(records, None)
        return compute() if record is None else float(record)
    return scalar


def _serve_fit(held, send, receive):
    """The helper's work for a fit: map the xs it holds onto t in the
    window of their bounds, then read _orthogonal_fit's request, the
    degree, and run _polynomials, sending each scalar as soon as it is
    computed, as one record of its repr, which reads back as the same
    float.  A NaN reads back without its sign, which no comparison sees,
    and a fit that meets one raises NumericalOverflow either way."""
    xs, _, x_bounds, _ = held
    ts = _to_t(DomainWindow(*x_bounds), xs)
    degree = int(receive())

    def sent(compute):
        value = compute()
        send(b"%r" % value)
        return value
    for _ in _polynomials(ts, degree, sent):
        pass
    return held


def _orthogonal_fit(window: DomainWindow, series: Series,
                    degree: int, run: _Run | None) -> tuple[list[float], list[float], float, int]:
    """Least-squares coefficients in ascending powers of t, by Forsythe's method
    on _centred_deviations(series), with (y - fit) * 2**e, ss_tot * 4**e and e.

    Projects the running residual onto each p_k of _polynomials in turn
    (modified Gram-Schmidt), and accumulates c_k p_k in powers of t.  p_0
    = 1 is written in closed form: its squared norm is n, its coefficient
    the mean deviation, and after it the residual's squared norm is ss_tot.

    Where run's helper runs, it holds every x and maps them onto t in the
    window of their bounds; this process sends it the degree, and the
    helper computes the scalars of _polynomials that depend on t alone,
    mean(t), ||p_k||^2 and a_k, on the second processor, while this process
    computes t, the deviations, each p_k, c_k and the residual.  Each
    scalar is taken from the helper's records while they come; from the
    first that does not, this process computes that scalar and every later
    one itself.  Both compute each scalar by the same code from the same
    floats, so a helper that fails, stops or is killed gives the same
    floats and the same exception at the same step as no helper does.

    This process holds at most five length-n lists at once: t, the
    residual, p_{k-1}, p_k, and the residual or p_{k+1} being built.  The
    helper holds four besides its rows: its t, p_{k-1}, p_k and p_{k+1}.

    Raises:
        RankDeficient: some ||p_k|| falls below RANK_TOLERANCE times the
            largest, so the points cannot resolve a degree-k term.
    """
    n = len(series)
    helper = run.running() if run else None
    if helper:
        helper.send(b"%d" % degree)
    ts = _to_t(window, series.xs)
    scalar = _scalars(helper.records() if helper else iter(()))
    residual, mean, ss_tot, exponent = _centred_deviations(series)
    coeffs = [mean] + [0.0] * degree
    norm2_max = float(n)
    steps = _polynomials(ts, degree, scalar)
    for k, (p, poly) in enumerate(steps, 1):
        # This process's own sum comes before ||p_k||^2, which may wait for
        # the helper.  Its terms are finite and small (|t| <= 1, and the
        # residual's norm stays within the deviations'), so it cannot
        # overflow and raise where the rank test below would raise first.
        dot = math.fsum(map(operator.mul, residual, p))
        norm2 = next(steps)
        # Compared squared, and before any division: norm2_max >= n > 0,
        # so a zero norm2 always raises here.
        norm2_max = max(norm2_max, norm2)
        if norm2 < RANK_TOLERANCE * RANK_TOLERANCE * norm2_max:
            raise RankDeficient(
                f"x values cannot resolve a degree-{k} term within tolerance"
            )
        c = dot / norm2
        for j, q in enumerate(poly):
            coeffs[j] += c * q
        residual = [r - c * v for r, v in zip(residual, p)]
    coeffs = [math.ldexp(c, -exponent) for c in coeffs]
    coeffs[0] += series.ys[0]
    return coeffs, residual, ss_tot, exponent


def _validation_error(series: Series, degree: int):
    """Error instance for unfittable inputs, or None when they are fine."""
    if degree < 0:
        return InvalidDegree(f"degree must be nonnegative, got {degree}")
    if len(series) < degree + 1:
        return InsufficientData(
            f"degree {degree} needs {degree + 1} observations, got {len(series)}"
        )
    # Stop counting distinct x values once there are enough; only an
    # error message needs the full count, and then the loop ran to the end.
    needed = max(degree + 1, 2)
    seen = set()
    for x in series.xs:
        seen.add(x)
        if len(seen) == needed:
            return None
    distinct = len(seen)
    if distinct < degree + 1:
        return DegenerateAbscissa(
            f"degree {degree} needs {degree + 1} distinct x values, got {distinct}"
        )
    return DegenerateAbscissa("all x values are equal; data window is undefined")


def _overflow(reason: str) -> NumericalOverflow:
    return NumericalOverflow(f"the fit overflows a float; {reason}")


@record
class _Fit:
    """A model with what its report sums (see metrics._residual_report):
    the residual y - fit times 2**scale, and ss_tot times 4**exponent."""

    model: PolynomialModel
    residual: list
    scale: int
    ss_tot: float
    exponent: int


def _fit(series: Series, degree: int, run: _Run | None = None) -> _Fit:
    """The least-squares model of fit_polynomial, with the residual and
    ss_tot that _orthogonal_fit leaves behind for the report, and with the
    helper of run where it has one.

    Each step that can leave the float range names its own cause in the
    NumericalOverflow it raises: the x span, the window, the deviations of
    y and the sums in t, and the conversion to powers of x.
    """
    err = _validation_error(series, degree)
    if err is not None:
        raise err

    lo, hi = series._x_bounds
    # An x span past the float range counts as overflow, though the
    # halved map could hold it.
    if hi - lo == math.inf:
        raise _overflow(_TOO_LARGE)
    try:
        window = DomainWindow(lo, hi)
    except ValueError:
        # The halved bounds coincide: the window has no half-width.
        raise _overflow(_TOO_CLOSE) from None
    try:
        scaled, residual, ss_tot, exponent = _orthogonal_fit(window, series, degree, run)
    except (OverflowError, ValueError):
        # y - y0, math.fsum and math.ldexp raise OverflowError past the
        # float range, and math.fsum ValueError on inf - inf.
        raise _overflow(_TOO_LARGE) from None
    if not all(map(math.isfinite, scaled)):
        raise _overflow(_TOO_LARGE)
    try:
        model = PolynomialModel(scaled, window)
    except ValueError:
        # The coefficients in x need 1/half**degree, which overflows for a
        # narrow window.  The conversion is linear in the coefficients, so
        # the window alone is at fault when it overflows for coefficients
        # scaled exactly below 1 too; otherwise their size is.
        shift = -math.frexp(max(map(abs, scaled)))[1]
        unit = convert_domain([math.ldexp(c, shift) for c in scaled], window)
        raise _overflow(_TOO_LARGE if all(map(math.isfinite, unit)) else _TOO_CLOSE) from None
    # The recurrence leaves its residual on the scale of y it fitted.
    return _Fit(model, residual, exponent, ss_tot, exponent)


def fit_polynomial(series: Series, degree: int = DEFAULT_DEGREE) -> tuple[PolynomialModel, DomainWindow]:
    """Least-squares polynomial fit with domain scaling for conditioning.

    The abscissae are mapped affinely onto t in [-1, 1] over the data
    window and the scaled problem is solved by Forsythe's
    orthogonal-polynomial recurrence.  The returned model holds that
    solution in powers of t with the window, which is also returned; its
    ``coeffs`` give the same polynomial in plain powers of x.

    Raises:
        InvalidDegree, InsufficientData, DegenerateAbscissa: unfittable input.
        RankDeficient: x values too clustered for the degree (pathological
            spacing).
        NumericalOverflow: the x span, a sum or a coefficient in t
            overflows a float ("the x or y values are too large"), or the
            x values lie so close together that the window has no
            half-width or the coefficients in powers of x overflow ("the x
            values are too close together").
    """
    model = _fit(series, degree).model
    return model, model.window


def convert_domain(scaled_coeffs, window: DomainWindow) -> list[float]:
    """Re-express coefficients in powers of t as coefficients in plain x.

    Given p(t) with t = (x - mid)/half, the window's map, returns q such
    that q(x) = p(t(x)) identically, by Horner-style composition with the
    affine map.
    """
    alpha = -window._mid / window._half
    beta = 1.0 / window._half

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
