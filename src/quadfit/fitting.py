"""Least-squares polynomial fitting on a scaled domain.

The fit maps the abscissae affinely onto t in [-1, 1] over the data
window and fits there with Forsythe's orthogonal polynomials (G. E.
Forsythe, "Generation and use of orthogonal polynomials for data-fitting
with a digital computer", J. SIAM 5(2), 1957).  The polynomials come from
a three-term recurrence and the residual is projected onto each in turn,
so the fit takes O(n*d) time and never forms normal equations, which
square the condition number.

Half of the recurrence depends on t alone: mean(t), each ||p_k||^2 and
each a_k.  A helper process (see _helper, which says where a process may
fork, on which CPU its helper runs and how long the fit waits) computes
those scalars on its own copy of t and sends each as soon as it has it,
while the fitting process computes everything else and takes each scalar
from the helper in place of computing it.  The helper is the run's (see
_Run): a run forks at most one, at the first stage large enough, and it
serves every later stage.  Where the run has none yet, the fit forks it
once n*d reaches _HELPER_MIN_WORK; where the parse forked it, the fit
sends it the xs it does not hold.  fit_polynomial is a run of the fit
alone.  From the first scalar that does not arrive, the fitting process
computes that one and every later one itself, by the same code, so the
helper changes no float and no error.  The fitting process holds at most
five length-n lists at once, and the helper four of its own.

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

# A fit of n points at degree d starts a helper process once n * d reaches
# this, where the run has none yet.  Below it, the helper's start, kill and
# reap, 1.1 ms from a 23 MiB process on a 2-vCPU Xeon, cost more than the
# helper saves.
_HELPER_MIN_WORK = 2 ** 15

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
    """Yield p_k, its coefficients in powers of t and ||p_k||^2, for
    k = 1, ..., degree: the half of Forsythe's recurrence that depends on t
    alone.

    p_1 = t - mean(t), and p_{k+1} = (t - a_k) p_k - b_k p_{k-1}, where
    a_k = (t p_k, p_k) / ||p_k||^2 and b_k = ||p_k||^2 / ||p_{k-1}||^2 with
    ||p_0||^2 = n.  Each p_k is held both as its values at the points and
    as its power-in-t coefficients.  Each of the scalars mean(t),
    ||p_k||^2 and a_k (for k < degree), in that order, is
    scalar(compute): compute() itself, or the same float taken from the
    helper that computes it.

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
        norm2 = scalar(lambda: math.fsum(map(operator.mul, p, p)))
        if k == degree:
            # p_{k-1} is freed before the caller builds its last residual:
            # the fit's peak memory stays at that of the steps before it.
            del p_prev
            yield p, poly, norm2
            return
        yield p, poly, norm2
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
    """The one helper process of a run of stages (see _helper): none until
    the first stage whose work reaches its threshold forks it, and then that
    helper, while it runs, for that stage and every later one.  A run is a
    context manager that stops its helper on exit.  It is kept here, not in
    _helper, so that a run that forks nothing loads no helper module.

    serves are the helper's work for each stage, in order: serve(state,
    send, receive) returns the next stage's state, the last rows of the
    series as (xs, ys) after the parse.  The helper ends itself after the
    last, so that its exit overlaps this process's work instead of adding
    to its stop.  held is how many rows the helper holds, as this process
    knows it, and room the bytes of mapping a later stage may need for each
    (0 where no chart follows)."""

    __slots__ = ("serves", "room", "helper", "held")

    def __init__(self, *serves, room: int = 0):
        self.serves, self.room, self.helper, self.held = serves, room, None, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.helper:
            self.helper.stop()

    def share(self, large: bool, serve, state, rows: int):
        """The run's helper for the stage of serve, or None where it has
        stopped or none runs.  Where none has started and large is true, one
        is forked now, holding at most `rows` rows: it runs serve on state,
        then each later stage's serve on what the one before returned."""
        if self.helper is None and large:
            from ._helper import start  # loaded only where a helper starts
            serves = self.serves[self.serves.index(serve):]

            def work(send, receive):
                held = state
                for stage in serves:
                    held = stage(held, send, receive)
            self.helper, self.held = start(work, rows * self.room), rows
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
    """The helper's work for a fit: read _orthogonal_fit's request, the
    degree, the window's bounds and the xs before the ones it holds, and
    run _polynomials on all of them in t, sending each scalar as soon as it
    is computed, as one record of its repr, which reads back as the same
    float.  A NaN reads back without its sign, which no comparison sees,
    and a fit that meets one raises NumericalOverflow either way."""
    head, _, before = receive().partition(b"\n")
    degree, x_min, x_max = head.split()
    ts = _to_t(DomainWindow(float(x_min), float(x_max)), [*memoryview(before).cast("d"), *held[0]])

    def sent(compute):
        value = compute()
        send(b"%r" % value)
        return value
    for _ in _polynomials(ts, int(degree), sent):
        pass
    return held


def _orthogonal_fit(window: DomainWindow, series: Series,
                    degree: int, run: _Run) -> tuple[list[float], list[float], float, int]:
    """Least-squares coefficients in ascending powers of t, by Forsythe's method
    on _centred_deviations(series), with (y - fit) * 2**e, ss_tot * 4**e and e.

    Projects the running residual onto each p_k of _polynomials in turn
    (modified Gram-Schmidt), and accumulates c_k p_k in powers of t.  p_0
    = 1 is written in closed form: its squared norm is n, its coefficient
    the mean deviation, and after it the residual's squared norm is ss_tot.

    Where run's helper runs, or n * degree reaches _HELPER_MIN_WORK and the
    run forks one now, this process first sends it the degree, the window
    and the xs it does not hold, and the helper computes the scalars of
    _polynomials that depend on t alone, mean(t), ||p_k||^2 and a_k, on
    the second processor, while this process computes t, the deviations,
    each p_k, c_k and the residual.  Each scalar is taken from the helper's
    records while they come; from the first that does not, this process
    computes that scalar and every later one itself.  Both compute each
    scalar by the same code from the same floats, so a helper that fails,
    stops or is killed gives the same floats and the same exception at the
    same step as no helper does.

    This process holds at most five length-n lists at once: t, the
    residual, p_{k-1}, p_k, and the residual or p_{k+1} being built.  The
    helper holds four of its own: its copy of t, p_{k-1}, p_k and p_{k+1}.

    Raises:
        RankDeficient: some ||p_k|| falls below RANK_TOLERANCE times the
            largest, so the points cannot resolve a degree-k term.
    """
    n = len(series)
    helper = run.share(n * degree >= _HELPER_MIN_WORK, _serve_fit, (series.xs, series.ys), n)
    if helper:
        request = b"%d %r %r\n" % (degree, window.x_min, window.x_max)
        before = series.xs[:n - run.held]
        if before:
            from _struct import pack  # only where the helper forked before the parse
            request += pack("%dd" % len(before), *before)
        helper.send(request)
    ts = _to_t(window, series.xs)
    scalar = _scalars(helper.records() if helper else iter(()))
    residual, mean, ss_tot, exponent = _centred_deviations(series)
    coeffs = [mean] + [0.0] * degree
    norm2_max = float(n)
    for k, (p, poly, norm2) in enumerate(_polynomials(ts, degree, scalar), 1):
        # Compared squared, and before any division: norm2_max >= n > 0,
        # so a zero norm2 always raises here.
        norm2_max = max(norm2_max, norm2)
        if norm2 < RANK_TOLERANCE * RANK_TOLERANCE * norm2_max:
            raise RankDeficient(
                f"x values cannot resolve a degree-{k} term within tolerance"
            )
        c = math.fsum(map(operator.mul, residual, p)) / norm2
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
    ss_tot that _orthogonal_fit leaves behind for the report, the helper
    taken from run, or from a run of the fit alone where run is None.

    Each step that can leave the float range names its own cause in the
    NumericalOverflow it raises: the x span, the window, the deviations of
    y and the sums in t, and the conversion to powers of x.
    """
    if run is None:
        with _Run(_serve_fit) as run:
            return _fit(series, degree, run)
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
