import _signal
import math
import os
import random
import signal
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import max_rel_err, normal_equations_fit, quadratic_fit_cramer
from support import (SHARED_CPU, STOPPING_FORK, cut, failing_helpers, fit_instances, held_rows, helpers_send,
                     run_isolated, share_the_cpu, spaced_abscissae, wait_long)
from conftest import DERIVED_COEFFS, DERIVED_XS, DERIVED_YS

from quadfit import (
    CsvSchema,
    DegenerateAbscissa,
    DomainWindow,
    InsufficientData,
    InvalidDegree,
    NumericalOverflow,
    PolynomialModel,
    QuadfitError,
    RankDeficient,
    Series,
    eval_poly,
    fit_polynomial,
    parse_csv,
)
from quadfit import fitting
from quadfit.fitting import _fit, _Run, convert_domain
from quadfit.ingest import _plain_columns


class TestSeries:
    def test_stores_tuples(self):
        s = Series([1, 2], [3, 4])
        assert s.xs == (1.0, 2.0) and s.ys == (3.0, 4.0)
        assert len(s) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Series((1.0,), (1.0, 2.0))

    def test_empty(self):
        with pytest.raises(ValueError):
            Series((), ())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite(self, bad):
        with pytest.raises(ValueError):
            Series((1.0, 2.0), (1.0, bad))

    def test_bounds_are_measured_on_every_path(self):
        # Series() and both parse_csv paths store each column's (min, max),
        # which is derived: ==, hash and repr see the fields alone.
        xs, ys = (3.0, -1.5, 7.25, 0.0), (2.0, 9.5, -4.0, 2.0)
        plain = "Month,Values\n" + "".join(f"{x},{y}\n" for x, y in zip(xs, ys))
        quoted = "Month,Values\n" + "".join(f'"{x}",{y}\n' for x, y in zip(xs, ys))
        schema = CsvSchema()
        assert _plain_columns(plain.encode(), schema) is not None
        assert _plain_columns(quoted.encode(), schema) is None
        built = [Series(xs, ys), parse_csv(plain.encode()), parse_csv(quoted.encode())]
        for s in built:
            assert s._x_bounds == (min(s.xs), max(s.xs)) == (-1.5, 7.25)
            assert s._y_bounds == (min(s.ys), max(s.ys)) == (-4.0, 9.5)
            assert s == built[0] and hash(s) == hash(built[0])
            assert repr(s) == f"Series(xs={xs!r}, ys={ys!r})"


class TestEvalPoly:
    def test_power_sum(self):
        assert eval_poly(PolynomialModel((1, 2, 3)), 2.0) == 17.0

    def test_constant(self):
        assert eval_poly(PolynomialModel((5,)), 123.456) == 5.0

    def test_pure_square(self):
        assert eval_poly(PolynomialModel((0, 0, 1)), -3.0) == 9.0

    def test_constant_at_infinity(self):
        # No 0.0 * x step, so an infinite x cannot turn the constant into NaN.
        assert eval_poly(PolynomialModel((5.0,)), math.inf) == 5.0
        assert eval_poly(PolynomialModel((5.0,)), -math.inf) == 5.0

    def test_window_maps_x_to_t(self):
        # t = (x - mid)/half, which is -1, 0 and 1 at the window's ends and
        # midpoint; coeffs is the same polynomial in powers of x.
        model = PolynomialModel((2.0, 3.0), DomainWindow(202401.0, 202412.0))
        assert [eval_poly(model, x) for x in (202401.0, 202406.5, 202412.0)] == [-1.0, 2.0, 5.0]
        assert model.coeffs == pytest.approx((2.0 - 3.0 * 202406.5 / 5.5, 3.0 / 5.5), rel=1e-15)
        assert model.degree == 1

    def test_default_window_is_plain_x(self):
        model = PolynomialModel((1.0, -2.0, 3.0))
        assert model.window == DomainWindow(-1.0, 1.0)
        assert model.coeffs == model.scaled == (1.0, -2.0, 3.0)

    def test_model_needs_a_coefficient(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            PolynomialModel(())

    @given(
        coeffs=st.lists(st.floats(-10, 10), min_size=1, max_size=7),
        x=st.floats(-100, 100),
    )
    def test_horner_matches_power_sum(self, coeffs, x):
        model = PolynomialModel(tuple(coeffs))
        naive = math.fsum(c * x ** k for k, c in enumerate(coeffs))
        got = eval_poly(model, x)
        assert abs(got - naive) <= 1e-12 * max(1.0, abs(naive))


class TestSolveLeastSquares:
    """The least-squares solve, checked through fit_polynomial."""

    def test_line_interpolation(self):
        # x = 0 is a data point, so the constant term is read off directly.
        model, _ = fit_polynomial(Series((0, 1), (2, 5)), 1)
        assert model.coeffs == pytest.approx([2.0, 3.0], abs=1e-12)

    def test_exact_parabola(self):
        model, _ = fit_polynomial(Series((0, 1, 2), (0, 1, 4)), 2)
        assert model.coeffs == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_matches_oracle_on_fixed_dataset(self):
        model, _ = fit_polynomial(Series(DERIVED_XS, DERIVED_YS), 2)
        want = normal_equations_fit(DERIVED_XS, DERIVED_YS, 2)
        assert model.coeffs == pytest.approx([float(w) for w in want], abs=1e-9)
        assert model.coeffs == pytest.approx(list(DERIVED_COEFFS), abs=1e-9)

    def test_degree_ten_matches_oracle(self):
        xs = tuple(1.0 + 0.75 * i for i in range(15))
        ys = tuple(math.sin(x) + 0.1 * x for x in xs)
        model, _ = fit_polynomial(Series(xs, ys), 10)
        assert max_rel_err(model.coeffs, normal_equations_fit(xs, ys, 10)) <= 1e-8

    def test_underdetermined(self):
        # One observation cannot determine three coefficients.
        with pytest.raises(InsufficientData):
            fit_polynomial(Series((3,), (3,)), 2)

    def test_empty(self):
        with pytest.raises(ValueError):
            fit_polynomial(Series((), ()), 1)

    def test_rhs_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_polynomial(Series((0, 1), (1, 2, 3)), 1)

    def test_rank_deficient(self):
        # Two x values 1e-13 apart cannot resolve both the slope and the curvature.
        with pytest.raises(RankDeficient):
            fit_polynomial(Series((0, 1e-13, 1), (0.0, 1.0, 2.0)), 2)

    @pytest.mark.parametrize("xs, degree", [
        ((0, 1e-12, 2e-12, 1), 3),
        (tuple(i * 1e-6 for i in range(10)) + (1,), 10),
    ], ids=["three-in-a-cluster", "ten-in-a-cluster"])
    def test_rank_deficient_cluster(self, xs, degree):
        ys = tuple(float(i % 3) for i in range(len(xs)))
        with pytest.raises(RankDeficient):
            fit_polynomial(Series(xs, ys), degree)

    @pytest.mark.parametrize("xs, degree", [
        (tuple(range(11)), 10),
        ((0, 1, 2, 3, 4, 4 + 1e-9), 5),
    ], ids=["eleven-spaced", "near-pair-within-tolerance"])
    def test_near_degenerate_still_fits(self, xs, degree):
        ys = tuple(float(i % 3) for i in range(len(xs)))
        model, _ = fit_polynomial(Series(xs, ys), degree)
        assert model.degree == degree


class TestFitPolynomial:
    def test_exact_quadratic_recovery(self):
        xs = tuple(range(1, 13))
        ys = tuple(3 * x * x - 2 * x + 1 for x in xs)
        model, window = fit_polynomial(Series(xs, ys), 2)
        assert model.coeffs == pytest.approx([1.0, -2.0, 3.0], abs=1e-9)
        assert (window.x_min, window.x_max) == (1.0, 12.0)

    def test_constant_data(self):
        model, _ = fit_polynomial(Series((1, 2, 3, 4), (5, 5, 5, 5)), 2)
        assert model.coeffs == pytest.approx([5.0, 0.0, 0.0], abs=1e-9)

    def test_matches_oracle_on_fixed_dataset(self, derived_series):
        model, _ = fit_polynomial(derived_series, 2)
        assert model.coeffs == pytest.approx(list(DERIVED_COEFFS), abs=1e-9)

    def test_cramer_and_gauss_oracles_agree(self):
        gauss = normal_equations_fit(DERIVED_XS, DERIVED_YS, 2)
        cramer = quadratic_fit_cramer(DERIVED_XS, DERIVED_YS)
        assert gauss == cramer  # exact rational equality

    def test_default_degree_is_two(self, derived_series):
        model, _ = fit_polynomial(derived_series)
        assert model.degree == 2

    def test_too_few_points(self):
        with pytest.raises(InsufficientData):
            fit_polynomial(Series((1, 2), (1, 2)), 2)

    def test_too_few_distinct_x(self):
        with pytest.raises(DegenerateAbscissa):
            fit_polynomial(Series((1, 1, 2, 2), (1, 2, 3, 4)), 2)

    def test_all_x_equal(self):
        with pytest.raises(DegenerateAbscissa):
            fit_polynomial(Series((1, 1, 1, 1), (1, 2, 3, 4)), 1)

    def test_degree_zero_with_all_x_equal(self):
        # Degree 0 needs one distinct x, but the data window needs two.
        with pytest.raises(DegenerateAbscissa,
                           match="^all x values are equal; data window is undefined$"):
            fit_polynomial(Series((3, 3, 3), (1, 2, 3)), 0)

    def test_negative_degree(self):
        with pytest.raises(InvalidDegree):
            fit_polynomial(Series((1, 2, 3), (1, 2, 3)), -1)

    @pytest.mark.parametrize("xs, degree", [
        ((0.0, 5e-324, 0.0), 1),  # the halved bounds coincide: no half-width
        ((0.0, 5e-324, 0.0), 0),
        ((0.0, 1e-308, 5e-309), 1),  # 1/half overflows
    ])
    def test_narrow_window_names_the_x_values(self, xs, degree):
        with pytest.raises(NumericalOverflow,
                           match="^the fit overflows a float; the x values are too close together$"):
            fit_polynomial(Series(xs, (1.0, 2.0, 3.0)), degree)

    @pytest.mark.parametrize("xs, ys", [
        ((-1e308, 0.0, 1e308), (1.0, 2.0, 3.0)),
        ((1.0, 2.0, 3.0), (1e308, -1e308, 1e308)),
        # The coefficients in t are finite, and only their size makes those
        # in powers of x overflow.
        ((0.0, 1.0, 2.0), (1.1136231012689191e307, -7.851356164947664e307, 6.618344288753492e307)),
    ], ids=["x-span", "y-sums", "x-coefficients"])
    def test_huge_values_name_the_magnitude(self, xs, ys):
        with pytest.raises(NumericalOverflow,
                           match="^the fit overflows a float; the x or y values are too large$"):
            fit_polynomial(Series(xs, ys), 2)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_tiny_x_spacing_names_the_x_values(self, degree):
        # 1/half is finite here, but the coefficients in powers of x need
        # 1/half**degree, which is not.
        xs = (1e-300, 2e-300, 3e-300, 4e-300, 5e-300)
        with pytest.raises(NumericalOverflow,
                           match="^the fit overflows a float; the x values are too close together$"):
            fit_polynomial(Series(xs, (1.0, 2.0, 0.0, 5.0, 1.0)), degree)

    def test_degree_zero_huge_y_names_the_narrow_window(self):
        # The fit sums y's deviations from the first value, which stay in
        # the float range here, so only the window, which has no
        # half-width, is at fault.
        with pytest.raises(NumericalOverflow,
                           match="^the fit overflows a float; the x values are too close together$"):
            fit_polynomial(Series((0.0, 5e-324, 0.0), (1e308, 1.7e308, 1e308)), 0)

    def test_degree_zero_fits_y_whose_sum_overflows(self):
        # The sum of these y values passes the float range, but their
        # deviations from the first do not, and the mean is correctly rounded.
        model, _ = fit_polynomial(Series((0.0, 1.0, 2.0), (1e308, 1.7e308, 1e308)), 0)
        assert model.scaled == (1.2333333333333333e308,)

    def test_degree_zero_gives_mean(self):
        model, _ = fit_polynomial(Series((1, 2, 3, 4), (2, 4, 6, 8)), 0)
        assert model.coeffs == pytest.approx([5.0], abs=1e-12)

    @settings(max_examples=60)
    @given(data=fit_instances())
    def test_oracle_equivalence(self, data):
        xs, ys, degree = data
        model, _ = fit_polynomial(Series(tuple(xs), tuple(ys)), degree)
        want = normal_equations_fit(xs, ys, degree)
        assert max_rel_err(model.coeffs, want) <= 1e-8

    @settings(max_examples=40)
    @given(degree=st.integers(1, 4), data=st.data())
    def test_interpolation_exactness(self, degree, data):
        # degree+1 distinct points: the fit must interpolate.
        xs = data.draw(spaced_abscissae(degree + 1, bound=100.0))
        ys = data.draw(st.lists(st.floats(-100, 100),
                                min_size=degree + 1, max_size=degree + 1))
        model, _ = fit_polynomial(Series(tuple(xs), tuple(ys)), degree)
        for x, y in zip(xs, ys):
            assert abs(eval_poly(model, x) - y) <= 1e-8

    @settings(max_examples=40)
    @given(data=fit_instances(max_n=20, max_degree=2),
           shift=st.floats(-20, 20))
    def test_shift_equivariance(self, data, shift):
        # Degree and shift are kept moderate: standard-form coefficients of
        # a polynomial over a window far from the origin amplify evaluation
        # rounding beyond what a 1e-8 comparison can tolerate.
        xs, ys, degree = data
        base, _ = fit_polynomial(Series(tuple(xs), tuple(ys)), degree)
        moved, _ = fit_polynomial(
            Series(tuple(x + shift for x in xs), tuple(ys)), degree)
        for x in xs:
            want = eval_poly(base, x)
            got = eval_poly(moved, x + shift)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))

    def test_shift_equivariance_cubic(self):
        xs = tuple(float(x) for x in range(1, 11))
        ys = (2.0, 5.0, 3.0, 8.0, 7.0, 11.0, 9.0, 14.0, 13.0, 17.0)
        shift = 30.0
        base, _ = fit_polynomial(Series(xs, ys), 3)
        moved, _ = fit_polynomial(Series(tuple(x + shift for x in xs), ys), 3)
        for x in xs:
            want = eval_poly(base, x)
            assert abs(eval_poly(moved, x + shift) - want) <= 1e-8 * max(1.0, abs(want))

    @settings(max_examples=40)
    @given(data=fit_instances(max_n=20, max_degree=3),
           offset=st.floats(-50, 50))
    def test_offset_equivariance(self, data, offset):
        xs, ys, degree = data
        base, _ = fit_polynomial(Series(tuple(xs), tuple(ys)), degree)
        lifted, _ = fit_polynomial(
            Series(tuple(xs), tuple(y + offset for y in ys)), degree)
        scale = max(1.0, max(abs(c) for c in base.coeffs), abs(offset))
        assert abs(lifted.coeffs[0] - (base.coeffs[0] + offset)) <= 1e-8 * scale
        for got, want in zip(lifted.coeffs[1:], base.coeffs[1:]):
            assert abs(got - want) <= 1e-8 * scale


class TestFitMemory:
    @pytest.mark.forks
    @pytest.mark.parametrize("degree, lists", [(2, 4.5), (10, 5.5)])
    def test_peak_stays_within_a_few_length_n_lists(self, degree, lists):
        # A list of n new floats costs 32 bytes a value.  Degree 2 holds
        # four such lists at its peak and degree 10 five: t, the residual,
        # p_{k-1} after the first step, p_k, and the list being built.
        # The budget holds with the helper process and without it.
        n = 20_000
        xs = [1.0 + 11.0 * i / (n - 1) for i in range(n)]
        series = Series(xs, [(x - 6.0) ** 2 + (i * 7919) % 101 / 20.0 for i, x in enumerate(xs)])
        for helped in (True, False):
            with fit_run(series, helped) as run:
                tracemalloc.start()
                try:
                    _fit(series, degree, run)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= lists * 32 * n


def fit_run(series, helped=True):
    """A run whose helper process forks now to serve a fit, holding every
    row, as the parse leaves them; where not helped, a run that forks
    none."""
    return _Run((fitting._serve_fit,) if helped else (), held_rows(series))


def outcome(series, degree, helped=True):
    """What _fit gives through fit_run(series, helped), each float as its
    hex text so that -0.0 and 0.0 differ: the model in t, the residual,
    ss_tot and e, or the error's type and message.  No process outlives
    the run either way."""
    with fit_run(series, helped) as run:
        try:
            fit = _fit(series, degree, run)
            result = ([c.hex() for c in fit.model.scaled], [r.hex() for r in fit.residual],
                      fit.ss_tot.hex(), fit.exponent)
        except QuadfitError as exc:
            result = type(exc), str(exc)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return result


def in_process(series, degree):
    """outcome(series, degree) with no helper."""
    return outcome(series, degree, helped=False)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers that runs fork."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def offset_series(n, x_offset, y_offset, y_scale, seed):
    rng = random.Random(seed)
    xs = [x_offset + 0.37 * i + (i * i % 7) * 0.01 for i in range(n)]
    return Series(xs, [y_offset + y_scale * rng.gauss(0.0, 1.0) for _ in xs])


# Each cause of NumericalOverflow from a fit of degree one or more.
OVERFLOWS = [
    ((1.0, 2.0, 3.0), (1e308, -1e308, 1e308), 2),  # y - y0
    ((0.0, 1.0, 2.0, 3.0), (0.0, 1.7e308, -1.7e308, 0.0), 3),  # a coefficient in t
    ((0.0, 1.0, 2.0), (1.1136231012689191e307, -7.851356164947664e307, 6.618344288753492e307), 2),
    ((1e-300, 2e-300, 3e-300, 4e-300, 5e-300), (1.0, 2.0, 0.0, 5.0, 1.0), 3),  # 1/half**degree
    ((-1e308, 0.0, 1e308), (1.0, 2.0, 3.0), 2),  # the x span
    ((0.0, 5e-324, 0.0), (1.0, 2.0, 3.0), 1),  # no half-width
]


@pytest.mark.forks
@pytest.mark.skipif(not hasattr(os, "fork"), reason="the helper is forked")
class TestHelperProcess:
    """A fit whose run has a helper for the sums in t alone gives the same
    floats, or the same error, as one computed in process."""

    @pytest.fixture(autouse=True)
    def shared_cpu(self, monkeypatch):
        share_the_cpu(monkeypatch)

    @pytest.mark.parametrize("degree", range(1, 11))
    def test_bit_identical_to_the_fit_in_process(self, degree, forks):
        cases = [(x_offset, y_offset, y_scale)
                 for x_offset in (0.0, 2024.0, 1e6, 1e12)
                 for y_offset, y_scale in ((0.0, 1e-300), (0.0, 1e-12), (0.0, 1.0),
                                           (4090082241507.382, 1.0), (0.0, 1e150), (0.0, 1e300))]
        for seed, (x_offset, y_offset, y_scale) in enumerate(cases):
            series = offset_series(40, x_offset, y_offset, y_scale, seed)
            alone = in_process(series, degree)
            assert outcome(series, degree) == alone
        assert len(forks) == len(cases)

    @pytest.mark.parametrize("k", [2, 5, 9])
    def test_rank_deficiency_raises_at_the_same_step(self, k, forks):
        # k clusters, each of twelve x values 1e-13 apart, resolve terms up
        # to degree k - 1.
        xs = [j + i * 1e-13 for j in range(k) for i in range(12)]
        series = Series(xs, [float(i % 3) for i in range(len(xs))])
        want = (RankDeficient, f"x values cannot resolve a degree-{k} term within tolerance")
        assert in_process(series, 10) == want
        assert outcome(series, 10) == want
        assert len(forks) == 1

    @pytest.mark.parametrize("xs, ys, degree", OVERFLOWS)
    def test_each_overflow_raises_the_same_error(self, xs, ys, degree, forks):
        series = Series(xs, ys)
        alone = in_process(series, degree)
        assert alone[0] is NumericalOverflow
        assert outcome(series, degree) == alone

    @pytest.mark.parametrize("cut_next", [False, True], ids=["ends", "cuts-a-line"])
    @pytest.mark.parametrize("sent", range(9))
    def test_a_helper_that_stops_is_finished_in_process(self, sent, cut_next, forks, monkeypatch, capfd):
        # Degree 4 takes nine scalars: mean(t), then ||p_k||^2 for k = 1..4
        # and a_k for k = 1..3.  This helper sends the records of the first
        # `sent`, then fails, or fails while it sends the next, whose record
        # arrives cut.
        series = offset_series(200, 3.0, 0.0, 1.0, sent)
        alone = in_process(series, 4)
        failing_helpers(monkeypatch, sent, cut(lambda record: len(record) - 1) if cut_next else None)
        assert outcome(series, 4) == alone
        assert len(forks) == 1
        assert capfd.readouterr() == ("", "")

    def test_the_fit_takes_its_scalars_from_the_helper(self, forks, monkeypatch):
        # A helper that sends each scalar doubled changes the fit, so the
        # helper path above is not the fit in process by another route.
        series = offset_series(200, 3.0, 0.0, 1.0, 0)
        alone = in_process(series, 3)
        wait_long(monkeypatch)
        helpers_send(monkeypatch, lambda send: lambda record: send(b"%r" % (2 * float(record))))
        assert outcome(series, 3) != alone
        assert len(forks) == 1

    def test_fits_in_process_while_another_thread_runs(self, forks):
        # A forked process inherits the locks other threads hold, and
        # Python 3.12 and later warn about fork in a threaded process.
        series = offset_series(200, 3.0, 0.0, 1.0, 0)
        alone = in_process(series, 3)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            got = outcome(series, 3)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert (got, forks) == (alone, [])

    def test_fits_in_process_without_fork(self, monkeypatch):
        series = offset_series(200, 3.0, 0.0, 1.0, 0)
        alone = in_process(series, 3)
        monkeypatch.delattr(os, "fork")
        assert outcome(series, 3) == alone

    def test_fits_in_process_when_fork_fails(self, monkeypatch):
        series = offset_series(200, 3.0, 0.0, 1.0, 0)
        alone = in_process(series, 3)
        fds = []
        pipe = os.pipe

        def recorded_pipe():
            fds.extend(pair := pipe())
            return pair

        def failing_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "pipe", recorded_pipe)
        monkeypatch.setattr(os, "fork", failing_fork)
        assert outcome(series, 3) == alone
        assert len(fds) == 4
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_a_helper_reaped_elsewhere_is_no_error(self, forks, monkeypatch):
        # Where SIGCHLD is ignored, children are reaped as they exit, and
        # waitpid fails once they have.  A reaped child's pid may name
        # another process by then, so the helper is killed through a pidfd
        # and never by pid.
        series = offset_series(200, 3.0, 0.0, 1.0, 0)
        alone = in_process(series, 3)
        kills, pidfd_kills = [], []
        send = _signal.pidfd_send_signal

        def recorded_send(pidfd, sig, *args):
            pidfd_kills.append(sig)
            return send(pidfd, sig, *args)

        monkeypatch.setattr(os, "kill", lambda *args: kills.append(args))
        monkeypatch.setattr(_signal, "pidfd_send_signal", recorded_send)
        handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            got = outcome(series, 3)
        finally:
            signal.signal(signal.SIGCHLD, handler)
        assert (got, len(forks), kills, pidfd_kills) == (alone, 1, [], [signal.SIGKILL])

    def test_a_stopped_helper_is_killed_and_the_fit_finished_in_process(self):
        # A helper stopped right after the fork sends nothing.  The fit waits
        # for it no longer than it has worked itself (or 20 ms), computes
        # every scalar in process, and kills and reaps it: it returns well
        # within 5 s, where it takes about 0.1 s, and never hangs.
        script = SHARED_CPU + STOPPING_FORK + """
import json, time
from quadfit import fitting
n = 20_000
xs = [1.0 + 11.0 * i / (n - 1) for i in range(n)]
series = fitting.Series(xs, [(x - 6.0) ** 2 + (i * 7919) % 101 / 20.0 for i, x in enumerate(xs)])

def result(run=None):
    fit = fitting._fit(series, 10, run)
    return [c.hex() for c in fit.model.scaled], [r.hex() for r in fit.residual], fit.ss_tot.hex(), fit.exponent

start = time.monotonic()
with fitting._Run((fitting._serve_fit,), (series.xs, series.ys, series._x_bounds, series._y_bounds)) as run:
    got = result(run)
seconds = time.monotonic() - start
try:
    os.waitpid(-1, os.WNOHANG)
    reaped = False
except ChildProcessError:
    reaped = True
print(json.dumps([got == result(), len(stopped), reaped, seconds < 5.0]))
"""
        assert run_isolated(script) == [True, 1, True, True]

    def test_fits_in_process_while_a_c_thread_runs(self):
        # A thread that C code started is no Python thread, but a forked
        # process inherits its locks all the same, and Python 3.12 and later
        # warn about the fork.  This one runs libc's sleep(60).
        script = """
import ctypes, json, os, warnings
from quadfit import fitting
libc = ctypes.CDLL(None)
libc.pthread_create.argtypes = [ctypes.POINTER(ctypes.c_ulong), ctypes.c_void_p,
                                ctypes.c_void_p, ctypes.c_void_p]
libc.pthread_create.restype = ctypes.c_int
thread = ctypes.c_ulong()
sleep = ctypes.cast(libc.sleep, ctypes.c_void_p)
assert libc.pthread_create(ctypes.byref(thread), None, sleep, ctypes.c_void_p(60)) == 0
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
n = 20_000
xs = [1.0 + 11.0 * i / (n - 1) for i in range(n)]
series = fitting.Series(xs, [(x - 6.0) ** 2 + (i * 7919) % 101 / 20.0 for i, x in enumerate(xs)])
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    with fitting._Run((fitting._serve_fit,), (series.xs, series.ys, series._x_bounds, series._y_bounds)) as run:
        got = fitting._fit(series, 10, run).model
print(json.dumps([[str(w.message) for w in caught], len(forks), got == fitting.fit_polynomial(series, 10)[0]]))
"""
        assert run_isolated(script) == [[], 0, True]


def test_each_norm_is_taken_only_when_the_fit_asks_for_it():
    # ||p_k||^2, which may wait for the helper, comes from _polynomials
    # after p_k, once the fit has formed its own sum with p_k, so that the
    # helper computes it meanwhile.
    taken = []

    def scalar(compute):
        taken.append(compute())
        return taken[-1]
    steps = fitting._polynomials([-1.0, -0.5, 0.0, 0.5, 1.0], 2, scalar)
    for k in (1, 2):
        p, poly = next(steps)
        assert len(taken) == 2 * k - 1  # mean(t), then ||p_j||^2 and a_j for j < k
        assert next(steps) == taken[-1] == math.fsum(v * v for v in p)
    assert next(steps, None) is None


class TestConvertDomain:
    def test_affine_substitution(self):
        got = convert_domain([0, 1], DomainWindow(0, 2))
        assert got == pytest.approx([-1.0, 1.0], abs=1e-15)

    def test_constant_unaffected(self):
        assert convert_domain([7.5], DomainWindow(-3, 9)) == [7.5]

    def test_expand_square(self):
        got = convert_domain([0, 0, 1], DomainWindow(0, 2))
        assert got == pytest.approx([1.0, -2.0, 1.0], abs=1e-15)

    @settings(max_examples=80)
    @given(
        scaled=st.lists(st.floats(-5, 5), min_size=1, max_size=5),
        mid=st.floats(-2, 2),
        half=st.floats(0.5, 5),
        t=st.floats(-1, 1),
    )
    def test_composition_identity(self, scaled, mid, half, t):
        window = DomainWindow(mid - half, mid + half)
        q = convert_domain(scaled, window)
        x = mid + half * t  # the point whose scaled image is t
        t_of_x = (2 * x - window.x_min - window.x_max) / (window.x_max - window.x_min)
        want = eval_poly(PolynomialModel(tuple(scaled)), t_of_x)
        got = eval_poly(PolynomialModel(tuple(q)), x)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


class TestDomainWindow:
    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            DomainWindow(3, 3)

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_nonfinite_bounds(self, bounds):
        # An infinite bound would make the window's midpoint and half-width
        # infinite, and every value NaN; a NaN bound would too.
        with pytest.raises(ValueError, match="finite"):
            eval_poly(PolynomialModel((1.0,), DomainWindow(*bounds)), 0.5)

    def test_rejects_window_without_half_width(self):
        # 3 and 4 times the smallest subnormal halve to the same float.
        tiny = 5e-324
        with pytest.raises(ValueError):
            DomainWindow(3 * tiny, 4 * tiny)
        assert DomainWindow(2 * tiny, 4 * tiny) == DomainWindow(2 * tiny, 4 * tiny)
