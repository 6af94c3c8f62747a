import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfit import (
    NotQuadratic,
    NumericalOverflow,
    VertexForm,
    discriminant,
    from_vertex_form,
    quadratic_roots,
    to_vertex_form,
)

nonzero_lead = st.one_of(st.floats(-10, -0.1), st.floats(0.1, 10))
small = st.floats(-10, 10)


class TestDiscriminant:
    def test_two_roots(self):
        assert discriminant(1, -5, 6) == 1.0

    def test_perfect_square(self):
        assert discriminant(1, -2, 1) == 0.0

    def test_no_real_roots(self):
        assert discriminant(1, 0, 1) == -4.0


    def test_overflow_raises(self):
        # b*b and 4ac both overflow; inf - inf would be nan.
        with pytest.raises(NumericalOverflow):
            discriminant(1.5e156, -4.5e154, 1e152)


class TestQuadraticRoots:
    def test_factorable(self):
        got = quadratic_roots(1, -5, 6)
        assert got.roots == pytest.approx((2.0, 3.0), abs=1e-12)
        assert got.multiplicity == 1

    def test_double_root(self):
        got = quadratic_roots(1, -2, 1)
        assert got.roots == (1.0,)
        assert got.multiplicity == 2

    def test_no_real_roots(self):
        got = quadratic_roots(1, 0, 1)
        assert got.roots == () and got.multiplicity == 0

    def test_rejects_linear(self):
        with pytest.raises(NotQuadratic):
            quadratic_roots(0, 2, 1)

    def test_overflow_raises(self):
        # Finite discriminant, but the root q/a = -1/1e-320 is not.
        with pytest.raises(NumericalOverflow):
            quadratic_roots(1e-320, 1.0, 0.0)

    def test_symmetric_pair(self):
        # b = 0 exercises the sign convention in the stable formula.
        got = quadratic_roots(1, 0, -4)
        assert got.roots == pytest.approx((-2.0, 2.0), abs=1e-12)

    def test_zero_constant_term(self):
        assert quadratic_roots(1, -5, 0).roots == pytest.approx((0.0, 5.0), abs=1e-12)
        assert quadratic_roots(1, 5, 0).roots == pytest.approx((-5.0, 0.0), abs=1e-12)

    def test_stable_formula_stress(self):
        # Naive (-b + sqrt(disc))/(2a) loses the small root to cancellation.
        a, b, c = 1.0, 1e8, 1.0
        got = quadratic_roots(a, b, c)
        assert got.multiplicity == 1
        bound = 1e-8 * max(abs(a), abs(b), abs(c), 1.0)
        for r in got.roots:
            assert abs(a * r * r + b * r + c) <= bound
        assert got.roots[1] == pytest.approx(-1e-8, rel=1e-6)

    @settings(max_examples=200)
    @given(a=nonzero_lead, b=small, c=small)
    def test_roots_satisfy_equation(self, a, b, c):
        got = quadratic_roots(a, b, c)
        assert len(got.roots) <= 2
        assert list(got.roots) == sorted(got.roots)
        bound = 1e-8 * max(abs(a), abs(b), abs(c), 1.0)
        for r in got.roots:
            assert abs(a * r * r + b * r + c) <= bound

    @settings(max_examples=200)
    @given(a=nonzero_lead, b=small, c=small)
    def test_vieta(self, a, b, c):
        got = quadratic_roots(a, b, c)
        if got.multiplicity != 1:
            return
        r1, r2 = got.roots
        assert r1 + r2 == pytest.approx(-b / a, rel=1e-8, abs=1e-8)
        assert r1 * r2 == pytest.approx(c / a, rel=1e-8, abs=1e-8)


class TestVertexForm:
    def test_complete_the_square(self):
        v = to_vertex_form(2, -4, 5)
        assert (v.a, v.h, v.k) == (2.0, 1.0, 3.0)

    def test_already_centered(self):
        v = to_vertex_form(1, 0, 0)
        assert (v.a, v.h, v.k) == (1.0, 0.0, 0.0)

    def test_negative_lead(self):
        v = to_vertex_form(-3, 6, -1)
        assert (v.a, v.h, v.k) == (-3.0, 1.0, 2.0)

    def test_expansion(self):
        assert from_vertex_form(VertexForm(2, 1, 3)) == (2.0, -4.0, 5.0)
        assert from_vertex_form(VertexForm(1, 0, 0)) == (1.0, 0.0, 0.0)
        assert from_vertex_form(VertexForm(-3, 1, 2)) == (-3.0, 6.0, -1.0)

    def test_rejects_linear(self):
        with pytest.raises(NotQuadratic):
            to_vertex_form(0, 1, 2)
        with pytest.raises(NotQuadratic):
            VertexForm(0.0, 1.0, 2.0)

    @pytest.mark.parametrize("a, b, c", [
        (1.5e156, -4.5e154, 1e152),  # b*b overflows in k
        (1e-320, 1e-10, 0.0),  # -b/(2a) overflows in h
    ], ids=["k", "h"])
    def test_overflow_raises(self, a, b, c):
        with pytest.raises(NumericalOverflow):
            to_vertex_form(a, b, c)

    @settings(max_examples=200)
    @given(a=nonzero_lead, b=small, c=small)
    def test_round_trip(self, a, b, c):
        got = from_vertex_form(to_vertex_form(a, b, c))
        for g, w in zip(got, (a, b, c)):
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w))

    @settings(max_examples=200)
    @given(a=nonzero_lead, b=small, c=small)
    def test_vertex_is_extremum(self, a, b, c):
        v = to_vertex_form(a, b, c)

        def poly(x):
            return a * x * x + b * x + c

        eps = 1e-3
        for x in (v.h - eps, v.h + eps):
            # Around the vertex the polynomial moves away from k in the
            # direction of sign(a): exactly a*eps^2.
            assert math.copysign(1.0, poly(x) - v.k) == math.copysign(1.0, a) \
                or abs(poly(x) - v.k) <= 1e-12
