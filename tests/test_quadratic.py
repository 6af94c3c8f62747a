import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadfit import (
    NotQuadratic,
    NumericalOverflow,
    RootSet,
    VertexForm,
    discriminant,
    from_vertex_form,
    quadratic_roots,
    to_vertex_form,
)

nonzero_lead = st.one_of(st.floats(-10, -0.1), st.floats(0.1, 10))
small = st.floats(-10, 10)


def seeded_triples(seed):
    """3000 seeded triples mixing subnormal, normal and huge magnitudes and
    zeros of both signs: TestVertexForm.test_h_is_correctly_rounded's draw,
    with zeros added."""
    rng = random.Random(seed)

    def draw():
        kind = rng.randrange(4)
        if kind == 0:
            value = rng.randrange(1, 2 ** 52) * 2.0 ** -1074
        elif kind == 3:
            value = 0.0
        else:
            # [2**-1022, 2**1024), or [2**1022, 2**1024)
            low = -1021 if kind == 1 else 1023
            value = math.ldexp(0.5 + 0.5 * rng.random(), rng.randrange(low, 1025))
        return rng.choice((-1.0, 1.0)) * value

    for _ in range(3000):
        yield draw(), draw(), draw()


def rounded(exact):
    """The float nearest an exact value, or None past the float range."""
    try:
        return float(exact)
    except OverflowError:
        return None


def is_negative_zero(value):
    return value == 0.0 and math.copysign(1.0, value) < 0.0


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

    def test_roots_do_not_depend_on_units(self):
        # Scaling an equation by any power of ten keeps its roots: two, a
        # double root, a double root at 0 and none.
        for a, b, c in ((1.0, -12.0, 27.0), (1.0, -6.0, 9.0), (1.0, 0.0, 0.0),
                        (2.0, 0.0, 3.0)):
            want = quadratic_roots(a, b, c)
            for k in range(-300, 101):
                lam = 10.0 ** k
                got = quadratic_roots(lam * a, lam * b, lam * c)
                assert got.multiplicity == want.multiplicity, (a, b, c, k)
                assert got.roots == pytest.approx(want.roots, rel=1e-12), (a, b, c, k)

    def test_tiny_equation_without_real_roots(self):
        # b*b and 4ac both underflow to 0, but x^2 + x + 1 has no real roots.
        got = quadratic_roots(1e-200, 1e-200, 1e-200)
        assert got.roots == () and got.multiplicity == 0

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

    def test_expansion_at_the_edge_of_the_float_range(self):
        # b = -2e310 and c = 1e320 leave the float range.
        with pytest.raises(NumericalOverflow):
            from_vertex_form(VertexForm(1e300, 1e10, 0.0))
        # 2a overflows, but b = -2ah does not.
        got = from_vertex_form(VertexForm(2.0 ** 1023, 2.0 ** -10, 0.0))
        assert got == (2.0 ** 1023, -(2.0 ** 1014), 2.0 ** 1003)

    def test_expansion_where_k_brings_c_back_into_range(self):
        # a*h*h = 2**1024 overflows, but c = 2**1024 - max = 2**971 does not.
        got = from_vertex_form(VertexForm(1.0, 2.0 ** 512, -sys.float_info.max))
        assert got == (1.0, -(2.0 ** 513), 2.0 ** 971)
        # Its mirror image too; a c that truly overflows still raises.
        got = from_vertex_form(VertexForm(-1.0, 2.0 ** 512, sys.float_info.max))
        assert got == (-1.0, 2.0 ** 513, -(2.0 ** 971))
        with pytest.raises(NumericalOverflow):
            from_vertex_form(VertexForm(1.0, 2.0 ** 512, 0.0))

    def test_vertex_does_not_depend_on_units(self):
        # y = (x - 3)^2 + 4 times 10^k: h stays, and k scales with y, also
        # where b*b underflows.
        for k in range(-300, 101):
            lam = 10.0 ** k
            v = to_vertex_form(lam, -6.0 * lam, 13.0 * lam)
            assert v.h == pytest.approx(3.0, rel=1e-12), k
            assert v.k == pytest.approx(4.0 * lam, rel=1e-12, abs=0.0), k

    def test_rejects_linear(self):
        with pytest.raises(NotQuadratic):
            to_vertex_form(0, 1, 2)
        with pytest.raises(NotQuadratic):
            VertexForm(0.0, 1.0, 2.0)

    @pytest.mark.parametrize("a, b, c", [
        (1e-300, 1e5, 0.0),  # k = -b^2/(4a) is about -2.5e309
        (1e-320, 1e-10, 0.0),  # -b/(2a) overflows in h
    ], ids=["k", "h"])
    def test_overflow_raises(self, a, b, c):
        with pytest.raises(NumericalOverflow):
            to_vertex_form(a, b, c)

    @pytest.mark.parametrize("a, b, c", [
        (1.5e156, -4.5e154, 1e152),  # k = -2.375e152
        (2.0 ** 200, 2.0 ** 600, 0.0),
        (2.0 ** 1000, -(2.0 ** 800), 3.0),
    ], ids=["1.5e156", "2**200", "2**1000"])
    def test_k_is_finite_where_b_squared_overflows(self, a, b, c):
        want = Fraction(c) - Fraction(b) ** 2 / (4 * Fraction(a))
        assert to_vertex_form(a, b, c).k == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("a, b, c", [
        (2.0 ** 600, 1.0, 1e-300),
        (2.0 ** 1000, 2.0 ** -400, 2.0 ** -1000),
        (1e300, 1e150, 1e-300),
    ], ids=["2**600", "2**1000", "1e300"])
    def test_huge_lead_keeps_small_terms(self, a, b, c):
        # Scaling the largest coefficient down to 1 would flush b^2 and c
        # to zero here.
        want = Fraction(c) - Fraction(b) ** 2 / (4 * Fraction(a))
        assert to_vertex_form(a, b, c).k == pytest.approx(float(want), rel=1e-15)

    @pytest.mark.parametrize("a, b, c, h, k", [
        # 2a overflows: h = -b/(2a) would be 0.0.
        (2.0 ** 1023, 2.0 ** 510, 0.0, -(2.0 ** -514), -(2.0 ** -5)),
        (1.5e308, 1e300, 0.0, -3.3333333333333334e-09, -1.6666666666666668e+291),
        # b*h/2 = -2**1024 passes the float range, and c brings k back.
        (1.0, 2.0 ** 513, sys.float_info.max, -(2.0 ** 512), -(2.0 ** 971)),
        # b/2 rounds to 0, but b/(2a) = 1/2.
        (5e-324, 5e-324, 1.0, -0.5, 1.0),
        # b*h/2 is subnormal; unscaled, k prints as -1.4743663681e-314.
        (-9.2e-322, -9.2815e-320, -1.474600726e-314, -50.5, -1.4743663676e-314),
    ], ids=["2**1023", "1.5e308", "b*h-overflows", "b/2-underflows", "subnormal-k"])
    def test_vertex_at_the_edges_of_the_float_range(self, a, b, c, h, k):
        v = to_vertex_form(a, b, c)
        assert (v.h, v.k) == (h, k)

    def test_h_is_correctly_rounded(self):
        # Seeded triples mixing subnormal, normal and huge magnitudes.  h is
        # the float nearest -b/(2a) wherever that is finite; a raise means
        # that the exact h or k is past the float range.
        rng = random.Random(20241)
        top = Fraction(sys.float_info.max)

        def draw():
            kind = rng.randrange(3)
            if kind == 0:
                value = rng.randrange(1, 2 ** 52) * 2.0 ** -1074
            else:
                # [2**-1022, 2**1024), or [2**1022, 2**1024)
                low = -1021 if kind == 1 else 1023
                value = math.ldexp(0.5 + 0.5 * rng.random(), rng.randrange(low, 1025))
            return rng.choice((-1.0, 1.0)) * value

        for _ in range(3000):
            a, b, c = draw(), draw(), draw()
            h = -Fraction(b) / (2 * Fraction(a))
            k = Fraction(c) + Fraction(b) * h / 2
            try:
                v = to_vertex_form(a, b, c)
            except NumericalOverflow:
                assert abs(h) > top or abs(k) > top, (a, b, c)
                continue
            assert v.h == float(h) + 0.0, (a, b, c)

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


class TestWholeFloatRange:
    def test_discriminant_is_correctly_rounded(self):
        # b*b and 4ac each round once, and so does their difference, also
        # where 4a alone overflows; a raise means that one of the three is
        # past the float range.
        for a, b, c in seeded_triples(20242):
            b_squared = rounded(Fraction(b) ** 2)
            four_ac = rounded(4 * Fraction(a) * Fraction(c))
            if b_squared is None or four_ac is None:
                want = None
            else:
                want = rounded(Fraction(b_squared) - Fraction(four_ac))
            if want is None:
                with pytest.raises(NumericalOverflow):
                    discriminant(a, b, c)
            else:
                assert discriminant(a, b, c) == want, (a, b, c)

    def test_no_result_is_a_negative_zero(self):
        pinned = [
            (1.0, 5.0, 0.0),  # the root c/q
            (9.368403851914586, 1.3270482404361467e-308, -0.0),  # the vertex k
            (-1.0, 0.0, -0.0),  # c expanded from (a, h, k)
        ]
        for a, b, c in pinned + list(seeded_triples(20243)):
            calls = [lambda: (discriminant(a, b, c),)]
            if a != 0.0:
                calls += [
                    lambda: quadratic_roots(a, b, c).roots,
                    lambda: vars(to_vertex_form(a, b, c)).values(),
                    lambda: from_vertex_form(VertexForm(a, b, c)),
                ]
            for call in calls:
                try:
                    values = call()
                except NumericalOverflow:
                    continue
                assert not any(map(is_negative_zero, values)), (a, b, c, values)

    def test_four_a_overflows_alone(self):
        # 4a = inf, but 4ac = -4e8 and the roots are finite.
        assert discriminant(1e308, 0.0, -1e-300) == 4e8
        assert quadratic_roots(1e308, 0.0, -1e-300).roots == (-1e-304, 1e-304)
        # 2a = inf as well: -b/(2a) would put this double root at 0.0.
        assert quadratic_roots(1e308, 1e154, 0.25) == RootSet((-5e-155,), 2)
