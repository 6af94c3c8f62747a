"""Closed-form structure of a quadratic: discriminant, roots, vertex form.

Finite coefficients whose discriminant, roots or vertex leave the float
range raise NumericalOverflow rather than returning inf or nan.
"""

import math

from ._record import record
from .errors import NotQuadratic, NumericalOverflow

# |b^2 - 4ac| at or below this fraction of max(b^2, |4ac|) counts as a
# double root rather than two roots separated by rounding noise.
DOUBLE_ROOT_TOLERANCE = 1e-12


@record
class VertexForm:
    """y = a*(x - h)^2 + k with the parabola's extremum at (h, k)."""

    a: float
    h: float
    k: float

    def __post_init__(self):
        if self.a == 0.0:
            raise NotQuadratic("vertex form needs a nonzero leading coefficient")


@record
class RootSet:
    """Real roots in ascending order.

    ``multiplicity`` is the multiplicity of each listed root: 2 for a single
    repeated root, 1 for simple roots, 0 when there are no real roots.
    """

    roots: tuple[float, ...]
    multiplicity: int


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericalOverflow(f"{what} overflows a float")
    return value


def discriminant(a: float, b: float, c: float) -> float:
    """b^2 - 4ac."""
    return _finite(b * b - 4.0 * a * c, "the discriminant")


def quadratic_roots(a: float, b: float, c: float) -> RootSet:
    """Real roots of a*x^2 + b*x + c = 0.

    Uses the cancellation-free formulation: q = -(b + sign(b)*sqrt(disc))/2,
    roots q/a and c/q, so the smaller-magnitude root is never computed as a
    difference of nearly equal numbers.

    Raises:
        NotQuadratic: a == 0 (caller should treat the equation as linear).
        NumericalOverflow: the discriminant or a root overflows a float.
    """
    if a == 0.0:
        raise NotQuadratic("a = 0: not a quadratic equation")
    a, b, c, _ = _scaled_up(a, b, c)
    disc = discriminant(a, b, c)
    if abs(disc) <= DOUBLE_ROOT_TOLERANCE * max(b * b, abs(4.0 * a * c)):
        # + 0.0 turns a negative zero from -b/(2a) into plain zero
        root = _finite(-b / (2.0 * a) + 0.0, "the double root")
        return RootSet((root,), multiplicity=2)
    if disc < 0.0:
        return RootSet((), multiplicity=0)
    sign_b = 1.0 if b >= 0.0 else -1.0
    q = -(b + sign_b * math.sqrt(disc)) / 2.0
    r1, r2 = _finite(q / a, "a root"), _finite(c / q, "a root")
    if r2 < r1:
        r1, r2 = r2, r1
    return RootSet((r1, r2), multiplicity=1)


def _scaled_up(a: float, b: float, c: float) -> tuple[float, float, float, int]:
    """(a, b, c) times 2**shift, and shift: the least shift >= 0 that brings
    the largest magnitude to at least 0.5.

    For tiny coefficients b*b and 4ac underflow, and with them the sign of
    the discriminant; so does b*h/2, and with it the vertex k.  Scaling by
    a power of two is exact and keeps the roots and h.
    """
    shift = -math.frexp(max(abs(a), abs(b), abs(c)))[1]
    if shift <= 0:
        return a, b, c, 0
    return math.ldexp(a, shift), math.ldexp(b, shift), math.ldexp(c, shift), shift


def to_vertex_form(a: float, b: float, c: float) -> VertexForm:
    """Complete the square: h = -b/(2a), k = c - b^2/(4a) = c + b*h/2.

    Neither b*b nor 4a is formed.  When 2a overflows (|a| >= 2**1023), h is
    -(b/2)/a, which rounds once: a b whose halving rounds is subnormal, and
    h then underflows to 0 either way.  Only where b*h/2 passes the float
    range and c brings k back into it is k summed at half scale.  Tiny
    triples are scaled up first, so that b*h/2 keeps its bits.
    """
    if a == 0.0:
        raise NotQuadratic("a = 0: not a quadratic polynomial")
    a_s, b_s, c_s, shift = _scaled_up(a, b, c)
    h = -b_s / (2.0 * a_s) if abs(a_s) < 2.0 ** 1023 else -(0.5 * b_s) / a_s
    h = _finite(h + 0.0, "the vertex h")  # avoid negative zero when b == 0
    k = c_s + b_s * (0.5 * h)
    if math.isinf(k):
        k = 2.0 * (0.5 * c_s + b_s * (0.25 * h))
    return VertexForm(a, h, _finite(math.ldexp(k, -shift), "the vertex k"))


def from_vertex_form(v: VertexForm) -> tuple[float, float, float]:
    """Expand a*(x - h)^2 + k back to standard (a, b, c).

    Only where a*h*h passes the float range and k brings c back into it is
    c summed at half scale, as to_vertex_form does for k.

    Raises:
        NumericalOverflow: b or c overflows a float.
    """
    b = _finite(-2.0 * (v.a * v.h) + 0.0, "the coefficient b")  # 2a may overflow alone
    c = v.a * v.h * v.h + v.k
    if math.isinf(c):
        c = 2.0 * (0.5 * v.a * v.h * v.h + 0.5 * v.k)
    return v.a, b, _finite(c, "the coefficient c")
