"""Closed-form structure of a quadratic: discriminant, roots, vertex form.

Finite coefficients whose discriminant, roots or vertex leave the float
range raise NumericalOverflow rather than returning inf or nan.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import NotQuadratic, NumericalOverflow

# |b^2 - 4ac| at or below this fraction of the term magnitudes counts as a
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
    disc = discriminant(a, b, c)
    if abs(disc) <= DOUBLE_ROOT_TOLERANCE * max(b * b, abs(4.0 * a * c), 1.0):
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


def to_vertex_form(a: float, b: float, c: float) -> VertexForm:
    """Complete the square: h = -b/(2a), k = c - b^2/(4a)."""
    if a == 0.0:
        raise NotQuadratic("a = 0: not a quadratic polynomial")
    h = _finite(-b / (2.0 * a) + 0.0, "the vertex h")  # avoid negative zero when b == 0
    k = _finite(c - b * b / (4.0 * a), "the vertex k")
    return VertexForm(a, h, k)


def from_vertex_form(v: VertexForm) -> tuple[float, float, float]:
    """Expand a*(x - h)^2 + k back to standard (a, b, c)."""
    return v.a, -2.0 * v.a * v.h + 0.0, v.a * v.h * v.h + v.k
