"""Correctness checks for the quadfit CLI's report and SVG output.

Every check returns a list of problems; an empty list means the output
passed.  None of them needs bit-exact coefficients, so a different solver
that still returns the least-squares fit passes.
"""

from __future__ import annotations

import math
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Numbers in the report are printed with 11 significant digits (".10e"),
# so a faithful value is off by at most half a unit in the 11th digit.
PRINT_REL = 5e-11
# Relative slack on every comparison of printed numbers: 20x the print error.
REL_TOL = 1e-9
# r_squared is printed with 6 decimals.
R2_TOL = 5e-7 + 1e-12

SVG_NS = "{http://www.w3.org/2000/svg}"
CURVE_SAMPLES = 200


@dataclass(frozen=True)
class Report:
    degree: int
    coeffs: tuple[float, ...]
    ss_res: float
    ss_tot: float
    r_squared: float


def read_report(text: str) -> Report:
    """Parse the CLI's key=value report; ValueError when a line is missing."""
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    degree = int(fields["degree"])
    return Report(
        degree=degree,
        coeffs=tuple(float(fields[f"coeff[{k}]"]) for k in range(degree + 1)),
        ss_res=float(fields["ss_res"]),
        ss_tot=float(fields["ss_tot"]),
        r_squared=float(fields["r_squared"]),
    )


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def _horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def sum_sq(xs, ys, coeffs) -> float:
    """Residual sum of squares of the polynomial `coeffs` (ascending powers)."""
    return math.fsum((y - _horner(coeffs, x)) ** 2 for x, y in zip(xs, ys))


@dataclass(frozen=True)
class LeastSquaresReference:
    """What any correct degree-d least-squares fit of (xs, ys) must satisfy.

    A least-squares fit is no worse than any other polynomial of its degree:
    not worse than the constant mean (whose sum of squares is ss_tot) and not
    worse than the planted polynomial the data was generated from.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    degree: int
    ss_tot: float
    ss_planted: float

    @classmethod
    def build(cls, xs, ys, degree, planted=None) -> "LeastSquaresReference":
        mean = math.fsum(ys) / len(ys)
        ss_tot = math.fsum((y - mean) ** 2 for y in ys)
        ss_planted = math.inf if planted is None else sum_sq(xs, ys, planted)
        return cls(tuple(xs), tuple(ys), degree, ss_tot, ss_planted)

    def problems(self, rep: Report) -> list[str]:
        out = []
        if rep.degree != self.degree:
            return [f"degree {rep.degree}, expected {self.degree}"]
        if not _close(rep.ss_tot, self.ss_tot):
            out.append(f"ss_tot {rep.ss_tot!r} != {self.ss_tot!r}")
        if rep.ss_res > self.ss_tot * (1 + REL_TOL):
            out.append(f"ss_res {rep.ss_res!r} > ss_tot {self.ss_tot!r}")
        if rep.ss_res > self.ss_planted * (1 + REL_TOL):
            out.append(f"ss_res {rep.ss_res!r} > planted polynomial's {self.ss_planted!r}")
        if rep.ss_tot > 0 and abs(rep.r_squared - (1 - rep.ss_res / rep.ss_tot)) > R2_TOL:
            out.append(f"r_squared {rep.r_squared!r} != 1 - ss_res/ss_tot")
        out.extend(self._coefficient_problems(rep))
        return out

    def _coefficient_problems(self, rep: Report) -> list[str]:
        # The printed coefficients must reproduce the printed ss_res, up to
        # what rounding them to 11 digits can change each fitted value by.
        slack = 0.0
        residuals = []
        for x, y in zip(self.xs, self.ys):
            r = y - _horner(rep.coeffs, x)
            # 2 * PRINT_REL also covers this Horner evaluation's own rounding.
            d = 2 * PRINT_REL * math.fsum(abs(c * x ** k) for k, c in enumerate(rep.coeffs))
            residuals.append(r)
            slack += 2 * abs(r) * d + d * d
        ss = math.fsum(r * r for r in residuals)
        if abs(ss - rep.ss_res) > slack + REL_TOL * rep.ss_res:
            return [f"coefficients give ss_res {ss!r}, report says {rep.ss_res!r}"]
        return []


@dataclass(frozen=True)
class ExactReference:
    """The exact-rational normal-equations answer, rounded once to float."""

    coeffs: tuple[float, ...]
    ss_res: float
    ss_tot: float
    r_squared: float

    @classmethod
    def build(cls, xs, ys, degree) -> "ExactReference":
        # The repo's own oracle: normal equations in exact rationals.
        sys.path.insert(0, str(ROOT / "tests"))
        from oracle import exact_report

        coeffs, _, ss_res, ss_tot, r2 = exact_report(xs, ys, degree)
        return cls(tuple(float(c) for c in coeffs), float(ss_res), float(ss_tot), float(r2))

    def problems(self, rep: Report) -> list[str]:
        if len(rep.coeffs) != len(self.coeffs):
            return [f"{len(rep.coeffs)} coefficients, expected {len(self.coeffs)}"]
        out = []
        scale = max(1.0, max(abs(c) for c in self.coeffs))
        for k, (got, want) in enumerate(zip(rep.coeffs, self.coeffs)):
            if abs(got - want) > REL_TOL * scale:
                out.append(f"coeff[{k}] {got!r} != exact {want!r}")
        for name in ("ss_res", "ss_tot"):
            if not _close(getattr(rep, name), getattr(self, name)):
                out.append(f"{name} {getattr(rep, name)!r} != exact {getattr(self, name)!r}")
        if abs(rep.r_squared - self.r_squared) > R2_TOL:
            out.append(f"r_squared {rep.r_squared!r} != exact {self.r_squared!r}")
        return out


def svg_problems(svg: bytes, n: int) -> list[str]:
    """The chart must be XML with one 200-point curve and n data circles."""
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"SVG is not XML: {exc}"]
    out = []
    curves = root.findall(f".//{SVG_NS}polyline")
    if len(curves) != 1 or len(curves[0].get("points", "").split()) != CURVE_SAMPLES:
        out.append(f"expected one {CURVE_SAMPLES}-point polyline")
    group = root.find(f".//{SVG_NS}g[@id='data-points']")
    circles = 0 if group is None else len(group.findall(f"{SVG_NS}circle"))
    if circles != n:
        out.append(f"{circles} data circles, expected {n}")
    return out
