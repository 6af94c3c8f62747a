"""Independent least-squares oracle used to check the fitting solver.

Forms the normal equations X^T X c = X^T y with exact rational arithmetic
(fractions.Fraction is exact on binary floats) and solves them by exact
Gaussian elimination, so the result is the true least-squares optimum for
the given float inputs, with no rounding at all until the final conversion
back to float.

This is deliberately the method the library itself must NOT use; keeping
it here makes the two implementations fail independently.
"""

from __future__ import annotations

from fractions import Fraction


def gauss_solve(matrix, rhs):
    """Solve a square exact-rational system by Gauss-Jordan elimination."""
    n = len(rhs)
    m = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def _moments(xs, ys, degree):
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    n = degree + 1
    ata = [[sum(x ** (i + j) for x in xs) for j in range(n)] for i in range(n)]
    aty = [sum((x ** i) * y for x, y in zip(xs, ys)) for i in range(n)]
    return ata, aty


def normal_equations_fit(xs, ys, degree):
    """Exact least-squares coefficients (ascending powers) as Fractions."""
    ata, aty = _moments(xs, ys, degree)
    return gauss_solve(ata, aty)


def cramer3(matrix, rhs):
    """Solve an exact 3x3 system by Cramer's rule (cross-check for gauss)."""

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det3(matrix)
    if d == 0:
        raise ZeroDivisionError("singular system")
    out = []
    for col in range(3):
        m = [list(row) for row in matrix]
        for r in range(3):
            m[r][col] = rhs[r]
        out.append(det3(m) / d)
    return out


def quadratic_fit_cramer(xs, ys):
    """Degree-2 exact fit via Cramer's rule on the normal equations."""
    ata, aty = _moments(xs, ys, 2)
    return cramer3(ata, aty)


def exact_report(xs, ys, degree):
    """(coeffs, residuals, ss_res, ss_tot, r_squared), all exact Fractions."""
    coeffs = normal_equations_fit(xs, ys, degree)
    xs_f = [Fraction(x) for x in xs]
    ys_f = [Fraction(y) for y in ys]
    fitted = [sum(c * x ** k for k, c in enumerate(coeffs)) for x in xs_f]
    res = [y - f for y, f in zip(ys_f, fitted)]
    ss_res = sum(r * r for r in res)
    mean = sum(ys_f) / len(ys_f)
    ss_tot = sum((y - mean) ** 2 for y in ys_f)
    r2 = 1 - ss_res / ss_tot if ss_tot != 0 else None
    return coeffs, res, ss_res, ss_tot, r2


def max_rel_err(got, want_fractions):
    """max_k |got_k - want_k| / max(1, max_k |want_k|), in float."""
    want = [float(w) for w in want_fractions]
    scale = max(1.0, max(abs(w) for w in want))
    return max(abs(g - w) for g, w in zip(got, want)) / scale
