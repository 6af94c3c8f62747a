"""Walk through a complete fit on the bundled monthly dataset.

Run from the repository root:

    python3 demos/fit_and_report.py
"""

from pathlib import Path

from quadfit import eval_poly, fit_polynomial, fit_report, parse_csv

DATA = Path(__file__).resolve().parent.parent / "data" / "pm25_monthly.csv"


def main() -> None:
    # The parser wants bytes (or a binary stream) so it can handle BOMs
    # and report encoding problems itself.
    series = parse_csv(DATA.read_bytes())
    print(f"loaded {len(series)} observations from {DATA.name}")

    # Degree 2 is the default.  The model holds its coefficients in powers
    # of t, x mapped onto [-1, 1] by the window; coeffs is the same
    # polynomial in plain ascending powers: coeffs[0] + coeffs[1]*x + ...
    model, window = fit_polynomial(series)
    print(f"fitted over x in [{window.x_min:g}, {window.x_max:g}]")
    for k, c in enumerate(model.coeffs):
        print(f"  coeff[{k}] = {c:+.6f}")

    report = fit_report(model, series)
    print(f"ss_res = {report.ss_res:.6f}")
    print(f"ss_tot = {report.ss_tot:.6f}")
    print(f"R^2    = {report.r_squared:.6f}")

    # The model is just a value; predictions are one call away.
    for month in (3.5, 6.5, 9.5):
        print(f"predicted value at x = {month}: {eval_poly(model, month):.2f}")


if __name__ == "__main__":
    main()
