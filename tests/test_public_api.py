"""The package exports only names the README, demos or CLI use, and every demo runs."""

import importlib.util
from pathlib import Path

import pytest

import quadfit

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# Every error class stays exported, because the CLI prints their names.
EXPORTS = [
    "CsvError",
    "CsvSchema",
    "DegenerateAbscissa",
    "DomainWindow",
    "EmptyData",
    "FitReport",
    "InsufficientData",
    "InvalidDegree",
    "InvalidEncoding",
    "MalformedRow",
    "MissingColumn",
    "NonNumericValue",
    "NotQuadratic",
    "NumericalOverflow",
    "PlotSpec",
    "PolynomialModel",
    "QuadfitError",
    "RankDeficient",
    "RootSet",
    "Series",
    "UndefinedRSquared",
    "VertexForm",
    "discriminant",
    "eval_poly",
    "fit_polynomial",
    "fit_report",
    "format_equation",
    "from_vertex_form",
    "parse_csv",
    "quadratic_roots",
    "r_squared",
    "render_plot",
    "to_vertex_form",
]


def test_exports_are_the_agreed_list():
    assert sorted(quadfit.__all__) == EXPORTS
    assert all(hasattr(quadfit, name) for name in EXPORTS)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main()
    assert capsys.readouterr().out
