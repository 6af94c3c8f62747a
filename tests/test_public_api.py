"""The package exports only names the README, demos or CLI use, every demo
runs, the value classes keep their contract, and the CLI imports stay lean."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadfit

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))

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


# Each value class with its fields in order: required ones, then defaulted.
VALUE_CLASSES = [
    (quadfit.Series, {"xs": (1.0, 2.0), "ys": (3.0, 5.0)}, {}),
    (quadfit.PolynomialModel, {"coeffs": (1.0, -2.0, 3.0)}, {}),
    (quadfit.DomainWindow, {"x_min": 1.0, "x_max": 12.0}, {}),
    (quadfit.CsvSchema, {},
     {"x_column": "Month", "y_column": "Values"}),
    (quadfit.FitReport,
     {"ss_res": 1.0, "ss_tot": 4.0, "r_squared": 0.75, "n": 12}, {}),
    (quadfit.PlotSpec, {"description": "d", "metric_name": "m", "y_label": "y"}, {}),
    (quadfit.VertexForm, {"a": 2.0, "h": 1.0, "k": 3.0}, {}),
    (quadfit.RootSet, {"roots": (2.0, 3.0), "multiplicity": 1}, {}),
]


@pytest.mark.parametrize("cls, required, defaults", VALUE_CLASSES,
                         ids=[cls.__name__ for cls, _, _ in VALUE_CLASSES])
def test_value_class_contract(cls, required, defaults):
    fields = {**required, **defaults}
    built = [cls(*required.values()), cls(**required),
             cls(*fields.values()), cls(**fields)]
    # Construction by position or keyword, with or without the defaults.
    assert all(obj == built[0] for obj in built)
    assert len({hash(obj) for obj in built}) == 1
    obj = built[0]
    assert [getattr(obj, name) for name in fields] == list(fields.values())
    assert obj != tuple(fields.values())
    # Unknown, repeated or missing fields are refused.
    with pytest.raises(TypeError):
        cls(**fields, unknown=None)
    with pytest.raises(TypeError):
        cls(*fields.values(), *fields.values())
    if required:
        with pytest.raises(TypeError):
            cls()
    # Immutable, field by field.
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"


def test_cli_import_loads_only_what_the_pipeline_uses(tmp_path):
    # -S keeps site-packages .pth files from importing modules first.  The
    # child also runs the command line, so modules that parsing the
    # arguments, fitting, rendering or writing would load are counted too.
    heavy = ("xml", "dataclasses", "inspect", "pathlib", "urllib", "http", "email",
             "argparse", "gettext", "locale", "shutil")
    code = ("import sys, quadfit.cli; "
            "code = quadfit.cli.main(sys.argv[1:]); "
            f"print(code, sorted(m for m in sys.modules if m.split('.')[0] in {heavy!r}))")
    argv = ["-i", str(REPO_ROOT / "data" / "pm25_monthly.csv"),
            "--svg", str(tmp_path / "chart.svg"), "--report", str(tmp_path / "fit.txt")]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 []\n"
    assert (tmp_path / "chart.svg").exists() and (tmp_path / "fit.txt").exists()
