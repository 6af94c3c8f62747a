"""The package exports only names the README, demos or CLI use, every demo
runs, the value classes keep their contract, the CLI imports stay lean, and
a failing property reports as a test failure."""

import ast
import importlib.util
import os
import re
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
    "render_plot",
    "to_vertex_form",
]


def test_exports_are_the_agreed_list():
    assert sorted(quadfit.__all__) == EXPORTS
    assert all(hasattr(quadfit, name) for name in EXPORTS)


def test_version_matches_pyproject():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    version, = re.findall(r'^version = "(.+)"$', project, re.MULTILINE)
    assert quadfit.__version__ == version


def demo_files():
    return {p.name: p.stat().st_mtime_ns for p in (REPO_ROOT / "demos").iterdir()
            if p.name != "__pycache__"}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, capsys):
    # A demo writes its output beside its own file: run it as if it lived
    # in tmp_path, so that it leaves demos/ as it was.
    before = demo_files()
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.__file__ = str(tmp_path / path.name)
    demo.main()
    assert capsys.readouterr().out
    assert demo_files() == before


def test_readme_library_block_runs():
    # From the repository root, as README shows it, in development mode with
    # warnings as errors: a file left unclosed prints a ResourceWarning.
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block, = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", block],
                            cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout


# Each value class with its fields in order: required ones, then defaulted.
VALUE_CLASSES = [
    (quadfit.Series, {"xs": (1.0, 2.0), "ys": (3.0, 5.0)}, {}),
    (quadfit.PolynomialModel, {"scaled": (1.0, -2.0, 3.0)},
     {"window": quadfit.DomainWindow(-1.0, 1.0)}),
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


# What `import os` loads when site has not imported it first.
OS_MODULES = {"os", "os.path", "posixpath", "genericpath", "stat", "_stat", "_collections_abc"}
PIPELINE_MODULES = OS_MODULES | {"_csv", "math", "operator", "_operator"}


def test_cli_import_loads_only_what_the_pipeline_uses(tmp_path):
    # -S keeps site-packages .pth files from importing modules first.  The
    # child also runs the command line, so modules that parsing the
    # arguments, reading, fitting, rendering or writing would load are
    # counted too.
    script = ("import sys; before = set(sys.modules); import quadfit.cli; "
              "code = quadfit.cli.main(sys.argv[1:]); "
              "print(code, sorted(set(sys.modules) - before))")
    argv = ["-i", str(REPO_ROOT / "data" / "pm25_monthly.csv"),
            "--svg", str(tmp_path / "chart.svg"), "--report", str(tmp_path / "fit.txt")]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", script, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, added = out.split(" ", 1)
    added = ast.literal_eval(added)
    assert code == "0"
    assert "quadfit.cli" in added
    assert [m for m in added if m not in PIPELINE_MODULES and m.split(".")[0] != "quadfit"] == []
    assert (tmp_path / "chart.svg").exists() and (tmp_path / "fit.txt").exists()


def test_failing_property_reports_as_a_failure(tmp_path):
    # Under the project's warning filters.  hypothesis's pytest plugin may
    # import libcst to print a patch, and libcst's import warns that
    # mypy_extensions.TypedDict is deprecated; as an error, that warning
    # turned the failure into an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 10\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO_ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 1
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].startswith("1 failed")
