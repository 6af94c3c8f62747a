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


@pytest.mark.forks
def test_cli_import_loads_only_what_the_pipeline_uses(tmp_path):
    # -S keeps site-packages .pth files from importing modules first.  The
    # child also runs the command line, so modules that parsing the
    # arguments, reading, fitting, rendering or writing would load are
    # counted too.  The bundled data fits in process.  4,000 rows at degree
    # 10 reach the fit's helper-process threshold: the helper's bounded
    # read loads select, its reaping by os.wait4 resource, and, with --svg,
    # the mapping for the chart's markers mmap.  An input of
    # _SPLIT_MIN_BYTES forks the helper before the parse, and the fit then
    # packs the xs the helper does not hold with _struct, and grows the
    # pipe to take them in one write with fcntl.
    script = ("import sys; before = set(sys.modules); import quadfit.cli; "
              "code = quadfit.cli.main(sys.argv[1:]); "
              "print(code, sorted(set(sys.modules) - before))")
    large = tmp_path / "large.csv"
    large.write_text("Month,Values\n" + "".join(f"{i},{i % 7}\n" for i in range(4_000)), encoding="ascii")
    assert 4_000 * 10 >= quadfit.fitting._HELPER_MIN_WORK
    split = tmp_path / "split.csv"
    split.write_text("Month,Values\n" + "".join(f"{i},{i % 7}\n" for i in range(70_000)), encoding="ascii")
    assert split.stat().st_size >= quadfit.ingest._SPLIT_MIN_BYTES
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    for data, degree, allowed in ((REPO_ROOT / "data" / "pm25_monthly.csv", 2, PIPELINE_MODULES),
                                  (large, 10, PIPELINE_MODULES | {"select", "mmap", "resource"}),
                                  (split, 2, PIPELINE_MODULES | {"select", "mmap", "resource", "_struct", "fcntl"})):
        svg, report = tmp_path / f"{data.stem}.svg", tmp_path / f"{data.stem}.txt"
        argv = ["-i", str(data), "--degree", str(degree), "--svg", str(svg), "--report", str(report)]
        out = subprocess.run([sys.executable, "-S", "-c", script, *argv], env=env,
                             capture_output=True, text=True, check=True).stdout
        code, added = out.split(" ", 1)
        added = ast.literal_eval(added)
        assert code == "0"
        assert "quadfit.cli" in added
        assert [m for m in added if m not in allowed and m.split(".")[0] != "quadfit"] == []
        assert svg.exists() and report.exists()


# How a helper's result crosses the pipe or a mapping, and where a helper
# runs, are _helper's alone.
PIPE_CALLS = {"fork", "pipe", "read", "write", "sched_setaffinity"}
PIPE_MODULES = ("select", "mmap", "fcntl")


def pipe_uses(source: str):
    """Each use of os.fork, os.pipe, os.read, os.write, os.sched_setaffinity,
    select, mmap or fcntl in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in PIPE_CALLS:
                yield f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", *PIPE_MODULES):
            yield from (f"{node.module}.{alias.name}" for alias in node.names
                        if node.module in PIPE_MODULES or alias.name in PIPE_CALLS)
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name in PIPE_MODULES)
        elif isinstance(node, ast.Name) and node.id in PIPE_MODULES:
            yield node.id


@pytest.mark.parametrize("module", ["fitting", "ingest", "plot", "cli"])
def test_only_the_helper_module_touches_the_pipe(module):
    assert list(pipe_uses((REPO_ROOT / "src" / "quadfit" / f"{module}.py").read_text(encoding="utf-8"))) == []


def test_the_pipe_guard_sees_each_use_in_the_helper_module():
    uses = set(pipe_uses((REPO_ROOT / "src" / "quadfit" / "_helper.py").read_text(encoding="utf-8")))
    assert uses >= {*(f"os.{call}" for call in PIPE_CALLS), *PIPE_MODULES}


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
