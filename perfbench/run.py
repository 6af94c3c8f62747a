"""quadfit benchmark: wall time, throughput and memory of the real CLI.

Runs `python -m quadfit.cli` with PYTHONPATH=src as a child process, one
call at a time (a closed loop with one client), checks every call's output,
and prints one JSON result line last.  With --trace 1 it instead reports
per-layer numbers from a traced child (traced_child.py) that calls each
module's public functions from outside.  Run it from the repo root:

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 30 --trace 0

Workloads, metrics and the layer each metric belongs to are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED_CSV = ROOT / "data" / "pm25_monthly.csv"
GOLDEN_SVG = ROOT / "tests" / "golden" / "pm25_monthly.svg"
REQUIRED = (SRC / "quadfit" / "cli.py", BUNDLED_CSV, GOLDEN_SVG, ROOT / "tests" / "oracle.py")
WORK = ROOT / ".bench_build" / "perfbench"
TRACED_CHILD = Path(__file__).resolve().parent / "traced_child.py"

# Set-up is repeated this many times per run and its median reported.
SETUPS = 5
MIB = 1024 * 1024

# The README's fitted quadratic (ascending powers), planted under the noise.
PLANTED = (7.1061363636e+01, -1.1840434565e+01, 8.9802697303e-01)
NOISE_SIGMA = 1.5
# The README's command-line labels; the golden SVG was rendered with them.
README_LABELS = ("--metric", "PM2.5", "--y-label", "PM2.5 Index",
                 "--description", "Kyiv, Shcherbakovskaya St.")


@dataclass(frozen=True)
class Workload:
    rows: int | None  # None: the bundled 12-point file
    degree: int
    svg: bool


WORKLOADS = {
    "paper_cli": Workload(None, 2, True),
    "bulk_quadratic": Workload(100_000, 2, True),
    "high_degree": Workload(20_000, 10, False),
}

# Per-layer metric -> the traced child's span it times (ms), the unit of the
# child's count of the same name, or the span whose allocation peak it is (MiB).
PER_LAYER_SPANS = {
    "import.quadfit_cli_ms": "import.quadfit_cli",
    "ingest.parse_csv_ms": "ingest.parse_csv",
    "ingest.validate_ms": "ingest.validate_series",
    "fitting.fit_polynomial_ms": "fitting.fit_polynomial",
    "metrics.fit_report_ms": "metrics.fit_report",
    "plot.render_plot_ms": "plot.render_plot",
    "cli.parse_args_ms": "cli.parse_args",
    "cli.format_report_ms": "cli.format_report",
    "cli.write_ms": "cli.write",
}
PER_LAYER_COUNTS = {
    "import.modules": "count",
    "ingest.rows": "count",
    "ingest.bytes": "bytes",
    "plot.svg_bytes": "bytes",
}
PER_LAYER_ALLOCS = {
    "ingest.peak_alloc_mb": "ingest.parse_csv",
    "fitting.peak_alloc_mb": "fitting.fit_polynomial",
    "metrics.peak_alloc_mb": "metrics.fit_report",
    "plot.peak_alloc_mb": "plot.render_plot",
}


def generate_csv(rows: int, seed: int) -> bytes:
    """Fractional months evenly over [1, 12]; y = PLANTED(x) + N(0, 1.5^2)."""
    rng = random.Random(seed)
    lines = ["Month,Values"]
    for i in range(rows):
        x = 1.0 + 11.0 * i / (rows - 1)
        y = PLANTED[0] + x * (PLANTED[1] + x * PLANTED[2]) + rng.gauss(0.0, NOISE_SIGMA)
        lines.append(f"{x:.6f},{y:.4f}")
    return ("\n".join(lines) + "\n").encode("ascii")


def read_points(data: bytes) -> tuple[list[float], list[float]]:
    """The (x, y) values the CLI sees in a generated or bundled CSV."""
    rows = [line.split(",") for line in data.decode("ascii").splitlines()[1:]]
    return [float(x) for x, _ in rows], [float(y) for _, y in rows]


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass(frozen=True)
class Call:
    wall_s: float
    cpu_s: float
    maxrss_kib: int
    exit_code: int


def spawn(args: list[str], stdout: Path, stderr: Path, env: dict[str, str]) -> Call:
    """Run the interpreter with `args`, timed from spawn to exit."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Call(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                os.waitstatus_to_exitcode(status))


class Bench:
    """One workload's inputs, reference answers and child processes."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = child_env()
        self.csv = self.work / "input.csv"
        self.attempted = 0
        self.problems: list[str] = []
        self.verified: tuple[bytes, bytes | None] | None = None

    def cli_args(self, svg_name: str) -> list[str]:
        args = ["-i", str(self.csv), "--degree", str(self.workload.degree)]
        if self.workload.svg:
            args += ["--svg", str(self.work / svg_name)]
        if self.workload.rows is None:
            args += README_LABELS
        return args

    def set_up(self) -> float:
        """Write the inputs and make one checked warm-up call that compiles
        the .pyc files; returns the seconds that took, check excluded."""
        shutil.rmtree(SRC / "quadfit" / "__pycache__", ignore_errors=True)
        start = time.perf_counter()
        if self.workload.rows is None:
            self.data = BUNDLED_CSV.read_bytes()
        else:
            self.data = generate_csv(self.workload.rows, self.seed)
        self.csv.write_bytes(self.data)
        self.run_cli()
        elapsed = time.perf_counter() - start
        self.check_cli()
        return elapsed

    @functools.cached_property
    def points(self) -> tuple[list[float], list[float]]:
        return read_points(self.data)

    @functools.cached_property
    def references(self) -> list:
        xs, ys = self.points
        degree = self.workload.degree
        if self.workload.rows is None:
            return [checks.LeastSquaresReference.build(xs, ys, degree),
                    checks.ExactReference.build(xs, ys, degree)]
        return [checks.LeastSquaresReference.build(xs, ys, degree, PLANTED)]

    def run_cli(self) -> None:
        (self.work / "cli.svg").unlink(missing_ok=True)
        self.last = spawn(["-m", "quadfit.cli", *self.cli_args("cli.svg")],
                          self.work / "cli.txt", self.work / "cli.err", self.env)

    def outputs(self, report: str, svg: str) -> tuple[bytes, bytes | None]:
        svg_path = self.work / svg
        return ((self.work / report).read_bytes(),
                svg_path.read_bytes() if svg_path.exists() else None)

    def check_cli(self) -> bool:
        """Check the last CLI call; a failure is recorded and returns False.

        Output byte-identical to an output that passed the full check passes
        without repeating it.
        """
        self.attempted += 1
        if self.last.exit_code != 0:
            err = (self.work / "cli.err").read_text(errors="replace").strip()
            return self._fail(f"CLI exited {self.last.exit_code}: {err[-300:]}")
        out = self.outputs("cli.txt", "cli.svg")
        if out != self.verified:
            problems = self._full_check(*out)
            if problems:
                return self._fail("; ".join(problems))
            self.verified = out
        return True

    def _full_check(self, report: bytes, svg: bytes | None) -> list[str]:
        try:
            rep = checks.read_report(report.decode("utf-8"))
        except (KeyError, ValueError) as exc:
            return [f"unreadable report: {exc!r}"]
        problems = [p for ref in self.references for p in ref.problems(rep)]
        if self.workload.svg and svg is None:
            problems.append("no SVG written")
        elif self.workload.svg and self.workload.rows is None:
            if svg != GOLDEN_SVG.read_bytes():
                problems.append("SVG differs from tests/golden/pm25_monthly.svg")
        elif self.workload.svg:
            problems += checks.svg_problems(svg, len(self.points[0]))
        return problems

    def _fail(self, problem: str) -> bool:
        self.problems.append(problem)
        print(f"{self.name}: {problem}", file=sys.stderr)
        return False

    def bare_start_ms(self) -> float:
        call = spawn(["-c", "pass"], self.work / "bare.out", self.work / "bare.err", self.env)
        return call.wall_s * 1e3

    def traced(self, mode: str) -> tuple[Call, list[str]]:
        """Run the traced child and return its output lines, after checking
        that its report and SVG equal the last CLI call's on the same input."""
        args = [str(TRACED_CHILD), mode, str(self.work / "traced.txt"),
                *self.cli_args("traced.svg")]
        (self.work / "traced.svg").unlink(missing_ok=True)
        call = spawn(args, self.work / "spans.txt", self.work / "traced.err", self.env)
        self.attempted += 1
        if call.exit_code != 0:
            err = (self.work / "traced.err").read_text(errors="replace").strip()
            self._fail(f"traced child exited {call.exit_code}: {err[-300:]}")
            return call, []
        if self.outputs("traced.txt", "traced.svg") != self.outputs("cli.txt", "cli.svg"):
            self._fail(f"traced {mode} run's output differs from the CLI's")
        return call, (self.work / "spans.txt").read_text().splitlines()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def as_metrics(values: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced closed loop of CLI calls, each between two bare interpreter
    starts.  The gated time is a call's wall time over the mean of the two
    starts around it: machine drift slows both alike, so the ratio holds
    still while milliseconds drift (see README.md)."""
    calls, ratios = [], []
    starts = [bench.bare_start_ms()]
    deadline = time.perf_counter() + seconds
    completed = 0
    while time.perf_counter() < deadline or len(calls) < 2:
        bench.run_cli()
        completed += bench.check_cli()
        starts.append(bench.bare_start_ms())
        calls.append(bench.last)
        ratios.append(bench.last.wall_s * 1e3 / statistics.fmean(starts[-2:]))
    walls = [c.wall_s * 1e3 for c in calls]
    gated = {
        "wall_per_start.p50": (statistics.median(ratios), "starts"),
        "peak_rss_mb": (statistics.median(c.maxrss_kib for c in calls) / 1024, "MiB"),
    }
    ungated = {
        "wall_per_start.p90": (p90(ratios), "starts"),
        "wall_ms.p50": (statistics.median(walls), "ms"),
        "wall_ms.p90": (p90(walls), "ms"),
        "points_per_s": (len(bench.points[0]) * completed / (sum(walls) / 1e3), "1/s"),
        "python.start_ms": (statistics.median(starts), "ms"),
    }
    return gated, {"samples": len(calls), "ungated": as_metrics(ungated)}


def measure_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    _, alloc_lines = bench.traced("alloc")
    allocs = {f[1]: int(f[2]) for f in map(str.split, alloc_lines) if f[0] == "alloc"}
    calls, traced_walls, starts = [], [], []
    spans: dict[str, list[float]] = {}
    counts: dict[str, list[int]] = {}
    while time.perf_counter() < deadline or len(calls) < 2:
        starts.append(bench.bare_start_ms())
        bench.run_cli()
        bench.check_cli()
        calls.append(bench.last)
        call, lines = bench.traced("time")
        if not lines:
            continue
        traced_walls.append(call.wall_s * 1e3)
        durations: dict[str, float] = {}
        for fields in (line.split("\t") for line in lines):
            if fields[0] == "span":
                durations[fields[1]] = durations.get(fields[1], 0.0) + float(fields[3]) - float(fields[2])
            elif fields[0] == "count":
                counts.setdefault(fields[1], []).append(int(fields[2]))
        for name, d in durations.items():
            spans.setdefault(name, []).append(d)
    if not traced_walls:
        raise RuntimeError("no traced child completed")

    def median_ms(name: str) -> float:
        return statistics.median(spans[name]) * 1e3

    wall_p50 = statistics.median(c.wall_s * 1e3 for c in calls)
    metrics = {"python.start_ms": (statistics.median(starts), "ms")}
    metrics["process.cpu_ms"] = (statistics.median(c.cpu_s * 1e3 for c in calls), "ms")
    metrics["process.wait_ms"] = (
        statistics.median((c.wall_s - c.cpu_s) * 1e3 for c in calls), "ms")
    for metric, span in PER_LAYER_SPANS.items():
        metrics[metric] = (median_ms(span), "ms")
    for metric, unit in PER_LAYER_COUNTS.items():
        metrics[metric] = (statistics.median_low(counts[metric]), unit)
    for metric, span in PER_LAYER_ALLOCS.items():
        metrics[metric] = (allocs.get(span, 0) / MIB, "MiB")
    metrics["quadratic.analysis_us"] = (median_ms("quadratic.analysis") * 1e3, "us")
    traced_p50 = statistics.median(traced_walls)
    metrics["trace.total_ms"] = (traced_p50, "ms")
    metrics["trace.overhead_ms"] = (traced_p50 - wall_p50, "ms")
    return metrics, {"samples": len(calls), "traced_samples": len(traced_walls),
                     "wall_ms.p50": wall_p50}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a quadfit checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    bench = Bench(opts.workload, opts.seed)
    setup_s = statistics.median(bench.set_up() for _ in range(SETUPS))
    if opts.trace:
        values, info = measure_traced(bench, opts.seconds)
    else:
        values, info = measure(bench, opts.seconds)
        values["setup_s"] = (setup_s, "s")
    failed = len(bench.problems)
    info.update({
        "workload": opts.workload, "seed": opts.seed, "rows": len(bench.points[0]),
        "degree": bench.workload.degree, "failed_ratio": failed / bench.attempted,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    })
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": as_metrics(values)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
