"""Command line front end: CSV in, fit report out, optional SVG chart.

Exit codes: 0 on success, 1 when the data cannot be read or fitted or an
output cannot be written, 2 for command line usage errors, which print the
usage and one `quadfit: error: ...` line to stderr.
"""

import os
import sys

from . import __version__
from .errors import CsvError, QuadfitError
from .fitting import DEFAULT_DEGREE, PolynomialModel, _fit, _Run, _serve_fit
from .ingest import CsvSchema, _parse, _serve_rows
from .metrics import FitReport, _residual_report
from .plot import _MARKER_ROOM, PlotSpec, _serve_chart, _svg_chunks, format_equation
from .quadratic import discriminant, quadratic_roots, to_vertex_form


class Args:
    """The parsed command line: the fields run() reads, each at its default
    until an option sets it.  Fields stay assignable, so a caller can adjust
    one before calling run()."""

    input = None
    svg = None
    report = "-"
    degree = DEFAULT_DEGREE
    description = ""
    metric = ""
    y_label = ""
    x_col = "Month"
    y_col = "Values"


# Each option string and the field it sets.  An ambiguous prefix's matches
# are listed in this order.  help and version take no value.
OPTIONS = {
    "-h": "help", "--help": "help", "-i": "input", "--input": "input",
    "--svg": "svg", "--report": "report", "--degree": "degree",
    "--description": "description", "--metric": "metric", "--y-label": "y_label",
    "--x-col": "x_col", "--y-col": "y_col", "--version": "version",
}
FLAGS = ("help", "version")

# Laid out for 80 columns; it does not rewrap to the terminal width.
HELP = """\
usage: quadfit [-h] -i PATH [--svg PATH] [--report PATH] [--degree DEGREE]
               [--description DESCRIPTION] [--metric METRIC]
               [--y-label Y_LABEL] [--x-col NAME] [--y-col NAME] [--version]

Fit a low-degree polynomial to two-column CSV data, report the fit, and
optionally render an SVG chart.

options:
  -h, --help            show this help message and exit
  -i PATH, --input PATH
                        input CSV file, or - for standard input
  --svg PATH            write an SVG chart to PATH
  --report PATH         write the fit report to PATH (default: stdout)
  --degree DEGREE       polynomial degree, 1 to 10 (default: 2)
  --description DESCRIPTION
                        second title line of the chart (e.g. a location)
  --metric METRIC       metric name used in the chart title
  --y-label Y_LABEL     y axis label of the chart
  --x-col NAME          x column name (default: Month)
  --y-col NAME          y column name (default: Values)
  --version             show program's version number and exit
"""
USAGE = HELP[:HELP.index("\n\n") + 1]


def _print(text: str, stream) -> None:
    """Write text to stream, or to stderr when stream is None (its file
    descriptor was closed at start), ignoring a failed write."""
    try:
        (stream or sys.stderr).write(text)
    except (AttributeError, OSError):
        pass  # stderr is closed or unwritable too; the exit code still tells


def _usage_error(message: str, field: str | None = None):
    """Print the usage and one error line to stderr, and exit with code 2."""
    if field is not None:
        names = "/".join(name for name, f in OPTIONS.items() if f == field)
        message = f"argument {names}: {message}"
    _print(USAGE, sys.stderr)
    _print(f"quadfit: error: {message}\n", sys.stderr)
    raise SystemExit(2)


def _is_negative_number(arg: str) -> bool:
    r"""Whether argparse's negative-number test, re.match(r"^-\d+$|^-\d*\.\d+$",
    arg), holds, without importing re.  \d is what str.isdecimal() tests
    (isdigit() would also take "²"), and $ also matches before one final
    newline."""
    if arg.endswith("\n"):
        arg = arg[:-1]
    if not arg.startswith("-"):
        return False
    whole, dot, fraction = arg[1:].partition(".")
    if dot:
        return (whole == "" or whole.isdecimal()) and fraction.isdecimal()
    return whole.isdecimal()


def _read(arg: str):
    """None when arg is a value, else the tuple (field, or None for an
    unknown option; option string; attached value, or None)."""
    if not arg.startswith("-"):
        return None
    if arg in OPTIONS:
        return OPTIONS[arg], arg, None
    if len(arg) == 1:
        return None  # "-" is a value: standard input
    name, eq, value = arg.partition("=")
    if eq and name in OPTIONS:
        return OPTIONS[name], name, value
    if arg[1] == "-":
        # A long option may be shortened to any unique prefix.
        matches = [option for option in OPTIONS if option.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return OPTIONS[matches[0]], matches[0], value if eq else None
    elif arg[:2] in OPTIONS:
        return OPTIONS[arg[:2]], arg[:2], arg[2:]  # -iPATH
    if _is_negative_number(arg) or " " in arg:
        return None  # a negative number, or text with a space, is a value
    return None, arg, None


def parse_args(argv=None) -> Args:
    """Parse argv (default sys.argv[1:]).

    Options take `--opt VALUE`, `--opt=VALUE`, a unique prefix of a long
    option (`--deg 3`) and `-iPATH`; the last of a repeated option wins.
    --help and --version print their text and raise SystemExit(0); a usage
    error prints the usage and one `quadfit: error:` line to stderr and
    raises SystemExit(2).
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    # Every string before "--" is read before any option acts, so an
    # ambiguous prefix anywhere is the error reported; none after it is
    # an option.
    end = argv.index("--") if "--" in argv else len(argv)
    read = [_read(arg) for arg in argv[:end]]
    args, unknown, i = Args(), [], 0
    while i < len(argv):
        if i >= end or read[i] is None or read[i][0] is None:
            unknown.append(argv[i])
            i += 1
            continue
        field, name, value = read[i]
        flag = field if field in FLAGS else None
        # Letters after a short flag are more short options: -hi is -h -i.
        while field in FLAGS and value is not None:
            if name[1] == "-" or value == "" or "-" + value[0] not in OPTIONS:
                _usage_error(f"ignored explicit argument {value!r}", field)
            name = "-" + value[0]
            field, value = OPTIONS[name], value[1:] or None
        # The last option's value is checked before the first flag acts.
        if field not in FLAGS and value is None:
            if i + 1 >= end or read[i + 1] is not None:
                _usage_error("expected one argument", field)
            i += 1
            value = argv[i]
        i += 1
        if flag is not None:
            _print(HELP if flag == "help" else f"quadfit {__version__}\n", sys.stdout)
            raise SystemExit(0)
        if field == "degree":
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"degree must be an integer, got {value!r}", field)
            if not 1 <= value <= 10:
                _usage_error(f"degree must be between 1 and 10, got {value}", field)
        setattr(args, field, value)
    if args.input is None:
        _usage_error("the following arguments are required: -i/--input")
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def format_report(model: PolynomialModel, report: FitReport) -> str:
    """Line-oriented key=value report; quadratic structure when degree is 2.

    The structure lines need a nonzero x^2 coefficient: exactly linear data
    fits with a zero one, and then there is no parabola to describe.
    """
    lines = [f"degree={model.degree}"]
    for k, coeff in enumerate(model.coeffs):
        lines.append(f"coeff[{k}]={coeff:.10e}")
    lines.append(f"ss_res={report.ss_res:.10e}")
    lines.append(f"ss_tot={report.ss_tot:.10e}")
    lines.append(f"r_squared={report.r_squared:.6f}")
    if model.degree == 2 and model.coeffs[2] != 0.0:
        a, b, c = model.coeffs[2], model.coeffs[1], model.coeffs[0]
        disc = discriminant(a, b, c)
        roots = quadratic_roots(a, b, c)
        vertex = to_vertex_form(a, b, c)
        if roots.roots:
            roots_text = ",".join(f"{r:.10e}" for r in roots.roots)
        else:
            roots_text = "none"
        equation = "; ".join(format_equation(model, report.r_squared).splitlines())
        lines.append(f"discriminant={disc:.10e}")
        lines.append(f"roots={roots_text}")
        lines.append(f"vertex_h={vertex.h:.10e}")
        lines.append(f"vertex_k={vertex.k:.10e}")
        lines.append(f"equation={equation}")
    return "\n".join(lines) + "\n"


def run(args: Args) -> None:
    # sys.stdin and sys.stdout are None when the process started with that
    # file descriptor closed; stdout is checked first, so no SVG is written.
    if args.report == "-" and sys.stdout is None:
        raise OSError("standard output is closed")
    # Column names and chart texts are checked before any input is read.
    try:
        schema = CsvSchema(x_column=args.x_col, y_column=args.y_col)
        spec = None if args.svg is None else PlotSpec(
            description=args.description, metric_name=args.metric, y_label=args.y_label)
    except ValueError as exc:
        raise QuadfitError(str(exc)) from None
    if args.input == "-":
        if sys.stdin is None:
            raise OSError("standard input is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as fh:
            data = fh.read()
    # At most one helper process serves the parse, the fit and the chart: the
    # first stage large enough forks it (see fitting._Run).  It ends itself
    # after the last stage, and leaving the block stops it, before any error
    # is reported.
    serves = (_serve_rows, _serve_fit) if spec is None else (_serve_rows, _serve_fit, _serve_chart)
    with _Run(*serves, room=_MARKER_ROOM if spec else 0) as stages:
        series = _parse(data, schema, stages)
        del data
        # The report sums the residual and ss_tot the fit leaves behind, on
        # its scale of y, as fit_report would; the render does not need them.
        fit = _fit(series, args.degree, stages)
        model, report = fit.model, _residual_report(fit)
        del fit

        text = format_report(model, report)

        # The chart's first piece is rendered before any file is opened: all
        # that can fail in a render runs by then, so a render that fails
        # leaves no SVG file, stdout empty and no report file.
        if spec is not None:
            chunks = _svg_chunks(series, model, report, spec, stages)
            first = next(chunks)
            with open(args.svg, "wb") as fh:
                fh.write(first)
                fh.writelines(chunks)

    if args.report == "-":
        sys.stdout.write(text)
    else:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(message: str) -> int:
    """Print a one-line diagnostic to stderr and return exit code 1."""
    _print(f"quadfit: {message}\n", sys.stderr)
    return 1


def main(argv=None) -> int:
    try:
        try:
            args = parse_args(argv)
        except SystemExit as exc:
            # parse_args exits itself on --help/--version (0) and usage errors (2);
            # fold that into the return-code contract so callers never see the raise.
            code = int(exc.code or 0)
        else:
            run(args)
            code = 0
        # Buffered stdout reports a full disk or a closed pipe only when it is
        # flushed, and --help and --version leave their text in the buffer.
        # It is None when the process started with file descriptor 1 closed.
        if sys.stdout is not None:
            sys.stdout.flush()
    except CsvError as exc:
        return _fail(f"{args.input}: {type(exc).__name__}: {exc}")
    except QuadfitError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        return _fail(str(exc))
    return code


def console_entry() -> None:
    """Process entry of the `quadfit` command and `python -m quadfit.cli`.

    Runs main(), flushes stdout and stderr, and ends the process with
    os._exit, skipping interpreter teardown (garbage collection and module
    cleanup), which would only run after every output is written.  Each
    file main() writes is closed before it returns, and quadfit registers
    no atexit hook; hooks that other code registers do not run.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:
            continue
        try:
            stream.flush()
        except OSError:
            pass  # main() has reported an unwritable stdout; stderr cannot report
    os._exit(code)


if __name__ == "__main__":
    console_entry()
