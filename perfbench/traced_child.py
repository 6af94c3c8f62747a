"""Traced run of the quadfit pipeline, from outside the package.

Imports quadfit.cli, then calls each module's public functions in the order
cli.run makes them, with one span around each call.  Spans stay in memory
and are printed at the end as tab-separated lines:

    span  NAME  START_S  END_S  PARENT
    count NAME  VALUE
    alloc NAME  PEAK_BYTES

Usage (from the repo root, with src on PYTHONPATH):

    python perfbench/traced_child.py time|alloc REPORT_PATH CLI_ARG...

`time` mode records durations only.  `alloc` mode instead runs each call
under tracemalloc and records its peak allocation above what was live
when it started, so the span timings of a `time` run are not distorted.
The report is written to REPORT_PATH rather than stdout; --svg and the
other CLI arguments are used as given.
"""

import sys
import time

# A degree-2 analysis takes about a microsecond, so it is timed over many
# repetitions.
QUADRATIC_REPS = 1000


def main() -> None:
    mode, report_path, *cli_argv = sys.argv[1:]
    clock = time.perf_counter
    spans = []
    counts = {}
    allocs = {}
    if mode == "alloc":
        import tracemalloc
        tracemalloc.start()

    def call(name, fn, *args):
        if mode == "alloc":
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = clock()
        result = fn(*args)
        end = clock()
        if mode == "alloc":
            allocs[name] = allocs.get(name, 0) + tracemalloc.get_traced_memory()[1] - base
        spans.append(("span", name, start, end, "run"))
        return result

    before = len(sys.modules)
    start = clock()
    from quadfit import cli
    spans.append(("span", "import.quadfit_cli", start, clock(), "trace"))
    counts["import.modules"] = len(sys.modules) - before
    from quadfit import fitting, ingest, metrics, plot, quadratic

    run_start = clock()
    args = call("cli.parse_args", cli.parse_args, cli_argv)
    schema = ingest.CsvSchema(x_column=args.x_col, y_column=args.y_col)

    def parse():
        with open(args.input, "rb") as fh:
            data = fh.read()
        counts["ingest.bytes"] = len(data)
        return ingest.parse_csv(data, schema)

    series = call("ingest.parse_csv", parse)
    counts["ingest.rows"] = len(series)
    problem = call("ingest.validate_series", ingest.validate_series, series, args.degree)
    if problem is not None:
        raise problem
    model, _ = call("fitting.fit_polynomial", fitting.fit_polynomial, series, args.degree)
    report = call("metrics.fit_report", metrics.fit_report, model, series)
    text = call("cli.format_report", cli.format_report, model, report)

    def write_report():
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text)

    call("cli.write", write_report)

    svg = ""
    start = clock()
    if args.svg is not None:
        spec = plot.PlotSpec(description=args.description,
                             metric_name=args.metric, y_label=args.y_label)
        svg = call("plot.render_plot", plot.render_plot, series, model, report, spec)

        def write_svg():
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)

        call("cli.write", write_svg)
    else:
        # The plot layer is idle: its span covers only the skipped branch.
        spans.append(("span", "plot.render_plot", start, clock(), "run"))
    spans.append(("span", "run", run_start, clock(), "trace"))
    counts["plot.svg_bytes"] = len(svg.encode("utf-8"))

    # format_report analyses a quadratic inside its own span; this span times
    # that analysis alone, or only the degree test where format_report skips it.
    start = clock()
    for _ in range(QUADRATIC_REPS):
        if model.degree == 2:
            a, b, c = model.coeffs[2], model.coeffs[1], model.coeffs[0]
            quadratic.discriminant(a, b, c)
            quadratic.quadratic_roots(a, b, c)
            quadratic.to_vertex_form(a, b, c)
    per_rep = (clock() - start) / QUADRATIC_REPS
    spans.append(("span", "quadratic.analysis", start, start + per_rep, "trace"))

    out = ["\t".join(map(str, s)) for s in spans]
    out += [f"count\t{k}\t{v}" for k, v in counts.items()]
    out += [f"alloc\t{k}\t{v}" for k, v in allocs.items()]
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
