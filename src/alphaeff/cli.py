"""Command-line frontend.

Subcommands: ``analyze`` (measurements -> scaling report), ``simulate``
(timeline scenario -> schedule), ``surface`` (alpha_eff parameter
sweep), ``bench`` (synthetic measurements on this host), ``fixtures``
(bundled datasets).  Bundled inputs are addressed as ``fixtures://<id>``
and ``-`` reads standard input.

Exit codes: 0 success, 1 I/O failure or out of memory, 2 validation or data error.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import __version__, dataio, harness, metrics, timeline

__all__ = ["main", "build_parser"]

_FIXTURE_SCHEME = "fixtures://"


def _read_input(path: str) -> bytes | str:
    if path == "-":
        if sys.stdin is None:  # Python's stdin when file descriptor 0 is closed
            raise OSError("standard input is closed")
        # Bytes where stdin has them, so _as_text decodes stdin as it decodes a file.
        return getattr(sys.stdin, "buffer", sys.stdin).read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _sniff_format(path: str, text: str) -> str:
    if path.endswith(".json") or text.lstrip().startswith("{"):
        return "json"
    return "csv"


def cmd_analyze(args) -> str:
    if args.plot and args.format == "json":
        raise ValueError("--plot blocks cannot follow a JSON document; use --format table or csv")
    if args.input.startswith(_FIXTURE_SCHEME):
        fixture = dataio.load_fixture(args.input[len(_FIXTURE_SCHEME):])
        if not fixture.series:
            raise ValueError(
                f"fixture {fixture.id!r} publishes serial fractions only and has no "
                f"measurement series; use: alphaeff fixtures export {fixture.id}"
            )
        series_list = list(fixture.series)
    else:
        text = dataio._as_text(_read_input(args.input))
        fmt = args.input_format or _sniff_format(args.input, text)
        series_list = dataio.parse_measurements(text, fmt)
    reports = [dataio.analyze(s) for s in series_list]
    out = dataio.emit_reports(reports, args.format, include_fit=args.fit)
    if args.plot and reports:
        out += "\n" + dataio.emit_plot_data(reports, args.plot, args.xscale, args.yscale)
    return out


def _parse_policy(text: str):
    if text in (timeline.ROUND_ROBIN, timeline.LPT):
        return text
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(
            f"policy must be {timeline.ROUND_ROBIN!r}, {timeline.LPT!r}, or "
            f"comma-separated worker indices, got {text!r}"
        )


def _load_scenario(path: str) -> timeline.Timeline:
    if path.startswith(_FIXTURE_SCHEME):
        return dataio.scenario_fixture(path[len(_FIXTURE_SCHEME):])
    return dataio.parse_scenario(_read_input(path))


def _render_schedule(doc: dict) -> str:
    why = "k=1" if doc["k"] == 1 else "no baseline work"
    cells = {key: f"n/a ({why})" if doc[key] is None else f"{doc[key]:.6g}"
             for key in ("t_serial", "t_total", "speedup", "alpha_eff", "serial_fraction")}
    if doc["regime"] != metrics.NORMAL:
        cells["speedup"] += f" ({doc['regime']})"
    lines = [f"k: {doc['k']}", f"policy: {doc['policy']}"]
    lines += [f"{key}: {text}" for key, text in cells.items()]
    lines.append("")
    max_load = max(doc["per_processor_busy"])
    width = 24
    for w, (busy, wait) in enumerate(zip(doc["per_processor_busy"], doc["per_processor_wait"])):
        share = busy / max_load if max_load > 0 else 0.0
        bar = "#" * round(share * width)
        lines.append(
            f"w{w:<3d} busy={busy:<10.6g} wait={wait:<10.6g} |{bar.ljust(width)}| {share:6.1%}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> str:
    tl = _load_scenario(args.scenario)
    result = timeline.simulate(tl, args.k, _parse_policy(args.policy))
    doc = {
        **vars(result),
        "policy": args.policy,
        "regime": metrics.classify_regime(result.speedup, result.k),
        "serial_fraction": None if result.alpha_eff is None else 1.0 - result.alpha_eff,
    }
    return dataio._json_text(doc) if args.format == "json" else _render_schedule(doc)


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"range must look like LO:HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"range bounds must be numbers, got {text!r}")


def cmd_surface(args) -> str:
    grid = timeline.sweep_surface(
        _parse_range(args.seq_range),
        _parse_range(args.overhead_range),
        args.steps,
        args.k,
        args.chunk,
    )
    if args.format == "json":
        return dataio._json_text(vars(grid))
    overheads = list(map(repr, grid.overhead_values))
    blocks = (
        (f"seq={seq:.6g}", "linear", "linear", zip(overheads, map(repr, row)))
        for seq, row in zip(grid.seq_values, grid.alpha)
    )
    return dataio._plot_text(blocks)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def cmd_bench(args) -> str:
    if args.spec is not None:
        spec = _read_input(args.spec)
    elif args.alpha is None:
        raise ValueError("bench needs --alpha (or --spec FILE)")
    else:
        spec = {"alpha": args.alpha, "total_ms": args.total_ms, "overhead": args.overhead,
                "k_list": _parse_int_list(args.k), "reps": args.reps}
    series = harness.run_synthetic(harness.workload_from_spec(spec))
    return dataio.emit_measurements([series], args.format)


def _fixture_summary(fixture: dataio.Fixture) -> str:
    lines = [
        f"id: {fixture.id}",
        f"verifiable: {'yes' if fixture.verifiable else 'no'}",
        f"description: {fixture.description}",
    ]
    if fixture.series:
        lines.append("series:")
        for s in fixture.series:
            ks = [k for k, _ in s.points]
            lines.append(
                f"  {s.label}: {s.value_kind.value}, {len(s.points)} points, k={min(ks)}..{max(ks)}"
            )
    if fixture.published_serial_fraction:
        lines.append("published serial fractions:")
        for label, pairs in fixture.published_serial_fraction.items():
            ks = [k for k, _ in pairs]
            lines.append(f"  {label}: {len(pairs)} points, k={min(ks)}..{max(ks)}")
    return "\n".join(lines) + "\n"


def cmd_fixtures(args) -> str:
    if args.action == "list":
        if args.format == "json":
            return dataio._json_text(dataio.FIXTURE_IDS)
        return "\n".join(dataio.FIXTURE_IDS) + "\n"
    if args.id is None:
        raise ValueError(f"fixtures {args.action} needs a fixture id")
    fixture = dataio.load_fixture(args.id)
    if args.action == "show":
        if args.format == "csv":
            raise ValueError("fixtures show has no csv format (expected table or json)")
        if args.format == "json":
            series = [
                {"label": s.label, "kind": s.value_kind.value, "points": s.points}
                for s in fixture.series
            ]
            return dataio._json_text({**vars(fixture), "series": series})
        return _fixture_summary(fixture)
    # export; emit_measurements also rejects "table" for fixtures without series
    if fixture.series or args.format == "table":
        return dataio.emit_measurements(fixture.series, args.format)
    if args.format == "json":
        return dataio._json_text(
            {"id": fixture.id, "published_serial_fraction": fixture.published_serial_fraction}
        )
    return dataio.emit_published_serial_fractions(fixture)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphaeff",
        description="Effective-parallelization analysis of strong-scaling measurements.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("analyze", help="derive per-k scaling metrics from measurements")
    p.add_argument("input", help="measurement file, '-' for stdin, or fixtures://<id>")
    p.add_argument("--input-format", choices=["csv", "json"],
                   help="input format (default: guessed from extension/content)")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table",
                   help="report format (default: table)")
    p.add_argument("--fit", action="store_true",
                   help="append fitted Amdahl-model lines to table output")
    p.add_argument("--plot", choices=["efficiency", "serial-fraction"],
                   help="append plot-data blocks for this y axis")
    p.add_argument("--xscale", choices=["log", "linear"], help="override plot x scale hint")
    p.add_argument("--yscale", choices=["log", "linear"], help="override plot y scale hint")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="schedule a timeline scenario on k workers")
    p.add_argument("scenario",
                   help="scenario JSON file, '-' for stdin, or fixtures://classic|realistic")
    p.add_argument("--k", type=int, required=True, help="worker count")
    p.add_argument("--policy", default=timeline.ROUND_ROBIN,
                   help="round-robin, lpt, or comma-separated explicit worker indices "
                        "(default: round-robin)")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("surface", help="sweep alpha_eff over sequential time and overhead")
    p.add_argument("--k", type=int, default=3, help="worker count (default: 3)")
    p.add_argument("--chunk", type=float, default=0.25, help="chunk duration (default: 0.25)")
    p.add_argument("--seq-range", default="0:0.8",
                   help="sequential-time range LO:HI (default: 0:0.8); write a low end "
                        "starting with '-' as --seq-range=LO:HI")
    p.add_argument("--overhead-range", default="0:0.6",
                   help="overhead-fraction range LO:HI (default: 0:0.6); write a low end "
                        "starting with '-' as --overhead-range=LO:HI")
    p.add_argument("--steps", type=int, default=11, help="samples per axis (default: 11)")
    p.add_argument("--format", choices=["plot", "json"], default="plot")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("bench", help="measure a synthetic workload on this host")
    p.add_argument("--alpha", type=float, help="parallelizable fraction in [0, 1]")
    p.add_argument("--total-ms", type=float, default=250.0,
                   help="target serial duration in milliseconds (default: 250)")
    p.add_argument("--overhead", type=float, default=0.0,
                   help="per-chunk control overhead fraction (default: 0)")
    p.add_argument("--k", default="1,2,4",
                   help="comma-separated worker counts (default: 1,2,4)")
    p.add_argument("--reps", type=int, default=3, help="repetitions per k (default: 3)")
    p.add_argument("--spec", help="workload spec JSON file ('-' for stdin) instead of flags")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fixtures", help="list, show, or export bundled datasets")
    p.add_argument("action", choices=["list", "show", "export"])
    p.add_argument("id", nargs="?", help="fixture id (for show/export)")
    p.add_argument("--format", choices=["table", "csv", "json"], default=None,
                   help="output format (default: table for list/show, csv for export)")
    p.add_argument("--output", help="write to this path instead of stdout")
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fixtures" and args.format is None:
        args.format = "csv" if args.action == "export" else "table"
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            text = args.func(args)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        _write_output(text, args.output)
        return 0
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `| head`); not our failure.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
