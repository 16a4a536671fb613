"""Layered benchmark for alphaeff.

Run from the repository root (it imports the package from ``src/``)::

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``desk``, ``bulk-wide``, ``bulk-long``
and ``harness-spawn``.  A single caller issues one operation at a time
and waits for it (a closed loop).  The harness never starts more than
``available_processors()`` workers at once.

With ``--trace 0`` the run reports the end-to-end metrics, scaled to a
nominal host speed: fixed references that run no alphaeff code (an
in-process operation, a fresh interpreter importing numpy, a pair of
forks) run between the workload's operations all through the run, and
each figure is multiplied (rates) or divided (times) by how much slower
than nominal the reference of its kind ran, so a run on a loaded
stretch of a shared host reads close to one on an idle stretch.  The
figures as timed are in the result file under ``measured``.  With
``--trace 1`` it installs span-recording wrappers around the public
functions of ``dataio``, ``metrics``, ``timeline`` and ``harness`` for
the workload loop and for one subprocess/in-process pair per CLI
subcommand, and reports per-layer busy and self times, work counts,
failures and the tracing overhead.  The probes that follow (import
split, growth exponents, harness accuracy) run with the wrappers
removed, so their calls count in no layer.  Every output
is checked; a failed check counts against ``error_rate`` and makes
``correct`` false.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with host provenance and (traced) the spans, goes to ``--out`` (default
``bench/out/<workload>-<seed>-<trace>.json``).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import cycle
from pathlib import Path

import probes
import workloads
from spans import Tracer

clock = time.perf_counter

# Name, unit and the host reference the figure is scaled by (see
# Runner.end_to_end).
END_TO_END = [
    ("setup_s", "s", "start"),
    ("cli_p50_ms", "ms", "start"),
    ("cli_p90_ms", "ms", "start"),
    ("analyze_rows_per_s", "1/s", "ops"),
    ("simulate_chunks_per_s", "1/s", "ops"),
    ("surface_cells_per_s", "1/s", "ops"),
    ("harness_overhead_ms", "ms", "fork"),
]

CLI_SUBCOMMANDS = ("analyze", "simulate", "surface", "fixtures", "bench")
LAYERS = ("cli", "dataio", "metrics", "timeline", "harness")
FAMILY_LAYER = {"cli": "cli", "analyze": "dataio", "simulate": "timeline",
                "surface": "timeline", "harness": "harness"}
EMIT_FORMATS = ("table", "csv", "json")

PER_LAYER = (
    [("import.interpreter_s", "s"), ("import.numpy_s", "s"), ("import.alphaeff_s", "s")]
    + [m for sub in CLI_SUBCOMMANDS for m in ((f"cli.{sub}.wall_ms", "ms"), (f"cli.{sub}.main_s", "s"))]
    + [m for fmt in ("csv", "json") for m in ((f"dataio.parse_measurements.{fmt}.busy_s", "s"),
                                              (f"dataio.parse_measurements.{fmt}.rows", "count"))]
    + [("dataio.analyze.busy_s", "s"), ("metrics.fit_alpha.busy_s", "s"),
       ("metrics.MetricRow.from_speedup.busy_s", "s")]
    + [m for fmt in EMIT_FORMATS for m in ((f"dataio.emit_reports.{fmt}.busy_s", "s"),
                                           (f"dataio.emit_reports.{fmt}.bytes", "B"))]
    + [("dataio.emit_plot_data.busy_s", "s"), ("dataio.load_fixture.busy_s", "s"),
       ("dataio.parse_scenario.busy_s", "s"), ("timeline.Timeline.busy_s", "s")]
    + [m for pol in ("round-robin", "lpt") for m in ((f"timeline.simulate.{pol}.busy_s", "s"),
                                                     (f"timeline.simulate.{pol}.chunks", "count"))]
    + [("timeline.sweep_surface.busy_s", "s"), ("timeline.sweep_surface.cells", "count"),
       ("harness.calibrate.busy_s", "s"), ("harness.run_synthetic.busy_s", "s"),
       ("harness.processes_spawned", "count"),
       ("harness.call_p50_ms", "ms"), ("harness.call_p90_ms", "ms")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.failed", "count") for layer in ("cli", "dataio", "timeline", "harness")]
    + [("error_rate", "1")]
    + [("trace.spans", "count"), ("trace.overhead_s", "s"), ("trace.overhead_share", "1")]
    + [("dataio.parse_measurements.csv.growth", "log2"), ("timeline.simulate.lpt.growth", "log2")]
    + [("harness.alpha_eff_error", "1"), ("harness.alpha_eff_error_spread", "1")]
    + [("host.spin_units_per_s", "1/s"), ("host.parallel_s2", "1"), ("host.parallel_s2_spread", "1"),
       ("host.reference_ops_per_s", "1/s"), ("host.reference_fork_pair_ms", "ms")]
)

# The measured seconds are split between the families in this many
# rounds.  The host's speed drifts by a fifth within seconds, so every
# family samples the whole run rather than one stretch of it.
ROUNDS = 20
# One probes.reference_op runs after any operation that ends at least
# this many seconds after the last one, so the reference samples the
# host's speed all through the run, as the operations do.
REFERENCE_EVERY_S = 0.025
# The reference speeds the end-to-end figures are scaled to: about what
# the probes reach on a 2-vCPU x86-64 cloud host with Python 3.11 and
# numpy 2.4 while both vCPUs are free (the host the bounds were set on).
NOMINAL = {"ops_per_s": 1000.0, "start_s": 0.2, "fork_pair_s": 0.004}


def trimmed_rate(samples) -> float:
    """Work per second over the operations, leaving out the fastest and the
    slowest tenth.  Per-operation speed on this kind of host is bimodal,
    so a median flips between the modes while this moves smoothly."""
    ranked = sorted(samples, key=lambda ws: ws[0] / ws[1])
    cut = len(ranked) // 10
    kept = ranked[cut:len(ranked) - cut]
    return sum(w for w, _ in kept) / sum(s for _, s in kept)


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_main(argv, stdin_text):
    """``cli.main(argv)`` in this process; returns (exit code, stdout, stderr)."""
    from alphaeff import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Runner:
    """Runs one workload's operations in a closed loop and checks each output."""

    def __init__(self, plan: workloads.Plan, root: Path, env: dict):
        from alphaeff import dataio, harness, timeline

        self.dataio, self.harness, self.timeline = dataio, harness, timeline
        self.plan, self.root, self.env = plan, root, env
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer = Counter()
        self.cli_ms: list[float] = []
        # (work, seconds) of each operation, for trimmed_rate.
        self.rates = {"analyze": [], "simulate": [], "surface": []}
        self.harness_call_ms: list[float] = []
        self.setup_s: list[float] = []
        self.harness_overhead_ms: list[float] = []
        # Host references: (1, seconds) of each probes.reference_op, and
        # seconds of each numpy_start and fork_pair probe.
        self.host_ops: list[tuple[int, float]] = []
        self.start_refs: list[float] = []
        self.fork_refs: list[float] = []
        self.reference: dict[str, object] = {}
        self.next = {
            "cli": cycle(plan.invocations).__next__,
            "analyze": cycle(range(len(plan.measurement_sets))).__next__,
            "fixture": cycle(plan.fixture_ids).__next__,
            "simulate": cycle(plan.scenarios).__next__,
            "surface": cycle(plan.surfaces).__next__,
        }
        self.expected: dict[str, str] = {}

    # -- bookkeeping -------------------------------------------------

    def attempt(self, layer: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:
            self.failed += 1
            self.failed_by_layer[layer] += 1
            detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
            print(f"FAILED [{layer}]: {detail}", file=sys.stderr)

    def same_as_before(self, key: str, value) -> None:
        """The first output for ``key`` is the reference for every later one."""
        ref = self.reference.setdefault(key, value)
        expect(ref == value, f"{key}: output differs from the first run of the same input")

    # -- set-up ------------------------------------------------------

    def prepare(self) -> None:
        """Expected CLI outputs, from ``cli.main`` in this process and the pins."""
        pinned = workloads.pinned_digests()
        for inv in self.plan.invocations + workloads.pair_invocations(self.plan):
            if inv.check != "exact" or inv.key in self.expected:
                continue
            self.attempt("cli", self._prepare_one, inv, pinned)

    def _prepare_one(self, inv, pinned) -> None:
        code, out, _ = run_main(inv.argv, inv.stdin)
        self.expected[inv.key] = digest(out)
        expect(code == inv.code, f"{inv.key}: in-process exit code {code}, expected {inv.code}")
        if inv.key in pinned:
            expect(self.expected[inv.key] == pinned[inv.key],
                   f"{inv.key}: output differs from the pinned digest")

    # -- operations --------------------------------------------------

    def op_cli(self, inv=None) -> None:
        inv = inv or self.next["cli"]()
        t0 = clock()
        proc = subprocess.run([sys.executable, "-m", "alphaeff", *inv.argv],
                              input=(inv.stdin or "").encode(), capture_output=True,
                              env=self.env, cwd=self.root, timeout=120)
        self.cli_ms.append((clock() - t0) * 1000.0)
        self.check_output(inv, proc.returncode, proc.stdout.decode(),
                          proc.stderr.decode(errors="replace"))

    def check_output(self, inv, code: int, out: str, err: str) -> None:
        expect(code == inv.code, f"{inv.key}: exit code {code}, expected {inv.code}: {err[-300:]!r}")
        if inv.code != 0:
            expect(out == "" and err.startswith("error: "),
                   f"{inv.key}: a failing command must print only an error line")
        elif inv.check == "exact":
            expect(digest(out) == self.expected[inv.key],
                   f"{inv.key}: stdout differs from the expected output")
        else:
            fmt = "json" if "json" in inv.argv else "csv"
            series = self.dataio.parse_measurements(out, fmt)
            expect(len(series) == 1, f"{inv.key}: expected one series, got {len(series)}")
            self.check_harness_series(series[0])

    def pipeline(self, series) -> dict[str, str]:
        dataio = self.dataio
        reports = [dataio.analyze(s) for s in series]
        out = {fmt: dataio.emit_reports(reports, fmt, include_fit=True) for fmt in EMIT_FORMATS}
        out["plot"] = dataio.emit_plot_data(reports, "efficiency")
        return out

    def op_analyze(self) -> None:
        dataio = self.dataio
        index = self.next["analyze"]()
        ms = self.plan.measurement_sets[index]
        fixture_id = self.next["fixture"]()
        t0 = clock()
        fixture = dataio.load_fixture(fixture_id)
        fixture_out = self.pipeline(fixture.series) if fixture.series else None
        from_csv = dataio.parse_measurements(ms.csv, "csv")
        out_csv = self.pipeline(from_csv)
        from_json = dataio.parse_measurements(ms.json, "json")
        out_json = self.pipeline(from_json)
        rows = 2 * ms.rows + sum(len(s.points) for s in fixture.series)
        self.rates["analyze"].append((rows, clock() - t0))

        self.same_as_before(f"fixture:{fixture_id}", fixture_out)
        expect(out_csv == out_json, "CSV and JSON copies of the same series gave different reports")
        key = f"analyze:{index}"
        digests = {fmt: digest(text) for fmt, text in out_csv.items()}
        if key not in self.reference:
            self.verify_analysis(ms, from_csv, from_json, out_csv)
        self.same_as_before(key, digests)

    def verify_analysis(self, ms, from_csv, from_json, out) -> None:
        """Exact round-trips and an independent check of the derived columns."""
        dataio = self.dataio
        expect(from_csv == from_json, "CSV and JSON parses of the same series differ")
        expect(sum(len(s.points) for s in from_csv) == ms.rows, "parsed row count differs")
        for fmt in ("csv", "json"):
            back = dataio.parse_measurements(dataio.emit_measurements(from_csv, fmt), fmt)
            expect(back == from_csv, f"emit_measurements -> parse_measurements ({fmt}) is not exact")
        speedups = {s.label: s.speedup_points() for s in from_csv}
        reparsed = dataio.parse_measurements(out["csv"], "csv")
        expect([s.label for s in reparsed] == list(speedups), "report CSV labels differ")
        for s in reparsed:
            expect(s.points == speedups[s.label], f"report CSV round-trip differs for {s.label}")
        doc = json.loads(out["json"])
        for report in doc["reports"]:
            rows = report["rows"]
            expect([(r["k"], r["speedup"]) for r in rows] == list(speedups[report["label"]]),
                   f"report JSON speedups differ for {report['label']}")
            for r in rows:
                k, s = r["k"], r["speedup"]
                expect(r["efficiency"] == s / k, "efficiency is not speedup / k")
                if k >= 2:
                    alpha = (k / (k - 1)) * (s - 1) / s
                    expect(math.isclose(r["alpha_eff"], alpha, rel_tol=1e-12, abs_tol=1e-12),
                           f"alpha_eff {r['alpha_eff']} != {alpha} at k={k}")
                    expect(r["serial_fraction"] == 1.0 - r["alpha_eff"], "serial fraction")

    def op_simulate(self) -> None:
        dataio, timeline = self.dataio, self.timeline
        sc = self.next["simulate"]()
        tl = dataio.scenario_fixture(sc.bundled) if sc.bundled else dataio.parse_scenario(sc.text)
        t0 = clock()
        rr = timeline.simulate(tl, sc.k, timeline.ROUND_ROBIN)
        lpt = timeline.simulate(tl, sc.k, timeline.LPT)
        dt = clock() - t0
        chunks = tl.chunk_durations
        self.rates["simulate"].append((2 * len(chunks), dt))

        serialized = tl.total_sequential + tl.total_control
        for name, result in (("round-robin", rr), ("lpt", lpt)):
            expect(result.k == sc.k and len(result.assignment) == len(chunks),
                   f"{sc.key} {name}: wrong shape")
            loads = [0.0] * sc.k
            for d, w in zip(chunks, result.assignment):
                loads[w] += d
            expect(tuple(loads) == result.per_processor_busy, f"{sc.key} {name}: busy differs")
            expect(result.t_total == serialized + max(loads), f"{sc.key} {name}: t_total")
        longest = max(chunks, default=0.0)
        expect(max(lpt.per_processor_busy) <= sum(chunks) / sc.k + longest + 1e-9,
               f"{sc.key}: lpt makespan above the list-scheduling bound")
        expect(max(rr.per_processor_busy) <= -(-len(chunks) // sc.k) * longest + 1e-9,
               f"{sc.key}: round-robin load above ceil(n/k) chunks")
        expect(list(rr.assignment) == [i % sc.k for i in range(len(chunks))],
               f"{sc.key}: round-robin is not i mod k")
        self.same_as_before(f"lpt:{sc.key}", digest(repr(lpt.assignment)))

    def op_surface(self) -> None:
        timeline = self.timeline
        spec = self.next["surface"]()
        t0 = clock()
        grid = timeline.sweep_surface(spec.seq_range, spec.overhead_range, spec.steps, spec.k,
                                      spec.chunk)
        self.rates["surface"].append((spec.steps * spec.steps, clock() - t0))

        n = spec.steps
        expect(len(grid.seq_values) == n and len(grid.overhead_values) == n and len(grid.alpha) == n,
               "surface grid has the wrong shape")
        expect(float(grid.seq_values[0]) == spec.seq_range[0]
               and float(grid.seq_values[-1]) == spec.seq_range[1], "surface seq axis ends")
        for i, j in ((0, 0), (n - 1, n - 1), (n // 2, n // 3), (n // 3, n - 1), (n - 1, 0)):
            seq, ov = float(grid.seq_values[i]), float(grid.overhead_values[j])
            cell = float(grid.alpha[i][j])
            expect(cell == timeline.surface(seq, ov, spec.k, spec.chunk),
                   f"surface cell ({i}, {j}) differs from surface()")
            t_serial = seq + spec.k * spec.chunk
            t_total = seq + spec.chunk * (1.0 + ov)
            closed = (spec.k / (spec.k - 1)) * (1.0 - t_total / t_serial)
            expect(math.isclose(cell, closed, rel_tol=1e-9, abs_tol=1e-12),
                   f"surface cell ({i}, {j}) = {cell}, closed form {closed}")

    def check_harness_series(self, series) -> None:
        ks = self.plan.harness_k
        expect(isinstance(series, self.dataio.MeasurementSeries), "harness returned no series")
        expect(series.label == "synthetic-a1-o0", f"harness label {series.label!r}")
        expect(series.value_kind is self.dataio.ValueKind.WALL_TIME and series.baseline_k == 1,
               "harness series is not a wall-time series with a k=1 baseline")
        expect(tuple(k for k, _ in series.points) == ks, f"harness k values {series.points}")
        expect(all(math.isfinite(v) and v > 0.0 for _, v in series.points),
               "harness times must be positive")

    def op_harness(self) -> None:
        harness = self.harness
        plan = harness.SyntheticWorkload(alpha_target=1.0, total_work=1, k_list=self.plan.harness_k)
        t0 = clock()
        series = harness.run_synthetic(plan)
        call_ms = (clock() - t0) * 1000.0
        self.harness_call_ms.append(call_ms)
        self.check_harness_series(series)
        top = series.points[-1][1] * 1000.0
        self.harness_overhead_ms.append(top)
        expect(top < call_ms, "harness reported more time than the call took")

    # -- the loop ----------------------------------------------------

    def measure(self, seconds: float, cold_imports: int) -> None:
        """Run the families for ``seconds`` in total, taking ``cold_imports``
        set-up samples spread over the run, outside the families' time."""
        shares = {f: s for f, s in self.plan.shares.items() if s > 0}
        spent = dict.fromkeys(shares, 0.0)
        last_reference = clock() - REFERENCE_EVERY_S
        for r in range(1, ROUNDS + 1):
            if cold_imports and (r - 1) % (ROUNDS // cold_imports) == 0:
                self.setup_s += probes.cold_import_seconds(self.env, self.root, 1)
                self.start_refs.append(probes.numpy_start_seconds(self.env, self.root))
            for family, share in shares.items():
                goal = seconds * share * r / ROUNDS
                while spent[family] < goal:
                    t0 = clock()
                    self.attempt(FAMILY_LAYER[family], getattr(self, f"op_{family}"))
                    t1 = clock()
                    spent[family] += t1 - t0
                    if t1 - last_reference >= REFERENCE_EVERY_S:
                        probes.reference_op()
                        t2 = clock()
                        self.host_ops.append((1, t2 - t1))
                        if len(self.host_ops) % 4 == 1:
                            self.fork_refs.append(probes.fork_pair_seconds())
                        last_reference = clock()

    def host_ops_per_s(self) -> float:
        return trimmed_rate(self.host_ops)

    def measured(self) -> dict[str, float]:
        """The end-to-end figures as timed on this host at this time."""
        return {
            "setup_s": statistics.median(self.setup_s),
            "cli_p50_ms": percentile(self.cli_ms, 50),
            "cli_p90_ms": percentile(self.cli_ms, 90),
            "analyze_rows_per_s": trimmed_rate(self.rates["analyze"]),
            "simulate_chunks_per_s": trimmed_rate(self.rates["simulate"]),
            "surface_cells_per_s": trimmed_rate(self.rates["surface"]),
            "harness_overhead_ms": statistics.median(self.harness_overhead_ms),
        }

    def slowdowns(self) -> dict[str, float]:
        """How much slower than nominal each reference ran, as a factor."""
        return {
            "ops": NOMINAL["ops_per_s"] / self.host_ops_per_s(),
            "start": statistics.median(self.start_refs) / NOMINAL["start_s"],
            "fork": statistics.median(self.fork_refs) / NOMINAL["fork_pair_s"],
        }

    def end_to_end(self) -> dict[str, float]:
        """The measured figures scaled to the nominal reference speeds.

        Other tenants move this host's speed by a fifth within seconds and
        whole runs by up to a half, and they move in-process work, fresh
        interpreters and forks by different factors: when the second vCPU
        is taken, a run's in-process figures slow by a tenth, its
        interpreter starts by a third and its fork pairs by a half.  Each
        figure is therefore scaled by the reference of its own kind,
        sampled all through the same run.
        """
        slowdown = self.slowdowns()
        scaling = {name: (unit, ref) for name, unit, ref in END_TO_END}
        out = {}
        for name, value in self.measured().items():
            unit, ref = scaling[name]
            out[name] = value * slowdown[ref] if unit == "1/s" else value / slowdown[ref]
        return out


# -- tracing -----------------------------------------------------------


def _fmt(args, kwargs, pos, key, default):
    value = args[pos] if len(args) > pos else kwargs.get(key, default)
    return value.strip().lower()


def install_spans(tracer: Tracer) -> None:
    from alphaeff import dataio, harness, metrics, timeline

    def rows(t, name, args, result):
        t.counts[f"{name}.rows"] += sum(len(s.points) for s in result)

    def size(t, name, args, result):
        t.counts[f"{name}.bytes"] += len(result.encode())

    def chunks(t, name, args, result):
        t.counts[f"{name}.chunks"] += len(result.assignment)

    def cells(t, name, args, result):
        t.counts[f"{name}.cells"] += len(result.seq_values) * len(result.overhead_values)

    def spawned(t, name, args, result):
        plan = args[0]
        t.counts["harness.processes_spawned"] += plan.repetitions * sum(plan.k_list)

    def policy(args, kwargs):
        p = args[2] if len(args) > 2 else kwargs.get("policy", timeline.ROUND_ROBIN)
        return f"timeline.simulate.{p if isinstance(p, str) else 'explicit'}"

    tracer.wrap(dataio, "parse_measurements",
                lambda a, kw: f"dataio.parse_measurements.{_fmt(a, kw, 1, 'format', 'csv')}", rows)
    tracer.wrap(dataio, "analyze", "dataio.analyze")
    tracer.wrap(dataio, "emit_reports",
                lambda a, kw: f"dataio.emit_reports.{_fmt(a, kw, 1, 'format', 'table')}", size)
    tracer.wrap(dataio, "emit_plot_data", "dataio.emit_plot_data")
    tracer.wrap(dataio, "load_fixture", "dataio.load_fixture")
    tracer.wrap(dataio, "parse_scenario", "dataio.parse_scenario")
    tracer.wrap(metrics, "fit_alpha", "metrics.fit_alpha")
    tracer.wrap(metrics.MetricRow, "from_speedup", "metrics.MetricRow.from_speedup")
    tracer.wrap(timeline.Timeline, "__post_init__", "timeline.Timeline")
    tracer.wrap(timeline, "simulate", policy, chunks)
    tracer.wrap(timeline, "sweep_surface", "timeline.sweep_surface", cells)
    tracer.wrap(harness, "calibrate", "harness.calibrate")
    tracer.wrap(harness, "run_synthetic", "harness.run_synthetic", spawned)


def traced(tracer: Tracer, run):
    """``run()`` with the spans installed; returns its result and seconds."""
    install_spans(tracer)
    t0 = clock()
    try:
        result = run()
    finally:
        tracer.restore()
    return result, clock() - t0


def cli_pairs(runner: Runner, tracer: Tracer, repeats: int) -> dict[str, float]:
    """Each subcommand as a subprocess and as ``cli.main`` in this process.

    The difference between the two is start-up cost.
    """
    out = {}
    for inv in workloads.pair_invocations(runner.plan):
        walls, mains = [], []
        for _ in range(repeats):
            tracer.begin(f"cli.{inv.sub}.wall")
            runner.attempt("cli", runner.op_cli, inv)
            walls.append(tracer.end() * 1000.0)
            tracer.begin(f"cli.{inv.sub}.main")
            code, text, err = run_main(inv.argv, inv.stdin)
            mains.append(tracer.end())
            runner.attempt("cli", runner.check_output, inv, code, text, err)
        out[f"cli.{inv.sub}.wall_ms"] = statistics.median(walls)
        out[f"cli.{inv.sub}.main_s"] = statistics.median(mains)
    return out


def per_layer(runner: Runner, loop: Tracer, pairs: Tracer, traced_s: float) -> dict[str, float]:
    """Layer figures of the workload loop, and the cli layer's of the CLI pairs.

    ``harness.calibrate`` also comes from the pairs: the loop reaches it
    only inside the bench subprocess, the pairs through ``cli.main``.
    """
    values = {}
    for name, unit in PER_LAYER:
        layer = name.split(".", 1)[0]
        source = pairs if layer == "cli" or name.startswith("harness.calibrate.") else loop
        if name.endswith(".busy_s"):
            values[name] = source.busy.get(name[: -len(".busy_s")], 0.0)
        elif name.endswith(".self_s"):
            values[name] = source.layer_self_time(layer)
        elif name.endswith(".failed"):
            values[name] = runner.failed_by_layer[layer]
        elif name in source.counts:
            values[name] = source.counts[name]
    opened = loop.opened + pairs.opened
    overhead = opened * Tracer.span_cost()
    values.update({
        # Whole-call walls of run_synthetic follow the host's process-spawn
        # speed, which moves whole runs by a fifth or more, so they are
        # reported here, without a bound, next to the steady
        # harness_overhead_ms.
        "harness.call_p50_ms": percentile(runner.harness_call_ms, 50),
        "harness.call_p90_ms": percentile(runner.harness_call_ms, 90),
        "error_rate": runner.failed / max(1, runner.attempted),
        "trace.spans": opened,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / traced_s,
    })
    return values


def probe_values(runner: Runner, root: Path, env: dict, tiny: bool) -> dict:
    """Import split, growth exponents and harness accuracy, on unwrapped code."""
    from alphaeff import dataio, harness, metrics, timeline

    plan = runner.plan
    repeats = 1 if tiny else 3
    out = probes.import_breakdown(env, root, repeats)

    sizes = (plan.growth_points, 2 * plan.growth_points)
    texts = {n: workloads.measurement_set(
        workloads.gen_series(random.Random(n), 1, range(1, n + 1), "g")).csv for n in sizes}
    tl = dataio.parse_scenario(workloads.gen_scenario(random.Random(1), plan.growth_chunks))

    def parse(n):
        return dataio.parse_measurements(texts[n], "csv")

    def lpt(k):
        return timeline.simulate(tl, k, timeline.LPT)

    runner.attempt("dataio", lambda: expect(all(len(parse(n)[0].points) == n for n in texts),
                                            "growth probe parsed the wrong number of rows"))
    runner.attempt("timeline", lambda: expect(len(lpt(plan.growth_k).assignment) == plan.growth_chunks,
                                              "growth probe lost chunks"))
    pairs = 2 * repeats - 1
    out["dataio.parse_measurements.csv.growth"] = probes.growth(parse, *sizes, pairs)
    out["timeline.simulate.lpt.growth"] = probes.growth(lpt, plan.growth_k, 2 * plan.growth_k, pairs)
    errors = probes.harness_accuracy(harness, metrics, 0.8, 0.01 if tiny else 0.06, 2,
                                     3 if tiny else 5)
    out["harness.alpha_eff_error"], out["harness.alpha_eff_error_spread"] = probes.median_iqr(errors)
    return out


# -- main ----------------------------------------------------------------


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and few repetitions, for a quick self-check")
    parser.add_argument("--out", help="result file (default: bench/out/<workload>-<seed>-<trace>.json)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "alphaeff" / "__init__.py").is_file():
        print(f"error: no src/alphaeff package under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(src)
    sys.path.insert(0, str(src))
    import alphaeff
    from alphaeff import harness

    if Path(alphaeff.__file__).resolve().parent != (src / "alphaeff").resolve():
        print(f"error: imported alphaeff from {alphaeff.__file__}, not from {src}", file=sys.stderr)
        return 2

    nproc = harness.available_processors()
    plan = workloads.build(args.workload, args.seed, nproc, args.tiny)
    runner = Runner(plan, root, env)
    runner.prepare()

    host = probes.host_provenance(root, harness, 0.01 if args.tiny else 0.05,
                                  3 if args.tiny else 5)
    if args.trace:
        # The spans are installed only around the workload loop and the
        # CLI pairs, so no probe's calls count as a layer's time.
        loop, pairs = Tracer(), Tracer()
        _, loop_s = traced(loop, lambda: runner.measure(args.seconds, 0))
        pair_values, pairs_s = traced(pairs, lambda: cli_pairs(runner, pairs, 1 if args.tiny else 3))
        values = per_layer(runner, loop, pairs, loop_s + pairs_s)
        values.update(pair_values)
        values.update(probe_values(runner, root, env, args.tiny))
        values.update({"host.spin_units_per_s": host["spin_units_per_s"],
                       "host.parallel_s2": host["parallel_s2"],
                       "host.parallel_s2_spread": host["parallel_s2_iqr"],
                       "host.reference_ops_per_s": runner.host_ops_per_s(),
                       "host.reference_fork_pair_ms": statistics.median(runner.fork_refs) * 1000.0})
        catalogue = PER_LAYER
    else:
        runner.measure(args.seconds, 2 if args.tiny else 6)
        values = runner.end_to_end()
        catalogue = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in catalogue}

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "host": host,
              "setup_samples_s": runner.setup_s, "rates": runner.rates,
              "cli_ms": runner.cli_ms,
              "harness_call_ms": runner.harness_call_ms,
              "harness_overhead_ms": runner.harness_overhead_ms,
              "reference_op_s": [s for _, s in runner.host_ops],
              "start_refs_s": runner.start_refs, "fork_refs_s": runner.fork_refs,
              "host_ops_per_s": runner.host_ops_per_s(),
              "measured": None if args.trace else runner.measured(),
              "slowdowns": None if args.trace else runner.slowdowns(), **result}
    if args.trace:
        record["spans"] = {"loop": loop.dump(), "cli_pairs": pairs.dump()}
    out = Path(args.out) if args.out else root / "bench" / "out" / (
        f"{args.workload}-{args.seed}-{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} operations, {runner.failed} failed "
          f"(error_rate {runner.failed / runner.attempted:.4g})")
    print(f"host: {host['available_processors']} processors, start method {host['start_method']}, "
          f"S(2) of a parallel spin {host['parallel_s2']:.3f} (IQR {host['parallel_s2_iqr']:.3f}), "
          f"reference {runner.host_ops_per_s():.4g} op/s (nominal {NOMINAL['ops_per_s']:g})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
