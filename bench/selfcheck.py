"""Quick self-check of the benchmark at tiny sizes.

Run from the repository root::

    python3 bench/selfcheck.py

For every workload it runs ``bench/run.py --tiny`` untraced and traced
and checks that the last line is the result object, that no operation
failed, and that every metric the benchmark promises is emitted with a
unit, both the ones listed in BENCHMARK.json and the ones named below.
It then checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and ``bench/``.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = ["setup_s", "cli_p50_ms", "cli_p90_ms", "analyze_rows_per_s",
              "simulate_chunks_per_s", "surface_cells_per_s", "harness_overhead_ms"]
PER_LAYER = (
    ["import.interpreter_s", "import.numpy_s", "import.alphaeff_s", "cli.bench.wall_ms",
     "error_rate", "dataio.analyze.busy_s", "metrics.fit_alpha.busy_s",
     "metrics.MetricRow.from_speedup.busy_s", "dataio.emit_plot_data.busy_s",
     "dataio.load_fixture.busy_s", "dataio.parse_scenario.busy_s", "timeline.Timeline.busy_s",
     "timeline.sweep_surface.busy_s", "timeline.sweep_surface.cells",
     "harness.calibrate.busy_s", "harness.run_synthetic.busy_s", "harness.processes_spawned",
     "harness.call_p50_ms", "harness.call_p90_ms",
     "dataio.parse_measurements.csv.growth", "timeline.simulate.lpt.growth",
     "harness.alpha_eff_error", "harness.alpha_eff_error_spread",
     "trace.overhead_s", "trace.overhead_share"]
    + [f"cli.{s}.{m}" for s in ("analyze", "simulate", "surface", "fixtures")
       for m in ("wall_ms", "main_s")]
    + [f"dataio.parse_measurements.{f}.{m}" for f in ("csv", "json") for m in ("busy_s", "rows")]
    + [f"dataio.emit_reports.{f}.{m}" for f in ("table", "csv", "json") for m in ("busy_s", "bytes")]
    + [f"timeline.simulate.{p}.{m}" for p in ("round-robin", "lpt") for m in ("busy_s", "chunks")]
    + [f"{layer}.self_s" for layer in ("cli", "dataio", "metrics", "timeline", "harness")]
    + [f"{layer}.failed" for layer in ("cli", "dataio", "timeline", "harness")]
)


def run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    named = {0: END_TO_END, 1: PER_LAYER}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            where = f"{w} trace {trace}"
            proc = run(["--workload", w, "--seed", "7", "--seconds", "1", "--trace", str(trace),
                        "--tiny", "--out", f"bench/out/selfcheck/{w}-{trace}.json"], ROOT)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}\n"
                                f"{proc.stderr}")
            got = result["metrics"]
            if set(got) != set(declared[trace]):
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(declared[trace]))}")
            for name in set(named[trace]) | set(declared[trace]):
                m = got.get(name)
                if m is None or not m.get("unit"):
                    problems.append(f"{where}: {name} missing or without a unit")
                elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
                    problems.append(f"{where}: {name} = {m['value']!r}")
                elif name in declared[trace] and m["unit"] != declared[trace][name]:
                    problems.append(f"{where}: {name} unit {m['unit']!r}")
                elif trace == 0 and m["value"] <= 0:
                    problems.append(f"{where}: end-to-end {name} is {m['value']}")
            if trace == 1 and got.get("error_rate", {}).get("value") != 0:
                problems.append(f"{where}: error_rate {got.get('error_rate')}")

    bare = ROOT / "bench" / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(["--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"without src/ the benchmark exited {proc.returncode}: {proc.stdout}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
