"""Repeat the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 bench/stability.py --runs 10 --seconds 20
    python3 bench/stability.py --runs 10 --record "after heap LPT"

Each run is ``bench/run.py`` in its own process, seeds 1 to ``--runs``, with
the workloads interleaved so slow drift of the host is shared between
them.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median, next to the bound in BENCHMARK.json.
``error_rate`` is failed over attempted operations, summed over the runs.

``--record LABEL`` appends the medians and quartiles, with the host
provenance of the first run, as a point of ``bench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
TRAJECTORY = HERE / "trajectory.json"


def run_once(workload: str, seed: int, seconds: float, trace: int, out: Path) -> tuple[dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    chosen = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in chosen}
    walls = {w: [] for w in chosen}
    outdir = HERE / "out" / "stability"
    for i in range(args.runs):
        seed = i + 1
        for w in chosen:
            result, wall = run_once(w, seed, args.seconds, 0, outdir / f"{w}-{seed}.json")
            results[w].append(result)
            walls[w].append(wall)
            print(f"{w} seed {seed}: {wall:.1f} s, correct={result['correct']}", file=sys.stderr)

    point = {"label": args.record, "run_seconds": args.seconds, "runs": args.runs,
             "workloads": {}}
    print(f"{'workload':14s} {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s} unit")
    for w in chosen:
        runs = results[w]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            rows[name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{w:14s} {name:24s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f} {bounds[name]:6.2f} {s['unit']}{flag}")
        print(f"{w:14s} {'error_rate':24s} {failed / attempted:12.6g} "
              f"({failed} of {attempted} operations failed; run wall "
              f"{statistics.median(walls[w]):.1f} s median, {max(walls[w]):.1f} s max)")
        point["workloads"][w] = {"error_rate": failed / attempted, "metrics": rows}

    if args.record:
        first = json.loads((outdir / f"{chosen[0]}-1.json").read_text())
        point["host"] = first["host"]
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else {"points": []}
        trajectory["points"].append(point)
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
