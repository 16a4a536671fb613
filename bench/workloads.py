"""Seeded inputs and operation mixes for the benchmark workloads.

Every workload runs the same five operation families, so every metric is
measured on every workload; what differs is the input shape and the
share of the run each family gets:

* ``cli``: one ``python -m alphaeff`` subprocess per operation;
* ``analyze``: text -> parse_measurements -> analyze -> emit_reports
  (table, csv, json) -> emit_plot_data, for a CSV and a JSON copy of the
  same series, plus one bundled fixture through load_fixture;
* ``simulate``: parse_scenario, then simulate with round-robin and lpt;
* ``surface``: one sweep_surface grid;
* ``harness``: one zero-work run_synthetic call at k = 1 and k = nproc.

Inputs come only from the seed: the same seed gives the same inputs.

Run ``python3 bench/workloads.py`` from the repository root to print the
digests of the seed-independent desk invocations; ``bench/pinned.json``
holds them as produced by the first benchmarked commit, so any change to
those outputs' bytes is reported as a failure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FAMILIES = ("cli", "analyze", "simulate", "surface", "harness")
WORKLOADS = ("desk", "bulk-wide", "bulk-long", "harness-spawn")
PINNED = Path(__file__).with_name("pinned.json")


@dataclass
class Invocation:
    key: str
    argv: list[str]
    stdin: str | None = None
    code: int = 0
    # "exact": stdout must equal the in-process cli.main output (and the
    # pinned digest, where one exists); "series": stdout must parse as a
    # harness wall-time series.
    check: str = "exact"

    @property
    def sub(self) -> str:
        return self.argv[0]


@dataclass
class MeasurementSet:
    csv: str
    json: str
    rows: int


@dataclass
class Scenario:
    key: str
    k: int
    text: str | None = None
    bundled: str | None = None


@dataclass
class SurfaceSpec:
    seq_range: tuple[float, float]
    overhead_range: tuple[float, float]
    steps: int
    k: int
    chunk: float


@dataclass
class Plan:
    name: str
    shares: dict[str, float]
    invocations: list[Invocation]
    measurement_sets: list[MeasurementSet]
    fixture_ids: tuple[str, ...]
    scenarios: list[Scenario]
    surfaces: list[SurfaceSpec]
    harness_k: tuple[int, ...]
    growth_points: int
    growth_chunks: int
    growth_k: int


def gen_series(rng: random.Random, n_labels: int, ks, prefix: str):
    """Scaling series near Amdahl curves, as (label, kind, [(k, value)])."""
    out = []
    for i in range(n_labels):
        kind = rng.choice(("time", "speedup", "efficiency"))
        alpha = rng.uniform(0.5, 0.999)
        t1 = rng.uniform(1.0, 1000.0)
        points = []
        for k in ks:
            s = 1.0 if k == 1 else rng.uniform(0.85, 1.05) / ((1.0 - alpha) + alpha / k)
            points.append((k, t1 / s if kind == "time" else s if kind == "speedup" else s / k))
        out.append((f"{prefix}{i}", kind, points))
    return out


def measurement_set(series) -> MeasurementSet:
    lines = ["# generated scaling series", "label,k,value,kind"]
    for label, kind, points in series:
        lines.extend(f"{label},{k},{v!r},{kind}" for k, v in points)
    doc = {"series": [
        {"label": label, "kind": kind, "baseline_k": 1,
         "points": [{"k": k, "value": v} for k, v in points]}
        for label, kind, points in series
    ]}
    return MeasurementSet("\n".join(lines) + "\n", json.dumps(doc),
                          sum(len(p) for _, _, p in series))


def gen_scenario(rng: random.Random, n_chunks: int) -> str:
    """Scenario JSON: serial head and tail, chunks with rounded (often tied)
    durations and a control segment every ten chunks."""
    segs = [{"kind": "S", "duration": rng.uniform(0.5, 2.0)}]
    for i in range(n_chunks):
        if i % 10 == 0:
            segs.append({"kind": "C", "duration": rng.uniform(0.0, 0.05)})
        segs.append({"kind": "P", "duration": round(rng.uniform(0.01, 1.0), 2)})
    segs.append({"kind": "S", "duration": rng.uniform(0.1, 0.5)})
    return json.dumps({"segments": segs})


def gen_surface(rng: random.Random, steps: int) -> SurfaceSpec:
    return SurfaceSpec((0.0, rng.uniform(0.5, 1.0)), (0.0, rng.uniform(0.3, 0.8)), steps,
                       rng.choice((2, 3, 4, 8)), rng.uniform(0.1, 0.5))


def bench_invocations(nproc: int) -> list[Invocation]:
    ks = f"1,{nproc}"
    base = ["bench", "--alpha", "1", "--total-ms", "1", "--k", ks, "--reps", "1"]
    return [Invocation("bench-csv", base, check="series"),
            Invocation("bench-json", base + ["--format", "json"], check="series")]


def desk_invocations(rng: random.Random, tag: int, small: MeasurementSet,
                     scenario: str) -> list[Invocation]:
    """What a user types: every subcommand but bench, on bundled and small
    seeded inputs, plus one malformed input (exit 2) and one missing file
    (exit 1)."""
    label = f"job{rng.randrange(1000)}"
    return [
        Invocation("analyze-linpack-fit", ["analyze", "fixtures://linpack_architectures", "--fit"]),
        Invocation("analyze-audio-plot", ["analyze", "fixtures://audio_radar", "--plot", "efficiency"]),
        Invocation("analyze-algorithms-json", ["analyze", "fixtures://algorithms_scaling", "--format", "json"]),
        Invocation("analyze-algorithms-csv-plot", ["analyze", "fixtures://algorithms_scaling", "--format",
                                                   "csv", "--plot", "serial-fraction"]),
        Invocation("analyze-stdin-csv", ["analyze", "-", "--fit", "--plot", "serial-fraction"], small.csv),
        Invocation("analyze-stdin-json", ["analyze", "-", "--format", "json"], small.json),
        Invocation("simulate-realistic-rr", ["simulate", "fixtures://realistic", "--k", "3"]),
        Invocation("simulate-classic-lpt-json", ["simulate", "fixtures://classic", "--k", "3", "--policy",
                                                 "lpt", "--format", "json"]),
        Invocation("simulate-stdin-lpt", ["simulate", "-", "--k", "4", "--policy", "lpt"], scenario),
        Invocation("simulate-stdin-rr-json", ["simulate", "-", "--k", "4", "--format", "json"], scenario),
        Invocation("surface-default", ["surface", "--k", "3", "--chunk", "0.25"]),
        Invocation("surface-json", ["surface", "--k", "4", "--steps", "21", "--format", "json"]),
        Invocation("fixtures-list", ["fixtures", "list"]),
        Invocation("fixtures-show", ["fixtures", "show", "soc_rosenbrock"]),
        Invocation("fixtures-export-json", ["fixtures", "export", "audio_radar", "--format", "json"]),
        Invocation("analyze-malformed", ["analyze", "-"],
                   f"label,k,value,kind\n{label},1,10.0,time\n{label},two,5.0,time\n", code=2),
        Invocation("analyze-missing-file", ["analyze", f"bench/no-such-input-{tag}.csv"], code=1),
    ]


def stdin_invocations(prefix: str, ms: MeasurementSet, scenario: str, k: int) -> list[Invocation]:
    return [
        Invocation(f"{prefix}-analyze-csv", ["analyze", "-", "--fit"], ms.csv),
        Invocation(f"{prefix}-analyze-json", ["analyze", "-", "--format", "csv"], ms.json),
        Invocation(f"{prefix}-simulate-lpt", ["simulate", "-", "--k", str(k), "--policy", "lpt"], scenario),
        Invocation(f"{prefix}-simulate-rr-json", ["simulate", "-", "--k", str(k), "--format", "json"],
                   scenario),
    ]


def pair_invocations(plan: "Plan") -> list[Invocation]:
    """One successful invocation per subcommand, the workload's own where it
    has one, else a seed-independent desk command."""
    fallback = desk_invocations(random.Random(0), 0, plan.measurement_sets[0], "{}")
    pool = plan.invocations + fallback + bench_invocations(plan.harness_k[-1])
    return [next(i for i in pool if i.sub == sub and i.code == 0)
            for sub in ("analyze", "simulate", "surface", "fixtures", "bench")]


def build(name: str, seed: int, nproc: int, tiny: bool = False) -> Plan:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (expected one of {', '.join(WORKLOADS)})")
    rng = random.Random(f"{name}:{seed}")
    harness_k = (1, nproc) if nproc > 1 else (1,)
    fixtures = ("audio_radar", "linpack_architectures", "algorithms_scaling",
                "soc_rosenbrock", "soc_rastrigin")
    growth = dict(growth_points=100 if tiny else 1000, growth_chunks=500 if tiny else 10_000,
                  growth_k=8 if tiny else 256)

    if name == "desk":
        # Fixed shapes, seeded values: the seed must not change the work per operation.
        small = [measurement_set(gen_series(rng, 4, (1, 2, 4, 8, 16), f"run{j}-")) for j in range(4)]
        scenario = gen_scenario(rng, 12)
        scenarios = [Scenario("classic", 3, bundled="classic"),
                     Scenario("realistic", 3, bundled="realistic"),
                     Scenario("seeded", 4, text=scenario)]
        return Plan(name, {"cli": 0.74, "analyze": 0.05, "simulate": 0.03, "surface": 0.03,
                           "harness": 0.15},
                    desk_invocations(rng, seed, small[0], scenario), small, fixtures, scenarios,
                    [SurfaceSpec((0.0, 0.8), (0.0, 0.6), 11, 3, 0.25)], harness_k, **growth)

    if name == "bulk-wide":
        # 1,000 labels x 8 points: the 8,000 rows of bulk-long's 4 x 2,000.
        labels, timelines, steps = (40, 10, 30) if tiny else (1000, 200, 300)
        ks = (1, 2, 3, 4, 6, 8, 12, 16)
        # One operation takes one slice of 250 labels (tiny: 10), so a run
        # has enough operations for a steady trimmed rate.
        per_op = 10 if tiny else 250
        big = [measurement_set(gen_series(rng, per_op, ks, f"w{j}-")) for j in range(labels // per_op)]
        scen = [Scenario(f"t{i}", 8, text=gen_scenario(rng, 50)) for i in range(timelines)]
        cli_set = measurement_set(gen_series(rng, 10 if tiny else 100, ks, "c"))
        return Plan(name, {"cli": 0.3, "analyze": 0.32, "simulate": 0.1, "surface": 0.16,
                           "harness": 0.12},
                    stdin_invocations("wide", cli_set, scen[0].text, 8), big, fixtures, scen,
                    [gen_surface(rng, steps)], harness_k, **growth)

    if name == "bulk-long":
        labels, points, chunks, k, steps = (2, 100, 500, 16, 20) if tiny else (4, 2000, 25_000, 256, 100)
        # One operation takes one long series, or one of four long timelines.
        big = [measurement_set(gen_series(rng, 1, range(1, points + 1), f"L{j}-")) for j in range(labels)]
        scen = [Scenario(f"long{j}", k, text=gen_scenario(rng, chunks)) for j in range(4)]
        cli_set = measurement_set(gen_series(rng, 2, range(1, (50 if tiny else 400) + 1), "c"))
        cli_scenario = gen_scenario(rng, 200 if tiny else 5000)
        return Plan(name, {"cli": 0.3, "analyze": 0.28, "simulate": 0.2, "surface": 0.07,
                           "harness": 0.15},
                    stdin_invocations("long", cli_set, cli_scenario, k), big, fixtures, scen,
                    [gen_surface(rng, steps)], harness_k, **growth)

    # harness-spawn: the measurement harness itself, with zero work.
    small = [measurement_set(gen_series(rng, 2, (1, 2), f"h{j}-")) for j in range(4)]
    return Plan(name, {"cli": 0.2, "analyze": 0.04, "simulate": 0.05, "surface": 0.05,
                       "harness": 0.66},
                bench_invocations(nproc), small, fixtures,
                [Scenario("plan", 2, text=gen_scenario(rng, 2))],
                [SurfaceSpec((0.0, 0.8), (0.0, 0.6), 11, 2, 0.25)], harness_k, **growth)


def pinned_digests() -> dict[str, str]:
    return json.loads(PINNED.read_text())["digests"]


SEED_INDEPENDENT = ("analyze-linpack-fit", "analyze-audio-plot", "analyze-algorithms-json",
                    "analyze-algorithms-csv-plot", "simulate-realistic-rr",
                    "simulate-classic-lpt-json", "surface-default", "surface-json",
                    "fixtures-list", "fixtures-show", "fixtures-export-json")


if __name__ == "__main__":
    import hashlib
    import sys

    sys.path.insert(0, "src")
    from run import run_main

    plan = build("desk", 0, 2)
    digests = {}
    for inv in plan.invocations:
        if inv.key in SEED_INDEPENDENT:
            code, out, _ = run_main(inv.argv, inv.stdin)
            if code != 0:
                sys.exit(f"{inv.key} exited with {code}")
            digests[inv.key] = hashlib.sha256(out.encode()).hexdigest()
    print(json.dumps({"digests": digests}, indent=2, sort_keys=True))
