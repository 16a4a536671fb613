"""Fixed probes that sit beside the workload mix.

* cold start: fresh interpreters that import alphaeff (``setup_s``) and,
  in the traced run, the ``-X importtime`` split into numpy and alphaeff;
* host provenance: versions, processors, start method, spin rate and the
  speedup of a fully parallel spin on two workers, which tells a noisy
  host apart from a slow program;
* host speed: fixed references that run no alphaeff code (an in-process
  operation, a fresh interpreter importing numpy, a pair of forks),
  interleaved with the workload's operations, to which the end-to-end
  figures are scaled;
* growth exponents: log2 of the time ratio when the input size doubles;
* harness accuracy: |alpha_eff - target| of a small real-work plan.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

clock = time.perf_counter


def median_iqr(values) -> tuple[float, float]:
    """Median and the distance between the first and third quartiles."""
    values = list(values)
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def _wall(argv, env, cwd) -> tuple[float, subprocess.CompletedProcess]:
    t0 = clock()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=120)
    return clock() - t0, proc


def cold_import_seconds(env, cwd, runs: int) -> list[float]:
    """Wall time of fresh interpreters that finish ``import alphaeff``."""
    out = []
    for _ in range(runs):
        dt, proc = _wall([sys.executable, "-c", "import alphaeff"], env, cwd)
        if proc.returncode != 0:
            raise RuntimeError(f"import alphaeff failed: {proc.stderr.decode(errors='replace')}")
        out.append(dt)
    return out


def numpy_start_seconds(env, cwd) -> float:
    """Wall time of a fresh interpreter that imports numpy and no alphaeff
    code: exec, interpreter start, shared-library loads and the BLAS
    threads, the host-side costs of every ``alphaeff`` start."""
    dt, proc = _wall([sys.executable, "-c", "import numpy"], env, cwd)
    if proc.returncode != 0:
        raise RuntimeError(f"import numpy failed: {proc.stderr.decode(errors='replace')}")
    return dt


def fork_pair_seconds() -> float:
    """Wall time of forking this process twice, the children exiting at
    once, and reaping both: the operating system's share of a k=2
    harness measurement."""
    t0 = clock()
    pids = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    return clock() - t0


_REFERENCE_INPUT = [((i * 7919) % 10007) / 97.0 for i in range(250)]


def reference_op() -> float:
    """About a millisecond of fixed work that uses no alphaeff code: format,
    parse, sort and JSON round-trip 250 floats, then sum their squares in
    an interpreted loop, a mix of C and bytecode like the program's own.

    Its speed is the host's speed at that moment; no change to alphaeff
    can move it."""
    text = ",".join(map(repr, _REFERENCE_INPUT))
    values = sorted(float(x) for x in text.split(","))
    total = 0.0
    for v in json.loads(json.dumps({"values": values}))["values"]:
        total += v * v
    return total


def _importtime_cumulative(stderr: str, module: str) -> float:
    best = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            best = max(best, int(parts[1]) / 1e6)
    return best


def import_breakdown(env, cwd, runs: int) -> dict[str, float]:
    """Median interpreter start, numpy import and alphaeff import, in seconds."""
    bare = [_wall([sys.executable, "-c", "pass"], env, cwd)[0] for _ in range(runs)]
    numpy_s, alphaeff_s = [], []
    for _ in range(runs):
        _, proc = _wall([sys.executable, "-X", "importtime", "-c", "import alphaeff"], env, cwd)
        text = proc.stderr.decode(errors="replace")
        numpy_s.append(_importtime_cumulative(text, "numpy"))
        alphaeff_s.append(_importtime_cumulative(text, "alphaeff"))
    return {
        "import.interpreter_s": statistics.median(bare),
        "import.numpy_s": statistics.median(numpy_s),
        "import.alphaeff_s": statistics.median(alphaeff_s),
    }


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in (src / "alphaeff").rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def _version(module: str) -> str | None:
    mod = sys.modules.get(module)
    if mod is not None:
        return getattr(mod, "__version__", None)
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version(module)
    except (ImportError, PackageNotFoundError):
        return None


def host_provenance(root: Path, harness, probe_s: float, runs: int) -> dict:
    """Where and on what the numbers were taken, plus a parallel-capacity probe.

    The probe runs a fully parallel spin of ``probe_s`` seconds through
    the harness at k=1 and k=2; its S(2) near 2 means the host had two
    free cores, near 1 means it did not, whatever the program's speed.
    """
    units = harness.calibrate(probe_s)
    plan = harness.SyntheticWorkload(alpha_target=1.0, total_work=units, k_list=(1, 2),
                                     repetitions=1)
    s2 = []
    for _ in range(runs):
        t = dict(harness.run_synthetic(plan).points)
        s2.append(t[1] / t[2])
    s2_median, s2_iqr = median_iqr(s2)
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "alphaeff": _version("alphaeff"),
        "platform": platform.platform(),
        "available_processors": harness.available_processors(),
        "start_method": multiprocessing.get_context().get_start_method(),
        "spin_units_per_s": units / probe_s,
        "parallel_s2": s2_median,
        "parallel_s2_iqr": s2_iqr,
        "parallel_s2_samples": s2,
    }


def growth(run, small, large, repeats: int) -> float:
    """Median over back-to-back pairs of log2(time at ``large`` / time at ``small``).

    ``large`` is twice ``small``, so 1 means linear and 2 quadratic.
    Each pair runs back to back, so both sizes see the same host speed.
    """
    def timed(size):
        t0 = clock()
        run(size)
        return clock() - t0
    return statistics.median(math.log2(timed(large) / timed(small)) for _ in range(repeats))


def harness_accuracy(harness, metrics, target: float, seconds: float, k: int,
                     runs: int) -> list[float]:
    """|alpha_eff - target| of a small real-work plan, one value per run."""
    plan = harness.SyntheticWorkload(alpha_target=target,
                                     total_work=harness.calibrate(seconds),
                                     k_list=(1, k), repetitions=1)
    errors = []
    for _ in range(runs):
        t = dict(harness.run_synthetic(plan).points)
        errors.append(abs(float(metrics.alpha_eff(t[1] / t[k], k)) - target))
    return errors
