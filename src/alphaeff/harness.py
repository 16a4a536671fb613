"""Synthetic scaling measurements on the local host.

Runs a busy-spin workload with a configurable parallelizable fraction
across worker counts and reports wall times as a standard measurement
series.  Work is pure integer arithmetic (never sleep), so concurrent
workers genuinely contend for cores; workers are separate processes, so
the interpreter lock does not serialize them.

Per measured k the harness executes the serial share, then for each of
the k chunks spins the chunk's control overhead serially and forks its
worker.  Every worker waits on one pipe; closing its write end once the
control work is done releases them all together, mirroring the model
where control serializes and chunks then run concurrently.  Workers
always start by ``os.fork`` (the harness is POSIX-only) and the parent
only reaps them, so a worker that dies early cannot stall it.  Reported
time per k is the minimum across repetitions, the usual
noise-suppressing choice for wall times.

Repetitions are interleaved across k (the first repetition of every k,
then the second, ...), so a slow drift in host speed touches every k
alike instead of biasing T(1) against T(k).  When k does not exceed the
processors this process may use, worker i is pinned to the i-th of
them, so that k workers never share a processor while another idles;
oversubscribed runs, and platforms without ``sched_setaffinity``, leave
placement to the operating system.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass

from .dataio import MeasurementSeries, ValueKind

__all__ = [
    "AMDAHL_OVERHEAD_RANGE",
    "SyntheticWorkload",
    "available_processors",
    "calibrate",
    "run_synthetic",
    "workload_from_spec",
]

logger = logging.getLogger(__name__)

# Housekeeping overhead range Amdahl estimated for the machines of his
# day ("20% to 40%").  A documented preset for experiments, nothing
# more; the harness default is overhead-free.
AMDAHL_OVERHEAD_RANGE = (0.20, 0.40)

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


def _spin(units: int) -> int:
    """Busy-work kernel: `units` steps of a 64-bit linear congruential walk.

    Returns the final accumulator.  The parent logs its own as a
    checksum; a worker exits 0 only after its spin has returned.
    """
    acc = 0x9E3779B97F4A7C15
    for _ in range(units):
        acc = (acc * _LCG_MULT + _LCG_INC) & _MASK64
    return acc


def _timed_spin(units: int) -> float:
    t0 = time.perf_counter()
    acc = _spin(units)
    elapsed = time.perf_counter() - t0
    logger.debug("spin %d units -> %.6fs (acc %016x)", units, elapsed, acc)
    return elapsed


def available_processors() -> int:
    """Processors usable by this process (affinity-aware where supported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def calibrate(target_duration: float) -> int:
    """Find a spin-unit count that runs for about ``target_duration`` seconds.

    Probes the host's spin rate, then refines from the fastest of three
    spins at the target size, the statistic the harness reports.
    The result is approximate by nature (scheduler noise, frequency
    scaling); expect the achieved time within roughly 20% of the target.
    Raises ValueError for a non-positive target or one too close to the
    timer's resolution to measure.
    """
    target_duration = float(target_duration)
    if not (math.isfinite(target_duration) and target_duration > 0.0):
        raise ValueError(f"target_duration must be positive, got {target_duration}")
    resolution = time.get_clock_info("perf_counter").resolution or 1e-9
    if target_duration < 100.0 * resolution:
        raise ValueError(
            f"timer resolution ({resolution:g}s) too coarse for target {target_duration:g}s"
        )

    units = 200_000
    while True:
        elapsed = _timed_spin(units)
        # Keep growing the probe until it is comfortably measurable.
        if elapsed >= max(0.005, 1000.0 * resolution):
            break
        units *= 4
    estimate = max(1, round(units * target_duration / elapsed))
    elapsed = min(_timed_spin(estimate) for _ in range(3))
    return max(1, round(estimate * target_duration / elapsed))


def _float_or_nan(value) -> float:
    """``float(value)``, or nan (which every range check rejects) for a non-number."""
    try:
        return float(value)
    except TypeError:
        return math.nan


@dataclass(frozen=True)
class SyntheticWorkload:
    """A synthetic run plan: how much work, how parallel, at which k.

    ``total_work`` is in spin units (see :func:`calibrate`);
    ``alpha_target`` of it is parallelizable.  Each parallel chunk costs
    an extra ``overhead_fraction`` of its own size in serial control
    work.  ``k_list`` always contains the k=1 baseline (added if
    absent); the reported time per k is the minimum over
    ``repetitions`` runs.
    """

    alpha_target: float
    total_work: int
    overhead_fraction: float = 0.0
    k_list: tuple[int, ...] = (1, 2, 4)
    repetitions: int = 3

    def __post_init__(self):
        alpha = _float_or_nan(self.alpha_target)
        if not (math.isfinite(alpha) and 0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha_target must lie in [0, 1], got {self.alpha_target!r}")
        object.__setattr__(self, "alpha_target", alpha)
        if not isinstance(self.total_work, int) or self.total_work < 1:
            raise ValueError(f"total_work must be a positive integer, got {self.total_work!r}")
        overhead = _float_or_nan(self.overhead_fraction)
        if not (math.isfinite(overhead) and overhead >= 0.0):
            raise ValueError(f"overhead_fraction must be >= 0, got {self.overhead_fraction!r}")
        object.__setattr__(self, "overhead_fraction", overhead)
        ks = list(self.k_list)
        if not ks:
            raise ValueError("k_list must not be empty")
        for k in ks:
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"k values must be integers >= 1, got {k!r}")
        if 1 not in ks:
            ks.append(1)
        object.__setattr__(self, "k_list", tuple(sorted(set(ks))))
        if not isinstance(self.repetitions, int) or self.repetitions < 1:
            raise ValueError(f"repetitions must be an integer >= 1, got {self.repetitions!r}")

    @property
    def label(self) -> str:
        return f"synthetic-a{self.alpha_target:g}-o{self.overhead_fraction:g}"


def _split_chunks(workload: SyntheticWorkload, k: int) -> tuple[int, list[int], list[int]]:
    serial_units = round((1.0 - workload.alpha_target) * workload.total_work)
    serial_units = min(workload.total_work, max(0, serial_units))
    parallel_units = workload.total_work - serial_units
    base, remainder = divmod(parallel_units, k)
    chunk_units = [base + (1 if i < remainder else 0) for i in range(k)]
    control_units = [round(workload.overhead_fraction * c) for c in chunk_units]
    return serial_units, chunk_units, control_units


def _worker(units: int, release: int) -> None:
    os.read(release, 1)  # EOF once the parent closes the write end
    _spin(units)


def _placement(k: int) -> list[int] | None:
    """One distinct processor per worker, or None to leave placement to the OS."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:k] if k <= len(cpus) else None


def _measure_once(serial_units: int, chunk_units: list[int], control_units: list[int]) -> float:
    cpus = _placement(len(chunk_units))
    release_r, release_w = os.pipe()
    pids = []

    t0 = time.perf_counter()
    checksum = _spin(serial_units)
    try:
        for i, (units, ctl) in enumerate(zip(chunk_units, control_units)):
            checksum ^= _spin(ctl)
            pid = os.fork()
            if pid == 0:  # the worker, which never returns into the caller
                code = 1
                try:
                    os.close(release_w)
                    _worker(units, release_r)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            if cpus is not None:
                os.sched_setaffinity(pid, {cpus[i]})
    except OSError as exc:
        raise RuntimeError(f"worker spawn failed: {exc}")
    finally:
        # Release and reap every started worker, also after a failed spawn.
        os.close(release_w)
        os.close(release_r)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    elapsed = time.perf_counter() - t0

    for code in codes:
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
    logger.debug("measured %.6fs (checksum %016x)", elapsed, checksum)
    return elapsed


def run_synthetic(
    workload: SyntheticWorkload, max_oversubscription: int = 4
) -> MeasurementSeries:
    """Execute the workload and return its wall-time series.

    Every k in the plan spawns exactly k worker processes; k may exceed
    the available processors (oversubscription shows the degradation
    nicely) but is capped at ``max_oversubscription`` times the
    available count to keep runs sane.  Repetitions run interleaved
    across k; see the module docstring for that and for pinning.
    """
    cap = max_oversubscription * available_processors()
    too_big = [k for k in workload.k_list if k > cap]
    if too_big:
        raise ValueError(
            f"k={max(too_big)} exceeds the hard cap of {cap} "
            f"({max_oversubscription} x {available_processors()} available processors)"
        )

    plans = {k: _split_chunks(workload, k) for k in workload.k_list}
    best = dict.fromkeys(workload.k_list, math.inf)
    for _ in range(workload.repetitions):
        for k, plan in plans.items():
            best[k] = min(best[k], _measure_once(*plan))
    return MeasurementSeries(
        label=workload.label,
        points=tuple(best.items()),
        value_kind=ValueKind.WALL_TIME,
        baseline_k=1,
    )


def workload_from_spec(source) -> SyntheticWorkload:
    """Build a workload from its JSON description.

    Schema: {"alpha": fraction, "total_ms": milliseconds, "overhead"?:
    fraction, "k_list"?: [counts], "reps"?: count}.  ``total_ms`` is
    converted to spin units by calibrating on this host.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (str, bytes)):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid workload JSON: {exc}")
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("workload spec must be a JSON object")
    unknown = set(doc) - {"alpha", "total_ms", "overhead", "k_list", "reps"}
    if unknown:
        raise ValueError(f"unknown workload key(s): {', '.join(sorted(unknown))}")
    try:
        alpha = doc["alpha"]
        total_ms = doc["total_ms"]
    except KeyError as exc:
        raise ValueError(f"workload spec missing key {exc.args[0]!r}")
    if not isinstance(total_ms, (int, float)) or isinstance(total_ms, bool):
        raise ValueError("total_ms must be a number")
    k_list = doc.get("k_list", [1, 2, 4])
    if not isinstance(k_list, list):
        raise ValueError("k_list must be a list of integers")
    return SyntheticWorkload(
        alpha_target=alpha,
        total_work=calibrate(total_ms / 1000.0),
        overhead_fraction=doc.get("overhead", 0.0),
        k_list=tuple(k_list),
        repetitions=doc.get("reps", 3),
    )
