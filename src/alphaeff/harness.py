"""Synthetic scaling measurements on the local host.

Runs a busy-spin workload with a configurable parallelizable fraction
across worker counts and reports wall times as a standard measurement
series.  Work is pure integer arithmetic (never sleep), so concurrent
workers genuinely contend for cores; workers are separate processes, so
the interpreter lock does not serialize them.

Per measured k the harness first forks (and pins) the k workers and
waits until each is parked on the release pipe; the clock starts only
then.  Timed are the serial share, each chunk's control overhead, spun
serially, and the release: closing the pipe's write end starts every
worker together, mirroring the model where control serializes and
chunks then run concurrently.  The clock stops when the last chunk
ends, which each worker signals by closing its end of a "done" pipe, so
T(k) holds serial, control and release-until-the-last-chunk-ends, and
leaves out the process lifecycle (fork, pin, park, exit, reap), which
the model does not have.  Workers always start by ``os.fork`` (the
harness is POSIX-only) and the parent only reads to end-of-file and
reaps, so a worker that dies early cannot stall it: the kernel closes a
dead worker's pipe ends.  Reported time per k is the minimum across
repetitions, the usual noise-suppressing choice for wall times.

Repetitions are interleaved across k (the first repetition of every k,
then the second, ...), so a slow drift in host speed touches every k
alike instead of biasing T(1) against T(k).  When k does not exceed the
processors this process may use, worker i is pinned to the i-th of
them, so that k workers never share a processor while another idles;
oversubscribed runs, and platforms without ``sched_setaffinity``, leave
placement to the operating system.  No k may exceed four times the
available processors, which bounds the processes a repetition forks.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, replace

from .dataio import MeasurementSeries, ValueKind, _load_json
from .metrics import _is_count, _is_number
from .timeline import SegmentKind, Timeline, control, parallel_chunk, sequential

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

# The hard cap on k, as a multiple of the available processors.
_MAX_OVERSUBSCRIPTION = 4

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
    Raises ValueError for a non-positive target, one too close to the
    timer's resolution to measure, or one the probe shows would need
    more than 2**53 units, before any spin at the target size.
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
    estimate = units * target_duration / elapsed
    if not estimate <= 2**53:
        raise ValueError(f"target {target_duration:g}s needs more than 2**53 spin units on this host")
    estimate = max(1, round(estimate))
    elapsed = min(_timed_spin(estimate) for _ in range(3))
    return max(1, round(estimate * target_duration / elapsed))


@dataclass(frozen=True)
class SyntheticWorkload:
    """A synthetic run plan: how much work, how parallel, at which k.

    ``total_work`` is in spin units (see :func:`calibrate`), at most
    2**53, the counts a plan's floats hold exactly (years of spinning);
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
        if not (_is_number(self.alpha_target) and 0.0 <= self.alpha_target <= 1.0):
            raise ValueError(f"alpha_target must lie in [0, 1], got {self.alpha_target!r}")
        object.__setattr__(self, "alpha_target", float(self.alpha_target))
        if not (_is_count(self.total_work) and self.total_work <= 2**53):
            raise ValueError(f"total_work must be an integer in [1, 2**53], got {self.total_work!r}")
        # As total_work <= 2**53, this keeps every control count finite.
        if not (_is_number(self.overhead_fraction) and 0.0 <= self.overhead_fraction
                and math.isfinite(float(self.overhead_fraction) * 2**53)):
            raise ValueError(f"overhead_fraction must be >= 0 and finite times 2**53, got {self.overhead_fraction!r}")
        object.__setattr__(self, "overhead_fraction", float(self.overhead_fraction))
        ks = list(self.k_list)
        if not ks:
            raise ValueError("k_list must not be empty")
        for k in ks:
            if not _is_count(k):
                raise ValueError(f"k values must be integers >= 1, got {k!r}")
        if 1 not in ks:
            ks.append(1)
        object.__setattr__(self, "k_list", tuple(sorted(set(ks))))
        if not _is_count(self.repetitions):
            raise ValueError(f"repetitions must be an integer >= 1, got {self.repetitions!r}")

    @property
    def label(self) -> str:
        return f"synthetic-a{self.alpha_target:g}-o{self.overhead_fraction:g}"

    def plan(self, k: int) -> Timeline:
        """The run at k in spin units, in run order: serial, each chunk's control, the k chunks."""
        # (1 - alpha) <= 1 and total_work is an exact float, so this lies in [0, total_work].
        serial_units = round((1.0 - self.alpha_target) * self.total_work)
        base, remainder = divmod(self.total_work - serial_units, k)
        chunk_units = [base + (1 if i < remainder else 0) for i in range(k)]
        return Timeline((sequential(serial_units),
                         *(control(round(self.overhead_fraction * c)) for c in chunk_units),
                         *map(parallel_chunk, chunk_units)))


def _worker(units: int, release: int) -> None:
    os.read(release, 1)  # EOF once the parent closes the write end
    _spin(units)


def _placement(k: int) -> list[int] | None:
    """One distinct processor per worker, or None to leave placement to the OS."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[:k] if k <= len(cpus) else None


def _close(fds: list[int], fd: int) -> None:
    """Close ``fd`` and drop it from ``fds``, the descriptors still open."""
    fds.remove(fd)
    os.close(fd)


def _measure_once(plan: Timeline) -> float:
    spins = [int(s.duration) for s in plan.segments if s.kind is not SegmentKind.PARALLEL_CHUNK]
    chunk_units = [int(d) for d in plan.chunk_durations]
    cpus = _placement(len(chunk_units))
    fds = []
    pids = []
    try:
        for _ in range(3):
            fds.extend(os.pipe())
        release_r, release_w, parked_r, parked_w, done_r, done_w = fds

        # Untimed: fork and pin every worker, then wait until all are parked.
        # The park and reap phases are read from time.monotonic, so that
        # perf_counter brackets the measured interval alone.
        park_start = time.monotonic()
        try:
            for i, units in enumerate(chunk_units):
                pid = os.fork()
                if pid == 0:  # the worker, which never returns into the caller
                    code = 1
                    try:
                        for fd in (release_w, parked_r, done_r, parked_w):
                            os.close(fd)  # parked_w last: this worker is parked
                        _worker(units, release_r)
                        os.close(done_w)  # its chunk has ended
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
                if cpus is not None:
                    os.sched_setaffinity(pid, {cpus[i]})
        except OSError as exc:
            raise RuntimeError(f"worker spawn failed: {exc}")
        _close(fds, parked_w)
        _close(fds, done_w)
        os.read(parked_r, 1)  # EOF once every worker is parked
        parked = time.monotonic() - park_start

        t0 = time.perf_counter()
        checksum = 0
        for units in spins:
            checksum ^= _spin(units)
        _close(fds, release_w)
        os.read(done_r, 1)  # EOF once every chunk has ended or its worker died
        elapsed = time.perf_counter() - t0
    finally:
        # Release and reap every started worker, also after a failed spawn.
        reap_start = time.monotonic()
        for fd in fds:
            os.close(fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        reaped = time.monotonic() - reap_start

    for code in codes:
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
    logger.debug("measured %.6fs, untimed park %.6fs and reap %.6fs (checksum %016x)",
                 elapsed, parked, reaped, checksum)
    return elapsed


def _check_cap(k_list) -> None:
    """Reject a k above ``_MAX_OVERSUBSCRIPTION`` times the available processors."""
    n = available_processors()
    too_big = [k for k in k_list if k > _MAX_OVERSUBSCRIPTION * n]
    if too_big:
        raise ValueError(
            f"k={max(too_big)} exceeds the hard cap of {_MAX_OVERSUBSCRIPTION * n} "
            f"({_MAX_OVERSUBSCRIPTION} x {n} available processors)"
        )


def run_synthetic(workload: SyntheticWorkload) -> MeasurementSeries:
    """Execute the workload and return its wall-time series.

    Every k in the plan spawns exactly k worker processes; k may exceed
    the available processors (oversubscription shows the degradation
    nicely) but not four times their count, a hard cap that raises
    ValueError before any worker starts.  Each T(k) is the serial and
    control spins plus the release until the last chunk ends; forking,
    pinning and parking the workers happen before the clock starts, and
    their exit and reaping after it stops.  Repetitions run interleaved
    across k; see the module docstring for that and for pinning.
    """
    _check_cap(workload.k_list)
    plans = {k: workload.plan(k) for k in workload.k_list}
    best = dict.fromkeys(workload.k_list, math.inf)
    for _ in range(workload.repetitions):
        for k, plan in plans.items():
            best[k] = min(best[k], _measure_once(plan))
    return MeasurementSeries(workload.label, tuple(best.items()), ValueKind.WALL_TIME)


# Workload spec keys and the SyntheticWorkload fields they set; absent
# keys take the field defaults.
_SPEC_FIELDS = {
    "alpha": "alpha_target",
    "overhead": "overhead_fraction",
    "k_list": "k_list",
    "reps": "repetitions",
}


def workload_from_spec(source) -> SyntheticWorkload:
    """Build a runnable workload from its JSON description.

    Schema: {"alpha": fraction, "total_ms": milliseconds, "overhead"?:
    fraction, "k_list"?: [counts], "reps"?: count}.  ``total_ms`` is
    converted to spin units by calibrating on this host, which spins
    three times at the target size; every field, ``total_ms`` being
    positive and finite, and the hard cap on k (see :func:`run_synthetic`)
    are checked first.
    """
    if hasattr(source, "read") or isinstance(source, (str, bytes)):
        doc = _load_json(source, "workload JSON")
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError("workload spec must be a JSON object")
    unknown = set(doc) - {"total_ms", *_SPEC_FIELDS}
    if unknown:
        raise ValueError(f"unknown workload key(s): {', '.join(sorted(unknown))}")
    for key in ("alpha", "total_ms"):
        if key not in doc:
            raise ValueError(f"workload spec missing key {key!r}")
    total_ms = doc["total_ms"]
    if not _is_number(total_ms):
        raise ValueError("total_ms must be a number")
    if "k_list" in doc and not isinstance(doc["k_list"], list):
        raise ValueError("k_list must be a list of integers")
    fields = {field: doc[key] for key, field in _SPEC_FIELDS.items() if key in doc}
    workload = SyntheticWorkload(total_work=1, **fields)
    if not 0.0 < total_ms < math.inf:
        raise ValueError(f"total_ms must be positive and finite, got {total_ms!r}")
    _check_cap(workload.k_list)
    return replace(workload, total_work=calibrate(total_ms / 1000.0))
