"""Segment-timeline execution model.

A program is an ordered list of segments: ``Sequential`` work that only
one processor can do, ``ParallelChunk`` work items that can be handed to
any worker, and ``Control`` work (scheduling, distribution, collection)
that serializes execution and is pure overhead — it does not appear in
the one-processor baseline.

The simulator assigns chunks to k workers with a *static* policy, then
reads the makespan off the resulting schedule:

    t_total = all sequential + all control + busiest worker's load

Waiting time is derived, not an input: every worker waits from the end
of its own load until the busiest one finishes.  ``surface`` evaluates
the closed form of alpha_eff for the special case of equal chunks with
proportional per-chunk control overhead, which is handy for sweeping
whole parameter grids.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import cycle, islice
from typing import Sequence, Union

from . import metrics

__all__ = [
    "LPT",
    "ROUND_ROBIN",
    "AssignmentPolicy",
    "ScheduleResult",
    "Segment",
    "SegmentKind",
    "SurfaceGrid",
    "Timeline",
    "control",
    "parallel_chunk",
    "sequential",
    "serial_time",
    "simulate",
    "surface",
    "sweep_surface",
]


class SegmentKind(Enum):
    SEQUENTIAL = "S"
    PARALLEL_CHUNK = "P"
    CONTROL = "C"


@dataclass(frozen=True)
class Segment:
    kind: SegmentKind
    duration: float

    def __post_init__(self):
        if not isinstance(self.kind, SegmentKind):
            raise ValueError(f"kind must be a SegmentKind, got {self.kind!r}")
        if not metrics._is_number(self.duration):
            raise ValueError("duration must be a number")
        d = float(self.duration)
        if not (math.isfinite(d) and d >= 0.0):
            raise ValueError(f"duration must be finite and >= 0, got {d!r}")
        object.__setattr__(self, "duration", d)


def sequential(duration: float) -> Segment:
    return Segment(SegmentKind.SEQUENTIAL, duration)


def parallel_chunk(duration: float) -> Segment:
    return Segment(SegmentKind.PARALLEL_CHUNK, duration)


def control(duration: float) -> Segment:
    return Segment(SegmentKind.CONTROL, duration)


@dataclass(frozen=True)
class Timeline:
    """An ordered, immutable sequence of segments with some work in it.

    Construction is the one walk over the segments: it also groups their
    durations by kind, in timeline order.  The accessors, ``serial_time``
    and ``simulate`` read those groups.  The sums they need are computed
    once, on first use, and cached on the instance; like the groups they
    are not fields.
    """

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValueError("timeline must contain at least one segment")
        durations = {kind: [] for kind in SegmentKind}
        for s in segs:
            durations[s.kind].append(s.duration)
        # Durations are finite and >= 0: the (exactly rounded, so order-free)
        # sum is 0 only without positive work, and raises only past the float range.
        try:
            total = math.fsum([d for group in durations.values() for d in group])
        except OverflowError:
            raise ValueError("timeline durations sum past the float range") from None
        if total == 0.0:
            raise ValueError("timeline must contain at least one positive duration")
        object.__setattr__(self, "segments", segs)
        # Not a field, so repr, ==, hash and replace() see only the segments.
        object.__setattr__(self, "_durations", {k: tuple(g) for k, g in durations.items()})

    @property
    def chunk_durations(self) -> tuple[float, ...]:
        """Durations of the parallel chunks, in timeline order."""
        return self._durations[SegmentKind.PARALLEL_CHUNK]

    @property
    def total_sequential(self) -> float:
        return self._sums[0]

    @property
    def total_control(self) -> float:
        return self._sums[1]

    @cached_property
    def _sums(self) -> tuple[float, float, float]:
        """Sequential, control, and sequential plus chunk durations, each by fsum."""
        # Filled on first use, not at construction.  fsum is exactly rounded,
        # so each sum equals the timeline-order sum.
        seq = self._durations[SegmentKind.SEQUENTIAL]
        return (math.fsum(seq), math.fsum(self._durations[SegmentKind.CONTROL]),
                math.fsum(seq + self._durations[SegmentKind.PARALLEL_CHUNK]))


# Static assignment policies.  ROUND_ROBIN deals chunk i to worker
# i mod k in timeline order; LPT (longest processing time first) sorts
# chunks by descending duration and greedily gives each to the currently
# least-loaded worker, breaking ties toward the lowest worker index.  The
# workers sit in a heap of (load, index) tuples, so tuple order makes that
# tie-break and each pick costs O(log k): LPT runs in O(n log n + n log k).
# An explicit policy is any sequence of worker indices, one per chunk.
ROUND_ROBIN = "round-robin"
LPT = "lpt"

AssignmentPolicy = Union[str, Sequence[int]]


def _assign(chunks: Sequence[float], k: int, policy: AssignmentPolicy) -> list[int]:
    n = len(chunks)
    if isinstance(policy, str):
        if policy == ROUND_ROBIN:
            # O(n) memory: cycle keeps only the indices it has yielded.
            return list(islice(cycle(range(k)), n))
        if policy == LPT:
            # Stable sort keeps timeline order among equal durations.
            order = sorted(range(n), key=chunks.__getitem__, reverse=True)
            # Sorted, hence a valid heap; as loads are >= 0, no worker past n is picked.
            heap = [(0.0, w) for w in range(min(k, n))]
            assignment = [0] * n
            for i in order:
                load, worker = heap[0]
                assignment[i] = worker
                heapq.heapreplace(heap, (load + chunks[i], worker))
            return assignment
        raise ValueError(f"unknown assignment policy {policy!r}")

    assignment = []
    try:
        for w in policy:
            if isinstance(w, bool):
                raise TypeError(f"{w!r} is a bool, not an integer")
            assignment.append(operator.index(w))
    except TypeError as exc:
        raise ValueError(f"explicit policy must be a sequence of worker indices: {exc}")
    if len(assignment) != n:
        raise ValueError(
            f"explicit policy assigns {len(assignment)} chunks, timeline has {n}"
        )
    for w in assignment:
        if not 0 <= w < k:
            raise ValueError(f"worker index {w} out of range for k={k}")
    return assignment


def serial_time(timeline: Timeline) -> float:
    """One-processor baseline: sequential plus chunk work, no control."""
    return timeline._sums[2]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of simulating a timeline on k workers.

    ``per_processor_busy[w]`` is the chunk work assigned to worker w;
    ``per_processor_wait[w]`` is how long w idles at the end while the
    busiest worker finishes.  ``alpha_eff`` is None when it is undefined
    (k = 1, or a degenerate timeline with no baseline work).
    """

    k: int
    t_serial: float
    t_total: float
    speedup: float
    alpha_eff: metrics.EffectiveParallelization | None
    per_processor_busy: tuple[float, ...]
    per_processor_wait: tuple[float, ...]
    assignment: tuple[int, ...]


def simulate(
    timeline: Timeline, k: int, policy: AssignmentPolicy = ROUND_ROBIN
) -> ScheduleResult:
    """Run the static-assignment schedule of ``timeline`` on k workers.

    Sequential and control segments execute one after another on a
    single processor; parallel chunks run on the workers given by
    ``policy``, all starting after the serialized work so the makespan
    is serialized time plus the maximum per-worker load.
    """
    if not metrics._is_count(k):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    chunks = timeline._durations[SegmentKind.PARALLEL_CHUNK]
    assignment = _assign(chunks, k, policy)

    loads = [0.0] * k
    for duration, worker in zip(chunks, assignment):
        loads[worker] += duration

    max_load = max(loads)
    busy = tuple(loads)
    # An idle worker waits max_load itself (max_load - 0.0 has the same
    # bits), so at huge k the idle majority shares one float object.
    wait = tuple(max_load if load == 0.0 else max_load - load for load in loads)

    total_sequential, total_control, t_serial = timeline._sums
    t_total = total_sequential + total_control + max_load
    # t_total > 0 because some segment has positive duration and every
    # kind contributes to it (chunks via some worker's load <= max).
    s = t_serial / t_total
    if k >= 2 and s > 0.0:
        ae = metrics.alpha_eff(s, k)
    else:
        ae = None
    # The generated frozen __init__ sets each field with object.__setattr__;
    # ScheduleResult has no __post_init__, so one __dict__ update in field
    # order builds the same instance in one step.
    result = object.__new__(ScheduleResult)
    result.__dict__.update(
        k=k,
        t_serial=t_serial,
        t_total=t_total,
        speedup=s,
        alpha_eff=ae,
        per_processor_busy=busy,
        per_processor_wait=wait,
        assignment=tuple(assignment),
    )
    return result


def surface(
    seq_time: float,
    overhead_fraction: float,
    k: int,
    chunk_time: float,
) -> metrics.EffectiveParallelization:
    """alpha_eff of the equal-chunk workload, in closed form.

    Models ``seq_time`` of sequential work plus k equal chunks of
    ``chunk_time``, with control overhead proportional to the chunk
    payload length, ``overhead_fraction * chunk_time`` in total:

        t_serial = seq_time + k * chunk_time
        t_total  = seq_time + chunk_time * (1 + overhead_fraction)

    so the result is (k/(k-1)) * (1 - t_total / t_serial).  Equals
    simulate() on the equivalent timeline — Sequential(seq_time), k
    chunks of chunk_time, Control(overhead_fraction * chunk_time) — to
    within rounding.  Large overhead can push the result negative; it
    comes back flagged "slowdown", not clamped.
    """
    seq_time = metrics._check_finite("seq_time", seq_time)
    overhead_fraction = metrics._check_finite("overhead_fraction", overhead_fraction)
    chunk_time = metrics._check_finite("chunk_time", chunk_time)
    if not (metrics._is_count(k) and k >= 2):
        raise ValueError(f"surface needs integer k >= 2, got {k!r}")
    if seq_time < 0.0:
        raise ValueError(f"seq_time must be >= 0, got {seq_time}")
    if overhead_fraction < 0.0:
        raise ValueError(f"overhead_fraction must be >= 0, got {overhead_fraction}")
    if chunk_time <= 0.0:
        raise ValueError(f"chunk_time must be positive, got {chunk_time}")
    t_serial = seq_time + k * chunk_time
    t_total = seq_time + chunk_time * (1.0 + overhead_fraction)
    # On checked inputs the speedup is finite and positive unless t_serial
    # or t_total passed the float range, the one case alpha_eff rejects.
    try:
        return metrics.alpha_eff(t_serial / t_total, k)
    except ValueError:
        raise ValueError(
            f"surface times pass the float range at seq_time={seq_time!r}, "
            f"overhead_fraction={overhead_fraction!r}"
        ) from None


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """alpha_eff sampled on a (sequential time) x (overhead fraction) grid.

    ``alpha[i][j]`` corresponds to ``seq_values[i]`` and
    ``overhead_values[j]``; all three hold plain floats.
    """

    k: int
    chunk_time: float
    seq_values: tuple[float, ...]
    overhead_values: tuple[float, ...]
    alpha: tuple[tuple[float, ...], ...]


# The most cells sweep_surface builds, so steps <= 3,162.  A cell holds 32
# bytes (tracemalloc): 3,162 steps took 1.8 s and a 398 MB peak RSS on a 2-vCPU host.
_MAX_SURFACE_CELLS = 10**7


def _linspace(lo: float, hi: float, n: int) -> tuple[float, ...]:
    # numpy.linspace's own formula, so the axes match it bit for bit,
    # including its branch for a step that underflows to zero.
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0.0:
        inner = (i / (n - 1) * delta + lo for i in range(n - 1))
    else:
        inner = (i * step + lo for i in range(n - 1))
    return (*inner, hi)


def sweep_surface(
    seq_range: tuple[float, float],
    overhead_range: tuple[float, float],
    steps: int,
    k: int,
    chunk_time: float,
) -> SurfaceGrid:
    """Evaluate ``surface`` on an evenly spaced steps x steps grid.

    Both ranges are inclusive (lo, hi) and must be finite and
    non-degenerate (hi > lo), with a width hi - lo that is finite too.
    ``steps`` must lie in [2, 3162], so that the grid holds at most
    ``_MAX_SURFACE_CELLS`` (10**7) cells, before any axis is built.  The
    other inputs are checked once, by ``surface`` at the grid's first cell,
    and every cell is still exactly the corresponding pointwise ``surface`` call.
    """
    seq_lo, seq_hi = (float(v) for v in seq_range)
    ov_lo, ov_hi = (float(v) for v in overhead_range)
    for name, given, lo, hi in (("seq_range", seq_range, seq_lo, seq_hi),
                                ("overhead_range", overhead_range, ov_lo, ov_hi)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} must be finite, got {(lo, hi)!r}")
        if not (hi > lo):
            raise ValueError(f"degenerate {name} {given!r}")
        if hi - lo == math.inf:
            raise ValueError(f"{name} {given!r} is wider than the float range")
    if not (metrics._is_count(steps) and steps >= 2):
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if steps * steps > _MAX_SURFACE_CELLS:
        raise ValueError(f"steps must be at most {math.isqrt(_MAX_SURFACE_CELLS)}, got {steps} "
                         f"(a grid holds at most {_MAX_SURFACE_CELLS:,} cells)")

    seq_values = _linspace(seq_lo, seq_hi, steps)
    overhead_values = _linspace(ov_lo, ov_hi, steps)
    # The one input check: k and chunk_time are the same in every cell, and
    # each axis value lies between its first one and its finite hi, so once
    # the first cell passes no later cell can fail a check.  Only the closed
    # form's own overflow error is left, so a grid still raises the error of
    # its first failing cell.
    surface(seq_values[0], overhead_values[0], k, chunk_time)
    chunk_time = float(chunk_time)
    # Each cell inlines surface's closed form, its float operations in order,
    # so it has the same bits.  A speedup that is not finite and positive (the
    # one case alpha_eff rejects) goes through surface to raise its error.
    kf = float(k)
    scale = kf / (kf - 1.0)
    work = k * chunk_time
    loads = [chunk_time * (1.0 + ov) for ov in overhead_values]
    alpha = []
    for seq in seq_values:
        t_serial = seq + work
        row = []
        for ov, load in zip(overhead_values, loads):
            s = t_serial / (seq + load)
            if not 0.0 < s < math.inf:
                surface(seq, ov, k, chunk_time)
            row.append(scale * (s - 1.0) / s)
        alpha.append(tuple(row))
    return SurfaceGrid(
        k=k,
        chunk_time=chunk_time,
        seq_values=seq_values,
        overhead_values=overhead_values,
        alpha=tuple(alpha),
    )
