"""Unit tests for the timeline scheduling simulator and the closed-form
equal-chunk surface.

Scheduling expectations are hand-computed load lists; scenario numbers
are hand-summed from the bundled scenario definitions.
"""

import dataclasses
import hashlib
import math
import random
import struct
import sys
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alphaeff import metrics
from alphaeff.timeline import (
    LPT,
    ROUND_ROBIN,
    ScheduleResult,
    Segment,
    SegmentKind,
    Timeline,
    _assign,
    _linspace,
    control,
    parallel_chunk,
    sequential,
    serial_time,
    simulate,
    surface,
    sweep_surface,
)

# The two bundled scenarios, restated locally so these tests do not
# depend on the data-loading layer.
CLASSIC = Timeline([
    sequential(1.5),
    parallel_chunk(2.5),
    parallel_chunk(2.5),
    parallel_chunk(2.5),
    sequential(1.0),
])

REALISTIC = Timeline([
    sequential(1.5),
    control(0.5),
    parallel_chunk(2.5),
    parallel_chunk(2.0),
    parallel_chunk(3.0),
    control(1.0),
    sequential(1.0),
])


def chunks_timeline(durations, seq=0.0, ctl=0.0):
    segs = []
    if seq:
        segs.append(sequential(seq))
    segs.extend(parallel_chunk(d) for d in durations)
    if ctl:
        segs.append(control(ctl))
    return Timeline(segs)


# ---------------------------------------------------------------- segments

class TestSegments:
    def test_factories(self):
        assert sequential(1.0).kind is SegmentKind.SEQUENTIAL
        assert parallel_chunk(1.0).kind is SegmentKind.PARALLEL_CHUNK
        assert control(1.0).kind is SegmentKind.CONTROL

    def test_zero_duration_allowed(self):
        assert control(0.0).duration == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            sequential(-0.1)

    def test_nonfinite_duration_rejected(self):
        with pytest.raises(ValueError):
            parallel_chunk(math.inf)
        with pytest.raises(ValueError):
            parallel_chunk(math.nan)

    def test_int_past_float_range_rejected(self):
        with pytest.raises(ValueError, match="^duration must be a number$"):
            Segment(SegmentKind.SEQUENTIAL, 10**400)

    @pytest.mark.parametrize("duration", ["1.5", True, None])
    def test_non_number_rejected(self, duration):
        with pytest.raises(ValueError, match="^duration must be a number$"):
            Segment(SegmentKind.SEQUENTIAL, duration)

    def test_stored_as_float(self):
        assert Segment(SegmentKind.SEQUENTIAL, 2).duration == 2.0
        assert type(Segment(SegmentKind.SEQUENTIAL, 2).duration) is float

    def test_kind_must_be_enum(self):
        with pytest.raises(ValueError):
            Segment("S", 1.0)

    def test_frozen(self):
        seg = sequential(1.0)
        with pytest.raises(Exception):
            seg.duration = 2.0


class TestTimeline:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Timeline([])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            Timeline([sequential(0.0), control(0.0)])

    def test_sum_past_float_range_rejected(self):
        with pytest.raises(ValueError, match="float range"):
            Timeline([sequential(1e308), sequential(1e308), parallel_chunk(1.0)])

    def test_accessors(self):
        assert REALISTIC.chunk_durations == (2.5, 2.0, 3.0)
        assert REALISTIC.total_sequential == 2.5
        assert REALISTIC.total_control == 1.5

    def test_segments_coerced_to_tuple(self):
        t = Timeline([sequential(1.0)])
        assert isinstance(t.segments, tuple)

    def test_segments_are_the_only_field(self):
        # The durations grouped by kind are derived state, not a field.
        assert [f.name for f in dataclasses.fields(Timeline)] == ["segments"]
        assert repr(CLASSIC) == f"Timeline(segments={CLASSIC.segments!r})"
        copy = dataclasses.replace(CLASSIC)
        assert copy == CLASSIC and hash(copy) == hash(CLASSIC)
        assert copy.chunk_durations == CLASSIC.chunk_durations
        assert dataclasses.replace(CLASSIC, segments=REALISTIC.segments) == REALISTIC


# -------------------------------------------------------------- serial_time

class TestSerialTime:
    def test_classic(self):
        assert serial_time(CLASSIC) == 10.0

    def test_realistic_excludes_control(self):
        assert serial_time(REALISTIC) == 10.0

    def test_single_sequential(self):
        assert serial_time(Timeline([sequential(5.0)])) == 5.0


# ---------------------------------------------------------------- simulate

class TestSimulateScenarios:
    def test_classic_three_workers(self):
        r = simulate(CLASSIC, 3)
        assert r.t_serial == 10.0
        assert r.t_total == 5.0
        assert r.speedup == 2.0
        assert r.alpha_eff == pytest.approx(0.75, abs=1e-12)
        assert r.per_processor_busy == (2.5, 2.5, 2.5)
        assert r.per_processor_wait == (0.0, 0.0, 0.0)

    def test_classic_four_workers_same_makespan(self):
        # Three chunks cannot use a fourth worker; the same speedup is
        # a weaker verdict at k=4.
        r = simulate(CLASSIC, 4)
        assert r.t_total == 5.0
        assert r.speedup == 2.0
        assert r.alpha_eff == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_realistic_three_workers(self):
        r = simulate(REALISTIC, 3)
        assert r.t_serial == 10.0
        assert r.t_total == 7.0
        assert r.speedup == pytest.approx(10.0 / 7.0, rel=1e-15)
        assert r.alpha_eff == pytest.approx(0.45, abs=1e-12)
        assert r.alpha_eff.regime == metrics.NORMAL

    def test_realistic_single_worker_is_slowdown(self):
        # Control overhead makes one "parallel" worker slower than the
        # plain serial baseline: 11.5 vs 10.
        r = simulate(REALISTIC, 1)
        assert r.t_total == 11.5
        assert r.speedup == pytest.approx(10.0 / 11.5, rel=1e-15)
        assert r.speedup < 1.0
        assert r.alpha_eff is None

    def test_no_chunks_is_unity_speedup(self):
        r = simulate(Timeline([sequential(2.0)]), 3)
        assert r.speedup == 1.0
        assert r.alpha_eff == 0.0

    def test_control_only_timeline_degenerate(self):
        r = simulate(Timeline([control(1.0)]), 3)
        assert r.speedup == 0.0
        assert r.alpha_eff is None

    def test_k_validation(self):
        with pytest.raises(ValueError):
            simulate(CLASSIC, 0)
        with pytest.raises(ValueError):
            simulate(CLASSIC, 2.0)
        with pytest.raises(ValueError, match="got True"):
            simulate(CLASSIC, True)


class TestPolicies:
    def test_round_robin_deals_in_timeline_order(self):
        r = simulate(chunks_timeline([1, 2, 3, 4, 5]), 2, ROUND_ROBIN)
        assert r.assignment == (0, 1, 0, 1, 0)
        assert r.per_processor_busy == (9.0, 6.0)

    def test_lpt_greedy_least_loaded(self):
        r = simulate(chunks_timeline([1, 2, 3, 4, 5]), 2, LPT)
        # Descending order 5,4,3,2,1: loads evolve (5)(5,4)(5,7)(7,7)(8,7).
        assert r.assignment == (0, 0, 1, 1, 0)
        assert r.per_processor_busy == (8.0, 7.0)
        assert r.t_total == 8.0

    def test_lpt_ties_keep_timeline_order_and_lowest_worker(self):
        r = simulate(chunks_timeline([2, 2, 2]), 2, LPT)
        assert r.assignment == (0, 1, 0)

    def test_lpt_heap_needs_no_worker_past_the_chunk_count(self):
        # Loads are >= 0 and ties go to the lower index, so workers past
        # the n-th are never picked and a k of sys.maxsize costs no more.
        chunks = (3.0, 1.0, 2.0, 2.0)
        assert _assign(chunks, sys.maxsize, LPT) == _assign(chunks, 4, LPT) == [0, 3, 1, 2]

    def test_round_robin_can_beat_lpt(self):
        # Greedy LPT is not universally at least as good as dealing
        # round-robin: here round-robin balances 6/6 but LPT ends 7/5.
        tl = chunks_timeline([2, 3, 2, 3, 2])
        rr = simulate(tl, 2, ROUND_ROBIN)
        lpt = simulate(tl, 2, LPT)
        assert rr.t_total == 6.0
        assert lpt.t_total == 7.0

    def test_round_robin_makespan_can_grow_with_k(self):
        # Dealing in timeline order can get worse with more workers.
        tl = chunks_timeline([2, 1, 1, 5])
        assert simulate(tl, 2, ROUND_ROBIN).t_total == 6.0
        assert simulate(tl, 3, ROUND_ROBIN).t_total == 7.0

    def test_lpt_on_25k_chunks_is_pinned(self):
        # Hypothesis sizes stay small; this pins one full-size schedule
        # (the digest of the O(n*k) scan this simulator once used).
        rng = random.Random(0)
        chunks = [round(rng.uniform(0.0, 10.0), 2) for _ in range(25_000)]
        tl = chunks_timeline(chunks, seq=1.0, ctl=0.5)
        digest = hashlib.sha256(repr(vars(simulate(tl, 256, LPT))).encode()).hexdigest()
        assert digest == "fc6f4ea0e7f4c367a45e7fd9abf1e01fa9d3861f4171cfd75e74512ffc6bd671"

    def test_explicit_assignment(self):
        r = simulate(chunks_timeline([1, 2, 3]), 2, [0, 1, 0])
        assert r.per_processor_busy == (4.0, 2.0)

    def test_explicit_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            simulate(chunks_timeline([1, 2, 3]), 2, [0, 1])

    def test_explicit_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            simulate(chunks_timeline([1, 2]), 2, [0, 2])
        with pytest.raises(ValueError):
            simulate(chunks_timeline([1, 2]), 2, [0, -1])

    @pytest.mark.parametrize("policy", [[0.9, 1.9], [0.0, 1.0], ["0", "1"], [False, True]])
    def test_explicit_non_integer_indices_rejected(self, policy):
        with pytest.raises(ValueError, match="explicit policy must be a sequence of worker indices"):
            simulate(chunks_timeline([1, 2]), 2, policy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            simulate(CLASSIC, 2, "nope")


# ----------------------------------------------------------------- surface

class TestSurface:
    def test_no_serial_no_overhead_is_one(self):
        a = surface(0.0, 0.0, 3, 0.25)
        assert a == 1.0
        assert a.regime == metrics.NORMAL

    def test_balanced_case(self):
        # t_serial = 1.5, t_total = 1.0: s = 1.5, alpha = 0.5.
        assert surface(0.75, 0.0, 3, 0.25) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_case(self):
        # t_serial = 1.35, t_total = 0.9125: alpha = 35/72.
        a = surface(0.6, 0.25, 3, 0.25)
        assert a == pytest.approx(35.0 / 72.0, rel=1e-12)

    def test_heavy_overhead_goes_negative_flagged(self):
        # t_serial = 3, t_total = 6: s = 0.5, alpha = -1.5, slowdown.
        a = surface(0.0, 5.0, 3, 1.0)
        assert a == pytest.approx(-1.5, rel=1e-12)
        assert a.regime == metrics.SLOWDOWN

    def test_validation(self):
        with pytest.raises(ValueError):
            surface(0.0, 0.0, 1, 0.25)
        with pytest.raises(ValueError):
            surface(-0.1, 0.0, 3, 0.25)
        with pytest.raises(ValueError):
            surface(0.0, -0.1, 3, 0.25)
        with pytest.raises(ValueError):
            surface(0.0, 0.0, 3, 0.0)

    @pytest.mark.parametrize("args, cell", [
        ((0.0, 0.0, 3, 1e308), "seq_time=0.0, overhead_fraction=0.0"),
        ((0.0, 2e307, 3, 10.0), "seq_time=0.0, overhead_fraction=2e+307"),
        ((1.5, 1e308, 3, 1e308), "seq_time=1.5, overhead_fraction=1e+308"),
    ], ids=["serial-inf", "total-inf", "both-inf"])
    def test_times_past_float_range_name_the_cell(self, args, cell):
        with pytest.raises(ValueError) as info:
            surface(*args)
        assert str(info.value) == f"surface times pass the float range at {cell}"

    def test_chunk_time_past_float_range(self):
        with pytest.raises(ValueError) as info:
            surface(0.0, 0.0, 3, 10**400)
        assert str(info.value) == "chunk_time must be finite, got inf"

    def test_matches_equivalent_timeline_exactly(self):
        tl = Timeline([
            sequential(0.6),
            parallel_chunk(0.25),
            parallel_chunk(0.25),
            parallel_chunk(0.25),
            control(0.25 * 0.25),
        ])
        sim = simulate(tl, 3)
        closed = surface(0.6, 0.25, 3, 0.25)
        assert sim.alpha_eff == closed


class TestSweepSurface:
    def test_grid_matches_pointwise_calls(self):
        grid = sweep_surface((0.0, 0.8), (0.0, 0.6), 5, 3, 0.25)
        assert len(grid.alpha) == 5
        assert all(len(row) == 5 for row in grid.alpha)
        for i, seq in enumerate(grid.seq_values):
            for j, ov in enumerate(grid.overhead_values):
                assert float(grid.alpha[i][j]) == surface(
                    float(seq), float(ov), 3, 0.25
                )

    def test_axis_endpoints(self):
        grid = sweep_surface((0.0, 1.0), (0.2, 0.6), 11, 4, 0.5)
        assert grid.seq_values[0] == 0.0
        assert grid.seq_values[-1] == 1.0
        assert grid.overhead_values[0] == 0.2
        assert grid.overhead_values[-1] == 0.6
        assert len(grid.seq_values) == 11

    def test_degenerate_ranges_rejected(self):
        with pytest.raises(ValueError):
            sweep_surface((0.5, 0.5), (0.0, 0.6), 5, 3, 0.25)
        with pytest.raises(ValueError):
            sweep_surface((0.0, 0.8), (0.6, 0.0), 5, 3, 0.25)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            sweep_surface((0.0, 0.8), (0.0, 0.6), 1, 3, 0.25)

    @pytest.mark.parametrize("seq_range, overhead_range, message", [
        ((0, math.inf), (0.0, 0.6), "seq_range must be finite, got (0.0, inf)"),
        ((-math.inf, 1.0), (0.0, 0.6), "seq_range must be finite, got (-inf, 1.0)"),
        ((0.0, 0.8), (0, math.nan), "overhead_range must be finite, got (0.0, nan)"),
    ], ids=["seq-inf", "seq-minus-inf", "overhead-nan"])
    def test_non_finite_ranges_rejected(self, seq_range, overhead_range, message):
        with pytest.raises(ValueError) as info:
            sweep_surface(seq_range, overhead_range, 3, 3, 0.25)
        assert str(info.value) == message

    def test_overflowing_cell_is_named(self):
        with pytest.raises(ValueError) as info:
            sweep_surface((0.0, 1.0), (0.0, 1e308), 11, 3, 10.0)
        assert str(info.value) == (
            "surface times pass the float range at seq_time=0.0, overhead_fraction=2e+307"
        )

    @pytest.mark.parametrize("chunk_time, k", [
        (5e306, 3),  # t_serial alone overflows: the speedup is inf
        (1e307, 2),  # both times overflow: the speedup is nan
    ], ids=["serial-inf", "both-inf"])
    def test_overflowing_cell_in_a_later_row_is_named(self, chunk_time, k):
        # Rows 0 and 1 take the inlined closed form; row 2's first cell falls back.
        with pytest.raises(ValueError) as info:
            sweep_surface((0.0, 1.7e308), (0.0, 1.0), 3, k, chunk_time)
        assert str(info.value) == (
            "surface times pass the float range at seq_time=1.7e+308, overhead_fraction=0.0"
        )

    @pytest.mark.parametrize("seq_range, overhead_range, message", [
        ((-1e308, 1e308), (0.0, 1.0), "seq_range (-1e+308, 1e+308) is wider than the float range"),
        ((0.0, 1.0), (-1e308, sys.float_info.max),
         "overhead_range (-1e+308, 1.7976931348623157e+308) is wider than the float range"),
    ], ids=["seq", "overhead"])
    def test_range_wider_than_float_range_is_named(self, seq_range, overhead_range, message):
        with pytest.raises(ValueError) as info:
            sweep_surface(seq_range, overhead_range, 3, 3, 0.25)
        assert str(info.value) == message

    def test_cells_are_plain_floats(self):
        grid = sweep_surface((0.0, 2.0), (0.0, 1.0), 4, 8, 0.25)
        assert type(grid.alpha) is tuple
        assert all(type(row) is tuple for row in grid.alpha)
        assert all(type(a) is float for row in grid.alpha for a in row)

    def test_chunk_time_past_float_range(self):
        with pytest.raises(ValueError) as info:
            sweep_surface((0.0, 0.8), (0.0, 0.6), 3, 3, 10**400)
        assert str(info.value) == "chunk_time must be finite, got inf"


def _bits(x):
    return struct.pack("<d", x)


def _first_pointwise_error(seq_range, overhead_range, seq_values, overhead_values, k,
                           chunk_time):
    # The grid's own range rule comes first: an axis whose width passes the
    # float range has no pointwise cells to compare.
    for name, (lo, hi) in (("seq_range", seq_range), ("overhead_range", overhead_range)):
        if not math.isfinite(float(hi) - float(lo)):
            return ValueError, f"{name} {(lo, hi)!r} is wider than the float range"
    for seq in seq_values:
        for ov in overhead_values:
            try:
                surface(seq, ov, k, chunk_time)
            except ValueError as exc:
                return type(exc), str(exc)
    return None


surface_bounds = st.one_of(
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=0.0, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, sys.float_info.min, 1.7e308, sys.float_info.max, -1.0]),
)
# One range in ten is wider than the float range, so the width rule is drawn every run.
surface_ranges = st.integers(0, 9).flatmap(
    lambda roll: st.sampled_from([(-1e308, 1e308), (-sys.float_info.max, sys.float_info.max)])
    if roll == 0
    else st.tuples(surface_bounds, surface_bounds).filter(lambda r: r[1] > r[0]))


@settings(max_examples=500, deadline=None)
@given(seq_range=surface_ranges, overhead_range=surface_ranges,
       steps=st.integers(min_value=2, max_value=8),
       k=st.one_of(st.integers(min_value=2, max_value=64),
                   st.integers(min_value=2, max_value=sys.maxsize),
                   st.sampled_from([1, 0, -3, True, 2.0, "3", None, sys.maxsize + 1, 10**400])),
       chunk_time=st.one_of(st.floats(min_value=0.0, max_value=10.0), st.floats(),
                            st.integers(min_value=-10, max_value=10**6),
                            st.integers(min_value=2**1024, max_value=10**400)))
def test_grid_is_pointwise_surface_in_bits_and_errors(seq_range, overhead_range, steps, k,
                                                       chunk_time):
    # The grid checks its inputs once; each cell must still be exactly the
    # pointwise call, and a failing grid must fail like its first failing cell.
    seq_values = _linspace(*seq_range, steps)
    overhead_values = _linspace(*overhead_range, steps)
    expected_error = _first_pointwise_error(seq_range, overhead_range, seq_values,
                                            overhead_values, k, chunk_time)
    try:
        grid = sweep_surface(seq_range, overhead_range, steps, k, chunk_time)
    except ValueError as exc:
        assert (type(exc), str(exc)) == expected_error
        return
    assert expected_error is None
    assert grid.k is k
    assert _bits(grid.chunk_time) == _bits(float(chunk_time))
    assert list(map(_bits, grid.seq_values)) == list(map(_bits, seq_values))
    assert list(map(_bits, grid.overhead_values)) == list(map(_bits, overhead_values))
    for seq, row in zip(seq_values, grid.alpha):
        assert [_bits(a) for a in row] == [
            _bits(float(surface(seq, ov, k, chunk_time))) for ov in overhead_values
        ]


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(lo=finite_floats, hi=finite_floats, n=st.integers(min_value=2, max_value=200))
def test_sweep_axes_match_numpy_linspace(lo, hi, n):
    # numpy is only the oracle here; the package itself does not use it.
    np = pytest.importorskip("numpy")
    assume(hi > lo)
    with np.errstate(all="ignore"):
        expected = np.linspace(lo, hi, n).tolist()
    # repr tells -0.0 from 0.0 and compares nan (from an overflowing
    # range) with nan; == does neither.
    axis = _linspace(lo, hi, n)
    assert list(map(repr, axis)) == list(map(repr, expected))
    assert all(type(v) is float for v in axis)


# ---------------------------------------------------------- property tests

chunk_lists = st.lists(
    st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=8
)


@settings(max_examples=300, deadline=None)
@given(chunks=chunk_lists, seq=st.floats(min_value=0.0, max_value=2.0),
       k=st.integers(min_value=1, max_value=6))
def test_busy_and_wait_invariants(chunks, seq, k):
    tl = chunks_timeline(chunks, seq=seq)
    r = simulate(tl, k)
    assert len(r.per_processor_busy) == k
    assert math.fsum(r.per_processor_busy) == pytest.approx(
        math.fsum(chunks), rel=1e-12)
    peak = max(r.per_processor_busy)
    for busy, wait in zip(r.per_processor_busy, r.per_processor_wait):
        assert wait == peak - busy
        assert wait >= 0.0
    assert min(r.per_processor_wait) == 0.0


@settings(max_examples=300, deadline=None)
@given(chunks=chunk_lists,
       k1=st.integers(min_value=1, max_value=6),
       k2=st.integers(min_value=1, max_value=6))
def test_lpt_makespan_never_grows_with_more_workers(chunks, k1, k2):
    if k1 > k2:
        k1, k2 = k2, k1
    tl = chunks_timeline(chunks)
    t_small = simulate(tl, k1, LPT).t_total
    t_large = simulate(tl, k2, LPT).t_total
    assert t_large <= t_small + 1e-9


@settings(max_examples=200, deadline=None)
@given(chunks=chunk_lists, extra=st.integers(min_value=0, max_value=5))
def test_makespan_constant_once_workers_exceed_chunks(chunks, extra):
    tl = chunks_timeline(chunks)
    n = len(chunks)
    base = simulate(tl, n, ROUND_ROBIN).t_total
    assert simulate(tl, n + extra, ROUND_ROBIN).t_total == base
    lpt_base = simulate(tl, n, LPT).t_total
    assert simulate(tl, n + extra, LPT).t_total == lpt_base


@settings(max_examples=300, deadline=None)
@given(seq=st.floats(min_value=0.0, max_value=5.0),
       ov=st.floats(min_value=0.0, max_value=2.0),
       k=st.integers(min_value=2, max_value=16),
       chunk=st.floats(min_value=0.01, max_value=3.0))
def test_surface_equals_simulated_equivalent(seq, ov, k, chunk):
    segs = []
    if seq > 0.0:
        segs.append(sequential(seq))
    segs.extend(parallel_chunk(chunk) for _ in range(k))
    segs.append(control(ov * chunk))
    sim = simulate(Timeline(segs), k)
    assert abs(surface(seq, ov, k, chunk) - sim.alpha_eff) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(seq=st.floats(min_value=0.0, max_value=3.0),
       chunk=st.floats(min_value=0.05, max_value=2.0),
       n=st.integers(min_value=1, max_value=8))
def test_equal_chunks_without_control_match_amdahl(seq, chunk, n):
    # With no control segments, n equal chunks on n workers behave
    # exactly like the two-term analytic speedup model.
    tl = chunks_timeline([chunk] * n, seq=seq)
    alpha = metrics.alpha_classic([seq] if seq else [], [chunk] * n)
    r = simulate(tl, n)
    assert r.speedup == pytest.approx(
        metrics.amdahl_speedup(alpha, n), rel=1e-12)


def lpt_by_scan(chunks, k):
    """LPT as a plain O(n*k) scan for the least-loaded worker."""
    order = sorted(range(len(chunks)), key=lambda i: chunks[i], reverse=True)
    loads = [0.0] * k
    assignment = [0] * len(chunks)
    for i in order:
        worker = min(range(k), key=loads.__getitem__)
        assignment[i] = worker
        loads[worker] += chunks[i]
    return tuple(assignment)


@settings(max_examples=200, deadline=None)
@given(chunks=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=200),
       k=st.integers(min_value=1, max_value=250))
# Zero-duration chunks all go to worker 1, the lowest index left at load 0
# once worker 0 holds the 3: (1, 1, 1, 0), not one idle worker each.
@example(chunks=[0, 0, 0, 3], k=8)
def test_lpt_matches_linear_scan(chunks, k):
    # Small integer durations tie often, both as chunks and as loads.
    tl = chunks_timeline(chunks, seq=1.0)
    assert simulate(tl, k, LPT).assignment == lpt_by_scan(tl.chunk_durations, k)


wide_durations = st.just(0.0) | st.builds(
    math.ldexp, st.floats(min_value=0.5, max_value=1.0), st.integers(min_value=-60, max_value=60))


@settings(max_examples=300, deadline=None)
@given(segs=st.lists(st.tuples(st.sampled_from(SegmentKind), wide_durations),
                     min_size=1, max_size=30),
       k=st.integers(min_value=1, max_value=6), data=st.data())
def test_simulate_sums_are_exactly_rounded(segs, k, data):
    # Durations span 36 decimal orders, so only exactly rounded sums agree.
    assume(any(d > 0.0 for _, d in segs))
    tl = Timeline([Segment(kind, d) for kind, d in segs])
    n = len(tl.chunk_durations)
    explicit = data.draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                                  min_size=n, max_size=n))
    for policy in (ROUND_ROBIN, LPT, explicit):
        r = simulate(tl, k, policy)
        assert r.t_serial == serial_time(tl)
        assert r.t_total == (tl.total_sequential + tl.total_control
                             + max(r.per_processor_busy))


@settings(max_examples=300, deadline=None)
@given(segs=st.lists(st.tuples(st.sampled_from(SegmentKind), wide_durations),
                     min_size=1, max_size=30))
def test_grouped_accessors_match_timeline_order_filters(segs):
    # The accessors read the durations grouped at construction; the
    # references are the filters over the segments they replaced.
    assume(any(d > 0.0 for _, d in segs))
    tl = Timeline([Segment(kind, d) for kind, d in segs])
    assert tl.chunk_durations == tuple(
        s.duration for s in tl.segments if s.kind is SegmentKind.PARALLEL_CHUNK)
    assert tl.total_sequential == math.fsum(
        s.duration for s in tl.segments if s.kind is SegmentKind.SEQUENTIAL)
    assert tl.total_control == math.fsum(
        s.duration for s in tl.segments if s.kind is SegmentKind.CONTROL)
    assert serial_time(tl) == math.fsum(
        s.duration for s in tl.segments if s.kind is not SegmentKind.CONTROL)


def _reference_simulate(timeline, k, policy=ROUND_ROBIN):
    """simulate as it was before a timeline cached its sums: the oracle.

    It deals round-robin with a per-chunk ``%``, sums the segments'
    durations itself on every call and builds the result through the
    generated ``ScheduleResult.__init__``.
    """
    if not metrics._is_count(k):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    chunks = timeline.chunk_durations
    if isinstance(policy, str) and policy == ROUND_ROBIN:
        assignment = [i % k for i in range(len(chunks))]
    else:
        assignment = _assign(chunks, k, policy)

    loads = [0.0] * k
    for duration, worker in zip(chunks, assignment):
        loads[worker] += duration

    max_load = max(loads)
    busy = tuple(loads)
    wait = tuple(max_load - load for load in loads)

    def durations(kind):
        return tuple(s.duration for s in timeline.segments if s.kind is kind)

    t_serial = math.fsum(durations(SegmentKind.SEQUENTIAL) + chunks)
    t_total = (math.fsum(durations(SegmentKind.SEQUENTIAL))
               + math.fsum(durations(SegmentKind.CONTROL)) + max_load)
    s = t_serial / t_total
    if k >= 2 and s > 0.0:
        ae = metrics.alpha_eff(s, k)
    else:
        ae = None
    return ScheduleResult(
        k=k,
        t_serial=t_serial,
        t_total=t_total,
        speedup=s,
        alpha_eff=ae,
        per_processor_busy=busy,
        per_processor_wait=wait,
        assignment=tuple(assignment),
    )


def _outcome(call):
    try:
        return call(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


_everyday_durations = st.one_of(
    wide_durations,
    st.floats(min_value=0.0, max_value=1e3),
    # Full 53-bit significands, so sums in another order round differently.
    st.builds(math.ldexp, st.integers(2**52, 2**53 - 1), st.integers(-70, -40)),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, sys.float_info.min]),
    st.integers(min_value=0, max_value=10**6),
)
# A duration near the float range absorbs every other one, so it is drawn
# into one timeline in ten, not into every long one.
oracle_segment_lists = st.integers(0, 9).flatmap(lambda roll: st.lists(
    st.tuples(st.sampled_from(SegmentKind),
              _everyday_durations | st.floats(min_value=1e307, max_value=sys.float_info.max)
              if roll == 0 else _everyday_durations),
    min_size=1, max_size=20))
bad_ks = st.sampled_from([0, -1, True, 2.0, "3", None, sys.maxsize + 1])


@st.composite
def oracle_calls(draw, n):
    """One simulate call, or one read of a cached sum, on a timeline of n chunks."""
    what = draw(st.sampled_from(["simulate"] * 4 + ["serial_time", "total_sequential",
                                                    "total_control"]))
    if what != "simulate":
        return (what,)
    k = draw(st.integers(min_value=1, max_value=n + 3) | bad_ks)
    width = k if metrics._is_count(k) else 3
    policy = draw(st.one_of(
        st.sampled_from([ROUND_ROBIN, LPT, "nope"]),
        st.lists(st.integers(min_value=0, max_value=width - 1), min_size=n, max_size=n),
        st.lists(st.integers(min_value=-1, max_value=width), min_size=max(n - 1, 0),
                 max_size=n + 1),
        st.just([False] * n),
    ))
    return ("simulate", k, policy)


@settings(max_examples=400, deadline=None)
@given(segs=oracle_segment_lists, data=st.data())
def test_simulate_matches_the_uncached_reference(segs, data):
    # The sums are cached on first use, so the drawn calls check them both
    # when a call fills the cache and when a later call reads it.
    try:
        tl = Timeline([Segment(kind, d) for kind, d in segs])
    except ValueError:
        assume(False)
    n = len(tl.chunk_durations)
    calls = data.draw(st.lists(oracle_calls(n), min_size=2, max_size=5))
    names = [f.name for f in dataclasses.fields(ScheduleResult)]
    for what, *args in calls:
        if what == "serial_time":
            assert repr(serial_time(tl)) == repr(math.fsum(
                s.duration for s in tl.segments if s.kind is not SegmentKind.CONTROL))
            continue
        if what != "simulate":
            kind = SegmentKind.SEQUENTIAL if what == "total_sequential" else SegmentKind.CONTROL
            assert repr(getattr(tl, what)) == repr(math.fsum(
                s.duration for s in tl.segments if s.kind is kind))
            continue
        result, error = _outcome(lambda: simulate(tl, *args))
        expected, expected_error = _outcome(lambda: _reference_simulate(tl, *args))
        assert error == expected_error
        if expected is None:
            continue
        assert repr(result) == repr(expected)
        assert result == expected and hash(result) == hash(expected)
        assert list(vars(result)) == list(vars(expected)) == names
        assert type(result.alpha_eff) is type(expected.alpha_eff)
        assert getattr(result.alpha_eff, "regime", None) == getattr(expected.alpha_eff, "regime",
                                                                    None)
    # The cache is not a field: repr, == and hash still see only the segments.
    assert repr(tl) == f"Timeline(segments={tl.segments!r})"
    copy = dataclasses.replace(tl)
    assert copy == tl and hash(copy) == hash(tl)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_round_robin_memory_is_no_more_than_lpt_at_huge_k():
    # Both policies need the O(k) per-worker lists (about 46 MiB here); the
    # assignment itself must stay O(n), or round-robin would run out of
    # memory sooner than LPT does.  The policies' own n-item lists differ by
    # a few dozen bytes, so the bound is "less than one byte per worker
    # more", not byte equality.
    tl = chunks_timeline([1.0, 2.0, 3.0])
    # Warm both code paths, the cached sums and tracemalloc itself, so the
    # measured calls do the same work apart from the assignment.
    for policy in (ROUND_ROBIN, LPT):
        _peak_bytes(lambda: simulate(tl, 2, policy))
    k = 10**6
    rr = _peak_bytes(lambda: simulate(tl, k, ROUND_ROBIN))
    lpt = _peak_bytes(lambda: simulate(tl, k, LPT))
    assert rr < lpt + k
    # A list of k worker indices would be freed before the per-worker lists
    # are built, so the peaks above cannot see it; the assignment's own peak can.
    for policy in (ROUND_ROBIN, LPT):
        assert _peak_bytes(lambda: _assign(tl.chunk_durations, k, policy)) < 4096
