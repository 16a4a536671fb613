"""Tests for the self-measurement harness.

Splitting and validation logic is tested exactly; anything that times
real execution is tested against generous bands (scheduler noise), and
anything needing true parallelism is skipped on single-processor hosts.
"""

import contextlib
import math
import os
import signal
import time

import pytest

from alphaeff import harness, metrics
from alphaeff.dataio import DataFormatError, ValueKind, analyze
from alphaeff.harness import (
    AMDAHL_OVERHEAD_RANGE,
    SyntheticWorkload,
    available_processors,
    calibrate,
    run_synthetic,
    workload_from_spec,
)
from alphaeff.timeline import SegmentKind, Timeline, control, parallel_chunk, sequential, simulate

multi_cpu = pytest.mark.skipif(
    available_processors() < 2,
    reason="needs at least 2 available processors")

has_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"),
    reason="needs os.sched_setaffinity")


# ------------------------------------------------------- SyntheticWorkload

class TestSyntheticWorkload:
    def test_baseline_k_added_and_list_normalized(self):
        w = SyntheticWorkload(0.5, 1000, k_list=(4, 2, 4))
        assert w.k_list == (1, 2, 4)

    def test_defaults(self):
        w = SyntheticWorkload(0.5, 1000)
        assert w.k_list == (1, 2, 4)
        assert w.repetitions == 3
        assert w.overhead_fraction == 0.0

    def test_label(self):
        assert SyntheticWorkload(0.5, 10, overhead_fraction=0.25).label == \
            "synthetic-a0.5-o0.25"

    def test_frozen(self):
        w = SyntheticWorkload(0.5, 1000)
        with pytest.raises(Exception):
            w.alpha_target = 0.9

    @pytest.mark.parametrize("kwargs", [
        dict(alpha_target=-0.1, total_work=10),
        dict(alpha_target=1.1, total_work=10),
        dict(alpha_target=float("nan"), total_work=10),
        dict(alpha_target=0.5, total_work=0),
        dict(alpha_target=0.5, total_work=1.5),
        dict(alpha_target=0.5, total_work=10, overhead_fraction=-0.1),
        dict(alpha_target=0.5, total_work=10, k_list=()),
        dict(alpha_target=0.5, total_work=10, k_list=(0,)),
        dict(alpha_target=0.5, total_work=10, k_list=(2.0,)),
        dict(alpha_target=0.5, total_work=10, repetitions=0),
        dict(alpha_target="0.5", total_work=10),
        dict(alpha_target=0.5, total_work=True),
        dict(alpha_target=0.5, total_work=10, overhead_fraction="0.1"),
        dict(alpha_target=0.5, total_work=10, k_list=(True, 2)),
        dict(alpha_target=0.5, total_work=10, repetitions=True),
        dict(alpha_target=0.5, total_work=10, overhead_fraction=1e308),
        dict(alpha_target=0.5, total_work=2**53 + 1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticWorkload(**kwargs)

    def test_amdahl_overhead_preset_range(self):
        lo, hi = AMDAHL_OVERHEAD_RANGE
        assert 0.0 < lo < hi < 1.0


def _counts(w, k):
    """Serial, chunk and control spin counts of ``w.plan(k)``."""
    plan = w.plan(k)
    of = lambda kind: [int(s.duration) for s in plan.segments if s.kind is kind]
    (serial,) = of(SegmentKind.SEQUENTIAL)
    return serial, of(SegmentKind.PARALLEL_CHUNK), of(SegmentKind.CONTROL)


def _side_by_side(w, points, seconds):
    """Each measured T(k) beside its plan's modelled one, at the spin rate
    of a calibration to ``seconds`` (w.total_work units in that time)."""
    return ", ".join(
        f"T({k}) measured {t:.4f}s, modelled "
        f"{simulate(w.plan(k), k).t_total * seconds / w.total_work:.4f}s"
        for k, t in points)


class TestPlan:
    def test_even_split(self):
        w = SyntheticWorkload(0.5, 1000)
        serial, chunks, controls = _counts(w, 4)
        assert serial == 500
        assert chunks == [125, 125, 125, 125]
        assert controls == [0, 0, 0, 0]

    def test_remainder_spread_over_first_chunks(self):
        w = SyntheticWorkload(0.8, 10)
        serial, chunks, _ = _counts(w, 3)
        assert serial == 2
        assert chunks == [3, 3, 2]

    def test_controls_proportional_to_chunks(self):
        w = SyntheticWorkload(0.8, 10, overhead_fraction=0.3)
        _, chunks, controls = _counts(w, 3)
        assert controls == [round(0.3 * c) for c in chunks]

    def test_all_serial_and_all_parallel(self):
        serial, chunks, _ = _counts(SyntheticWorkload(0.0, 100), 4)
        assert serial == 100 and chunks == [0, 0, 0, 0]
        serial, chunks, _ = _counts(SyntheticWorkload(1.0, 100), 4)
        assert serial == 0 and sum(chunks) == 100

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.77, 1.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_work_conserved(self, alpha, k):
        w = SyntheticWorkload(alpha, 997)
        serial, chunks, _ = _counts(w, k)
        assert serial + sum(chunks) == 997
        assert max(chunks) - min(chunks) <= 1

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_segments_in_run_order(self, k):
        plan = SyntheticWorkload(0.6, 2**53, overhead_fraction=0.1).plan(k)
        assert "".join(s.kind.value for s in plan.segments) == "S" + "C" * k + "P" * k
        assert sum(int(s.duration) for s in plan.segments
                   if s.kind is not SegmentKind.CONTROL) == 2**53

    def test_modelled_alpha_counts_control_in_the_baseline(self):
        # The harness's T(1) holds its one chunk's control too, so the
        # heavy workload's modelled alpha_eff at k=2 is 0.4, not 0.5.
        for overhead, expected in ((0.0, 0.5), (0.5, 0.4)):
            w = SyntheticWorkload(0.5, 1_000_000, overhead_fraction=overhead)
            t1, t2 = (simulate(w.plan(k), k).t_total for k in (1, 2))
            assert metrics.alpha_eff(t1 / t2, 2) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- calibrate

class TestCalibrate:
    @pytest.mark.parametrize("target", [0.0, -1.0, float("nan"), 1e-8])
    def test_bad_targets_rejected(self, target):
        with pytest.raises(ValueError):
            calibrate(target)

    @pytest.mark.host_timing
    def test_achieves_target_within_twenty_percent(self):
        target = 0.06
        units = calibrate(target)
        # The fastest of three, the statistic calibrate() targets.
        best = min(harness._timed_spin(units) for _ in range(3))
        assert 0.8 * target <= best <= 1.2 * target

    @pytest.mark.host_timing
    def test_spin_scales_linearly(self):
        units = calibrate(0.04)
        # Alternate the two sizes, as the harness alternates k, so a drift
        # in host speed touches both minima alike.
        t1 = t2 = math.inf
        for _ in range(3):
            t1 = min(t1, harness._timed_spin(units))
            t2 = min(t2, harness._timed_spin(2 * units))
        assert 1.6 <= t2 / t1 <= 2.4

    @pytest.mark.parametrize("target", [1e297, 1e305])
    def test_target_past_2_53_units_refused_before_spinning_at_it(self, monkeypatch, target):
        real = harness._timed_spin

        def bounded(units):
            assert units <= 2**53, f"asked to spin {units} units"
            return real(units)

        monkeypatch.setattr(harness, "_timed_spin", bounded)
        with pytest.raises(ValueError, match=r"needs more than 2\*\*53 spin units"):
            calibrate(target)

    @staticmethod
    def _fake_spin(monkeypatch, rate, reads_zero_below=0):
        """Make every spin read ``units / rate`` seconds (0.0 below a size) and record its size."""
        calls = []

        def fake(units):
            calls.append(units)
            return 0.0 if units < reads_zero_below else units / rate

        monkeypatch.setattr(harness, "_timed_spin", fake)
        return calls

    @pytest.mark.parametrize("rate", [1e5, 1e6, 1e7, 1e8, 1e9, 1e10])
    def test_probe_stops_at_its_floor_within_four_floors(self, monkeypatch, rate):
        floor = max(0.005, 1000.0 * time.get_clock_info("perf_counter").resolution)
        calls = self._fake_spin(monkeypatch, rate)
        assert calibrate(0.001) == round(0.001 * rate)
        probes, refinement = calls[:-3], calls[-3:]
        assert len(set(refinement)) == 1
        # Every probe but the last reads below the floor; at 1e5 units/s
        # the first, 1,024 units, already lasts it, so it is the only one.
        assert [units / rate >= floor for units in probes] == [False] * (len(probes) - 1) + [True]
        assert probes[0] == 1024 and (len(probes) == 1) == (rate == 1e5)
        assert sum(probes) / rate <= 4 * floor

    def test_probe_reading_zero_still_grows_geometrically(self, monkeypatch):
        calls = self._fake_spin(monkeypatch, 1e9, reads_zero_below=10_000)
        assert calibrate(0.001) == round(0.001 * 1e9)
        probes = calls[:-3]
        assert [b / a for a, b in zip(probes, probes[1:])] == [64, 64, 2]

    def test_spin_is_deterministic(self):
        assert harness._spin(1000) == harness._spin(1000)
        assert harness._spin(0) == 0x9E3779B97F4A7C15


# ------------------------------------------------------------ run_synthetic

def _record_pinning(monkeypatch, cpus):
    """Restrict the visible processors to ``cpus`` and record each pinning."""
    calls = []
    real = os.sched_setaffinity

    def record(pid, mask):
        calls.append((pid, mask))
        real(pid, mask)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    monkeypatch.setattr(os, "sched_setaffinity", record)
    return calls


@contextlib.contextmanager
def _leaves_nothing_behind():
    """Fail if the block takes 10 s, or leaves a descriptor open or a child unreaped."""
    def hung(signum, frame):
        raise TimeoutError("still waiting for the workers after 10 s")

    fds = sorted(os.listdir("/dev/fd"))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/dev/fd")) == fds


class TestRunSynthetic:
    @pytest.mark.host_timing
    def test_all_serial_workload_keeps_unit_speedup(self):
        # With nothing to parallelize, extra workers only add release
        # cost; the measured speedup must stay within 10% of 1.
        w = SyntheticWorkload(0.0, calibrate(0.4), k_list=(1, 2),
                              repetitions=2)
        series = run_synthetic(w)
        assert series.value_kind is ValueKind.WALL_TIME
        report = analyze(series)
        row = next(r for r in report.rows if r.k == 2)
        assert row.speedup == pytest.approx(1.0, abs=0.1), _side_by_side(w, series.points, 0.4)

    def test_series_shape(self):
        w = SyntheticWorkload(0.5, calibrate(0.05), k_list=(2, 1),
                              repetitions=1)
        series = run_synthetic(w)
        assert series.label == w.label
        assert [k for k, _ in series.points] == [1, 2]
        assert series.baseline_k == 1
        assert all(t > 0 for _, t in series.points)

    def test_hard_cap_rejected(self):
        cap = 4 * available_processors()
        w = SyntheticWorkload(0.5, 100, k_list=(cap + 1,))
        with pytest.raises(ValueError, match="hard cap"):
            run_synthetic(w)

    def test_failing_worker_surfaces_as_runtime_error(self, monkeypatch):
        def bad_worker(units, release):
            os.read(release, 1)
            os._exit(5)

        monkeypatch.setattr(harness, "_worker", bad_worker)
        w = SyntheticWorkload(0.5, 1000, k_list=(1,), repetitions=1)
        with pytest.raises(RuntimeError, match="exited with code 5"):
            run_synthetic(w)

    def test_worker_dying_before_release_does_not_hang(self, monkeypatch):
        monkeypatch.setattr(harness, "_worker", lambda units, release: os._exit(3))
        with _leaves_nothing_behind(), pytest.raises(RuntimeError, match="exited with code 3"):
            run_synthetic(SyntheticWorkload(0.5, 1000, k_list=(2,), repetitions=1))

    @has_affinity
    def test_spawn_failure_reaps_workers_and_closes_pipe(self, monkeypatch):
        cpu = min(os.sched_getaffinity(0))
        pinned = []

        def pin(pid, mask):
            pinned.append(pid)
            if len(pinned) == 2:
                raise OSError("pinning refused")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {cpu, cpu + 1})
        monkeypatch.setattr(os, "sched_setaffinity", pin)
        with _leaves_nothing_behind(), pytest.raises(
                RuntimeError, match="worker spawn failed: pinning refused"):
            harness._measure_once(SyntheticWorkload(1.0, 2000).plan(2))
        assert len(pinned) == 2

    def test_clean_run_leaves_nothing_behind(self):
        with _leaves_nothing_behind():
            assert harness._measure_once(SyntheticWorkload(1.0, 2000).plan(2)) > 0.0

    def test_worker_dying_after_release_leaves_nothing_behind(self, monkeypatch):
        def dies_if_idle(units, release):
            os.read(release, 1)
            if units == 0:
                os._exit(4)
            harness._spin(units)

        monkeypatch.setattr(harness, "_worker", dies_if_idle)
        with _leaves_nothing_behind(), pytest.raises(RuntimeError, match="exited with code 4"):
            harness._measure_once(Timeline((sequential(0), control(0), control(0),
                                            parallel_chunk(0), parallel_chunk(10**6))))

    def test_no_fork_or_reap_inside_the_clock(self, monkeypatch):
        events = []

        def recorder(name, real):
            def call(*args):
                events.append(name)
                return real(*args)
            return call

        monkeypatch.setattr(os, "fork", recorder("fork", os.fork))
        monkeypatch.setattr(os, "waitpid", recorder("waitpid", os.waitpid))
        monkeypatch.setattr(harness.time, "perf_counter",
                            recorder("clock", harness.time.perf_counter))
        with _leaves_nothing_behind():
            harness._measure_once(SyntheticWorkload(1.0, 2000).plan(2))
            # Read before the guard's own waitpid check is recorded.
            at = {name: [i for i, e in enumerate(events) if e == name]
                  for name in ("fork", "clock", "waitpid")}
        assert len(at["fork"]) == len(at["waitpid"]) == 2 and len(at["clock"]) >= 2, events
        # The process lifecycle lies outside the measured interval.
        assert max(at["fork"]) < at["clock"][0], events
        assert min(at["waitpid"]) > at["clock"][1], events

    def test_repetitions_interleave_across_k(self, monkeypatch):
        measured = []
        times = iter([5.0, 3.0, 2.0, 4.0, 1.0, 6.0])

        def fake_measure(plan):
            measured.append(len(plan.chunk_durations))
            return next(times)

        monkeypatch.setattr(harness, "_measure_once", fake_measure)
        w = SyntheticWorkload(0.5, 1000, k_list=(1, 2, 4), repetitions=2)
        series = run_synthetic(w)
        assert measured == [1, 2, 4, 1, 2, 4]
        assert series.points == ((1, 4.0), (2, 1.0), (4, 2.0))

    def test_every_plan_built_before_the_first_measurement(self, monkeypatch):
        events = []
        real_plan = SyntheticWorkload.plan
        monkeypatch.setattr(SyntheticWorkload, "plan",
                            lambda w, k: events.append(f"plan {k}") or real_plan(w, k))
        monkeypatch.setattr(harness, "_measure_once",
                            lambda plan: events.append(len(plan.chunk_durations)) or 1.0)
        run_synthetic(SyntheticWorkload(0.5, 1000, k_list=(1, 2), repetitions=2))
        assert events == ["plan 1", "plan 2", 1, 2, 1, 2]

    @has_affinity
    def test_workers_pinned_one_per_processor(self, monkeypatch):
        cpus = sorted(os.sched_getaffinity(0))[:2]
        calls = _record_pinning(monkeypatch, cpus)
        run_synthetic(SyntheticWorkload(0.5, 1000, k_list=(len(cpus),),
                                        repetitions=1))
        # The k=1 baseline first, then one worker on each processor.
        expected = [{cpus[0]}] + ([{c} for c in cpus] if len(cpus) > 1 else [])
        assert [set(mask) for _, mask in calls] == expected

    @has_affinity
    def test_oversubscribed_workers_left_unpinned(self, monkeypatch):
        cpu = min(os.sched_getaffinity(0))
        calls = _record_pinning(monkeypatch, [cpu])
        run_synthetic(SyntheticWorkload(0.5, 1000, k_list=(2,), repetitions=1))
        # Only the k=1 baseline's worker is pinned.
        assert [set(mask) for _, mask in calls] == [{cpu}]

    @multi_cpu
    @pytest.mark.host_timing
    def test_parallel_workload_speeds_up(self):
        w = SyntheticWorkload(1.0, calibrate(0.3), k_list=(1, 2),
                              repetitions=3)
        series = run_synthetic(w)
        row = next(r for r in analyze(series).rows if r.k == 2)
        assert 1.6 <= row.speedup <= 2.0, _side_by_side(w, series.points, 0.3)

    @multi_cpu
    @pytest.mark.host_timing
    def test_control_overhead_lowers_measured_alpha(self):
        # The modelled gap (alpha_eff 0.5 vs 0.4 at k=2, see TestPlan) is
        # smaller than a shared host's speed drift over a few seconds, so
        # the workloads take turns one repetition at a time, the first
        # alternating, and each keeps its per-k minimum over its rounds.
        total = calibrate(0.25)
        lean = SyntheticWorkload(0.5, total, overhead_fraction=0.0,
                                 k_list=(1, 2), repetitions=1)
        heavy = SyntheticWorkload(0.5, total, overhead_fraction=0.5,
                                  k_list=(1, 2), repetitions=1)
        best = {lean: {}, heavy: {}}
        for round_ in range(6):
            for w in (lean, heavy) if round_ % 2 == 0 else (heavy, lean):
                for k, t in run_synthetic(w).points:
                    best[w][k] = min(t, best[w].get(k, math.inf))
        alpha_of = lambda w: metrics.alpha_eff(best[w][1] / best[w][2], 2)
        # Heavy adds the same control time at k=1 and k=2, so it can only
        # read lower while lean really speeds up.
        assert alpha_of(heavy) < alpha_of(lean), (
            f"minimum T(k): lean {_side_by_side(lean, best[lean].items(), 0.25)}; "
            f"heavy {_side_by_side(heavy, best[heavy].items(), 0.25)}; "
            f"lean S(2) = {best[lean][1] / best[lean][2]:.3f}")


# -------------------------------------------------------- workload_from_spec

class TestWorkloadFromSpec:
    def test_full_spec(self):
        w = workload_from_spec(
            '{"alpha": 0.8, "total_ms": 20, "overhead": 0.3,'
            ' "k_list": [4, 2], "reps": 2}')
        assert w.alpha_target == 0.8
        assert w.overhead_fraction == 0.3
        assert w.k_list == (1, 2, 4)
        assert w.repetitions == 2
        assert w.total_work >= 1

    def test_defaults(self):
        w = workload_from_spec({"alpha": 0.5, "total_ms": 20})
        assert w.k_list == (1, 2, 4)
        assert w.repetitions == 3
        assert w.overhead_fraction == 0.0

    def test_accepts_file_object(self):
        import io
        w = workload_from_spec(io.StringIO('{"alpha": 0.5, "total_ms": 20}'))
        assert w.alpha_target == 0.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown workload key.*turbo"):
            workload_from_spec({"alpha": 0.5, "total_ms": 20, "turbo": True})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing key 'alpha'"):
            workload_from_spec({"total_ms": 20})
        with pytest.raises(ValueError, match="missing key 'total_ms'"):
            workload_from_spec({"alpha": 0.5})

    def test_utf8_bom_skipped_and_utf16_rejected(self):
        spec = '\ufeff{"alpha": 0.5, "total_ms": 20}'
        assert workload_from_spec(spec).alpha_target == 0.5
        assert workload_from_spec(spec.encode("utf-8")).alpha_target == 0.5
        # Decoded as UTF-8, like every measurement and scenario input; the
        # UTF-16 BOM's first byte is the one that fails.
        with pytest.raises(DataFormatError) as info:
            workload_from_spec(spec.encode("utf-16"))
        assert str(info.value) == "invalid workload JSON: line 1: input is not UTF-8 (byte 0xff)"

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError, match="invalid workload JSON"):
            workload_from_spec("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            workload_from_spec("[1, 2]")

    def test_bad_field_types_rejected(self):
        with pytest.raises(ValueError, match="total_ms"):
            workload_from_spec({"alpha": 0.5, "total_ms": "fast"})
        with pytest.raises(ValueError, match="k_list"):
            workload_from_spec({"alpha": 0.5, "total_ms": 20, "k_list": 4})

    @pytest.mark.parametrize("spec, message", [
        ({"alpha": 1, "total_ms": 1, "k_list": [True, 2]}, "k values"),
        ({"alpha": "0.5", "total_ms": 1}, "alpha_target"),
        ({"alpha": 0.5, "total_ms": 1, "overhead": "0.1"}, "overhead_fraction"),
        ({"alpha": 0.5, "total_ms": 1, "reps": True}, "repetitions"),
    ])
    def test_bools_and_strings_rejected(self, monkeypatch, spec, message):
        monkeypatch.setattr(harness, "calibrate", lambda seconds: 1000)
        with pytest.raises(ValueError, match=message):
            workload_from_spec(spec)

    @pytest.mark.parametrize("spec, message", [
        ({"alpha": 1.5, "total_ms": 20}, r"alpha_target must lie in \[0, 1\], got 1.5"),
        ({"alpha": 0.5, "total_ms": 20, "k_list": [1, 0]}, "k values must be integers >= 1, got 0"),
        ({"alpha": 0.5, "total_ms": 20, "reps": 0}, "repetitions must be an integer >= 1, got 0"),
        ({"alpha": 1.5, "total_ms": -1}, "alpha_target"),
        ({"alpha": 0.5, "total_ms": 5, "overhead": 1e308}, "overhead_fraction must be >= 0"),
        ({"alpha": 0.5, "total_ms": -5}, "total_ms must be positive and finite, got -5$"),
        ({"alpha": 0.5, "total_ms": 0}, "total_ms must be positive and finite, got 0$"),
        ({"alpha": 0.5, "total_ms": math.nan}, "total_ms must be positive and finite, got nan"),
        ({"alpha": 0.5, "total_ms": math.inf}, "total_ms must be positive and finite, got inf"),
        ({"alpha": 0.5, "total_ms": 20, "k_list": [4 * available_processors() + 1]},
         "exceeds the hard cap"),
        ({"alpha": 0.5, "total_ms": 1e6},
         r"total_ms must lie in \[0.001, 60000\] milliseconds, got 1000000.0$"),
        ({"alpha": 0.5, "total_ms": 60_001},
         r"total_ms must lie in \[0.001, 60000\] milliseconds, got 60001$"),
        ({"alpha": 0.5, "total_ms": 0.0009},
         r"total_ms must lie in \[0.001, 60000\] milliseconds, got 0.0009$"),
        ({"alpha": 0.5, "total_ms": 1, "overhead": 1e200},
         "overhead 1e[+]200 makes the modelled k=1 run 5e[+]199 ms, past the 60000 ms bound"),
        ({"alpha": 1, "total_ms": 60_000, "overhead": 1e-9}, "overhead 1e-09 makes"),
        ({"alpha": 1.5, "total_ms": 1e6}, "alpha_target"),
        ({"alpha": 0.5, "total_ms": 1e6, "k_list": [4 * available_processors() + 1]},
         "total_ms must lie in"),
    ])
    def test_fields_checked_before_calibrating(self, monkeypatch, spec, message):
        def calibrate(seconds):
            raise AssertionError("calibrated before the fields were checked")

        monkeypatch.setattr(harness, "calibrate", calibrate)
        with pytest.raises(ValueError, match=message):
            workload_from_spec(spec)

    @pytest.mark.parametrize("spec", [
        {"alpha": 0.5, "total_ms": 0.001},
        {"alpha": 0.5, "total_ms": 60_000},
        {"alpha": 0.0, "total_ms": 60_000, "overhead": 1e200},
        {"alpha": 0.5, "total_ms": 30_000, "overhead": 2},
    ], ids=["shortest", "longest", "no-chunk-to-control", "overhead-at-the-bound"])
    def test_runs_within_the_bound_are_calibrated(self, monkeypatch, spec):
        asked = []
        monkeypatch.setattr(harness, "calibrate", lambda seconds: asked.append(seconds) or 1000)
        assert workload_from_spec(spec).total_work == 1000
        assert asked == [spec["total_ms"] / 1000.0]


# --------------------------------------------------------------- processors

def test_available_processors_positive():
    n = available_processors()
    assert isinstance(n, int)
    assert n >= 1
