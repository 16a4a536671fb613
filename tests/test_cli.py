"""Command-line interface tests.

Each test drives ``main(argv)`` in-process and asserts on exit code,
stdout and stderr; one subprocess test checks the ``python -m`` entry
point for real.  Exit code contract: 0 success, 1 I/O or runtime
failure, 2 bad input or usage.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import zipfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alphaeff
from alphaeff import dataio, harness, metrics, timeline
from alphaeff.cli import main

CSV_SMOKE = """\
label,k,value,kind
solver,1,10.0,time
solver,2,5.4,time
solver,4,3.0,time
"""


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ----------------------------------------------------------------- analyze

class TestAnalyze:
    def test_fixture_table(self, capsys):
        rc, out, err = run_cli(capsys, "analyze", "fixtures://linpack_architectures")
        assert rc == 0
        assert err == ""
        assert "Cray Y-MP/8" in out
        assert "Alliant FX/80" in out
        assert "serial_fraction" in out
        assert "0.025641" in out   # Cray k=2

    def test_fit_flag_appends_fitted_models(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze",
                             "fixtures://linpack_architectures", "--fit")
        assert rc == 0
        assert out.count("fitted:") == 3
        assert "alpha=0.978255" in out   # Cray least-squares fit

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "fixtures://audio_radar",
                             "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 4
        labels = {entry["label"] for entry in doc["reports"]}
        assert any("Audio" in lab for lab in labels)

    def test_csv_format_round_trips(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "fixtures://audio_radar",
                             "--format", "csv")
        assert rc == 0
        series = dataio.parse_measurements(out)
        assert len(series) == 4
        assert all(s.value_kind is dataio.ValueKind.SPEEDUP for s in series)

    def test_plot_blocks_appended(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "fixtures://audio_radar",
                             "--plot", "efficiency")
        assert rc == 0
        assert out.count("# series:") == 4
        assert "# xscale: log" in out

    def test_plot_scale_override(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "fixtures://audio_radar",
                             "--plot", "efficiency", "--xscale", "linear")
        assert rc == 0
        assert "# xscale: linear" in out

    def test_plot_with_json_is_data_error(self, capsys):
        # Plot blocks after a JSON document would make the output not JSON.
        rc, out, err = run_cli(capsys, "analyze", "fixtures://audio_radar",
                               "--format", "json", "--plot", "efficiency")
        assert (rc, out) == (2, "")
        assert err == ("error: --plot blocks cannot follow a JSON document; "
                       "use --format table or csv\n")

    def test_plot_with_csv_appends_blocks(self, capsys):
        rc, out, _ = run_cli(capsys, "analyze", "fixtures://audio_radar",
                             "--format", "csv", "--plot", "efficiency")
        assert rc == 0
        assert out.count("# series:") == 4

    def test_csv_k_past_index_range_names_its_line(self, capsys, monkeypatch):
        k = 10**400
        text = f"label,k,value,kind\na,1,1.0,speedup\na,{k},2.0,speedup\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        rc, out, err = run_cli(capsys, "analyze", "-")
        assert (rc, out, err) == (2, "", f"error: line 3: k must be an integer >= 1, got {k}\n")

    def test_file_input_with_fit(self, capsys, tmp_path):
        pts = [(k, metrics.amdahl_speedup(0.9, k)) for k in (2, 4, 8, 16)]
        lines = ["label,k,value,kind"]
        lines += [f"model,{k},{s!r},speedup" for k, s in pts]
        path = tmp_path / "model.csv"
        path.write_text("\n".join(lines) + "\n")
        rc, out, _ = run_cli(capsys, "analyze", str(path), "--fit")
        assert rc == 0
        assert "alpha=0.9" in out

    def test_stdin_json_sniffed(self, capsys, monkeypatch):
        doc = {"series": [{"label": "s", "kind": "speedup",
                           "points": [{"k": 2, "value": 1.8}]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        rc, out, _ = run_cli(capsys, "analyze", "-")
        assert rc == 0
        assert "s" in out and "1.8" in out

    def test_stdin_json_with_utf8_bom_sniffed(self, capsys, monkeypatch):
        doc = {"series": [{"label": "s", "kind": "speedup",
                           "points": [{"k": 2, "value": 1.8}]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + json.dumps(doc)))
        rc, out, err = run_cli(capsys, "analyze", "-")
        assert (rc, err) == (0, "")
        assert out.splitlines()[1].split()[:3] == ["s", "2", "1.8"]

    def test_json_extension_sniffed(self, capsys, tmp_path):
        series = dataio.parse_measurements(CSV_SMOKE)
        path = tmp_path / "runs.json"
        path.write_text(dataio.emit_measurements(series, format="json"))
        rc, out, _ = run_cli(capsys, "analyze", str(path))
        assert rc == 0
        assert "solver" in out

    def test_json_content_sniffed_in_any_file(self, capsys, tmp_path):
        series = dataio.parse_measurements(CSV_SMOKE)
        path = tmp_path / "runs.txt"
        path.write_text(dataio.emit_measurements(series, format="json"))
        rc, out, err = run_cli(capsys, "analyze", str(path))
        assert (rc, err) == (0, "")
        assert out.splitlines()[1].split()[:2] == ["solver", "1"]
        rc, _, err = run_cli(capsys, "analyze", str(path), "--input-format", "csv")
        assert rc == 2
        assert err.startswith("error: line 1: header missing column(s)")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.txt"
        rc, out, _ = run_cli(capsys, "analyze",
                             "fixtures://linpack_architectures",
                             "--output", str(target))
        assert rc == 0
        assert out == ""
        assert "Cray Y-MP/8" in target.read_text()

    def test_missing_file_is_io_error(self, capsys):
        rc, out, err = run_cli(capsys, "analyze", "/no/such/file.csv")
        assert rc == 1
        assert err.startswith("error:")

    def test_malformed_csv_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,k,value,kind\nx,1,1.0,time\nx,two,0.5,time\n")
        rc, _, err = run_cli(capsys, "analyze", str(path))
        assert rc == 2
        assert "line 3" in err

    def test_file_not_utf8_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"label,k,value,kind\nx,1,1.0,time\n\xffx,2,0.6,time\n")
        rc, out, err = run_cli(capsys, "analyze", str(path))
        assert (rc, out, err) == (2, "", "error: line 3: input is not UTF-8 (byte 0xff)\n")

    def test_empty_input_warns_but_succeeds(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,k,value,kind\n")
        rc, out, err = run_cli(capsys, "analyze", str(path))
        assert rc == 0
        assert len(out.strip().splitlines()) == 1   # header only
        assert err == "warning: no measurement rows in input\n"

    def test_lone_numeric_json_label_is_data_error(self, capsys, monkeypatch):
        doc = {"series": [{"label": 7, "kind": "speedup", "points": [{"k": 2, "value": 1.5}]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, "analyze", "-")
        assert (rc, out) == (2, "")
        assert err == "error: series[0]: label must be a string, got 7\n"

    @pytest.mark.parametrize("field, message", [
        ("value", "error: series[0].points[0]: value must be a number\n"),
        ("k", f"error: series[0].points[0]: k must be an integer >= 1, got {10**400}\n"),
    ], ids=["value", "k"])
    def test_json_int_past_float_range_is_data_error(self, capsys, monkeypatch,
                                                     field, message):
        point = {"k": 1, "value": 1.0, field: 10**400}
        doc = {"series": [{"label": "a", "kind": "speedup", "points": [point]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, "analyze", "-")
        assert (rc, out, err) == (2, "", message)

    def test_json_int_past_digit_limit_is_data_error(self, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits()
        doc = '{"series": [{"label": "a", "kind": "speedup", "points": [{"k": %s, "value": 1.0}]}]}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc % ("9" * (limit + 700))))
        rc, out, err = run_cli(capsys, "analyze", "-")
        assert (rc, out, err) == (2, "", f"error: invalid JSON: integer longer than {limit} digits\n")

    def test_fit_residual_past_float_range_reads_inf(self, capsys, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("label,k,value,kind\na,1,1.0,speedup\n"
                        "a,2,1e-200,speedup\na,3,1e-200,speedup\n")
        rc, out, err = run_cli(capsys, "analyze", str(path), "--fit")
        assert (rc, err) == (0, "")
        assert "fitted: a  alpha=0  residual=inf" in out.splitlines()

    def test_non_finite_json_is_data_error(self, capsys, tmp_path):
        # RFC 8259 JSON has no inf, so that format refuses the report.
        path = tmp_path / "tiny.csv"
        path.write_text("label,k,value,kind\na,1,1.0,speedup\n"
                        "a,2,1e-200,speedup\na,3,1e-200,speedup\n")
        rc, out, err = run_cli(capsys, "analyze", str(path), "--format", "json")
        assert (rc, out) == (2, "")
        assert err == ("error: JSON cannot carry the non-finite number (inf or nan) "
                       "in this output; --format table or csv shows it\n")

    def test_published_only_fixture_points_at_export(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "fixtures://soc_rosenbrock")
        assert rc == 2
        assert "fixtures export" in err

    def test_unknown_fixture(self, capsys):
        rc, _, err = run_cli(capsys, "analyze", "fixtures://nope")
        assert rc == 2
        assert "unknown fixture" in err


# ---------------------------------------------------------------- simulate

class TestSimulate:
    def test_realistic_scenario(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "fixtures://realistic",
                             "--k", "3")
        assert rc == 0
        assert "t_serial: 10" in out
        assert "t_total: 7" in out
        assert "speedup: 1.42857" in out
        assert "alpha_eff: 0.45" in out
        assert "serial_fraction: 0.55" in out
        assert "w0" in out and "w2" in out
        assert "|" in out   # utilization bars

    def test_single_worker_flags_slowdown(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "fixtures://realistic",
                             "--k", "1")
        assert rc == 0
        assert "speedup: 0.869565 (slowdown)" in out
        assert "alpha_eff: n/a (k=1)" in out

    def test_classic_with_spare_worker(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "fixtures://classic",
                             "--k", "4")
        assert rc == 0
        assert "alpha_eff: 0.666667" in out

    def test_lpt_policy(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "fixtures://realistic",
                             "--k", "2", "--policy", "lpt")
        assert rc == 0
        assert "policy: lpt" in out

    def test_explicit_policy_json(self, capsys):
        rc, out, _ = run_cli(capsys, "simulate", "fixtures://realistic",
                             "--k", "3", "--policy", "0,1,2",
                             "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["assignment"] == [0, 1, 2]
        assert doc["per_processor_busy"] == [2.5, 2.0, 3.0]
        assert doc["alpha_eff"] == pytest.approx(0.45, abs=1e-12)
        assert doc["regime"] == "normal"

    def test_scenario_file_and_stdin(self, capsys, tmp_path, monkeypatch):
        doc = {"segments": [{"kind": "S", "duration": 1.0},
                            {"kind": "P", "duration": 2.0}]}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run_cli(capsys, "simulate", str(path), "--k", "2")
        assert rc == 0
        assert "t_serial: 3" in out

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        rc, out2, _ = run_cli(capsys, "simulate", "-", "--k", "2")
        assert rc == 0
        assert out2 == out

    def test_file_not_utf8_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"segments": [\n{"kind": "P", "duration": 1},\n\xff]}\n')
        rc, out, err = run_cli(capsys, "simulate", str(path), "--k", "2")
        assert (rc, out) == (2, "")
        assert err == "error: invalid JSON: line 3: input is not UTF-8 (byte 0xff)\n"

    def test_durations_past_float_range_are_data_error(self, capsys, monkeypatch):
        doc = {"segments": [{"kind": "S", "duration": 1e308}, {"kind": "S", "duration": 1e308},
                            {"kind": "P", "duration": 1}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, "simulate", "-", "--k", "2")
        assert (rc, out) == (2, "")
        assert err == "error: timeline durations sum past the float range\n"

    def test_json_int_duration_past_float_range_is_data_error(self, capsys, monkeypatch):
        doc = {"segments": [{"kind": "S", "duration": 10**400}, {"kind": "P", "duration": 1}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, "simulate", "-", "--k", "2")
        assert (rc, out, err) == (2, "", "error: segments[0]: duration must be a number\n")

    def test_json_int_duration_past_digit_limit_is_data_error(self, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits()
        doc = '{"segments": [{"kind": "S", "duration": %s}, {"kind": "P", "duration": 1}]}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc % ("9" * (limit + 700))))
        rc, out, err = run_cli(capsys, "simulate", "-", "--k", "2")
        assert (rc, out, err) == (2, "", f"error: invalid JSON: integer longer than {limit} digits\n")

    @pytest.mark.parametrize("policy", ["round-robin", "lpt"])
    def test_k_past_index_range_is_data_error(self, capsys, policy):
        k = 10**400
        rc, out, err = run_cli(capsys, "simulate", "fixtures://classic",
                               "--k", str(k), "--policy", policy)
        assert (rc, out, err) == (2, "", f"error: k must be an integer >= 1, got {k}\n")

    @pytest.mark.parametrize("policy", ["round-robin", "lpt"])
    def test_k_past_memory_is_io_error(self, capsys, policy):
        # 2**61 loads need 2**64 bytes, which CPython refuses before asking for them.
        rc, out, err = run_cli(capsys, "simulate", "fixtures://classic",
                               "--k", str(2**61), "--policy", policy)
        assert (rc, out, err) == (1, "", "error: out of memory\n")

    def test_bad_policy(self, capsys):
        rc, _, err = run_cli(capsys, "simulate", "fixtures://classic",
                             "--k", "2", "--policy", "fastest")
        assert rc == 2
        assert "policy" in err

    def test_explicit_policy_wrong_length(self, capsys):
        rc, _, err = run_cli(capsys, "simulate", "fixtures://classic",
                             "--k", "2", "--policy", "0,1")
        assert rc == 2

    def test_unknown_scenario(self, capsys):
        rc, _, err = run_cli(capsys, "simulate", "fixtures://bogus", "--k", "2")
        assert rc == 2
        assert "unknown scenario" in err

    def test_k_required(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "fixtures://classic"])
        assert exc_info.value.code == 2


# ----------------------------------------------------------------- surface

class TestSurface:
    def test_default_grid_shape(self, capsys):
        rc, out, _ = run_cli(capsys, "surface")
        assert rc == 0
        blocks = out.rstrip("\n").split("\n\n\n")
        assert len(blocks) == 11
        for block in blocks:
            lines = block.splitlines()
            assert lines[0].startswith("# series: seq=")
            data = [l for l in lines if not l.startswith("#")]
            assert len(data) == 11

    def test_known_corner_values_in_plot(self, capsys):
        rc, out, _ = run_cli(capsys, "surface", "--steps", "2",
                             "--seq-range", "0:0.75",
                             "--overhead-range", "0:0.25",
                             "--k", "3", "--chunk", "0.25")
        assert rc == 0
        blocks = out.rstrip("\n").split("\n\n\n")
        first = [l for l in blocks[0].splitlines() if not l.startswith("#")]
        second = [l for l in blocks[1].splitlines() if not l.startswith("#")]
        assert first[0] == "0.0 1.0"      # no serial work, no overhead
        ov, alpha = (float(v) for v in first[1].split())
        assert ov == 0.25
        assert alpha == pytest.approx(0.875, rel=1e-12)
        assert second[0] == "0.0 0.5"     # balanced serial/parallel

    def test_json_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "surface", "--format", "json",
                             "--steps", "5")
        assert rc == 0
        doc = json.loads(out)
        assert doc["k"] == 3
        assert len(doc["seq_values"]) == 5
        assert len(doc["alpha"]) == 5
        assert all(len(row) == 5 for row in doc["alpha"])
        assert doc["alpha"][0][0] == 1.0

    def test_degenerate_range_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "surface", "--seq-range", "0:0")
        assert rc == 2

    def test_malformed_range_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "surface", "--seq-range", "0..8")
        assert rc == 2
        assert "LO:HI" in err

    @pytest.mark.parametrize("argv, message", [
        (("--seq-range", "a:b"), "range bounds must be numbers, got 'a:b'"),
        (("--seq-range", "0:inf", "--steps", "3"), "seq_range must be finite, got (0.0, inf)"),
        (("--overhead-range", "0:nan"), "overhead_range must be finite, got (0.0, nan)"),
        (("--seq-range=-1e308:1e308",), "seq_range (-1e+308, 1e+308) is wider than the float range"),
        (("--overhead-range=-1e308:1e308",),
         "overhead_range (-1e+308, 1e+308) is wider than the float range"),
    ], ids=["not-numbers", "seq-inf", "overhead-nan", "seq-too-wide", "overhead-too-wide"])
    def test_bad_bounds_rejected(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, "surface", *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_negative_low_end_after_equals_sign(self, capsys):
        rc, out, err = run_cli(capsys, "surface", "--seq-range=-0.0:1", "--steps", "2")
        assert (rc, err) == (0, "")
        assert out.startswith("# series: seq=0\n")

    def test_negative_low_end_after_space_is_usage_error(self, capsys):
        # argparse reads "-0.0:1" as an option; the help names the = form.
        with pytest.raises(SystemExit) as exc_info:
            main(["surface", "--seq-range", "-0.0:1", "--steps", "2"])
        assert exc_info.value.code == 2
        assert "--seq-range: expected one argument" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["surface", "--help"])
        help_text = capsys.readouterr().out
        assert "--seq-range=LO:HI" in help_text
        assert "--overhead-range=LO:HI" in help_text

    def test_too_few_steps_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "surface", "--steps", "1")
        assert rc == 2

    @pytest.mark.parametrize("flag, message", [
        ("--k", "surface needs integer k >= 2, got {}"),
        ("--steps", "steps must be an integer >= 2, got {}"),
    ], ids=["k", "steps"])
    def test_count_past_index_range_is_data_error(self, capsys, flag, message):
        big = 10**400
        rc, out, err = run_cli(capsys, "surface", flag, str(big))
        assert (rc, out, err) == (2, "", f"error: {message.format(big)}\n")

    @pytest.mark.parametrize("steps", ["3163", "20000", "9223372036854775807"])
    def test_grid_past_the_cell_cap_is_data_error(self, capsys, monkeypatch, steps):
        def never(*args):
            raise AssertionError("an axis was built past the cell cap")

        monkeypatch.setattr(timeline, "_linspace", never)
        rc, out, err = run_cli(capsys, "surface", "--steps", steps)
        assert (rc, out) == (2, "")
        assert err == (f"error: steps must be at most 3162, got {steps} "
                       "(a grid holds at most 10,000,000 cells)\n")

    @pytest.mark.parametrize("argv, cell", [
        (("--k", "3", "--chunk", "1e308", "--steps", "2"), "seq_time=0.0, overhead_fraction=0.0"),
        (("--overhead-range", "0:1e308", "--chunk", "10"),
         "seq_time=0.0, overhead_fraction=2e+307"),
        (("--overhead-range", "1e308:1.7e308", "--chunk", "1e308", "--steps", "2"),
         "seq_time=0.0, overhead_fraction=1e+308"),
    ], ids=["serial-inf", "total-inf", "both-inf"])
    def test_times_past_float_range_name_the_cell(self, capsys, argv, cell):
        rc, out, err = run_cli(capsys, "surface", *argv)
        assert (rc, out) == (2, "")
        assert err == f"error: surface times pass the float range at {cell}\n"


# ------------------------------------------------------------------- bench

class TestBench:
    def test_tiny_run_parses_back(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--alpha", "0.5",
                             "--total-ms", "30", "--k", "1,2", "--reps", "1")
        assert rc == 0
        series = dataio.parse_measurements(out)
        assert len(series) == 1
        s = series[0]
        assert s.label == "synthetic-a0.5-o0"
        assert [k for k, _ in s.points] == [1, 2]
        assert s.value_kind is dataio.ValueKind.WALL_TIME

    def test_json_output(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--alpha", "0.5",
                             "--total-ms", "20", "--k", "1", "--reps", "1",
                             "--format", "json")
        assert rc == 0
        series = dataio.parse_measurements(out, format="json")
        assert series[0].points[0][0] == 1

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"alpha": 0.5, "total_ms": 20, "k_list": [1], "reps": 1}')
        rc, out, _ = run_cli(capsys, "bench", "--spec", str(path))
        assert rc == 0
        assert "synthetic-a0.5-o0" in out

    def test_spec_not_utf8_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b'\xef\xbb\xbf{"alpha": 0.5,\n"total_ms": 20,\n\xff}\n')
        rc, out, err = run_cli(capsys, "bench", "--spec", str(path))
        assert (rc, out) == (2, "")
        assert err == "error: invalid workload JSON: line 3: input is not UTF-8 (byte 0xff)\n"

    def test_alpha_required_without_spec(self, capsys):
        rc, _, err = run_cli(capsys, "bench")
        assert rc == 2
        assert "--alpha" in err

    def test_bad_k_list(self, capsys):
        rc, _, err = run_cli(capsys, "bench", "--alpha", "0.5", "--k", "1,x")
        assert rc == 2

    def test_alpha_out_of_range(self, capsys):
        rc, _, err = run_cli(capsys, "bench", "--alpha", "1.5",
                             "--total-ms", "20", "--k", "1", "--reps", "1")
        assert rc == 2

    def test_oversubscription_cap(self, capsys):
        rc, _, err = run_cli(capsys, "bench", "--alpha", "0.5",
                             "--total-ms", "20", "--k", "999", "--reps", "1")
        assert rc == 2
        assert "hard cap" in err

    @pytest.mark.parametrize("use_spec", [False, True], ids=["flags", "spec"])
    def test_cap_is_checked_before_calibrating(self, capsys, monkeypatch, use_spec):
        def never(*args):
            raise AssertionError("no calibration or worker may start past the cap")

        n = harness.available_processors()
        k = 4 * n + 1
        monkeypatch.setattr(harness, "calibrate", never)
        monkeypatch.setattr(harness, "_measure_once", never)
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            '{"alpha": 0.5, "total_ms": 250, "k_list": [1, %d]}' % k))
        argv = ["--spec", "-"] if use_spec else ["--alpha", "0.5", "--k", f"1,{k}"]
        rc, out, err = run_cli(capsys, "bench", *argv)
        assert (rc, out) == (2, "")
        assert err == (f"error: k={k} exceeds the hard cap of {4 * n} "
                       f"(4 x {n} available processors)\n")

    def test_oversubscription_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["bench", "--max-oversubscription", "4", "--alpha", "0.5", "--k", "1"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --max-oversubscription 4" in capsys.readouterr().err

    @pytest.mark.parametrize("total_ms, message", [
        ("-1", "total_ms must be positive and finite, got -1.0"),
        ("1e308", "total_ms must lie in [0.001, 60000] milliseconds, got 1e+308"),
    ], ids=["negative", "past-2**53-units"])
    def test_total_ms_refused_before_spinning_at_target(self, capsys, monkeypatch,
                                                        total_ms, message):
        real = harness._timed_spin

        def bounded(units):
            assert units <= 2**53, f"asked to spin {units} units"
            return real(units)

        monkeypatch.setattr(harness, "_timed_spin", bounded)
        rc, out, err = run_cli(capsys, "bench", "--alpha", "0.5", "--total-ms", total_ms,
                               "--k", "1", "--reps", "1")
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (("--total-ms", "1e6"), "total_ms must lie in [0.001, 60000] milliseconds, got 1000000.0"),
        (("--total-ms", "60000.5"), "total_ms must lie in [0.001, 60000] milliseconds, got 60000.5"),
        (("--total-ms", "1e-5"), "total_ms must lie in [0.001, 60000] milliseconds, got 1e-05"),
        (("--overhead", "1e200", "--total-ms", "1"),
         "overhead 1e+200 makes the modelled k=1 run 5e+199 ms, past the 60000 ms bound"),
        (("--overhead", "1", "--total-ms", "40001"),
         "overhead 1.0 makes the modelled k=1 run 60001.5 ms, past the 60000 ms bound"),
    ], ids=["total-ms-1e6", "total-ms-past-a-minute", "total-ms-1e-5", "overhead-1e200",
            "overhead-past-a-minute"])
    def test_run_past_its_bound_refused_before_calibrating(self, capsys, monkeypatch,
                                                          argv, message):
        def never(*args):
            raise AssertionError("no calibration or worker may start past the bound")

        monkeypatch.setattr(harness, "calibrate", never)
        monkeypatch.setattr(harness, "_measure_once", never)
        rc, out, err = run_cli(capsys, "bench", "--alpha", "0.5", *argv, "--k", "1", "--reps", "1")
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_spec_with_utf8_bom_on_stdin(self, capsys, monkeypatch):
        # A spec piped in with a BOM reads as it does from a file.
        spec = '\ufeff{"alpha": 0.5, "total_ms": 20, "k_list": [1], "reps": 1}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        rc, out, err = run_cli(capsys, "bench", "--spec", "-")
        assert (rc, err) == (0, "")
        assert "synthetic-a0.5-o0" in out

    def test_flags_and_spec_build_the_same_workload(self, capsys, monkeypatch, tmp_path):
        built = []

        def run_synthetic(workload):
            built.append(workload)
            return dataio.MeasurementSeries(workload.label, ((1, 1.0),),
                                            dataio.ValueKind.WALL_TIME)

        # One spin unit per microsecond, so total_ms shows in total_work.
        monkeypatch.setattr(harness, "calibrate", lambda seconds: round(seconds * 1e6))
        monkeypatch.setattr(harness, "run_synthetic", run_synthetic)
        path = tmp_path / "spec.json"
        path.write_text('{"alpha": 0.25, "total_ms": 40, "overhead": 0.1,'
                        ' "k_list": [4, 2], "reps": 2}')
        for argv in (["--alpha", "0.25", "--total-ms", "40", "--overhead", "0.1",
                      "--k", "4,2", "--reps", "2"], ["--spec", str(path)],
                     ["--alpha", "0.5"], ["--spec", "-"]):
            monkeypatch.setattr(sys, "stdin", io.StringIO('{"alpha": 0.5, "total_ms": 250}'))
            assert run_cli(capsys, "bench", *argv)[0] == 0
        assert built[0] == built[1] == harness.SyntheticWorkload(0.25, 40_000, 0.1, (2, 4), 2)
        assert built[2] == built[3] == harness.SyntheticWorkload(0.5, 250_000)

    def test_bool_k_in_spec_is_data_error(self, capsys, monkeypatch):
        # A k of true used to reach the CSV as "True", which analyze rejects.
        spec = '{"alpha": 1, "total_ms": 1, "k_list": [true, 2]}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        rc, out, err = run_cli(capsys, "bench", "--spec", "-")
        assert (rc, out) == (2, "")
        assert err == "error: k values must be integers >= 1, got True\n"

    def test_spec_int_total_ms_past_float_range_is_data_error(self, capsys, monkeypatch):
        spec = json.dumps({"alpha": 0.5, "total_ms": 10**400})
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        rc, out, err = run_cli(capsys, "bench", "--spec", "-")
        assert (rc, out, err) == (2, "", "error: total_ms must be a number\n")

    def test_spec_int_past_digit_limit_is_data_error(self, capsys, monkeypatch):
        limit = sys.get_int_max_str_digits()
        spec = '{"alpha": 0.5, "total_ms": %s}' % ("9" * (limit + 700))
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        rc, out, err = run_cli(capsys, "bench", "--spec", "-")
        assert (rc, out, err) == (
            2, "", f"error: invalid workload JSON: integer longer than {limit} digits\n")

    def test_bad_spec_keys(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"alpha": 0.5, "total_ms": 20, "turbo": true}')
        rc, _, err = run_cli(capsys, "bench", "--spec", str(path))
        assert rc == 2
        assert "turbo" in err


# ---------------------------------------------------------------- fixtures

class TestFixtures:
    def test_list(self, capsys):
        rc, out, _ = run_cli(capsys, "fixtures", "list")
        assert rc == 0
        assert out.splitlines() == list(dataio.FIXTURE_IDS)
        # One id per line is also valid one-column CSV.
        assert run_cli(capsys, "fixtures", "list", "--format", "csv") == (0, out, "")

    def test_list_json(self, capsys):
        rc, out, _ = run_cli(capsys, "fixtures", "list", "--format", "json")
        assert rc == 0
        assert json.loads(out) == list(dataio.FIXTURE_IDS)

    def test_show(self, capsys):
        rc, out, _ = run_cli(capsys, "fixtures", "show",
                             "linpack_architectures")
        assert rc == 0
        assert "id: linpack_architectures" in out
        assert "verifiable: yes" in out
        assert "Cray Y-MP/8" in out

    def test_show_json(self, capsys):
        rc, out, _ = run_cli(capsys, "fixtures", "show", "soc_rastrigin",
                             "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verifiable"] is False
        assert doc["series"] == []
        assert len(doc["published_serial_fraction"]) == 3

    def test_show_csv_rejected(self, capsys):
        rc, out, err = run_cli(capsys, "fixtures", "show", "audio_radar", "--format", "csv")
        assert (rc, out) == (2, "")
        assert err == "error: fixtures show has no csv format (expected table or json)\n"

    def test_show_needs_id(self, capsys):
        rc, _, err = run_cli(capsys, "fixtures", "show")
        assert rc == 2
        assert "needs a fixture id" in err

    def test_export_series_round_trips(self, capsys):
        rc, out, _ = run_cli(capsys, "fixtures", "export", "audio_radar")
        assert rc == 0
        fixture = dataio.load_fixture("audio_radar")
        assert tuple(dataio.parse_measurements(out)) == fixture.series

    def test_export_published_only_fixture(self, capsys):
        rc, out, _ = run_cli(capsys, "fixtures", "export", "soc_rosenbrock")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "label,k,serial_fraction"
        fixture = dataio.load_fixture("soc_rosenbrock")
        expected_rows = sum(
            len(pairs) for pairs in fixture.published_serial_fraction.values())
        assert len(lines) == 1 + expected_rows

    def test_export_published_json(self, capsys):
        rc, out, _ = run_cli(capsys, "fixtures", "export", "soc_rosenbrock",
                             "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        assert doc["id"] == "soc_rosenbrock"
        assert "Ring" in " ".join(doc["published_serial_fraction"])

    def test_export_to_file(self, capsys, tmp_path):
        target = tmp_path / "audio.csv"
        rc, out, _ = run_cli(capsys, "fixtures", "export", "audio_radar",
                             "--output", str(target))
        assert rc == 0
        assert out == ""
        assert target.read_text().startswith("label,k,value,kind")

    def test_unknown_id(self, capsys):
        rc, _, err = run_cli(capsys, "fixtures", "export", "bogus")
        assert rc == 2

    @pytest.mark.parametrize("fixture_id", dataio.FIXTURE_IDS)
    def test_export_table_rejected_for_every_fixture(self, capsys, fixture_id):
        rc, out, err = run_cli(capsys, "fixtures", "export", fixture_id, "--format", "table")
        assert (rc, out) == (2, "")
        assert err == "error: unknown measurement format 'table' (expected csv or json)\n"

    def test_published_value_that_is_not_a_number_is_data_error(self, capsys, monkeypatch):
        doc = {"id": "audio_radar", "description": "d", "verifiable": False, "series": [],
               "published_serial_fraction": {"a": [[2, "0.5"]]}}
        monkeypatch.setattr(dataio, "_read_bundled", lambda name: json.dumps(doc))
        rc, out, err = run_cli(capsys, "fixtures", "show", "audio_radar")
        assert (rc, out) == (2, "")
        assert err == "error: 'a': published serial fraction must be a number, got '0.5'\n"

    def test_unknown_action_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["fixtures", "frobnicate"])
        assert exc_info.value.code == 2


# ------------------------------------------------------ pinned output bytes

_ZERO_BASELINE = '{"segments": [{"kind": "C", "duration": 1.0}, {"kind": "P", "duration": 0.0}]}'


def _pinned_invocations():
    """name -> (argv, stdin) for the simulate, surface and fixtures documents."""
    cases = {}
    for scenario in dataio.SCENARIO_IDS:
        for policy in ("round-robin", "lpt", "2,0,1"):
            for fmt in ("table", "json"):
                cases[f"simulate-{scenario}-{policy}-{fmt}"] = (
                    ["simulate", f"fixtures://{scenario}", "--k", "3",
                     "--policy", policy, "--format", fmt], None)
    for fmt in ("table", "json"):
        cases[f"simulate-k1-{fmt}"] = (
            ["simulate", "fixtures://realistic", "--k", "1", "--format", fmt], None)
        cases[f"simulate-zero-baseline-{fmt}"] = (
            ["simulate", "-", "--k", "2", "--format", fmt], _ZERO_BASELINE)
    for name, extra in (("default", []), ("k4-steps21", ["--k", "4", "--steps", "21"]),
                        ("subnormal", ["--seq-range", "0:1e-323", "--steps", "6"]),
                        ("float-max", ["--overhead-range", "0:1.7e308", "--steps", "3"])):
        cases[f"surface-{name}-json"] = (["surface", "--format", "json", *extra], None)
    for fixture_id in dataio.FIXTURE_IDS:
        cases[f"fixtures-show-{fixture_id}-json"] = (
            ["fixtures", "show", fixture_id, "--format", "json"], None)
    return cases


_PINNED_INVOCATIONS = _pinned_invocations()

# sha256 of stdout, recorded before the CLI built these documents from
# the library records; any byte change in them shows up here.
_PINNED_CLI_DIGESTS = {
    "fixtures-show-algorithms_scaling-json":
        "e942d49ea0312fb71204a421c09920b468e7be66b8e9c2aab946c78b593050eb",
    "fixtures-show-audio_radar-json":
        "29f58ab87395036db36d83671bf69e10b3fdb584547606a88ab6d0396e953eca",
    "fixtures-show-linpack_architectures-json":
        "9ac0e5079d1cc84a059bc7d8e0de1a5b3687a52403ef05ec25a00b689c1c2fc4",
    "fixtures-show-soc_rastrigin-json":
        "51affee49bffcb327db03e4a02af8eebf7d32f90ef2fd7273583ce8f67b32a87",
    "fixtures-show-soc_rosenbrock-json":
        "f8ed85d25870de1c52c72ba0cd7117cf21df4d60a6acf5cc43a0dba90ee88383",
    "simulate-classic-2,0,1-json":
        "d6cb4e3d9abbd55e0740c2575f475273ffec2c3fb5ff8cfaafd75a437ecea770",
    "simulate-classic-2,0,1-table":
        "bf24f319fd5a6b893875afe8f3d20d7465ad7934e53521163bb0edb435cf30b6",
    "simulate-classic-lpt-json":
        "d5ee1403b5fdc525329e458c6241ccb798afc508d5ecfcf4470b725328d82f79",
    "simulate-classic-lpt-table":
        "11cd17abbc650b3d4ea3152ff8de732010f7c2d156a6cb2f1ab1c7787e768efd",
    "simulate-classic-round-robin-json":
        "df828669c47714221550dbbaad0aed394d5577572cdd4783c1096ab2e0e4bea1",
    "simulate-classic-round-robin-table":
        "a814fc06f4dc80c5d6d8e70b4279f2f12392e88f09da7a34c39130e43ea1ef5f",
    "simulate-k1-json":
        "26f7a48b7fdd5c7ace4e5e0b101578d8f25333f63c411d994be1210f802da1df",
    "simulate-k1-table":
        "95a97df61af8c7d768df1dbbb7e8b4dba25145e03e732f1f6ca0ba90277a5d5e",
    "simulate-realistic-2,0,1-json":
        "d360e4133cf9f32ce4f07547939219feccea5decb78a8382213d6d6f8b810cef",
    "simulate-realistic-2,0,1-table":
        "e689bb5d1546e9c55113fbd99d0540be20ca0628fb2754ad6a6961b14279a2a2",
    "simulate-realistic-lpt-json":
        "36d9109ec39c2f23d79e0e2135100c1372fa1b2281fad5f8c94d5ba8b28c190c",
    "simulate-realistic-lpt-table":
        "a7db5a64d533650efef78040ce9ae38f72b3750b4280ab46947b9c31bca4d20f",
    "simulate-realistic-round-robin-json":
        "f9c875df780a85a4fde1027279bd7dc38f0996c55c22cbe456250b1ba360b9ee",
    "simulate-realistic-round-robin-table":
        "eea6dc9898b61b82a1d86f4a487d2fa4481126b26be32b933e84fa2623c46578",
    "simulate-zero-baseline-json":
        "637d1ad191bcbc12cb075775ceaefe474b55aee44b0a7ecc6df2529c54ab4687",
    "simulate-zero-baseline-table":
        "3958e5d16fec04e247cdde9ea00a2898c26a1b68a9068be475688246c4d1c9ce",
    "surface-default-json":
        "793d71d7b63023db83e426645454274d6bb67152509dad4eeb999e92deb81b81",
    "surface-float-max-json":
        "842c9923cd3983a9ab785c18a7fff4f9e1572b943c70536d0a6144f9705e0a23",
    "surface-k4-steps21-json":
        "dabc97e3438105f9f79a7c7c35399b12afa6a77e3b31a4895a6689b9fff6149c",
    "surface-subnormal-json":
        "97d515940cbedef893c94797400880b814885653994490691c66332daa68722d",
}


class TestPinnedCliBytes:
    @pytest.mark.parametrize("name", sorted(_PINNED_INVOCATIONS))
    def test_output_bytes_unchanged(self, capsys, monkeypatch, name):
        argv, stdin = _PINNED_INVOCATIONS[name]
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == _PINNED_CLI_DIGESTS[name]

    def test_every_invocation_is_pinned(self):
        assert set(_PINNED_INVOCATIONS) == set(_PINNED_CLI_DIGESTS)


_JSON_INVOCATIONS = {
    **{name: case for name, case in _PINNED_INVOCATIONS.items() if name.endswith("-json")},
    "analyze-json": (["analyze", "fixtures://audio_radar", "--format", "json"], None),
    "fixtures-list-json": (["fixtures", "list", "--format", "json"], None),
    "fixtures-export-published-json":
        (["fixtures", "export", "soc_rosenbrock", "--format", "json"], None),
}


class TestJsonWithoutCEncoder:
    """The JSON writer's fallback, for an interpreter built without ``_json``."""

    @pytest.mark.parametrize("name", sorted(_JSON_INVOCATIONS))
    def test_same_bytes(self, capsys, monkeypatch, name):
        argv, stdin = _JSON_INVOCATIONS[name]

        def output():
            if stdin is not None:
                monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
            return run_cli(capsys, *argv)

        with_c = output()
        assert with_c[0] == 0
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        assert output() == with_c


# ------------------------------------------------------------------ plumbing

class TestPlumbing:
    def test_version_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert capsys.readouterr() == (f"alphaeff {alphaeff.__version__}\n", "")

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_bad_choice_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", "fixtures://audio_radar", "--format", "yaml"])
        assert exc_info.value.code == 2

    def test_broken_pipe_exits_clean(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["fixtures", "list"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "alphaeff", "fixtures", "list"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == list(dataio.FIXTURE_IDS)

    @staticmethod
    def _run_module(argv, stdin=b""):
        # UTF-8 mode decodes a text stdin with surrogateescape, which would
        # let a 0xff byte through as "\udcff"; piped bytes must not go that way.
        return subprocess.run([sys.executable, "-X", "utf8", "-m", "alphaeff", *argv],
                              input=stdin, capture_output=True, timeout=60)

    @pytest.mark.parametrize("argv, data", [
        (["analyze", "{}", "--format", "json"],
         b"label,k,value,kind\n\xffb,1,1.0,time\n\xffb,2,0.6,time\n"),
        (["simulate", "{}", "--k", "2"], b'{"segments": [\n{"kind": "P", "duration": 1},\n\xff]}\n'),
        (["bench", "--spec", "{}"], b'{"alpha": 0.5,\n"total_ms": 20,\n\xff}\n'),
    ], ids=["analyze", "simulate", "bench-spec"])
    def test_stdin_not_utf8_is_rejected_like_a_file(self, tmp_path, argv, data):
        path = tmp_path / "input"
        path.write_bytes(data)
        from_file = self._run_module([a.format(path) for a in argv])
        piped = self._run_module([a.format("-") for a in argv], data)
        assert (piped.returncode, piped.stdout) == (from_file.returncode, from_file.stdout) == (2, b"")
        assert piped.stderr == from_file.stderr
        assert b"input is not UTF-8 (byte 0xff)" in piped.stderr

    def test_stdin_with_utf8_bom_parses(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_text(CSV_SMOKE)
        piped = self._run_module(["analyze", "-"], b"\xef\xbb\xbf" + CSV_SMOKE.encode())
        from_file = self._run_module(["analyze", str(path)])
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert piped.stdout == from_file.stdout

    @pytest.mark.parametrize("argv", [
        ["analyze", "-"], ["simulate", "-", "--k", "2"], ["bench", "--spec", "-"],
    ], ids=["analyze", "simulate", "bench-spec"])
    def test_closed_stdin_is_io_error(self, argv):
        # With file descriptor 0 closed, Python starts with sys.stdin None.
        proc = subprocess.run([sys.executable, "-m", "alphaeff", *argv],
                              preexec_fn=lambda: os.close(0), capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"error: standard input is closed\n"

    @pytest.mark.parametrize("argv, doc, message", [
        (["simulate", "-", "--k", "2"],
         {"segments": [{"kind": [1], "duration": 1}]},
         "error: segments[0]: unknown kind [1] (expected S, P or C)"),
        # A non-string label is rejected at its first appearance.
        (["analyze", "-"],
         {"series": [{"label": [1], "kind": "speedup", "points": [{"k": 1, "value": 1}]}] * 2},
         "error: series[0]: label must be a string, got [1]"),
        (["bench", "--spec", "-"],
         {"alpha": [1], "total_ms": 1},
         "error: alpha_target must lie in [0, 1], got [1]"),
    ], ids=["scenario-kind", "series-label", "spec-alpha"])
    def test_non_scalar_json_field_is_data_error(self, capsys, monkeypatch, argv, doc, message):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err == message + "\n"

    def test_import_loads_no_numpy(self):
        # numpy's import alone used to be most of every CLI start, and
        # multiprocessing's a tenth of it; the harness needs neither.
        code = ("import sys, alphaeff, alphaeff.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('numpy', 'multiprocessing')))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_bundled_data_loads_from_a_zip_without_importlib_resources(self, tmp_path):
        # The package's own loader reads its data files, from a directory
        # or, as here, from a zip; without site (-S) nothing else imports
        # importlib.resources.
        package = os.path.dirname(dataio.__file__)
        archive = tmp_path / "alphaeff.zip"
        with zipfile.ZipFile(archive, "w") as zf:
            for root, _, files in os.walk(package):
                for name in files:
                    if not name.endswith(".pyc"):
                        path = os.path.join(root, name)
                        zf.write(path, os.path.relpath(path, os.path.dirname(package)))
        code = ("import json, sys, alphaeff.cli; from alphaeff import dataio; "
                "print(json.dumps([dataio.__file__.startswith(sys.argv[1]), "
                "'importlib.resources' in sys.modules, "
                "[repr(dataio.load_fixture(f)) for f in dataio.FIXTURE_IDS], "
                "[repr(dataio.scenario_fixture(n)) for n in dataio.SCENARIO_IDS]]))")
        proc = subprocess.run([sys.executable, "-S", "-c", code, str(archive)],
                              env={**os.environ, "PYTHONPATH": str(archive)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            True, False,
            [repr(dataio.load_fixture(f)) for f in dataio.FIXTURE_IDS],
            [repr(dataio.scenario_fixture(n)) for n in dataio.SCENARIO_IDS],
        ]


# ------------------------------------------------------ exit-code contract

# Any JSON value, including ints far past the float range.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# A CLI count: from -3 to 64 or past sys.maxsize, as any k or steps in
# between can make simulate or surface really allocate that many entries.
cli_counts = st.integers(-3, 64) | st.integers(sys.maxsize + 1, 10**400)


def _or_any(strategy):
    """Mostly a plausible value for a field; one time in eight any JSON value."""
    return st.integers(0, 7).flatmap(lambda roll: json_values if roll == 0 else strategy)


point_objects = st.fixed_dictionaries(
    {"k": _or_any(st.integers(1, 8)), "value": _or_any(st.floats(1e-3, 1e3))})
series_objects = st.fixed_dictionaries(
    {"label": _or_any(st.sampled_from(["a", "b"])),
     "kind": _or_any(st.sampled_from(["time", "speedup", "efficiency"])),
     "points": _or_any(st.lists(_or_any(point_objects), max_size=4))},
    optional={"baseline_k": _or_any(st.integers(1, 8))})
measurement_docs = st.fixed_dictionaries(
    {"series": _or_any(st.lists(_or_any(series_objects), max_size=3))})
segment_objects = st.fixed_dictionaries(
    {"kind": _or_any(st.sampled_from(["S", "P", "C"])), "duration": _or_any(st.floats(0.0, 10.0))})
scenario_docs = st.fixed_dictionaries(
    {"segments": _or_any(st.lists(_or_any(segment_objects), max_size=5))})


def _exit_code(argv, stdin_text=""):
    """Run the CLI in-process on ``stdin_text``; any exception escapes to the caller."""
    with mock.patch.object(sys, "stdin", io.StringIO(stdin_text)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=300, deadline=None)
@given(doc=measurement_docs, fmt=st.sampled_from(["table", "csv", "json"]))
def test_analyze_exits_0_or_2(doc, fmt):
    assert _exit_code(["analyze", "-", "--format", fmt], json.dumps(doc)) in (0, 2)


@settings(max_examples=300, deadline=None)
@given(doc=scenario_docs, k=cli_counts, policy=st.sampled_from(["round-robin", "lpt", "0", "0,1"]))
def test_simulate_exits_0_or_2(doc, k, policy):
    argv = ["simulate", "-", f"--k={k}", "--policy", policy]
    assert _exit_code(argv, json.dumps(doc)) in (0, 2)


@settings(max_examples=100, deadline=None)
@given(k=cli_counts, steps=cli_counts)
def test_surface_exits_0_or_2(k, steps):
    assert _exit_code(["surface", f"--k={k}", f"--steps={steps}"]) in (0, 2)
