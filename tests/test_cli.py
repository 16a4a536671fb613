"""Command-line interface tests.

Each test drives ``main(argv)`` in-process and asserts on exit code,
stdout and stderr; one subprocess test checks the ``python -m`` entry
point for real.  Exit code contract: 0 success, 1 I/O or runtime
failure, 2 bad input or usage.
"""

import io
import json
import subprocess
import sys

import pytest

from alphaeff import dataio, metrics
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

    def test_json_extension_sniffed(self, capsys, tmp_path):
        series = dataio.parse_measurements(CSV_SMOKE)
        path = tmp_path / "runs.json"
        path.write_text(dataio.emit_measurements(series, format="json"))
        rc, out, _ = run_cli(capsys, "analyze", str(path))
        assert rc == 0
        assert "solver" in out

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

    def test_empty_input_warns_but_succeeds(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,k,value,kind\n")
        with pytest.warns(UserWarning, match="no measurement rows"):
            rc = main(["analyze", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert len(out.strip().splitlines()) == 1   # header only

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

    def test_too_few_steps_rejected(self, capsys):
        rc, _, err = run_cli(capsys, "surface", "--steps", "1")
        assert rc == 2


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

    def test_unknown_action_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["fixtures", "frobnicate"])
        assert exc_info.value.code == 2


# ------------------------------------------------------------------ plumbing

class TestPlumbing:
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

    @pytest.mark.parametrize("argv, doc, message", [
        (["simulate", "-", "--k", "2"],
         {"segments": [{"kind": [1], "duration": 1}]},
         "error: segments[0]: unknown kind [1] (expected S, P or C)"),
        # A lone [1] label is stored as the text "[1]"; a second one repeats it.
        (["analyze", "-"],
         {"series": [{"label": [1], "kind": "speedup", "points": [{"k": 1, "value": 1}]}] * 2},
         "error: series[1]: duplicate label '[1]'"),
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
