"""Unit tests for measurement parsing/serialization, bundled datasets,
report emission and plot-data emission.

Expected serial fractions are hand-derived from the published efficiency
numbers: e.g. k=8 at 87% efficiency gives speedup 6.96, effective
parallelization (8/7)(1 - 1/6.96) = 596/609, serial fraction 13/609.
"""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaeff import metrics
from alphaeff.dataio import (
    FIXTURE_IDS,
    SCENARIO_IDS,
    DataFormatError,
    Fixture,
    MeasurementSeries,
    ScalingReport,
    ValueKind,
    analyze,
    emit_measurements,
    emit_plot_data,
    emit_published_serial_fractions,
    emit_report,
    emit_reports,
    load_fixture,
    parse_measurements,
    parse_scenario,
    scenario_fixture,
)

CSV_SMOKE = """\
# timing runs, best of 3
label,k,value,kind
solver,1,10.0,time
solver,2,5.4,time
solver,4,3.0,time
"""


# ------------------------------------------------------------- CSV parsing

class TestParseCsv:
    def test_smoke(self):
        series = parse_measurements(CSV_SMOKE)
        assert len(series) == 1
        s = series[0]
        assert s.label == "solver"
        assert s.value_kind is ValueKind.WALL_TIME
        assert s.points == ((1, 10.0), (2, 5.4), (4, 3.0))

    def test_accepts_file_object_and_bytes(self):
        assert parse_measurements(io.StringIO(CSV_SMOKE)) == parse_measurements(
            CSV_SMOKE.encode())

    def test_utf8_bom_tolerated(self):
        series = parse_measurements(CSV_SMOKE.encode("utf-8-sig"))
        assert series[0].label == "solver"

    def test_extra_columns_ignored(self):
        text = "label,k,value,kind,host,notes\nrun,2,1.8,speedup,nodeA,warm\n"
        series = parse_measurements(text)
        assert series[0].points == ((2, 1.8),)

    def test_column_order_free(self):
        text = "kind,value,k,label\nspeedup,1.8,2,run\n"
        assert parse_measurements(text)[0].points == ((2, 1.8),)

    def test_multiple_labels_keep_first_appearance_order(self):
        text = ("label,k,value,kind\n"
                "b,1,1.0,speedup\n"
                "a,1,1.0,speedup\n"
                "b,2,1.5,speedup\n")
        series = parse_measurements(text)
        assert [s.label for s in series] == ["b", "a"]

    def test_points_sorted_by_k(self):
        text = "label,k,value,kind\nr,8,4.0,speedup\nr,2,1.8,speedup\n"
        assert parse_measurements(text)[0].points == ((2, 1.8), (8, 4.0))

    def test_empty_input_warns_and_returns_empty(self):
        with pytest.warns(UserWarning, match="no measurement rows"):
            assert parse_measurements("") == []
        with pytest.warns(UserWarning):
            assert parse_measurements("label,k,value,kind\n# nothing\n") == []

    def test_missing_header_column(self):
        with pytest.raises(DataFormatError, match="line 1.*kind"):
            parse_measurements("label,k,value\nx,1,1.0\n")

    def test_bad_k_reports_line(self):
        text = "label,k,value,kind\nx,1,1.0,time\nx,two,0.5,time\n"
        with pytest.raises(DataFormatError, match="line 3.*integer"):
            parse_measurements(text)

    def test_bad_value_reports_line(self):
        text = "label,k,value,kind\nx,2,abc,speedup\n"
        with pytest.raises(DataFormatError, match="line 2.*number"):
            parse_measurements(text)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(DataFormatError, match="positive"):
            parse_measurements("label,k,value,kind\nx,2,0.0,speedup\n")
        with pytest.raises(DataFormatError, match="positive"):
            parse_measurements("label,k,value,kind\nx,2,-1.5,speedup\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataFormatError, match="line 2.*unknown value kind"):
            parse_measurements("label,k,value,kind\nx,2,1.5,ratio\n")

    def test_short_row_rejected(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_measurements("label,k,value,kind\nx,2\n")

    def test_duplicate_k_rejected(self):
        text = "label,k,value,kind\nx,2,1.5,speedup\nx,2,1.6,speedup\n"
        with pytest.raises(DataFormatError, match="duplicate k=2"):
            parse_measurements(text)

    def test_conflicting_kind_rejected(self):
        text = "label,k,value,kind\nx,1,1.0,time\nx,2,1.5,speedup\n"
        with pytest.raises(DataFormatError, match="conflicts"):
            parse_measurements(text)

    def test_wall_time_without_baseline_rejected(self):
        text = "label,k,value,kind\nx,2,5.0,time\nx,4,3.0,time\n"
        with pytest.raises(DataFormatError, match="baseline"):
            parse_measurements(text)

    @pytest.mark.parametrize("text, message", [
        # A kind conflict on line 3, then a non-numeric value on line 4.
        ("label,k,value,kind\nx,1,1.0,time\nx,2,1.5,speedup\nx,4,abc,time\n",
         "line 4: value must be a number, got 'abc'"),
        # A duplicate k on line 3, then a negative value on line 4.
        ("label,k,value,kind\nx,2,1.5,speedup\nx,2,1.6,speedup\nx,4,-2,speedup\n",
         "line 4: value must be positive, got -2.0"),
    ], ids=["kind-conflict-then-bad-number", "duplicate-k-then-negative"])
    def test_field_errors_win_over_earlier_grouping_errors(self, text, message):
        # Every line's fields are checked before any rows are grouped by label.
        with pytest.raises(DataFormatError) as info:
            parse_measurements(text)
        assert str(info.value) == message

    def test_comment_lines_do_not_shift_line_numbers(self):
        text = "# c1\nlabel,k,value,kind\n# c2\nx,2,oops,speedup\n"
        with pytest.raises(DataFormatError, match="line 4"):
            parse_measurements(text)

    def test_comment_with_quote_between_records_skipped(self):
        text = 'label,k,value,kind\nx,1,1.0,speedup\n# note, "x\nx,2,1.8,speedup\n'
        assert parse_measurements(text)[0].points == ((1, 1.0), (2, 1.8))

    def test_record_spanning_lines_reported_at_its_first_line(self):
        text = 'label,k,value,kind\n"a\nb",1,1.0,speedup\n"a\nb",2,oops,speedup\n'
        with pytest.raises(DataFormatError, match="^line 4: value must be a number"):
            parse_measurements(text)

    @pytest.mark.parametrize("text", [
        'label,k,value,kind\nx,1,1.0,speedup,"note\nx,2,1.8,speedup\n',
        'label,k,value,kind\n"x,1,1.0,speedup\n',
    ], ids=["swallowing-later-rows", "last-line"])
    def test_unterminated_quote_rejected(self, text):
        with pytest.raises(DataFormatError, match="^line 2: unterminated quoted field$"):
            parse_measurements(text)

    def test_unterminated_quote_over_field_limit_rejected(self):
        text = 'label,k,value,kind\n"a,1,1.0,speedup\n' + "b,2,1.8,speedup\n" * 10_000
        with pytest.raises(DataFormatError, match="^line 2: field larger than field limit"):
            parse_measurements(text)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown measurement format"):
            parse_measurements(CSV_SMOKE, format="tsv")


# ------------------------------------------------------------ JSON parsing

class TestParseJson:
    def test_smoke(self):
        doc = {"series": [{"label": "solver", "kind": "time",
                           "points": [{"k": 1, "value": 10.0},
                                      {"k": 4, "value": 3.0}]}]}
        series = parse_measurements(json.dumps(doc), format="json")
        assert series[0].points == ((1, 10.0), (4, 3.0))

    def test_baseline_k_honored(self):
        doc = {"series": [{"label": "solver", "kind": "time", "baseline_k": 2,
                           "points": [{"k": 2, "value": 6.0},
                                      {"k": 4, "value": 3.0}]}]}
        s = parse_measurements(json.dumps(doc), format="json")[0]
        assert s.baseline_k == 2
        assert s.speedup_points() == ((2, 1.0), (4, 2.0))

    def test_empty_series_warns(self):
        with pytest.warns(UserWarning):
            assert parse_measurements('{"series": []}', format="json") == []

    def test_invalid_json(self):
        with pytest.raises(DataFormatError, match="invalid JSON"):
            parse_measurements("{", format="json")

    def test_wrong_shape(self):
        with pytest.raises(DataFormatError, match="series"):
            parse_measurements("[]", format="json")

    def test_missing_key(self):
        doc = {"series": [{"label": "x", "points": []}]}
        with pytest.raises(DataFormatError, match="missing key 'kind'"):
            parse_measurements(json.dumps(doc), format="json")

    def test_bad_point(self):
        doc = {"series": [{"label": "x", "kind": "speedup",
                           "points": [{"k": "2", "value": 1.5}]}]}
        with pytest.raises(DataFormatError, match=r"points\[0\].*integer"):
            parse_measurements(json.dumps(doc), format="json")

    def test_duplicate_label(self):
        doc = {"series": [
            {"label": "x", "kind": "speedup", "points": [{"k": 2, "value": 1.5}]},
            {"label": "x", "kind": "speedup", "points": [{"k": 4, "value": 2.5}]},
        ]}
        with pytest.raises(DataFormatError, match="duplicate label"):
            parse_measurements(json.dumps(doc), format="json")
        # Labels are stored as text, so 1 and "1" name the same series.
        doc["series"][0]["label"], doc["series"][1]["label"] = 1, "1"
        with pytest.raises(DataFormatError, match="series\\[1\\]: duplicate label '1'"):
            parse_measurements(json.dumps(doc), format="json")


# -------------------------------------------------------- MeasurementSeries

class TestMeasurementSeries:
    def test_speedup_points_from_times(self):
        s = MeasurementSeries("t", ((1, 10.0), (2, 5.0), (4, 2.5)),
                              ValueKind.WALL_TIME)
        assert s.speedup_points() == ((1, 1.0), (2, 2.0), (4, 4.0))

    def test_speedup_points_from_efficiency(self):
        s = MeasurementSeries("e", ((1, 1.0), (8, 0.87)), ValueKind.EFFICIENCY)
        assert s.speedup_points() == ((1, 1.0), (8, 0.87 * 8))

    def test_speedup_points_identity(self):
        s = MeasurementSeries("s", ((2, 1.8),), ValueKind.SPEEDUP)
        assert s.speedup_points() == ((2, 1.8),)

    def test_validation(self):
        with pytest.raises(ValueError, match="label"):
            MeasurementSeries("  ", ((1, 1.0),), ValueKind.SPEEDUP)
        with pytest.raises(ValueError, match="at least one point"):
            MeasurementSeries("x", (), ValueKind.SPEEDUP)
        with pytest.raises(ValueError, match="positive"):
            MeasurementSeries("x", ((1, 0.0),), ValueKind.SPEEDUP)
        with pytest.raises(ValueError, match="duplicate"):
            MeasurementSeries("x", ((2, 1.0), (2, 1.1)), ValueKind.SPEEDUP)
        with pytest.raises(ValueError, match="baseline"):
            MeasurementSeries("x", ((2, 5.0),), ValueKind.WALL_TIME)

    @settings(max_examples=300, deadline=None)
    @given(ks=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=60))
    def test_duplicate_k_message_matches_reference(self, ks):
        points = tuple((k, 1.0) for k in ks)
        # Reference formula: every k that occurs more than once, listed once.
        dupes = sorted({k for k in ks if ks.count(k) > 1})
        if not dupes:
            assert len(MeasurementSeries("x", points, ValueKind.SPEEDUP).points) == len(ks)
            return
        with pytest.raises(ValueError) as info:
            MeasurementSeries("x", points, ValueKind.SPEEDUP)
        assert str(info.value) == f"'x': duplicate k values {dupes}"


# ----------------------------------------------------------------- analyze

class TestAnalyze:
    def test_linpack_y_mp_serial_fractions(self):
        fixture = load_fixture("linpack_architectures")
        cray = next(s for s in fixture.series if "Y-MP" in s.label)
        report = analyze(cray)
        got = {row.k: round(row.serial_fraction, 4)
               for row in report.rows if row.k >= 2}
        assert got == {2: 0.0256, 3: 0.0208, 4: 0.0213, 8: 0.0213}

    def test_wave_motion_large_k_serial_fraction(self):
        fixture = load_fixture("algorithms_scaling")
        wave = next(s for s in fixture.series if "Wave" in s.label)
        row = next(r for r in analyze(wave).rows if r.k == 1024)
        assert round(row.serial_fraction, 5) == 0.00059

    def test_round_trip_from_generated_model(self):
        ks = (1, 2, 4, 8)
        s = MeasurementSeries(
            "model", tuple((k, metrics.amdahl_speedup(0.6, k)) for k in ks),
            ValueKind.SPEEDUP)
        report = analyze(s)
        for row in report.rows:
            if row.k >= 2:
                assert row.alpha_eff == pytest.approx(0.6, abs=1e-12)
            else:
                assert row.alpha_eff is None
        assert report.fitted is not None
        assert report.fitted.model.alpha == pytest.approx(0.6, abs=1e-12)
        assert report.fitted.residual == pytest.approx(0.0, abs=1e-24)

    def test_point_order_does_not_matter(self):
        pts = ((8, 4.0), (2, 1.8), (4, 3.0))
        a = analyze(MeasurementSeries("x", pts, ValueKind.SPEEDUP))
        b = analyze(MeasurementSeries("x", tuple(sorted(pts)), ValueKind.SPEEDUP))
        assert a == b

    def test_no_fit_with_single_usable_point(self):
        s = MeasurementSeries("x", ((1, 1.0), (4, 3.0)), ValueKind.SPEEDUP)
        assert analyze(s).fitted is None

    def test_report_rows_sorted_invariant(self):
        rows = (metrics.MetricRow.from_speedup(4, 3.0),
                metrics.MetricRow.from_speedup(2, 1.8))
        with pytest.raises(ValueError, match="ascending"):
            ScalingReport("x", rows)


# ---------------------------------------------------------------- fixtures

class TestFixtures:
    def test_inventory(self):
        assert FIXTURE_IDS == ("audio_radar", "linpack_architectures",
                               "algorithms_scaling", "soc_rosenbrock",
                               "soc_rastrigin")

    @pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
    def test_all_load(self, fixture_id):
        f = load_fixture(fixture_id)
        assert f.id == fixture_id
        assert f.description
        assert f.series or f.published_serial_fraction

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown fixture"):
            load_fixture("bogus")

    def test_verifiable_fixtures_have_series(self):
        for fixture_id in FIXTURE_IDS:
            f = load_fixture(fixture_id)
            if f.verifiable:
                assert f.series
                assert f.published_serial_fraction

    def test_soc_fixtures_are_published_only(self):
        for fixture_id in ("soc_rosenbrock", "soc_rastrigin"):
            f = load_fixture(fixture_id)
            assert f.series == ()
            assert not f.verifiable
            assert set(len(pairs) for pairs in
                       f.published_serial_fraction.values()) == {5}

    def test_audio_radar_labels(self):
        f = load_fixture("audio_radar")
        labels = [s.label for s in f.series]
        assert len(labels) == 4
        assert any("Audio" in lab for lab in labels)
        assert any("Radar" in lab for lab in labels)

    def test_published_cross_consistency(self):
        # Recomputing 1 - alpha_eff from the efficiency series must agree
        # with the published values the series were digitized alongside.
        checked = 0
        for fixture_id in FIXTURE_IDS:
            f = load_fixture(fixture_id)
            if not f.verifiable:
                continue
            reports = {s.label: analyze(s) for s in f.series}
            for label, pairs in f.published_serial_fraction.items():
                rows = {r.k: r for r in reports[label].rows}
                for k, published in pairs:
                    got = rows[k].serial_fraction
                    assert got == pytest.approx(published, abs=3e-3), (
                        f"{fixture_id}/{label} k={k}")
                    checked += 1
        assert checked >= 40

    def test_fixture_validation(self):
        s = MeasurementSeries("x", ((1, 1.0), (4, 0.9)), ValueKind.EFFICIENCY)
        with pytest.raises(ValueError, match="not in the series"):
            Fixture("f", "d", (s,), {"x": ((8, 0.01),)}, verifiable=True)
        with pytest.raises(ValueError, match="no matching series"):
            Fixture("f", "d", (s,), {"y": ((4, 0.01),)}, verifiable=True)
        with pytest.raises(ValueError, match="verifiable"):
            Fixture("f", "d", (), {}, verifiable=True)
        with pytest.raises(ValueError, match=">= 0"):
            Fixture("f", "d", (), {"x": ((4, -0.01),)}, verifiable=False)


# --------------------------------------------------------------- scenarios

class TestScenarios:
    def test_inventory(self):
        assert SCENARIO_IDS == ("classic", "realistic")

    def test_classic_loads(self):
        tl = scenario_fixture("classic")
        assert tl.total_sequential == 2.5
        assert tl.chunk_durations == (2.5, 2.5, 2.5)
        assert tl.total_control == 0.0

    def test_realistic_loads(self):
        tl = scenario_fixture("realistic")
        assert tl.total_sequential == 2.5
        assert tl.chunk_durations == (2.5, 2.0, 3.0)
        assert tl.total_control == 1.5

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_fixture("bogus")

    def test_parse_scenario(self):
        doc = {"segments": [{"kind": "S", "duration": 1.0},
                            {"kind": "P", "duration": 2.0},
                            {"kind": "C", "duration": 0.5}]}
        tl = parse_scenario(json.dumps(doc))
        assert tl.total_sequential == 1.0
        assert tl.chunk_durations == (2.0,)
        assert tl.total_control == 0.5

    def test_parse_scenario_errors(self):
        with pytest.raises(DataFormatError, match="invalid JSON"):
            parse_scenario("{")
        with pytest.raises(DataFormatError, match="segments"):
            parse_scenario("{}")
        with pytest.raises(DataFormatError, match="unknown kind 'X'"):
            parse_scenario('{"segments": [{"kind": "X", "duration": 1}]}')
        with pytest.raises(DataFormatError, match="duration must be a number"):
            parse_scenario('{"segments": [{"kind": "S", "duration": "long"}]}')
        with pytest.raises(DataFormatError, match=">= 0"):
            parse_scenario('{"segments": [{"kind": "S", "duration": -1}]}')
        with pytest.raises(DataFormatError, match="positive"):
            parse_scenario('{"segments": [{"kind": "S", "duration": 0.0}]}')


# ------------------------------------------------------- emit_measurements

class TestEmitMeasurements:
    def test_csv_round_trip_exact(self):
        series = parse_measurements(CSV_SMOKE)
        text = emit_measurements(series)
        assert parse_measurements(text) == series

    def test_csv_round_trip_preserves_awkward_floats(self):
        s = MeasurementSeries("r", ((2, 10.0 / 7.0), (3, 0.1 + 0.2)),
                              ValueKind.SPEEDUP)
        back = parse_measurements(emit_measurements(s))[0]
        assert back.points == s.points

    def test_csv_round_trip_label_spanning_lines(self):
        # A blank line and a '#' line inside a quoted field are data.
        series = [MeasurementSeries('a\n\n# b, "c"', ((1, 1.0), (2, 1.8)), ValueKind.SPEEDUP),
                  MeasurementSeries("d", ((1, 1.0),), ValueKind.SPEEDUP)]
        assert parse_measurements(emit_measurements(series)) == series

    def test_json_round_trip(self):
        doc = {"series": [{"label": "solver", "kind": "time", "baseline_k": 2,
                           "points": [{"k": 2, "value": 6.0},
                                      {"k": 4, "value": 3.0}]}]}
        series = parse_measurements(json.dumps(doc), format="json")
        text = emit_measurements(series, format="json")
        assert parse_measurements(text, format="json") == series
        assert json.loads(text)["series"][0]["baseline_k"] == 2

    def test_deterministic(self):
        series = parse_measurements(CSV_SMOKE)
        assert emit_measurements(series) == emit_measurements(series)
        assert emit_measurements(series, format="json") == emit_measurements(
            series, format="json")

    def test_fixture_series_survive_csv_round_trip(self):
        f = load_fixture("audio_radar")
        text = emit_measurements(f.series)
        assert tuple(parse_measurements(text)) == f.series


# ------------------------------------------------------------ emit_reports

class TestEmitReports:
    @staticmethod
    def realistic_report():
        s = MeasurementSeries("realistic-k3", ((3, 10.0 / 7.0),),
                              ValueKind.SPEEDUP)
        return analyze(s)

    def test_table_contains_expected_numbers(self):
        out = emit_report(self.realistic_report())
        assert "realistic-k3" in out
        assert "0.45" in out          # effective parallelization
        assert "0.55" in out          # serial fraction
        assert "1.42857" in out       # speedup, %.6g
        assert "normal" in out

    def test_table_header_only_for_no_reports(self):
        out = emit_reports([])
        assert "label" in out
        assert len(out.strip().splitlines()) == 1

    def test_table_baseline_row_shows_placeholder(self):
        s = MeasurementSeries("x", ((1, 1.0), (2, 1.8)), ValueKind.SPEEDUP)
        out = emit_report(analyze(s))
        baseline_line = next(l for l in out.splitlines() if l.split()[1] == "1")
        assert "-" in baseline_line

    def test_fit_line_only_when_requested(self):
        s = MeasurementSeries(
            "m", tuple((k, metrics.amdahl_speedup(0.9, k)) for k in (2, 4, 8)),
            ValueKind.SPEEDUP)
        report = analyze(s)
        assert "alpha=" not in emit_report(report)
        fitted = emit_report(report, include_fit=True)
        assert "fitted: m" in fitted
        assert "alpha=0.9" in fitted
        assert "residual=" in fitted

    def test_csv_round_trips_speedups_exactly(self):
        report = self.realistic_report()
        text = emit_report(report, format="csv")
        lines = text.splitlines()
        assert lines[0].startswith("label,k,value,kind")
        series = parse_measurements(text)
        assert series[0].value_kind is ValueKind.SPEEDUP
        assert series[0].points == ((3, 10.0 / 7.0),)

    def test_csv_carries_derived_columns(self):
        text = emit_report(self.realistic_report(), format="csv")
        header = text.splitlines()[0].split(",")
        for col in ("efficiency", "alpha_eff", "serial_fraction", "regime"):
            assert col in header

    def test_json_parses_and_carries_fit(self):
        s = MeasurementSeries(
            "m", tuple((k, metrics.amdahl_speedup(0.5, k)) for k in (2, 4)),
            ValueKind.SPEEDUP)
        doc = json.loads(emit_report(analyze(s), format="json"))
        assert len(doc["reports"]) == 1
        entry = doc["reports"][0]
        assert entry["label"] == "m"
        assert entry["fitted"]["alpha"] == pytest.approx(0.5, abs=1e-12)
        ks = [row["k"] for row in entry["rows"]]
        assert ks == [2, 4]

    def test_json_byte_stable(self):
        report = self.realistic_report()
        assert emit_report(report, format="json") == emit_report(
            report, format="json")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(self.realistic_report(), format="xml")


# ---------------------------------------------------------- emit_plot_data

class TestEmitPlotData:
    @staticmethod
    def reports_for(fixture_id):
        return [analyze(s) for s in load_fixture(fixture_id).series]

    def test_linpack_serial_fraction_blocks(self):
        reports = self.reports_for("linpack_architectures")
        out = emit_plot_data(reports, y_axis="serial-fraction")
        blocks = out.rstrip("\n").split("\n\n\n")
        assert len(blocks) == 3
        assert out.count("# series:") == 3
        first = blocks[0].splitlines()
        assert first[0].startswith("# series: ")
        assert "# xscale: linear" in first   # max k is 8
        assert "# yscale: log" in first
        # k=1 rows are skipped on this axis.
        data = [l for l in first if not l.startswith("#")]
        assert all(int(l.split()[0]) >= 2 for l in data)

    def test_serial_fraction_values_match_published_read_back(self):
        fixture = load_fixture("linpack_architectures")
        out = emit_plot_data(self.reports_for("linpack_architectures"),
                             y_axis="serial-fraction")
        blocks = out.rstrip("\n").split("\n\n\n")
        for block in blocks:
            lines = block.splitlines()
            label = lines[0].removeprefix("# series: ")
            published = dict(fixture.published_serial_fraction[label])
            for line in lines:
                if line.startswith("#"):
                    continue
                k_text, value_text = line.split()
                assert float(value_text) == pytest.approx(
                    published[int(k_text)], abs=3e-3)

    def test_efficiency_axis_defaults(self):
        out = emit_plot_data(self.reports_for("audio_radar"))
        assert "# xscale: log" in out
        assert "# yscale: linear" in out
        first_block = out.split("\n\n\n")[0].splitlines()
        data = [l for l in first_block if not l.startswith("#")]
        assert data[0].split()[0] == "1"   # k=1 kept on the efficiency axis

    def test_large_k_serial_fraction_goes_log_x(self):
        out = emit_plot_data(self.reports_for("algorithms_scaling"),
                             y_axis="serial-fraction")
        assert "# xscale: log" in out

    def test_explicit_scales_override(self):
        out = emit_plot_data(self.reports_for("audio_radar"),
                             xscale="linear", yscale="log")
        assert "# xscale: linear" in out
        assert "# yscale: log" in out

    def test_values_round_trip_through_repr(self):
        reports = self.reports_for("audio_radar")
        out = emit_plot_data(reports, y_axis="serial-fraction")
        block = out.split("\n\n\n")[0]
        rows = {r.k: r for r in reports[0].rows}
        for line in block.splitlines():
            if line.startswith("#"):
                continue
            k_text, value_text = line.split()
            assert float(value_text) == rows[int(k_text)].serial_fraction

    def test_validation(self):
        reports = self.reports_for("audio_radar")
        with pytest.raises(ValueError, match="y_axis"):
            emit_plot_data(reports, y_axis="latency")
        with pytest.raises(ValueError, match="xscale"):
            emit_plot_data(reports, xscale="weird")
        with pytest.raises(ValueError, match="at least one report"):
            emit_plot_data([])


# --------------------------------------- emit_published_serial_fractions

class TestEmitPublished:
    def test_soc_values_verbatim(self):
        f = load_fixture("soc_rosenbrock")
        out = emit_published_serial_fractions(f)
        lines = out.splitlines()
        assert lines[0] == "label,k,serial_fraction"
        parsed = {}
        for line in lines[1:]:
            label, k_text, value_text = line.split(",")
            parsed.setdefault(label, []).append((int(k_text), float(value_text)))
        assert {lab: tuple(vals) for lab, vals in parsed.items()} == dict(
            f.published_serial_fraction)

    def test_requires_published_values(self):
        s = MeasurementSeries("x", ((2, 1.8),), ValueKind.SPEEDUP)
        bare = Fixture("f", "d", (s,), {}, verifiable=False)
        with pytest.raises(ValueError, match="no published"):
            emit_published_serial_fractions(bare)
