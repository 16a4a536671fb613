"""Unit tests for measurement parsing/serialization, bundled datasets,
report emission and plot-data emission.

Expected serial fractions are hand-derived from the published efficiency
numbers: e.g. k=8 at 87% efficiency gives speedup 6.96, effective
parallelization (8/7)(1 - 1/6.96) = 596/609, serial fraction 13/609.
"""

import collections
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from alphaeff import dataio, metrics
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

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    @pytest.mark.parametrize("line", [1, 2, 4])
    def test_bytes_not_utf8_name_their_line(self, bom, line):
        lines = CSV_SMOKE.encode().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1]
        with pytest.raises(DataFormatError) as info:
            parse_measurements(bom + b"".join(lines))
        assert str(info.value) == f"line {line}: input is not UTF-8 (byte 0xff)"

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

    @pytest.mark.parametrize("k", [10**400, sys.maxsize + 1])
    def test_k_past_index_range_reports_line(self, k):
        text = f"label,k,value,kind\nx,1,1.0,speedup\nx,{k},0.5,speedup\n"
        with pytest.raises(DataFormatError) as info:
            parse_measurements(text)
        assert str(info.value) == f"line 3: k must be an integer >= 1, got {k}"

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
        # One field short of the header's last required column.
        with pytest.raises(DataFormatError, match="^line 2: expected at least 4 fields, got 3$"):
            parse_measurements("label,k,value,kind\nx,2,1.5\n")

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
        # A duplicate k on line 3, then k = 0 on line 4.
        ("label,k,value,kind\nx,2,1.5,speedup\nx,2,1.6,speedup\nx,0,2,speedup\n",
         "line 4: k must be an integer >= 1, got 0"),
    ], ids=["kind-conflict-then-bad-number", "duplicate-k-then-negative",
            "duplicate-k-then-k-zero"])
    def test_field_errors_win_over_earlier_grouping_errors(self, text, message):
        # Every line's fields are checked before any rows are grouped by label.
        with pytest.raises(DataFormatError) as info:
            parse_measurements(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("label,k,value,kind\na,1,1.0,speedup\na,0,1.0,speedup\n",
         "line 3: k must be an integer >= 1, got 0"),
        # Series errors name the first line of their label.
        ("label,k,value,kind\nb,1,1.0,speedup\n,1,1.0,speedup\n,2,1.5,speedup\n",
         "line 3: series label must be a non-empty string"),
        ("label,k,value,kind\nb,1,1.0,speedup\na,2,5.0,time\na,4,3.0,time\n",
         "line 3: 'a': wall-time series has no baseline point at k=1"),
    ], ids=["k-zero", "empty-label", "time-without-baseline"])
    def test_every_error_names_a_line(self, text, message):
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

    def test_int_past_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        doc = '{"series": [{"label": "a", "kind": "speedup", "points": [{"k": %s, "value": 1.0}]}]}'
        with pytest.raises(DataFormatError) as info:
            parse_measurements(doc % ("9" * (limit + 1)), format="json")
        assert str(info.value) == f"invalid JSON: integer longer than {limit} digits"

    def test_non_text_source_rejected(self):
        with pytest.raises(TypeError) as info:
            parse_measurements(42, format="json")
        assert str(info.value) == "expected text, bytes or a readable object, got int"

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
        # A non-string label is rejected before it could repeat another.
        doc["series"][0]["label"], doc["series"][1]["label"] = 1, "1"
        with pytest.raises(DataFormatError, match="^series\\[0\\]: label must be a string, got 1$"):
            parse_measurements(json.dumps(doc), format="json")

    @pytest.mark.parametrize("entry, message", [
        (1, "series[0]: must be an object"),
        ({"label": "a", "kind": "ratio", "points": []},
         "series[0]: unknown value kind 'ratio' (expected one of: time, speedup, efficiency)"),
        ({"label": "a", "kind": "speedup", "points": {}}, "series[0]: points must be a list"),
        ({"label": "a", "kind": "speedup", "points": [1]},
         'series[0].points[0]: must be an object with "k" and "value"'),
        ({"label": "a", "kind": "speedup", "baseline_k": 1.5, "points": []},
         "series[0]: baseline_k must be an integer"),
        ({"label": "a", "kind": "speedup", "points": [{"k": 0, "value": 1.0}]},
         "series[0].points[0]: k must be an integer >= 1, got 0"),
        ({"label": "a", "kind": "speedup", "points": [{"k": 1, "value": 1.0}, {"k": 1, "value": 2.0}]},
         "series[0]: 'a': duplicate k values [1]"),
    ], ids=["entry-not-object", "unknown-kind", "points-not-list", "point-not-object",
            "baseline-not-integer", "k-below-one", "series-error-wrapped"])
    def test_entry_errors(self, entry, message):
        with pytest.raises(DataFormatError) as info:
            parse_measurements(json.dumps({"series": [entry]}), format="json")
        assert str(info.value) == message

    @pytest.mark.parametrize("label, shown", [(None, "None"), (True, "True"), (7, "7"), ([1], "[1]")])
    def test_non_string_label_rejected(self, label, shown):
        doc = {"series": [{"label": label, "kind": "speedup", "points": [{"k": 2, "value": 1.5}]}]}
        with pytest.raises(DataFormatError) as info:
            parse_measurements(json.dumps(doc), format="json")
        assert str(info.value) == f"series[0]: label must be a string, got {shown}"


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

    def test_value_kind_must_be_a_value_kind(self):
        with pytest.raises(ValueError) as info:
            MeasurementSeries("x", ((1, 1.0),), "speedup")
        assert str(info.value) == "value_kind must be a ValueKind, got 'speedup'"

    def test_bool_is_not_a_count(self):
        with pytest.raises(ValueError, match="k must be an integer"):
            MeasurementSeries("x", ((True, 1.0), (2, 1.8)), ValueKind.SPEEDUP)
        with pytest.raises(ValueError, match="baseline_k"):
            MeasurementSeries("x", ((1, 2.0),), ValueKind.WALL_TIME, baseline_k=True)

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

_NEAR_2_53 = st.integers(2**53 - 4, 2**53 + 8)


@st.composite
def _any_series(draw):
    """A series of any kind, with k and values where rounding and the float range bite."""
    kind = draw(st.sampled_from(ValueKind))
    ks = draw(st.sets(st.one_of(st.integers(1, 64), _NEAR_2_53, st.integers(1, sys.maxsize)),
                      min_size=1, max_size=8))
    if kind is ValueKind.WALL_TIME:
        ks.add(1)
    values = st.one_of(st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
                       st.floats(min_value=0.05, max_value=20.0),
                       st.builds(float, _NEAR_2_53))
    return MeasurementSeries("s", tuple((k, draw(values)) for k in sorted(ks)), kind)


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

    def test_row_look_alike_refused_before_its_k_is_read(self):
        class LookAlike(collections.namedtuple("LookAlike", dataio._ROW_FIELDS)):
            @property
            def k(self):
                raise AssertionError("k read before the row's type was checked")

        row = LookAlike(2, 1.5, 0.75, 0.6666666666666667, 0.33333333333333326, "normal")
        with pytest.raises(ValueError) as info:
            ScalingReport("x", (metrics.MetricRow(1, 1.0), row))
        assert str(info.value) == "report rows must be metrics.MetricRow instances"

    def test_fitted_dict_refused(self):
        rows = (metrics.MetricRow(1, 1.0), metrics.MetricRow(2, 1.5))
        with pytest.raises(ValueError) as info:
            ScalingReport("x", rows, {"alpha": 0.5, "residual": 0.0})
        assert str(info.value) == ("fitted must be None or a metrics.FitResult, "
                                   "got {'alpha': 0.5, 'residual': 0.0}")

    def test_refusals_come_in_field_order(self):
        unsorted = (metrics.MetricRow(2, 1.5), metrics.MetricRow(1, 1.0))
        for args, message in (((7, ("row",), {}), "report label must be a string"),
                              (("x", ("row",), {}), "report rows must be"),
                              (("x", unsorted, {}), "sorted by strictly ascending k")):
            with pytest.raises(ValueError, match=message):
                ScalingReport(*args)

    @settings(max_examples=300, deadline=None)
    @given(series=_any_series())
    @example(series=MeasurementSeries("edge", ((1, 1.0), (2**53 + 3, float(2**53 + 4))),
                                      ValueKind.SPEEDUP))
    @example(series=MeasurementSeries("over", ((1, 1e300), (2, 1e-300)), ValueKind.WALL_TIME))
    @example(series=MeasurementSeries("under", ((1, 1e-300), (2, 1e300)), ValueKind.WALL_TIME))
    @example(series=MeasurementSeries("eff", ((1, 1.0), (4, 1e308)), ValueKind.EFFICIENCY))
    def test_rows_equal_the_public_constructor(self, series):
        try:
            expected = tuple(metrics.MetricRow(k, s) for k, s in series.speedup_points())
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                analyze(series)
            assert str(info.value) == str(exc)
            return
        rows = analyze(series).rows
        assert rows == expected and repr(rows) == repr(expected) and hash(rows) == hash(expected)
        for row, want in zip(rows, expected):
            assert list(vars(row)) == list(vars(want)) and dataclasses.replace(row) == want
            assert type(row.alpha_eff) is type(want.alpha_eff)
            assert row.regime == want.regime == metrics.classify_regime(row.speedup, row.k)
            if row.alpha_eff is not None:
                assert row.alpha_eff.regime == want.alpha_eff.regime == row.regime

    @pytest.mark.parametrize("points, kind, message", [
        (((1, 1e300), (2, 1e-300)), ValueKind.WALL_TIME, "s must be finite, got inf"),
        (((1, 1e-300), (2, 1e300)), ValueKind.WALL_TIME, "speedup must be positive, got 0.0"),
        (((1, 1.0), (4, 1e308)), ValueKind.EFFICIENCY, "s must be finite, got inf"),
    ], ids=["speedup-overflows", "speedup-underflows", "efficiency-overflows"])
    def test_speedup_past_the_float_range_raises_efficiency_error(self, points, kind, message):
        with pytest.raises(ValueError) as info:
            analyze(MeasurementSeries("x", points, kind))
        assert str(info.value) == message


# ----------------------------------------------- each parsed point checked once

_BIG_K = 2**53 + 3


def _series_json(*entries):
    return json.dumps({"series": [
        {"label": label, "kind": kind, "points": [{"k": k, "value": v} for k, v in points], **extra}
        for label, kind, points, extra in entries]})


def _json_with(value="1.5", label='"a"', baseline=""):
    """One speedup series at k = 2, written by hand so that it can hold NaN and Infinity."""
    return ('{"series": [{"label": %s, "kind": "speedup", %s"points": [{"k": 2, "value": %s}]}]}'
            % (label, baseline, value))


_CSV_HEAD = "label,k,value,kind\n"
_SPEEDUP = ValueKind.SPEEDUP

# Each input's parse as it was before parsed points were checked only once:
# the series it gives, or the DataFormatError message it raises.
_PARSE_EDGES = [
    ("csv", _CSV_HEAD + f"x,1,1.0,speedup\nx,{_BIG_K},2.0,speedup\n",
     [MeasurementSeries("x", ((1, 1.0), (_BIG_K, 2.0)), _SPEEDUP)]),
    ("csv", _CSV_HEAD + f"x,1,1.0,speedup\nx,{sys.maxsize + 1},2.0,speedup\n",
     "line 3: k must be an integer >= 1, got 9223372036854775808"),
    ("csv", _CSV_HEAD + "x,True,1.0,speedup\n", "line 2: k must be an integer, got 'True'"),
    ("csv", _CSV_HEAD + "x,2,True,speedup\n", "line 2: value must be a number, got 'True'"),
    ("csv", _CSV_HEAD + "x,2,nan,speedup\n", "line 2: value must be positive, got nan"),
    ("csv", _CSV_HEAD + "x,2,Infinity,speedup\n", "line 2: value must be positive, got inf"),
    ("csv", _CSV_HEAD + "x,2,0,speedup\n", "line 2: value must be positive, got 0.0"),
    ("csv", _CSV_HEAD + "x,2,-1.5,speedup\n", "line 2: value must be positive, got -1.5"),
    ("csv", _CSV_HEAD + "x,2,1.5,speedup\nx,2,1.6,speedup\n", "line 3: duplicate k=2 for label 'x'"),
    ("csv", _CSV_HEAD + "x,2,5.0,time\nx,4,3.0,time\n",
     "line 2: 'x': wall-time series has no baseline point at k=1"),
    ("csv", _CSV_HEAD + ",2,1.5,speedup\n", "line 2: series label must be a non-empty string"),
    ("json", _series_json(("a", "speedup", [(1, 1.0), (_BIG_K, 2.0)], {})),
     [MeasurementSeries("a", ((1, 1.0), (_BIG_K, 2.0)), _SPEEDUP)]),
    ("json", _series_json(("a", "speedup", [(1, 1.0), (sys.maxsize + 1, 2.0)], {})),
     "series[0].points[1]: k must be an integer >= 1, got 9223372036854775808"),
    ("json", _series_json(("a", "speedup", [(True, 1.0)], {})),
     "series[0].points[0]: k must be an integer >= 1, got True"),
    ("json", _series_json(("a", "speedup", [("2", 1.0)], {})),
     "series[0].points[0]: k must be an integer >= 1, got '2'"),
    ("json", _json_with("true"), "series[0].points[0]: value must be a number"),
    ("json", _json_with('"1.5"'), "series[0].points[0]: value must be a number"),
    ("json", _json_with("NaN"), "series[0]: 'a': values must be positive, got nan at k=2"),
    ("json", _json_with("Infinity"), "series[0]: 'a': values must be positive, got inf at k=2"),
    ("json", _json_with("-Infinity"), "series[0]: 'a': values must be positive, got -inf at k=2"),
    ("json", _json_with("0"), "series[0]: 'a': values must be positive, got 0.0 at k=2"),
    ("json", _json_with("-1.5"), "series[0]: 'a': values must be positive, got -1.5 at k=2"),
    ("json", _series_json(("a", "speedup", [(2, 1.5), (2, 1.6)], {})),
     "series[0]: 'a': duplicate k values [2]"),
    ("json", _series_json(("a", "time", [(2, 5.0), (4, 3.0)], {})),
     "series[0]: 'a': wall-time series has no baseline point at k=1"),
    ("json", _series_json(("a", "time", [(2, 5.0), (4, 3.0)], {"baseline_k": 3})),
     "series[0]: 'a': wall-time series has no baseline point at k=3"),
    ("json", _series_json(("a", "time", [(1, 2.0), (2, 1.0)], {"baseline_k": 2})),
     [MeasurementSeries("a", ((1, 2.0), (2, 1.0)), ValueKind.WALL_TIME, 2)]),
    ("json", _series_json(("a", "speedup", [], {})), "series[0]: 'a': series needs at least one point"),
    ("json", _json_with(label='""'), "series[0]: series label must be a non-empty string"),
    ("json", _json_with(label='" "'), "series[0]: series label must be a non-empty string"),
    ("json", _json_with(label="1"), "series[0]: label must be a string, got 1"),
    ("json", _json_with(baseline='"baseline_k": 0, '),
     "series[0]: baseline_k must be an integer >= 1, got 0"),
    ("json", _json_with(baseline='"baseline_k": true, '), "series[0]: baseline_k must be an integer"),
    ("json", _json_with(baseline='"baseline_k": 1.5, '), "series[0]: baseline_k must be an integer"),
    ("json", _json_with(baseline=f'"baseline_k": {sys.maxsize + 1}, '),
     "series[0]: baseline_k must be an integer >= 1, got 9223372036854775808"),
    # The values are checked after the label, the duplicate label and the baseline.
    ("json", _json_with("NaN", label='""'), "series[0]: series label must be a non-empty string"),
    ("json", _json_with("NaN", label="1"), "series[0]: label must be a string, got 1"),
    ("json", '{"series": [{"label": "a", "kind": "speedup", "points": [{"k": 2, "value": 1.5}]}, '
             '{"label": "a", "kind": "speedup", "points": [{"k": 2, "value": NaN}]}]}',
     "series[1]: duplicate label 'a'"),
    ("json", _json_with("NaN", baseline='"baseline_k": 0, '),
     "series[0]: baseline_k must be an integer >= 1, got 0"),
    # ... and before duplicate k, in the order the points are given.
    ("json", '{"series": [{"label": "a", "kind": "speedup", "points": '
             '[{"k": 2, "value": 1.5}, {"k": 2, "value": NaN}]}]}',
     "series[0]: 'a': values must be positive, got nan at k=2"),
    ("json", '{"series": [{"label": "a", "kind": "speedup", "points": '
             '[{"k": 3, "value": -1}, {"k": 2, "value": NaN}]}]}',
     "series[0]: 'a': values must be positive, got -1.0 at k=3"),
]


class TestCheckOnce:
    @pytest.mark.parametrize("fmt, text, expected", _PARSE_EDGES)
    def test_edge_inputs_parse_as_before(self, fmt, text, expected):
        if isinstance(expected, str):
            with pytest.raises(DataFormatError) as info:
                parse_measurements(text, fmt)
            assert str(info.value) == expected
        else:
            series = parse_measurements(text, fmt)
            assert series == expected and repr(series) == repr(expected)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_point_is_checked_once(self, fmt, monkeypatch):
        n = 300
        series = [MeasurementSeries(f"s{j}", tuple((k, 1.0 + k / 64) for k in range(1, n // 3 + 1)),
                                    kind)
                  for j, kind in enumerate(ValueKind)]
        text = emit_measurements(series, fmt)
        calls = 0
        is_count = metrics._is_count

        def counted(value):
            nonlocal calls
            calls += 1
            return is_count(value)

        monkeypatch.setattr(metrics, "_is_count", counted)
        parsed = parse_measurements(text, fmt)
        reports = [analyze(s) for s in parsed]
        monkeypatch.undo()
        assert parsed == series and reports == [analyze(s) for s in series]
        # One check per point, and one per series for its baseline.
        assert calls <= n + len(series)

    def test_parsed_series_equal_the_public_constructor(self):
        for fixture_id in FIXTURE_IDS:
            for series in load_fixture(fixture_id).series:
                for fmt in ("csv", "json"):
                    (back,) = parse_measurements(emit_measurements(series, fmt), fmt)
                    assert back == series and repr(back) == repr(series)
                    assert hash(back) == hash(series) and list(vars(back)) == list(vars(series))
                    assert dataclasses.replace(back) == series


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
        with pytest.raises(ValueError, match="^'x': published k must be >= 1, got 0$"):
            Fixture("f", "d", (s,), {"x": ((0, 0.01),)}, verifiable=True)

    @pytest.mark.parametrize("k, shown", [(2.7, "2.7"), ("3", "'3'"), (True, "True")])
    def test_published_k_must_be_a_count(self, k, shown):
        with pytest.raises(ValueError) as info:
            Fixture("f", "d", (), {"x": ((k, 0.01),)}, verifiable=False)
        assert str(info.value) == f"'x': published k must be >= 1, got {shown}"

    @pytest.mark.parametrize("value", ["0.5", True, b"1", 10**400, None],
                             ids=["str", "bool", "bytes", "int-past-float", "none"])
    def test_published_value_must_be_a_number(self, value):
        with pytest.raises(ValueError) as info:
            Fixture("x", "d", (), {"a": [(1, value)]}, False)
        assert str(info.value) == f"'a': published serial fraction must be a number, got {value!r}"

    def test_published_int_value_reads_as_float(self):
        pairs = dict(load_fixture("audio_radar").published_serial_fraction["Audio stream 2"])
        assert pairs[2] == 0.0 and type(pairs[2]) is float


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

    def test_parse_scenario_non_object_segment(self):
        with pytest.raises(DataFormatError) as info:
            parse_scenario('{"segments": [{"kind": "S", "duration": 1.0}, 1]}')
        assert str(info.value) == 'segments[1]: must be an object with "kind" and "duration"'

    @pytest.mark.parametrize("kind", ['"X"', '"s"', '"SP"', "1", "true", "null", "1.5", "[1]",
                                      '{"S": 1}'])
    def test_parse_scenario_unknown_kind(self, kind):
        # Hashable or not, an unknown kind wins over a bad duration in its segment.
        with pytest.raises(DataFormatError) as info:
            parse_scenario(f'{{"segments": [{{"kind": "P", "duration": 1}}, '
                           f'{{"kind": {kind}, "duration": -1}}]}}')
        assert str(info.value) == (
            f"segments[1]: unknown kind {json.loads(kind)!r} (expected S, P or C)"
        )

    def test_parse_scenario_errors(self):
        with pytest.raises(DataFormatError, match="invalid JSON"):
            parse_scenario("{")
        with pytest.raises(DataFormatError, match="segments"):
            parse_scenario("{}")
        with pytest.raises(DataFormatError, match="unknown kind 'X'"):
            parse_scenario('{"segments": [{"kind": "X", "duration": 1}]}')
        for duration in ('"long"', '"1.5"', "true", "null", "[1]"):
            with pytest.raises(DataFormatError) as info:
                parse_scenario(f'{{"segments": [{{"kind": "S", "duration": {duration}}}]}}')
            assert str(info.value) == "segments[0]: duration must be a number"
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
        # A blank line and a '#' line inside a quoted field are data, and
        # so is a quoted field that starts with '#'.
        series = [MeasurementSeries('a\n\n# b, "c"', ((1, 1.0), (2, 1.8)), ValueKind.SPEEDUP),
                  MeasurementSeries("d", ((1, 1.0),), ValueKind.SPEEDUP),
                  MeasurementSeries("#e,f", ((1, 1.0),), ValueKind.SPEEDUP)]
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

    # The CSV has no baseline_k column, and its parser strips fields and
    # skips '#' lines: each of these series would come back changed or not
    # at all, so CSV refuses it and JSON carries it.
    @pytest.mark.parametrize("series", [
        MeasurementSeries("solver", ((1, 10.0), (2, 4.0), (4, 2.0)), ValueKind.WALL_TIME,
                          baseline_k=2),
        MeasurementSeries(" a", ((1, 1.0), (2, 1.5)), ValueKind.SPEEDUP),
        MeasurementSeries("#x", ((1, 1.0), (2, 1.5)), ValueKind.SPEEDUP),
    ], ids=["baseline-k", "padded-label", "comment-label"])
    def test_csv_refuses_a_series_it_cannot_carry(self, series):
        ok = MeasurementSeries("ok", ((1, 1.0),), ValueKind.SPEEDUP)
        with pytest.raises(ValueError) as info:
            emit_measurements([ok, series])
        assert str(info.value) == (
            f"{series.label!r}: the measurement CSV has no baseline_k, strips labels and "
            "skips '#' lines; use JSON for this series")
        assert parse_measurements(emit_measurements([ok, series], "json"), "json") == [ok, series]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refuses_two_series_with_one_label(self, fmt):
        # CSV would read them back as one merged series, and JSON's parser
        # rejects the duplicate: neither round-trips.
        series = [MeasurementSeries("a", ((1, 1.0), (2, 1.5)), ValueKind.SPEEDUP),
                  MeasurementSeries("b", ((1, 1.0),), ValueKind.SPEEDUP),
                  MeasurementSeries("a", ((4, 3.0),), ValueKind.SPEEDUP)]
        with pytest.raises(ValueError) as info:
            emit_measurements(series, fmt)
        assert str(info.value) == "'a': two series share this label; neither format reads them back"


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

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_single_report_reads_as_a_list_of_one(self, fmt):
        report = self.realistic_report()
        assert emit_reports(report, fmt, include_fit=True) == emit_reports(
            [report], fmt, include_fit=True)

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(self.realistic_report(), format="xml")


# ---------------------------------------------------------- emit_plot_data

class TestEmitPlotData:
    @staticmethod
    def reports_for(fixture_id):
        return [analyze(s) for s in load_fixture(fixture_id).series]

    def test_single_report_reads_as_a_list_of_one(self):
        report = self.reports_for("linpack_architectures")[0]
        assert emit_plot_data(report) == emit_plot_data([report])

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


# ------------------------------------------------------ pinned report bytes

def _edge_series():
    speedup = ValueKind.SPEEDUP
    return {
        "slowdown": [MeasurementSeries("slow", ((1, 1.0), (2, 0.8), (4, 0.5)), speedup)],
        "superlinear": [MeasurementSeries("super", ((1, 1.0), (2, 2.5), (4, 5.0)), speedup)],
        "k1-only": [MeasurementSeries("single", ((1, 3.0),), ValueKind.WALL_TIME)],
        "comma-quote-label": [
            MeasurementSeries('a,"b"', ((1, 12.0), (2, 6.5), (3, 4.75)), ValueKind.WALL_TIME)
        ],
        "empty": [],
    }


def _report_bytes(series_list):
    """Every report format, fit off and on, then both plot axes."""
    reports = [analyze(s) for s in series_list]
    parts = [
        emit_reports(reports, fmt, include_fit=fit)
        for fmt in ("table", "csv", "json")
        for fit in (False, True)
    ]
    if reports:
        parts += [emit_plot_data(reports, axis) for axis in ("efficiency", "serial-fraction")]
    return "\x00".join(parts).encode("utf-8")


# sha256 of _report_bytes per source; a change that alters report bytes
# on purpose recomputes them.
_PINNED_REPORT_DIGESTS = {
    "algorithms_scaling": "045d9e18a3bbf9793eaba649fd12a68c5c12c68dbf7fc626809e23e1754f9be4",
    "audio_radar": "5465ccee17b6842128208ab57bfd192652f35e602f69f3f58b4b9241ad1fdaa3",
    "linpack_architectures": "b6330c7ce4200e969235f79bb678d4381bcfce267fbc91e2e1a66dc7946a6316",
    "comma-quote-label": "26e520a1f7c633a66c87aaba67e25f837539b44c257888be664b72f01de11a7a",
    "empty": "2ec4f3ce0d9c305b89c15e0717bfde0e7375085bb9776a4492a2a571b0da726e",
    "k1-only": "5ed0e1cb16f4cfef10fd4cc982655cdfdc59abacae2c81613e6ee5f72a4f0d76",
    "slowdown": "ec4f958ebe74eb707e6c214ba9c24f3a0f3334773ed966478eacb54d6bd4a30e",
    "superlinear": "d34a6d4b9cd0a9af4afdb1923145a56b04729aad3a2b1b97488a4cb7e2f5dbfe",
}


def _assert_report_digest(source):
    if source in FIXTURE_IDS:
        series_list = load_fixture(source).series
    else:
        series_list = _edge_series()[source]
    assert hashlib.sha256(_report_bytes(series_list)).hexdigest() == _PINNED_REPORT_DIGESTS[source]


class TestPinnedReportBytes:
    @pytest.mark.parametrize("source", sorted(_PINNED_REPORT_DIGESTS))
    def test_report_bytes_unchanged(self, source):
        _assert_report_digest(source)

    def test_every_fixture_series_is_pinned(self):
        with_series = {f for f in FIXTURE_IDS if load_fixture(f).series}
        assert with_series <= set(_PINNED_REPORT_DIGESTS)


@pytest.fixture
def no_c_encoder(monkeypatch):
    """The JSON writer's fallback, for an interpreter built without ``_json``."""
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)


@pytest.mark.usefixtures("no_c_encoder")
class TestPinnedReportBytesWithoutCEncoder:
    """The JSON writer's fallback, for an interpreter built without ``_json``."""

    @pytest.mark.parametrize("source", sorted(_PINNED_REPORT_DIGESTS))
    def test_report_bytes_unchanged(self, source):
        _assert_report_digest(source)

    def test_measurement_json_unchanged(self):
        series = load_fixture("audio_radar").series
        text = emit_measurements(series, format="json")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_report_json_looks_up_the_c_encoder_at_each_call(monkeypatch):
    # So the no-C-encoder tests above really take the fallback: nothing
    # may hold on to the encoder from import time.
    reports = [analyze(s) for s in load_fixture("audio_radar").series]
    with_c = emit_reports(reports, "json")  # fills any cache a first call would
    c_make_encoder = json.encoder.c_make_encoder
    assert c_make_encoder is not None
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return c_make_encoder(*args)

    monkeypatch.setattr(json.encoder, "c_make_encoder", counted)
    assert emit_reports(reports, "json") == with_c
    assert calls > 0
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert emit_reports(reports, "json") == with_c


# ------------------------------------------------------------- JSON layout

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_JSON_SCALARS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2713\U0001f600", "\ud800", "a\nb"]),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256),
    st.integers(min_value=-(2**256), max_value=-(2**64)),
    _FINITE,
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-309, 1e308, -1.7976931348623157e308]),
    st.builds(metrics.EffectiveParallelization, _FINITE,
              st.sampled_from([metrics.NORMAL, metrics.SLOWDOWN, metrics.SUPERLINEAR])),
    st.booleans(),
    st.none(),
)
# Lists of dicts that share their keys, as report rows and measurement
# points are; keys that %-formatting or the JSON escapes could misread,
# and values past the float range or not finite, which must fail alike.
_RECORD_KEYS = st.one_of(st.text(max_size=4), st.text(alphabet='{}%"s\u00e9\U0001f600', max_size=4))
_RECORD_VALUES = st.one_of(
    _JSON_SCALARS,
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, metrics.EffectiveParallelization(math.nan)]),
)
_JSON_RECORDS = st.lists(_RECORD_KEYS, min_size=1, max_size=5, unique=True).flatmap(
    lambda keys: st.lists(
        st.permutations(keys).flatmap(
            lambda order: st.fixed_dictionaries({key: _RECORD_VALUES for key in order})),
        min_size=1, max_size=6))
# Empty containers are leaves too, so they turn up at every depth and as
# the whole document.
_JSON_DOCS = st.recursive(
    _JSON_SCALARS | st.sampled_from([{}, [], ()]) | _JSON_RECORDS | _JSON_RECORDS.map(tuple),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
    ),
    max_leaves=30,
)

_NON_FINITE_MESSAGE = (
    "JSON cannot carry the non-finite number (inf or nan) in this output; "
    "--format table or csv shows it"
)


def _assert_is_json_dumps(doc):
    try:
        expected = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # a non-finite number
        with pytest.raises(DataFormatError) as info:
            dataio._json_text(doc)
        assert str(info.value) == _NON_FINITE_MESSAGE
    else:
        assert dataio._json_text(doc) == expected


class TestJsonText:
    @settings(max_examples=500, deadline=None)
    @given(doc=_JSON_DOCS)
    def test_is_json_dumps_byte_for_byte(self, doc):
        _assert_is_json_dumps(doc)

    @pytest.mark.parametrize("doc", [
        float("nan"),
        [1.0, float("inf")],
        {"a": {"b": [float("-inf")]}},
        {"reports": [{"rows": [{"alpha_eff": float("nan")}]}]},
        [[], {"x": (1, metrics.EffectiveParallelization(float("inf")))}],
    ], ids=["bare", "flat", "nested", "report-row", "tuple"])
    def test_non_finite_is_data_error(self, doc):
        with pytest.raises(ValueError):
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(DataFormatError) as info:
            dataio._json_text(doc)
        assert str(info.value) == _NON_FINITE_MESSAGE

    @pytest.mark.parametrize("doc", [
        object(),
        [1, {2, 3}],
        {"a": {"b": [b"bytes"]}},
        {"a": [[], (1, 1j)]},
    ], ids=["bare", "flat", "nested", "tuple"])
    def test_non_json_object_is_type_error(self, doc):
        with pytest.raises(TypeError) as expected:
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(TypeError) as info:
            dataio._json_text(doc)
        assert str(info.value) == str(expected.value)


# ---------------------------------------------- report writers, cell by cell

def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _per_cell_reports(reports, fmt, include_fit):
    """The table and CSV writers as they were, one Python call per cell: the oracle."""
    body = [[report.label] + [getattr(row, name) for name in dataio._ROW_FIELDS]
            for report in reports for row in report.rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("label", "k", "value", "kind", *dataio._ROW_FIELDS[2:]))
        writer.writerows([label, k, s, "speedup", *rest] for label, k, s, *rest in body)
        return buf.getvalue()
    header = ["label", *dataio._ROW_FIELDS]
    cells = [[label] + [_cell(v) for v in values] for label, *values in body]
    widths = [max(len(c) for c in column) for column in zip(header, *cells)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
             for line in [header, *cells]]
    if include_fit:
        lines += [f"fitted: {r.label}  alpha={r.fitted.model.alpha:.6g}"
                  f"  residual={r.fitted.residual:.6g}" for r in reports if r.fitted is not None]
    return "\n".join(lines) + "\n"


_REPORT_LABELS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\rlf", "\u00e9\u2713\U0001f600", " pad "]),
)
_REPORT_SPEEDUPS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=0.5, max_value=20.0),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=10**6, max_value=10**300),
)


@st.composite
def _scaling_reports(draw):
    ks = sorted(draw(st.sets(st.one_of(st.just(1), st.integers(1, 64), st.integers(1, 10**7)),
                             max_size=6)))
    rows = [metrics.MetricRow(k, draw(_REPORT_SPEEDUPS)) for k in ks]
    fitted = draw(st.none() | st.builds(
        metrics.FitResult, st.builds(metrics.AmdahlModel, st.floats(0.0, 1.0)),
        st.one_of(st.floats(0.0, 1e6), st.just(math.inf))))
    return ScalingReport(draw(_REPORT_LABELS), tuple(rows), fitted)


_REPORT_LISTS = st.lists(_scaling_reports(), max_size=4)


def _per_cell_json(reports):
    """The report JSON as it was, a dict per row through json.dumps: the oracle."""
    return json.dumps({"reports": [
        {"label": report.label,
         "rows": [{name: getattr(row, name) for name in dataio._ROW_FIELDS} for row in report.rows],
         "fitted": None if report.fitted is None else
         {"alpha": report.fitted.model.alpha, "residual": report.fitted.residual}}
        for report in reports
    ]}, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _assert_json_matches_per_cell(reports):
    try:
        expected = _per_cell_json(reports)
    except ValueError:  # a non-finite number
        with pytest.raises(DataFormatError) as info:
            emit_reports(reports, "json")
        assert str(info.value) == _NON_FINITE_MESSAGE
    else:
        for include_fit in (False, True):  # JSON always carries the fit
            assert emit_reports(reports, "json", include_fit=include_fit) == expected


def _assert_writers_match_per_cell(reports):
    for fmt in ("table", "csv"):
        for include_fit in (False, True):
            assert emit_reports(reports, fmt, include_fit=include_fit) == _per_cell_reports(
                reports, fmt, include_fit)
    _assert_json_matches_per_cell(reports)


class TestReportWriters:
    @settings(max_examples=300, deadline=None)
    @given(reports=_REPORT_LISTS)
    def test_table_and_csv_match_the_per_cell_writer(self, reports):
        _assert_writers_match_per_cell(reports)

    def test_oracle_covers_no_reports_and_pinned_edges(self):
        for reports in ([], [ScalingReport("none", ())],
                        [analyze(s) for s in _edge_series()["comma-quote-label"]]):
            _assert_writers_match_per_cell(reports)

    @pytest.mark.parametrize("label", [["a"], ("a", "b"), {"x": [1]}, [], 7, None])
    def test_labels_that_are_not_strings_refused(self, label):
        # No writer is reached: a report holds only what every writer carries.
        with pytest.raises(ValueError) as info:
            ScalingReport(label, (metrics.MetricRow(1, 1.0), metrics.MetricRow(2, 1.5)))
        assert str(info.value) == f"report label must be a string, got {label!r}"


@pytest.mark.usefixtures("no_c_encoder")
class TestPropertiesWithoutCEncoder:
    """TestJsonText's and TestReportWriters' properties through the JSON fallback."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_JSON_DOCS)
    def test_json_text_is_json_dumps_byte_for_byte(self, doc):
        _assert_is_json_dumps(doc)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(reports=_REPORT_LISTS)
    def test_table_and_csv_match_the_per_cell_writer(self, reports):
        _assert_writers_match_per_cell(reports)


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
