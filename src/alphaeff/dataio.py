"""Measurement ingestion, bundled fixtures, and report/plot-data emission.

Measurement files carry one or more labeled series of (k, value) points
where the value is a wall time, a speedup, or an efficiency:

* CSV: header ``label,k,value,kind`` (extra columns ignored), kind one of
  ``time``/``speedup``/``efficiency``, ``#`` comment lines between
  records skipped; a quoted field may span lines.
* JSON: ``{"series": [{"label", "kind", "baseline_k"?, "points":
  [{"k", "value"}, ...]}]}``.

``analyze`` reduces a series to a ScalingReport of per-k derived metrics.
Reports are emitted as aligned text tables, CSV, or JSON (all
deterministic and byte-stable), or as gnuplot-style plot-data blocks.

Bundled fixtures are read-back datasets from published strong-scaling
measurements; where the source also published serial-fraction values,
they are carried alongside so recomputation can be checked against them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import Iterable, Mapping, Sequence, Union

from . import metrics, timeline

__all__ = [
    "FIXTURE_IDS",
    "SCENARIO_IDS",
    "DataFormatError",
    "Fixture",
    "MeasurementSeries",
    "ScalingReport",
    "ValueKind",
    "analyze",
    "emit_measurements",
    "emit_plot_data",
    "emit_published_serial_fractions",
    "emit_report",
    "emit_reports",
    "load_fixture",
    "parse_measurements",
    "parse_scenario",
    "scenario_fixture",
]


class ValueKind(Enum):
    WALL_TIME = "time"
    SPEEDUP = "speedup"
    EFFICIENCY = "efficiency"

    @classmethod
    def from_text(cls, text: str) -> "ValueKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            known = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown value kind {text!r} (expected one of: {known})")


class DataFormatError(ValueError):
    """Malformed measurement, scenario, or fixture input."""


@dataclass(frozen=True)
class MeasurementSeries:
    """A labeled set of (k, value) points of one kind.

    Points are stored sorted by k; k values must be unique.  WallTime
    series need a point at ``baseline_k`` so speedups can be computed.
    """

    label: str
    points: tuple[tuple[int, float], ...]
    value_kind: ValueKind
    baseline_k: int = 1

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label.strip():
            raise ValueError("series label must be a non-empty string")
        if not isinstance(self.value_kind, ValueKind):
            raise ValueError(f"value_kind must be a ValueKind, got {self.value_kind!r}")
        if not isinstance(self.baseline_k, int) or self.baseline_k < 1:
            raise ValueError(f"baseline_k must be an integer >= 1, got {self.baseline_k!r}")
        normalized = []
        for point in self.points:
            k, value = point
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"{self.label!r}: k must be an integer >= 1, got {k!r}")
            value = float(value)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{self.label!r}: values must be positive, got {value!r} at k={k}")
            normalized.append((k, value))
        if not normalized:
            raise ValueError(f"{self.label!r}: series needs at least one point")
        normalized.sort()
        ks = [k for k, _ in normalized]
        # ks is sorted, so every repeated k sits next to its twin.
        dupes = sorted({k for k, after in zip(ks, ks[1:]) if k == after})
        if dupes:
            raise ValueError(f"{self.label!r}: duplicate k values {dupes}")
        if self.value_kind is ValueKind.WALL_TIME and self.baseline_k not in set(ks):
            raise ValueError(
                f"{self.label!r}: wall-time series has no baseline point at k={self.baseline_k}"
            )
        object.__setattr__(self, "points", tuple(normalized))

    def speedup_points(self) -> tuple[tuple[int, float], ...]:
        """The series converted to (k, speedup) pairs.

        WallTime divides the baseline time by each time; Efficiency
        multiplies by k; Speedup is returned as-is.
        """
        if self.value_kind is ValueKind.SPEEDUP:
            return self.points
        if self.value_kind is ValueKind.EFFICIENCY:
            return tuple((k, v * k) for k, v in self.points)
        t_base = dict(self.points)[self.baseline_k]
        return tuple((k, t_base / v) for k, v in self.points)


@dataclass(frozen=True)
class ScalingReport:
    """Per-k derived metrics for one series, plus an optional Amdahl fit."""

    label: str
    rows: tuple[metrics.MetricRow, ...]
    fitted: metrics.FitResult | None = None

    def __post_init__(self):
        rows = tuple(self.rows)
        ks = [r.k for r in rows]
        if ks != sorted(set(ks)):
            raise ValueError("report rows must be sorted by strictly ascending k")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True, eq=False)
class Fixture:
    """A bundled dataset: measurement series and/or published serial fractions.

    ``verifiable`` fixtures carry both an efficiency series and the
    published 1 - alpha_eff values, so recomputation can be checked;
    serial-fraction-only fixtures support plotting and comparison but
    not recomputation.
    """

    id: str
    description: str
    series: tuple[MeasurementSeries, ...]
    published_serial_fraction: Mapping[str, tuple[tuple[int, float], ...]]
    verifiable: bool

    def __post_init__(self):
        series = tuple(self.series)
        object.__setattr__(self, "series", series)
        published = {
            label: tuple(sorted((int(k), float(v)) for k, v in pairs))
            for label, pairs in dict(self.published_serial_fraction).items()
        }
        for label, pairs in published.items():
            for k, v in pairs:
                if k < 1:
                    raise ValueError(f"{label!r}: published k must be >= 1, got {k}")
                if not (math.isfinite(v) and v >= 0.0):
                    raise ValueError(f"{label!r}: published serial fraction must be >= 0, got {v}")
        if series:
            ks_by_label = {s.label: {k for k, _ in s.points} for s in series}
            for label, pairs in published.items():
                if label not in ks_by_label:
                    raise ValueError(f"published label {label!r} has no matching series")
                for k, _ in pairs:
                    if k != 1 and k not in ks_by_label[label]:
                        raise ValueError(f"{label!r}: published k={k} not in the series")
        if self.verifiable and not (series and published):
            raise ValueError("a verifiable fixture needs series and published values")
        object.__setattr__(self, "published_serial_fraction", published)


def _as_text(source) -> str:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        return source.decode("utf-8-sig")
    if isinstance(source, str):
        return source.lstrip("﻿")
    raise TypeError(f"expected text, bytes or a readable object, got {type(source).__name__}")


def _json_text(doc) -> str:
    """The one JSON layout every document this package writes uses."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one CSV layout every table this package writes uses."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _plot_text(blocks: Iterable[tuple[str, str, str, Iterable[tuple]]]) -> str:
    """The one plot-block layout, for ``(series, xscale, yscale, points)`` blocks.

    Points are written as ``repr(x) repr(y)`` lines; see :func:`emit_plot_data`.
    """
    texts = []
    for series, xscale, yscale, points in blocks:
        lines = [f"# series: {series}", f"# xscale: {xscale}", f"# yscale: {yscale}"]
        lines.extend(f"{x!r} {y!r}" for x, y in points)
        texts.append("\n".join(lines))
    return "\n\n\n".join(texts) + "\n"


_REQUIRED_COLUMNS = ("label", "k", "value", "kind")


def _csv_records(text: str) -> Iterable[tuple[int, list[str]]]:
    """Each CSV record of ``text`` as (its first line, its stripped fields).

    Blank and ``#`` lines are skipped between records only: inside an
    open quoted field they are data.  The reader decides where a record
    ends, since a bare ``"`` inside an unquoted field is literal.
    """
    start = None  # first line of the record being read; None between records

    def lines():
        nonlocal start
        for lineno, raw in enumerate(text.splitlines(keepends=True), 1):
            if start is None:
                stripped = raw.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                start = lineno
            yield raw
        if start is not None:  # the reader wants more of an open record
            raise DataFormatError(f"line {start}: unterminated quoted field")

    try:
        for fields in csv.reader(lines()):
            first, start = start, None
            yield first, [f.strip() for f in fields]
    except csv.Error as exc:
        raise DataFormatError(f"line {start}: {exc}")


def _parse_csv_measurements(text: str) -> list[MeasurementSeries]:
    columns = None
    rows = []
    for lineno, fields in _csv_records(text):
        if columns is None:
            missing = [c for c in _REQUIRED_COLUMNS if c not in fields]
            if missing:
                raise DataFormatError(
                    f"line {lineno}: header missing column(s) {', '.join(missing)}"
                )
            columns = {name: fields.index(name) for name in _REQUIRED_COLUMNS}
            continue
        if len(fields) <= max(columns.values()):
            raise DataFormatError(
                f"line {lineno}: expected at least {max(columns.values()) + 1} fields, got {len(fields)}"
            )
        label = fields[columns["label"]]
        try:
            k = int(fields[columns["k"]])
        except ValueError:
            raise DataFormatError(f"line {lineno}: k must be an integer, got {fields[columns['k']]!r}")
        try:
            value = float(fields[columns["value"]])
        except ValueError:
            raise DataFormatError(
                f"line {lineno}: value must be a number, got {fields[columns['value']]!r}"
            )
        if not (math.isfinite(value) and value > 0.0):
            raise DataFormatError(f"line {lineno}: value must be positive, got {value}")
        try:
            kind = ValueKind.from_text(fields[columns["kind"]])
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: {exc}")
        rows.append((lineno, label, k, value, kind))

    if not rows:
        warnings.warn("no measurement rows in input", stacklevel=3)
        return []

    # label -> (kind, line of its first row, k -> value), in order of first appearance.
    groups: dict[str, tuple[ValueKind, int, dict[int, float]]] = {}
    for lineno, label, k, value, kind in rows:
        first_kind, first_line, points = groups.setdefault(label, (kind, lineno, {}))
        if kind is not first_kind:
            raise DataFormatError(
                f"line {lineno}: kind {kind.value!r} conflicts with {first_kind.value!r} "
                f"for label {label!r} (line {first_line})"
            )
        if k in points:
            raise DataFormatError(f"line {lineno}: duplicate k={k} for label {label!r}")
        points[k] = value
    try:
        return [
            MeasurementSeries(label, tuple(points.items()), kind)
            for label, (kind, _, points) in groups.items()
        ]
    except ValueError as exc:
        raise DataFormatError(str(exc))


def _parse_json_measurements(text: str) -> list[MeasurementSeries]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("series"), list):
        raise DataFormatError('measurement JSON must be an object with a "series" list')
    if not doc["series"]:
        warnings.warn("no measurement rows in input", stacklevel=3)
        return []
    out = []
    seen = set()
    for i, entry in enumerate(doc["series"]):
        where = f"series[{i}]"
        if not isinstance(entry, dict):
            raise DataFormatError(f"{where}: must be an object")
        try:
            label = entry["label"]
            kind_text = entry["kind"]
            raw_points = entry["points"]
        except KeyError as exc:
            raise DataFormatError(f"{where}: missing key {exc.args[0]!r}")
        try:
            kind = ValueKind.from_text(str(kind_text))
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}")
        if not isinstance(raw_points, list):
            raise DataFormatError(f"{where}: points must be a list")
        points = []
        for j, p in enumerate(raw_points):
            if not isinstance(p, dict) or "k" not in p or "value" not in p:
                raise DataFormatError(f'{where}.points[{j}]: must be an object with "k" and "value"')
            if not isinstance(p["k"], int) or isinstance(p["k"], bool):
                raise DataFormatError(f"{where}.points[{j}]: k must be an integer")
            if not isinstance(p["value"], (int, float)) or isinstance(p["value"], bool):
                raise DataFormatError(f"{where}.points[{j}]: value must be a number")
            points.append((p["k"], float(p["value"])))
        baseline_k = entry.get("baseline_k", 1)
        if not isinstance(baseline_k, int) or isinstance(baseline_k, bool):
            raise DataFormatError(f"{where}: baseline_k must be an integer")
        label = str(label)
        if label in seen:
            raise DataFormatError(f"{where}: duplicate label {label!r}")
        seen.add(label)
        try:
            out.append(MeasurementSeries(label, tuple(points), kind, baseline_k))
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}")
    return out


def parse_measurements(source, format: str = "csv") -> list[MeasurementSeries]:
    """Parse measurement series from CSV or JSON text/bytes/file object.

    Returns one series per distinct label, in order of first appearance.
    Empty input yields an empty list with a warning.  Malformed input
    raises :class:`DataFormatError`, with the offending line number for
    CSV input.
    """
    text = _as_text(source)
    fmt = format.strip().lower()
    if fmt == "csv":
        return _parse_csv_measurements(text)
    if fmt == "json":
        return _parse_json_measurements(text)
    raise ValueError(f"unknown measurement format {format!r} (expected csv or json)")


def emit_measurements(series, format: str = "csv") -> str:
    """Serialize series to the measurement CSV or JSON schema.

    Inverse of :func:`parse_measurements`; float values are written with
    ``repr`` so a parse round-trip reproduces them exactly.  Note the
    CSV schema has no baseline_k column (baseline is k=1 by convention);
    use JSON for wall-time series with a non-default baseline.
    """
    if isinstance(series, MeasurementSeries):
        series = [series]
    series = list(series)
    fmt = format.strip().lower()
    if fmt == "csv":
        return _csv_text(
            _REQUIRED_COLUMNS,
            ([s.label, k, repr(v), s.value_kind.value] for s in series for k, v in s.points),
        )
    if fmt == "json":
        doc = {
            "series": [
                {
                    "label": s.label,
                    "kind": s.value_kind.value,
                    "baseline_k": s.baseline_k,
                    "points": [{"k": k, "value": v} for k, v in s.points],
                }
                for s in series
            ]
        }
        return _json_text(doc)
    raise ValueError(f"unknown measurement format {format!r} (expected csv or json)")


def analyze(series: MeasurementSeries) -> ScalingReport:
    """Reduce a series to per-k metric rows plus a fitted Amdahl model.

    Values are converted to speedups first (see ``speedup_points``).
    The k=1 row carries no alpha_eff; the fit is attached when at least
    two points with k >= 2 are available.
    """
    pairs = series.speedup_points()
    rows = tuple(metrics.MetricRow.from_speedup(k, s) for k, s in pairs)
    usable = [(k, s) for k, s in pairs if k >= 2]
    fitted = metrics.fit_alpha(usable) if len(usable) >= 2 else None
    return ScalingReport(series.label, rows, fitted)


FIXTURE_IDS = (
    "audio_radar",
    "linpack_architectures",
    "algorithms_scaling",
    "soc_rosenbrock",
    "soc_rastrigin",
)

SCENARIO_IDS = ("classic", "realistic")


def _read_bundled(name: str) -> str:
    return resources.files(__package__).joinpath("data", name).read_text("utf-8")


def load_fixture(fixture_id: str) -> Fixture:
    """Load a bundled dataset by id; see FIXTURE_IDS for the inventory."""
    if fixture_id not in FIXTURE_IDS:
        raise ValueError(
            f"unknown fixture {fixture_id!r} (available: {', '.join(FIXTURE_IDS)})"
        )
    doc = json.loads(_read_bundled(f"{fixture_id}.json"))
    series = tuple(
        MeasurementSeries(
            entry["label"],
            tuple((int(k), float(v)) for k, v in entry["points"]),
            ValueKind.from_text(entry["kind"]),
        )
        for entry in doc["series"]
    )
    return Fixture(
        id=doc["id"],
        description=doc["description"],
        series=series,
        published_serial_fraction=doc.get("published_serial_fraction", {}),
        verifiable=bool(doc["verifiable"]),
    )


def parse_scenario(source) -> timeline.Timeline:
    """Parse a timeline scenario: JSON {"segments": [{"kind", "duration"}]}.

    Kinds are "S" (sequential), "P" (parallel chunk), "C" (control).
    """
    text = _as_text(source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("segments"), list):
        raise DataFormatError('scenario must be an object with a "segments" list')
    segments = []
    for i, entry in enumerate(doc["segments"]):
        where = f"segments[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry or "duration" not in entry:
            raise DataFormatError(f'{where}: must be an object with "kind" and "duration"')
        try:
            kind = timeline.SegmentKind(entry["kind"])
        except ValueError:
            raise DataFormatError(f"{where}: unknown kind {entry['kind']!r} (expected S, P or C)")
        duration = entry["duration"]
        if not isinstance(duration, (int, float)) or isinstance(duration, bool):
            raise DataFormatError(f"{where}: duration must be a number")
        try:
            segments.append(timeline.Segment(kind, float(duration)))
        except ValueError as exc:
            raise DataFormatError(f"{where}: {exc}")
    try:
        return timeline.Timeline(tuple(segments))
    except ValueError as exc:
        raise DataFormatError(str(exc))


def scenario_fixture(name: str) -> timeline.Timeline:
    """Load a bundled scenario ("classic" or "realistic")."""
    if name not in SCENARIO_IDS:
        raise ValueError(f"unknown scenario {name!r} (available: {', '.join(SCENARIO_IDS)})")
    return parse_scenario(_read_bundled(f"scenario_{name}.json"))


def _fmt_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


_TABLE_COLUMNS = ("label", "k", "speedup", "efficiency", "alpha_eff", "serial_fraction", "regime")


def _table_lines(reports: Sequence[ScalingReport], include_fit: bool) -> list[str]:
    body = []
    for report in reports:
        for row in report.rows:
            body.append(
                (
                    report.label,
                    _fmt_cell(row.k),
                    _fmt_cell(row.speedup),
                    _fmt_cell(row.efficiency),
                    _fmt_cell(row.alpha_eff),
                    _fmt_cell(row.serial_fraction),
                    row.regime,
                )
            )
    widths = [
        max(len(_TABLE_COLUMNS[i]), *(len(r[i]) for r in body)) if body else len(_TABLE_COLUMNS[i])
        for i in range(len(_TABLE_COLUMNS))
    ]
    def render(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = [render(_TABLE_COLUMNS)]
    lines.extend(render(r) for r in body)
    if include_fit:
        for report in reports:
            if report.fitted is not None:
                lines.append(
                    f"fitted: {report.label}  alpha={report.fitted.model.alpha:.6g}"
                    f"  residual={report.fitted.residual:.6g}"
                )
    return lines


def _csv_lines(reports: Sequence[ScalingReport]) -> str:
    return _csv_text(
        ("label", "k", "value", "kind", "efficiency", "alpha_eff", "serial_fraction", "regime"),
        (
            [
                report.label,
                row.k,
                repr(row.speedup),
                ValueKind.SPEEDUP.value,
                repr(row.efficiency),
                "" if row.alpha_eff is None else repr(row.alpha_eff),
                "" if row.serial_fraction is None else repr(row.serial_fraction),
                row.regime,
            ]
            for report in reports
            for row in report.rows
        ),
    )


def _report_dict(report: ScalingReport) -> dict:
    return {
        "label": report.label,
        "rows": [
            {
                "k": row.k,
                "speedup": row.speedup,
                "efficiency": row.efficiency,
                "alpha_eff": row.alpha_eff,
                "serial_fraction": row.serial_fraction,
                "regime": row.regime,
            }
            for row in report.rows
        ],
        "fitted": None
        if report.fitted is None
        else {"alpha": report.fitted.model.alpha, "residual": report.fitted.residual},
    }


def emit_reports(reports, format: str = "table", include_fit: bool = False) -> str:
    """Serialize reports; formats are "table", "csv" and "json".

    Output is deterministic and byte-stable for identical input.  The
    CSV carries the speedup as the measurement ``value`` column (plus
    derived columns that :func:`parse_measurements` ignores), so parsing
    it back reproduces the speedup series exactly.  The table appends
    fitted-model lines only when ``include_fit`` is set; JSON always
    carries the fit.
    """
    if isinstance(reports, ScalingReport):
        reports = [reports]
    reports = list(reports)
    fmt = format.strip().lower()
    if fmt == "table":
        return "\n".join(_table_lines(reports, include_fit)) + "\n"
    if fmt == "csv":
        return _csv_lines(reports)
    if fmt == "json":
        return _json_text({"reports": [_report_dict(r) for r in reports]})
    raise ValueError(f"unknown report format {format!r} (expected table, csv or json)")


def emit_report(report: ScalingReport, format: str = "table", include_fit: bool = False) -> str:
    """Serialize one report; see :func:`emit_reports`."""
    return emit_reports([report], format, include_fit)


def emit_plot_data(reports, y_axis: str = "efficiency", xscale: str | None = None,
                   yscale: str | None = None) -> str:
    """Emit 2-column plot blocks (``k value``) for external plotting tools.

    One block per report, separated by two blank lines, each headed by
    comment lines naming the series and its x and y scale hints.  ``y_axis``
    is "efficiency" or "serial-fraction" (the latter skips k=1 rows).
    Scale hints default to the conventional views of this kind of data:
    efficiency on a log-k axis, serial fraction on a log value axis with
    log k once the series reach 16 or more processors.
    """
    if isinstance(reports, ScalingReport):
        reports = [reports]
    reports = list(reports)
    if not reports:
        raise ValueError("need at least one report")
    axis = y_axis.strip().lower()
    if axis not in ("efficiency", "serial-fraction"):
        raise ValueError(f"unknown y_axis {y_axis!r} (expected efficiency or serial-fraction)")
    all_k = [row.k for report in reports for row in report.rows]
    max_k = max(all_k) if all_k else 1
    if xscale is None:
        xscale = "log" if (axis == "efficiency" or max_k >= 16) else "linear"
    if yscale is None:
        yscale = "linear" if axis == "efficiency" else "log"
    for name, scale in (("xscale", xscale), ("yscale", yscale)):
        if scale not in ("log", "linear"):
            raise ValueError(f"{name} must be log or linear, got {scale!r}")

    def points(report):
        if axis == "efficiency":
            return [(row.k, row.efficiency) for row in report.rows]
        return [(row.k, row.serial_fraction) for row in report.rows if row.serial_fraction is not None]

    return _plot_text((report.label, xscale, yscale, points(report)) for report in reports)


def emit_published_serial_fractions(fixture: Fixture) -> str:
    """CSV of a fixture's published serial-fraction pairs, verbatim.

    Header ``label,k,serial_fraction``; values are written with ``repr``
    so they match the bundled data exactly.
    """
    if not fixture.published_serial_fraction:
        raise ValueError(f"fixture {fixture.id!r} has no published serial fractions")
    return _csv_text(
        ("label", "k", "serial_fraction"),
        (
            [label, k, repr(value)]
            for label, pairs in fixture.published_serial_fraction.items()
            for k, value in pairs
        ),
    )
