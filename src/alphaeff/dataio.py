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
import operator
import os
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

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
            return _VALUE_KINDS[text.strip().lower()]
        except KeyError:
            known = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown value kind {text!r} (expected one of: {known})")


_VALUE_KINDS = {kind.value: kind for kind in ValueKind}


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
        _check_series_fields(self.label, self.value_kind, self.baseline_k)
        normalized = []
        for point in self.points:
            k, value = point
            if not metrics._is_count(k):
                raise ValueError(f"{self.label!r}: k must be an integer >= 1, got {k!r}")
            if not (metrics._is_number(value) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"{self.label!r}: values must be positive, got {value!r} at k={k}")
            normalized.append((k, float(value)))
        object.__setattr__(self, "points", _sorted_points(self.label, normalized, self.value_kind,
                                                          self.baseline_k))

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


def _check_series_fields(label, value_kind, baseline_k) -> None:
    if not isinstance(label, str) or not label.strip():
        raise ValueError("series label must be a non-empty string")
    if not isinstance(value_kind, ValueKind):
        raise ValueError(f"value_kind must be a ValueKind, got {value_kind!r}")
    if not metrics._is_count(baseline_k):
        raise ValueError(f"baseline_k must be an integer >= 1, got {baseline_k!r}")


def _sorted_points(label: str, points, value_kind: ValueKind, baseline_k: int) -> tuple:
    """Checked (k, value) ``points`` sorted by k; raises if a series cannot hold them."""
    if not points:
        raise ValueError(f"{label!r}: series needs at least one point")
    points = sorted(points)
    ks = list(map(operator.itemgetter(0), points))
    distinct = set(ks)
    if len(distinct) < len(ks):
        # ks is sorted, so every repeated k sits next to its twin.
        dupes = sorted({k for k, after in zip(ks, ks[1:]) if k == after})
        raise ValueError(f"{label!r}: duplicate k values {dupes}")
    if value_kind is ValueKind.WALL_TIME and baseline_k not in distinct:
        raise ValueError(f"{label!r}: wall-time series has no baseline point at k={baseline_k}")
    return tuple(points)


def _checked_series(label, points, value_kind, baseline_k=1) -> MeasurementSeries:
    """``MeasurementSeries(label, points, value_kind, baseline_k)``, built in one step.

    Each point's k is a count and its value a finite positive float,
    already checked by the parser.  The series' own checks run in the
    constructor's order; one ``__dict__`` update in field order then
    builds the instance the generated frozen ``__init__`` would.
    """
    _check_series_fields(label, value_kind, baseline_k)
    series = object.__new__(MeasurementSeries)
    series.__dict__.update(label=label,
                           points=_sorted_points(label, points, value_kind, baseline_k),
                           value_kind=value_kind, baseline_k=baseline_k)
    return series


@dataclass(frozen=True)
class ScalingReport:
    """Per-k derived metrics for one series, plus an optional Amdahl fit.

    Refuses, in field order, a label that is not a ``str``, a row that is
    not a ``metrics.MetricRow``, rows out of strictly ascending k, and a
    ``fitted`` that is neither None nor a ``metrics.FitResult``, so every
    report writer can write what it holds.  The writers' text of its rows
    (see ``_row_texts``) is kept on the instance but is not a field, nor pickled.
    """

    label: str
    rows: tuple[metrics.MetricRow, ...]
    fitted: metrics.FitResult | None = None

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError(f"report label must be a string, got {self.label!r}")
        rows = tuple(self.rows)
        if not all(map(isinstance, rows, repeat(metrics.MetricRow))):
            raise ValueError("report rows must be metrics.MetricRow instances")
        ks = [r.k for r in rows]
        if ks != sorted(set(ks)):
            raise ValueError("report rows must be sorted by strictly ascending k")
        if not (self.fitted is None or isinstance(self.fitted, metrics.FitResult)):
            raise ValueError(f"fitted must be None or a metrics.FitResult, got {self.fitted!r}")
        object.__setattr__(self, "rows", rows)

    def __getstate__(self):
        return {"label": self.label, "rows": self.rows, "fitted": self.fitted}


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
        ks_by_label = {s.label: {k for k, _ in s.points} for s in series}
        published = {}
        for label, pairs in dict(self.published_serial_fraction).items():
            if series and label not in ks_by_label:
                raise ValueError(f"published label {label!r} has no matching series")
            checked = []
            for k, v in pairs:
                if not metrics._is_count(k):
                    raise ValueError(f"{label!r}: published k must be >= 1, got {k!r}")
                if not metrics._is_number(v):
                    raise ValueError(f"{label!r}: published serial fraction must be a number, got {v!r}")
                v = float(v)
                if not (math.isfinite(v) and v >= 0.0):
                    raise ValueError(f"{label!r}: published serial fraction must be >= 0, got {v}")
                if series and k != 1 and k not in ks_by_label[label]:
                    raise ValueError(f"{label!r}: published k={k} not in the series")
                checked.append((k, v))
            published[label] = tuple(sorted(checked))
        if self.verifiable and not (series and published):
            raise ValueError("a verifiable fixture needs series and published values")
        object.__setattr__(self, "published_serial_fraction", published)


def _as_text(source) -> str:
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            # exc.object is the input after any BOM, and exc.start indexes it.
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise DataFormatError(
                f"line {line}: input is not UTF-8 (byte {exc.object[exc.start]:#04x})"
            ) from None
    if isinstance(source, str):
        return source.lstrip("﻿")
    raise TypeError(f"expected text, bytes or a readable object, got {type(source).__name__}")


def _record_template(names: tuple[str, ...], depth: int) -> str:
    """The %-template of one dict with keys ``names``, ``depth`` levels in."""
    newline = "\n" + "  " * (depth + 1)
    key = json.encoder.encode_basestring_ascii
    return "{" + newline + ("," + newline).join(
        key(name).replace("%", "%%") + ": %s" for name in names
    ) + "\n" + "  " * depth + "}"


_NON_FINITE = (
    "JSON cannot carry the non-finite number (inf or nan) in this output; "
    "--format table or csv shows it"
)


def _json_text(doc) -> str:
    """The one JSON layout every document this package writes uses: strict RFC 8259.

    The text is ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)``
    plus a newline.
    """
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise DataFormatError(_NON_FINITE) from None


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one CSV layout every table this package writes uses."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _plot_text(blocks: Iterable[tuple[str, str, str, Iterable[tuple]]]) -> str:
    """The one plot-block layout, for ``(series, xscale, yscale, points)`` blocks.

    Points are ``(x, y)`` pairs of text, each written as an ``x y`` line;
    the callers pass the ``repr`` of each number.  See :func:`emit_plot_data`.
    """
    texts = []
    for series, xscale, yscale, points in blocks:
        lines = [f"# series: {series}", f"# xscale: {xscale}", f"# yscale: {yscale}"]
        lines.extend(map(" ".join, points))
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
    pick = None  # the header's column indices, resolved once per file
    rows = []
    for lineno, fields in _csv_records(text):
        if pick is None:
            missing = [c for c in _REQUIRED_COLUMNS if c not in fields]
            if missing:
                raise DataFormatError(
                    f"line {lineno}: header missing column(s) {', '.join(missing)}"
                )
            indices = [fields.index(name) for name in _REQUIRED_COLUMNS]
            pick = operator.itemgetter(*indices)
            width = max(indices) + 1
            continue
        if len(fields) < width:
            raise DataFormatError(
                f"line {lineno}: expected at least {width} fields, got {len(fields)}"
            )
        label, k_text, value_text, kind_text = pick(fields)
        try:
            k = int(k_text)
        except ValueError:
            raise DataFormatError(f"line {lineno}: k must be an integer, got {k_text!r}")
        if not metrics._is_count(k):
            raise DataFormatError(f"line {lineno}: k must be an integer >= 1, got {k}")
        try:
            value = float(value_text)
        except ValueError:
            raise DataFormatError(f"line {lineno}: value must be a number, got {value_text!r}")
        if not (math.isfinite(value) and value > 0.0):
            raise DataFormatError(f"line {lineno}: value must be positive, got {value}")
        kind = _VALUE_KINDS.get(kind_text.lower())  # the fields are stripped
        if kind is None:
            try:
                ValueKind.from_text(kind_text)  # raises the unknown-kind error
            except ValueError as exc:
                raise DataFormatError(f"line {lineno}: {exc}")
        rows.append((lineno, label, k, value, kind))

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
    series = []
    for label, (kind, first_line, points) in groups.items():
        try:
            series.append(_checked_series(label, tuple(points.items()), kind))
        except ValueError as exc:
            raise DataFormatError(f"line {first_line}: {exc}")
    return series


def _load_json(source, what: str):
    """The JSON document ``source``; one it cannot read is an ``invalid {what}`` error."""
    try:
        return json.loads(_as_text(source))
    except (json.JSONDecodeError, DataFormatError) as exc:
        raise DataFormatError(f"invalid {what}: {exc}")
    except ValueError:
        # json.loads's only other error: an integer past CPython's digit limit.
        raise DataFormatError(
            f"invalid {what}: integer longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def _json_list(source, key: str, what: str) -> list:
    """The ``key`` list of the JSON object document ``source``."""
    doc = _load_json(source, "JSON")
    if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
        raise DataFormatError(f'{what} must be an object with a "{key}" list')
    return doc[key]


def _parse_json_measurements(text: str) -> list[MeasurementSeries]:
    out = []
    seen = set()
    for i, entry in enumerate(_json_list(text, "series", "measurement JSON")):
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
            if not metrics._is_count(p["k"]):
                raise DataFormatError(f"{where}.points[{j}]: k must be an integer >= 1, got {p['k']!r}")
            if not metrics._is_number(p["value"]):
                raise DataFormatError(f"{where}.points[{j}]: value must be a number")
            points.append((p["k"], float(p["value"])))
        baseline_k = entry.get("baseline_k", 1)
        if not isinstance(baseline_k, int) or isinstance(baseline_k, bool):
            raise DataFormatError(f"{where}: baseline_k must be an integer")
        if not isinstance(label, str):
            raise DataFormatError(f"{where}: label must be a string, got {label!r}")
        if label in seen:
            raise DataFormatError(f"{where}: duplicate label {label!r}")
        seen.add(label)
        # The parser checked k, not the values: a value that is not finite
        # and positive goes to the public constructor, which raises its error
        # after the label and baseline checks.
        values = list(map(operator.itemgetter(1), points))
        checked = all(map(math.isfinite, values)) and min(values, default=1.0) > 0.0
        try:
            out.append((_checked_series if checked else MeasurementSeries)(
                label, tuple(points), kind, baseline_k))
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
        series = _parse_csv_measurements(text)
    elif fmt == "json":
        series = _parse_json_measurements(text)
    else:
        raise ValueError(f"unknown measurement format {format!r} (expected csv or json)")
    if not series:
        warnings.warn("no measurement rows in input", stacklevel=2)
    return series


def emit_measurements(series, format: str = "csv") -> str:
    """Serialize series to the measurement CSV or JSON schema.

    Inverse of :func:`parse_measurements`; float values are written with
    ``repr`` so a parse round-trip reproduces them exactly.  CSV refuses a
    series it would not read back as written (a baseline_k other than 1, a
    label with surrounding whitespace or one that starts a ``#`` line): use JSON.
    Neither format takes two series with one label.
    """
    if isinstance(series, MeasurementSeries):
        series = [series]
    series = list(series)
    fmt = format.strip().lower()
    labels = set()
    for s in series:
        if s.label in labels:
            raise ValueError(f"{s.label!r}: two series share this label; neither format reads them back")
        labels.add(s.label)
        if fmt == "csv" and (s.baseline_k != 1 or s.label != s.label.strip()
                             or _csv_text((s.label,), ()).startswith("#")):  # a quoted one is data
            raise ValueError(f"{s.label!r}: the measurement CSV has no baseline_k, strips "
                             "labels and skips '#' lines; use JSON for this series")
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
    rows = metrics._metric_rows(pairs)
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
    """The bundled data file ``name``, read through the loader that imported this module."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    return __spec__.loader.get_data(path).decode("utf-8")


def load_fixture(fixture_id: str) -> Fixture:
    """Load a bundled dataset by id; see FIXTURE_IDS for the inventory."""
    if fixture_id not in FIXTURE_IDS:
        raise ValueError(
            f"unknown fixture {fixture_id!r} (available: {', '.join(FIXTURE_IDS)})"
        )
    doc = json.loads(_read_bundled(f"{fixture_id}.json"))
    series = tuple(
        MeasurementSeries(entry["label"], entry["points"], ValueKind.from_text(entry["kind"]))
        for entry in doc["series"]
    )
    return Fixture(
        id=doc["id"],
        description=doc["description"],
        series=series,
        published_serial_fraction=doc.get("published_serial_fraction", {}),
        verifiable=bool(doc["verifiable"]),
    )


_SEGMENT_KINDS = {kind.value: kind for kind in timeline.SegmentKind}


def parse_scenario(source) -> timeline.Timeline:
    """Parse a timeline scenario: JSON {"segments": [{"kind", "duration"}]}.

    Kinds are "S" (sequential), "P" (parallel chunk), "C" (control).
    """
    segments = []
    for i, entry in enumerate(_json_list(source, "segments", "scenario")):
        where = f"segments[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry or "duration" not in entry:
            raise DataFormatError(f'{where}: must be an object with "kind" and "duration"')
        try:
            kind = _SEGMENT_KINDS[entry["kind"]]
        except (KeyError, TypeError):  # TypeError: an unhashable kind, such as a list
            raise DataFormatError(f"{where}: unknown kind {entry['kind']!r} (expected S, P or C)")
        try:
            segments.append(timeline.Segment(kind, entry["duration"]))
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


# The per-k fields of a report row, in the order every report format writes them.
_ROW_FIELDS = ("k", "speedup", "efficiency", "alpha_eff", "serial_fraction", "regime")
_row_values = operator.attrgetter(*_ROW_FIELDS)


def _row_columns(reports: Sequence[ScalingReport]) -> tuple[list[str], list[tuple]]:
    """The label of every report row, and each of its _ROW_FIELDS as one column."""
    labels = list(chain.from_iterable(repeat(r.label, len(r.rows)) for r in reports))
    rows = chain.from_iterable(r.rows for r in reports)
    return labels, list(zip(*map(_row_values, rows))) or [()] * len(_ROW_FIELDS)


def _row_texts(report: ScalingReport) -> tuple[list, ...]:
    """The report's rows as text, one sequence per _ROW_FIELDS column; made once per report.

    k is written by ``int.__repr__``, every float by ``float.__repr__``
    and an int speedup by ``int.__repr__``: the text ``json.dumps`` writes,
    and for a plain int or float the text ``csv`` writes too.  A missing
    value stays None.  The CSV, JSON and plot writers all read these texts.
    """
    texts = report.__dict__.get("_texts")
    if texts is None:
        ks, speedups, efficiencies, alphas, serials, regimes = (
            list(zip(*map(_row_values, report.rows))) or [()] * len(_ROW_FIELDS))
        try:
            speedups = list(map(float.__repr__, speedups))
        except TypeError:  # an int speedup
            speedups = [(float if isinstance(s, float) else int).__repr__(s) for s in speedups]
        # Only a k = 1 row, which sorts first, has no alpha_eff and serial fraction.
        none = [None] if ks[:1] == (1,) else []
        texts = report.__dict__["_texts"] = (
            list(map(int.__repr__, ks)), speedups, list(map(float.__repr__, efficiencies)),
            none + list(map(float.__repr__, alphas[len(none):])),
            none + list(map(float.__repr__, serials[len(none):])), regimes)
    return texts


def _table_lines(reports: Sequence[ScalingReport], include_fit: bool) -> list[str]:
    labels, (ks, *numbers, regimes) = _row_columns(reports)
    cells = [labels, map(int.__repr__, ks), *(
        ["-" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v) for v in column]
        for column in numbers), regimes]
    padded = []
    for name, column in zip(("label", *_ROW_FIELDS), cells):
        column = [name, *column]
        padded.append(map(str.ljust, column, repeat(max(map(len, column)))))
    lines = list(map(str.rstrip, map("  ".join, zip(*padded))))
    if include_fit:
        for report in reports:
            if report.fitted is not None:
                lines.append(
                    f"fitted: {report.label}  alpha={report.fitted.model.alpha:.6g}"
                    f"  residual={report.fitted.residual:.6g}"
                )
    return lines


# A report is {"fitted", "label", "rows"} two levels in: split its
# template at the rows, a list of records three levels in.
_REPORT_HEAD, _REPORT_TAIL = _record_template(("fitted", "label", "rows"), 2).rsplit("%s", 1)
_REPORT_HEADS = (_REPORT_HEAD % ("%s", "%s"),
                 _REPORT_HEAD % (_record_template(("alpha", "residual"), 3), "%s"))
# A row's cells in key order: alpha_eff, efficiency, k, regime, serial_fraction, speedup.
_ROW_TEMPLATE = _record_template(sorted(_ROW_FIELDS), 4)
_JSON_REGIMES = {r: json.dumps(r) for r in (metrics.NORMAL, metrics.SLOWDOWN, metrics.SUPERLINEAR)}
_NON_FINITE_TEXTS = frozenset(("inf", "-inf", "nan"))


def _reports_json(reports: Sequence[ScalingReport]) -> str:
    """``_json_text({"reports": [...]})`` of the reports, from one %-template per report.

    The rows are written from the report's texts (see :func:`_row_texts`),
    which hold no ``%``, so each report's row list goes into its template
    as it is.  The fits and labels, in document order, go through one
    ``json.dumps`` call; no encoded scalar holds its newline item separator,
    so the text splits on it into the values of the templates.
    """
    if not reports:
        return '{\n  "reports": []\n}\n'
    values, templates = [], []
    for report in reports:
        fitted = report.fitted
        if fitted is None:
            values += (None, report.label)
        else:
            values += (fitted.model.alpha, fitted.residual, report.label)
        ks, speedups, efficiencies, alphas, serials, regimes = _row_texts(report)
        # A speedup is finite and so is speedup / k, but not alpha_eff: s = 5e-324 gives -inf.
        if not _NON_FINITE_TEXTS.isdisjoint(chain(alphas, serials)):
            raise DataFormatError(_NON_FINITE)
        if alphas and alphas[0] is None:
            alphas, serials = ["null", *alphas[1:]], ["null", *serials[1:]]
        rows = ",\n        ".join(map(_ROW_TEMPLATE.__mod__, zip(
            alphas, efficiencies, ks, map(_JSON_REGIMES.__getitem__, regimes), serials, speedups)))
        templates.append(_REPORT_HEADS[fitted is not None]
                         + ("[\n        " + rows + "\n      ]" if rows else "[]") + _REPORT_TAIL)
    try:
        cells = json.dumps(values, separators=(",\n", ": "), allow_nan=False)[1:-1].split(",\n")
    except ValueError:
        raise DataFormatError(_NON_FINITE) from None
    return ('{\n  "reports": [\n    ' + ",\n    ".join(templates) + "\n  ]\n}\n") % tuple(cells)


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
        # A measurement CSV of speedups: "speedup" becomes "value", then "kind".
        rows = []
        for report in reports:
            ks, speedups, *derived = _row_texts(report)
            rows.append(zip(repeat(report.label), ks, speedups, repeat(ValueKind.SPEEDUP.value),
                            *derived))
        return _csv_text(_REQUIRED_COLUMNS + _ROW_FIELDS[2:], chain.from_iterable(rows))
    if fmt == "json":
        return _reports_json(reports)
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
    # Rows are sorted by k, so a report's last row has its largest k.
    max_k = max((report.rows[-1].k for report in reports if report.rows), default=1)
    if xscale is None:
        xscale = "log" if (axis == "efficiency" or max_k >= 16) else "linear"
    if yscale is None:
        yscale = "linear" if axis == "efficiency" else "log"
    for name, scale in (("xscale", xscale), ("yscale", yscale)):
        if scale not in ("log", "linear"):
            raise ValueError(f"{name} must be log or linear, got {scale!r}")

    # The k=1 row has no serial fraction (None), so that axis skips it.
    xy = operator.itemgetter(0, _ROW_FIELDS.index(axis.replace("-", "_")))
    has_y = operator.itemgetter(1)
    return _plot_text((report.label, xscale, yscale, filter(has_y, zip(*xy(_row_texts(report)))))
                      for report in reports)


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
