"""Closed-form strong-scaling metrics.

Forward model (Amdahl): a program with parallelizable fraction ``alpha``
run on ``k`` processors achieves

    speedup(alpha, k) = 1 / ((1 - alpha) + alpha / k)

Inverse model: given a *measured* speedup ``s`` on ``k`` processors, the
effective parallelization is the alpha that Amdahl's law would need to
reproduce it,

    alpha_eff(s, k) = (k / (k - 1)) * (s - 1) / s

and ``1 - alpha_eff`` is the experimentally determined serial fraction
(the Karp-Flatt metric).  Anomalous measurements (slowdown, superlinear
speedup) push alpha_eff outside [0, 1]; results are flagged, never
clamped, so the anomaly stays visible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "NORMAL",
    "SLOWDOWN",
    "SUPERLINEAR",
    "AmdahlModel",
    "EffectiveParallelization",
    "FitResult",
    "MetricRow",
    "alpha_classic",
    "alpha_eff",
    "amdahl_efficiency",
    "amdahl_speedup",
    "classify_regime",
    "efficiency",
    "fit_alpha",
    "half_efficiency_k",
    "karp_flatt",
    "speedup",
]

# Scaling regimes, judged against the ideal range 1 <= s <= k.
NORMAL = "normal"
SLOWDOWN = "slowdown"
SUPERLINEAR = "superlinear"


def _is_count(value) -> bool:
    """True for an int from 1 to sys.maxsize (what a list can index) that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= sys.maxsize


def _is_number(value) -> bool:
    """True for a float, or an int that is not a bool and fits a float."""
    if isinstance(value, float):
        return True
    try:
        return isinstance(value, int) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


def _check_finite(name: str, value: float) -> float:
    # The one place that reads an int past the float range as inf or -inf.
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def classify_regime(s: float, k: float) -> str:
    """Name the scaling regime of speedup s on k processors."""
    if s < 1.0:
        return SLOWDOWN
    if s > k:
        return SUPERLINEAR
    return NORMAL


class EffectiveParallelization(float):
    """An alpha_eff value carrying the scaling regime it was derived in.

    Behaves exactly like ``float`` in arithmetic and comparisons.  The
    ``regime`` attribute is ``"normal"`` for 1 <= s <= k, ``"slowdown"``
    for s < 1 (value is negative) and ``"superlinear"`` for s > k (value
    exceeds 1).  Out-of-range values are deliberately not clamped.
    """

    regime: str

    def __new__(cls, value: float, regime: str = NORMAL):
        obj = super().__new__(cls, value)
        obj.regime = regime
        return obj


def speedup(t_serial: float, t_parallel: float) -> float:
    """Ratio of serial to parallel wall time; > 1 means the run got faster."""
    t_serial = _check_finite("t_serial", t_serial)
    t_parallel = _check_finite("t_parallel", t_parallel)
    if t_serial <= 0.0:
        raise ValueError(f"t_serial must be positive, got {t_serial}")
    if t_parallel <= 0.0:
        raise ValueError(f"t_parallel must be positive, got {t_parallel}")
    return t_serial / t_parallel


def efficiency(s: float, k: float) -> float:
    """Speedup per processor, s / k."""
    s = _check_finite("s", s)
    if s <= 0.0:
        raise ValueError(f"speedup must be positive, got {s}")
    return s / _check_k_at_least_one(k)


def alpha_eff(s: float, k: float) -> EffectiveParallelization:
    """Effective parallelization implied by measured speedup s on k processors.

    Inverts Amdahl's law: the returned value is the parallelizable
    fraction that would exactly reproduce the measurement.  Requires
    k >= 2 (a single processor carries no information about parallelism)
    and s > 0.  The result is flagged by regime, not clamped: s < 1
    gives a negative value tagged "slowdown", s > k gives a value above
    1 tagged "superlinear".
    """
    sf = _check_finite("s", s)
    kf = _check_finite("k", k)
    if kf < 2:
        raise ValueError(f"alpha_eff needs k >= 2, got {kf}")
    if sf <= 0.0:
        raise ValueError(f"speedup must be positive, got {sf}")
    value = (kf / (kf - 1.0)) * (sf - 1.0) / sf
    # The regime compares the numbers as given: float() rounds an int past 2**53.
    regime = classify_regime(s if isinstance(s, int) else sf, k if isinstance(k, int) else kf)
    return EffectiveParallelization(value, regime)


def karp_flatt(s: float, k: float) -> float:
    """Experimentally determined serial fraction, 1 - alpha_eff(s, k)."""
    return 1.0 - alpha_eff(s, k)


@dataclass(frozen=True)
class AmdahlModel:
    """Amdahl forward model with parallelizable fraction ``alpha`` in [0, 1]."""

    alpha: float

    def __post_init__(self):
        alpha = _check_finite("alpha", self.alpha)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    def speedup(self, k: float) -> float:
        return amdahl_speedup(self, k)

    def efficiency(self, k: float) -> float:
        return amdahl_efficiency(self, k)


def _as_model(model: "AmdahlModel | float") -> AmdahlModel:
    if isinstance(model, AmdahlModel):
        return model
    return AmdahlModel(model)


def _check_k_at_least_one(k: float) -> float:
    k = _check_finite("k", k)
    if k < 1:
        raise ValueError(f"processor count must be >= 1, got {k}")
    return k


def amdahl_speedup(model: "AmdahlModel | float", k: float) -> float:
    """Predicted speedup on k processors: 1 / ((1 - alpha) + alpha / k).

    ``model`` may be an :class:`AmdahlModel` or a bare alpha.  k may be
    fractional (useful for plotting smooth curves); it must be >= 1.
    """
    alpha = _as_model(model).alpha
    k = _check_k_at_least_one(k)
    return 1.0 / ((1.0 - alpha) + alpha / k)


def amdahl_efficiency(model: "AmdahlModel | float", k: float) -> float:
    """Predicted efficiency on k processors: 1 / (k (1 - alpha) + alpha)."""
    alpha = _as_model(model).alpha
    k = _check_k_at_least_one(k)
    return 1.0 / (k * (1.0 - alpha) + alpha)


def half_efficiency_k(model: "AmdahlModel | float") -> float:
    """Processor count at which predicted efficiency drops to one half.

    Solves amdahl_efficiency(alpha, k) = 1/2 for k, giving
    (2 - alpha) / (1 - alpha).  For alpha = 1 efficiency never drops, so
    the result is ``math.inf``.
    """
    alpha = _as_model(model).alpha
    if alpha == 1.0:
        return math.inf
    return (2.0 - alpha) / (1.0 - alpha)


def alpha_classic(
    sequential_durations: Iterable[float],
    parallel_durations: Iterable[float],
) -> float:
    """Definitional parallelizable fraction of a known workload breakdown.

    Given the durations of the purely sequential parts and of the
    parallelizable parts (as run serially), returns parallel time over
    total time.  This is the alpha a perfectly scheduled, overhead-free
    execution would realize; measured alpha_eff can only fall short of it.
    """
    seq = [_check_finite("sequential duration", d) for d in sequential_durations]
    par = [_check_finite("parallel duration", d) for d in parallel_durations]
    for d in seq + par:
        if d < 0.0:
            raise ValueError(f"durations must be non-negative, got {d}")
    total_seq = math.fsum(seq)
    total_par = math.fsum(par)
    total = total_seq + total_par
    if total <= 0.0:
        raise ValueError("total duration must be positive")
    return total_par / total


@dataclass(frozen=True)
class FitResult:
    """Least-squares Amdahl fit: the model plus its sum of squared residuals.

    Residuals are taken in inverse-speedup space, where the model is
    linear; ``residual`` is 0 (to rounding) when the data follow
    Amdahl's law exactly, and ``inf`` when the squared residuals exceed
    the float range (speedups below about 1e-154).
    """

    model: AmdahlModel
    residual: float


def fit_alpha(points) -> FitResult:
    """Fit a single alpha to measured (k, speedup) points with k >= 2.

    ``points`` is an iterable of (k, speedup) pairs, or any object with
    a ``speedup_points()`` method returning one.  In inverse-speedup
    space Amdahl's law reads 1/s = 1 - alpha * (k - 1)/k, so alpha is
    the slope of a line through the origin fitted to
    x = (k - 1)/k, y = 1 - 1/s by ordinary least squares:

        alpha = sum(x * y) / sum(x * x)

    The estimate is clamped to [0, 1] so it is always a valid model;
    disagreement with the data shows up in the residual instead.  With a
    single usable point the fit reduces to alpha_eff (clamped).  Points
    with k < 2 are ignored; if none remain, raises ValueError.
    """
    if hasattr(points, "speedup_points"):
        points = points.speedup_points()
    usable = []  # (k, s, x) with x = (k - 1)/k
    for k, s in points:
        k = _check_finite("k", k)
        s = _check_finite("speedup", s)
        if s <= 0.0:
            raise ValueError(f"speedup must be positive, got {s}")
        if k >= 2:
            usable.append((k, s, (k - 1.0) / k))
    if not usable:
        raise ValueError("no points with k >= 2 to fit")

    try:
        sxy = math.fsum(x * (1.0 - 1.0 / s) for k, s, x in usable)
    except OverflowError:  # each term is at most 1, so only a negative sum overflows
        sxy = -math.inf
    sxx = math.fsum(x ** 2 for k, s, x in usable)
    alpha = min(1.0, max(0.0, sxy / sxx))
    try:
        residual = math.fsum(
            (1.0 / s - ((1.0 - alpha) + alpha / k)) ** 2 for k, s, x in usable
        )
    except OverflowError:  # a square, or the sum of them, past the float range
        residual = math.inf
    return FitResult(AmdahlModel(alpha), residual)


def _derived(k: int, s: float) -> tuple[float, EffectiveParallelization | None, float | None]:
    """Efficiency, alpha_eff and serial fraction of a checked count k and number s.

    The float operations of efficiency() and alpha_eff(), checked once: a
    speedup that is not finite and positive as a float raises efficiency()'s
    error.  The regime compares s and k as given, as MetricRow.regime does.
    """
    sf = float(s)
    if not 0.0 < sf < math.inf:
        efficiency(sf, k)  # raises the check's own error
    kf = float(k)
    if k < 2:
        return sf / kf, None, None
    value = (kf / (kf - 1.0)) * (sf - 1.0) / sf
    return sf / kf, EffectiveParallelization(value, classify_regime(s, k)), 1.0 - value


@dataclass(frozen=True)
class MetricRow:
    """One processor count's worth of metrics, all derived from ``(k, speedup)``.

    ``efficiency`` is speedup / k; ``alpha_eff`` and ``serial_fraction``
    (exactly 1 - alpha_eff) exist only for k >= 2 and are None at k = 1.
    """

    k: int
    speedup: float
    efficiency: float = field(init=False)
    alpha_eff: float | None = field(init=False)
    serial_fraction: float | None = field(init=False)

    def __post_init__(self):
        k, s = self.k, self.speedup
        if not _is_count(k):
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        if not _is_number(s):
            raise ValueError(f"speedup must be a number, got {s!r}")
        efficiency, alpha, serial = _derived(k, s)
        object.__setattr__(self, "efficiency", efficiency)
        object.__setattr__(self, "alpha_eff", alpha)
        object.__setattr__(self, "serial_fraction", serial)

    @classmethod
    def from_speedup(cls, k: int, s: float) -> "MetricRow":
        return cls(k, s)

    @property
    def regime(self) -> str:
        """"normal", "slowdown" (s < 1) or "superlinear" (s > k)."""
        alpha = self.alpha_eff
        return classify_regime(self.speedup, self.k) if alpha is None else alpha.regime


def _metric_rows(pairs: Iterable[tuple[int, float]]) -> tuple[MetricRow, ...]:
    """``MetricRow(k, s)`` for each pair of a count k and a float s, built in one step.

    The generated frozen ``__init__`` and ``__post_init__`` set each field
    with ``object.__setattr__``; on pairs that pass its checks, one
    ``__dict__`` update in field order builds the same row.  A speedup
    that is not finite and positive raises at its own row, as it would there.
    """
    rows = []
    new = object.__new__
    for k, s in pairs:
        efficiency, alpha, serial = _derived(k, s)
        row = new(MetricRow)
        row.__dict__.update(k=k, speedup=s, efficiency=efficiency, alpha_eff=alpha,
                            serial_fraction=serial)
        rows.append(row)
    return tuple(rows)
