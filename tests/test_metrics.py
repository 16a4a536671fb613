"""Unit tests for the scaling-metric functions.

Expected values are frozen from independent hand/rational arithmetic
(fractions reduced by hand where exact), never from the implementation.
"""

import copy
import json
import math
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaeff import dataio, harness, metrics, timeline
from alphaeff.metrics import (
    NORMAL,
    SLOWDOWN,
    SUPERLINEAR,
    AmdahlModel,
    EffectiveParallelization,
    MetricRow,
    alpha_classic,
    alpha_eff,
    amdahl_efficiency,
    amdahl_speedup,
    classify_regime,
    efficiency,
    fit_alpha,
    half_efficiency_k,
    karp_flatt,
    speedup,
)


# ---------------------------------------------------------------- speedup

class TestSpeedup:
    def test_basic_ratio(self):
        assert speedup(10.0, 7.0) == 10.0 / 7.0

    def test_equal_times_give_one(self):
        for t in (0.001, 1.0, 3600.0):
            assert speedup(t, t) == 1.0

    def test_quarter_time_gives_four(self):
        assert speedup(100.0, 25.0) == 4.0

    @pytest.mark.parametrize("t1, tk", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0),
                                        (1.0, -2.0), (math.inf, 1.0),
                                        (1.0, math.nan)])
    def test_nonpositive_or_nonfinite_rejected(self, t1, tk):
        with pytest.raises(ValueError):
            speedup(t1, tk)

    def test_int_past_float_range_reads_as_infinite(self):
        with pytest.raises(ValueError) as info:
            speedup(-10**400, 1.0)
        assert str(info.value) == "t_serial must be finite, got -inf"


# ------------------------------------------------------------- efficiency

class TestEfficiency:
    def test_example(self):
        assert efficiency(6.96, 8) == pytest.approx(0.87, rel=1e-12)

    def test_linear_scaling_gives_one(self):
        for k in (1, 2, 7, 64):
            assert efficiency(float(k), k) == 1.0

    def test_half(self):
        assert efficiency(2.0, 4) == 0.5

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            efficiency(2.0, 0)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            efficiency(2.0, -3)

    def test_nonpositive_speedup_rejected(self):
        with pytest.raises(ValueError):
            efficiency(0.0, 4)


# ------------------------------------------------------------- alpha_eff

class TestAlphaEff:
    def test_worked_example(self):
        # (3/2)*(1 - 7/10) = 9/20 = 0.45
        a = alpha_eff(10.0 / 7.0, 3)
        assert a == pytest.approx(0.45, abs=1e-12)
        assert a.regime == NORMAL

    def test_speedup_two_on_three(self):
        # (3/2)*(1/2) = 0.75
        assert alpha_eff(2.0, 3) == pytest.approx(0.75, abs=1e-12)

    def test_perfect_scaling(self):
        assert alpha_eff(8.0, 8) == pytest.approx(1.0, abs=1e-12)

    def test_no_speedup_gives_zero(self):
        assert alpha_eff(1.0, 8) == 0.0

    def test_linpack_style_example(self):
        # s = 6.96, k = 8: alpha = (8/7)*(5.96/6.96) = 596/609,
        # so 1 - alpha = 13/609 = 0.0213464696...
        a = alpha_eff(6.96, 8)
        assert a == pytest.approx(1.0 - 13.0 / 609.0, rel=1e-12)

    def test_k_one_rejected(self):
        with pytest.raises(ValueError):
            alpha_eff(1.0, 1)

    def test_k_past_float_range_rejected(self):
        with pytest.raises(ValueError) as info:
            alpha_eff(2.0, 10**400)
        assert str(info.value) == "k must be finite, got inf"

    def test_nonpositive_speedup_rejected(self):
        with pytest.raises(ValueError):
            alpha_eff(0.0, 4)
        with pytest.raises(ValueError):
            alpha_eff(-2.0, 4)

    def test_slowdown_flagged_not_clamped(self):
        a = alpha_eff(0.5, 4)
        assert a.regime == SLOWDOWN
        # (4/3)*(1 - 2) = -4/3: the value is preserved, not clamped.
        assert a == pytest.approx(-4.0 / 3.0, rel=1e-12)
        assert a < 0.0

    def test_superlinear_flagged_not_clamped(self):
        a = alpha_eff(5.0, 4)
        assert a.regime == SUPERLINEAR
        # (4/3)*(4/5) = 16/15 > 1: preserved, not clamped.
        assert a == pytest.approx(16.0 / 15.0, rel=1e-12)
        assert a > 1.0

    def test_result_is_float_subclass(self):
        a = alpha_eff(2.0, 4)
        assert isinstance(a, float)
        assert isinstance(a, EffectiveParallelization)
        # It must behave as a plain float in arithmetic.
        assert a + 0.0 == pytest.approx(2.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("s, regime", [(0.5, SLOWDOWN), (2.0, NORMAL), (5.0, SUPERLINEAR)])
    def test_pickle_and_copy_keep_value_and_regime(self, s, regime):
        a = alpha_eff(s, 4)
        assert a.regime == regime
        clones = [pickle.loads(pickle.dumps(a, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for b in clones + [copy.copy(a), copy.deepcopy(a)]:
            assert type(b) is EffectiveParallelization
            assert (float(b), b.regime) == (float(a), regime)

    def test_classify_regime(self):
        assert classify_regime(0.5, 4) == SLOWDOWN
        assert classify_regime(1.0, 4) == NORMAL
        assert classify_regime(4.0, 4) == NORMAL
        assert classify_regime(4.0000001, 4) == SUPERLINEAR


# ------------------------------------------------------------- karp_flatt

class TestKarpFlatt:
    def test_worked_example(self):
        # 1 - 0.45 = 0.55
        assert karp_flatt(10.0 / 7.0, 3) == pytest.approx(0.55, abs=1e-12)

    def test_perfect_scaling_gives_zero(self):
        for k in (2, 3, 7, 8, 64):
            assert karp_flatt(float(k), k) == pytest.approx(0.0, abs=1e-12)

    def test_linpack_style_example(self):
        # s = 3.704, k = 8: 1 - (8/7)*(2.704/3.704) = 1 - 2704/3241
        # = 537/3241 = 0.16569...
        assert karp_flatt(3.704, 8) == pytest.approx(537.0 / 3241.0, rel=1e-9)

    def test_complement_identity_exact(self):
        # By construction the two metrics sum to exactly 1.0 as floats.
        for s, k in [(1.7, 2), (3.3, 4), (6.96, 8), (500.0, 1024)]:
            assert karp_flatt(s, k) + alpha_eff(s, k) == 1.0


# --------------------------------------------------------- Amdahl forward

class TestAmdahlSpeedup:
    def test_worked_example(self):
        # a=0.75, k=3: 1/(0.25 + 0.25) = 2
        assert amdahl_speedup(0.75, 3) == pytest.approx(2.0, rel=1e-12)

    def test_all_serial_gives_one(self):
        for k in (1, 2, 8, 1024):
            assert amdahl_speedup(0.0, k) == 1.0

    def test_fully_parallel_gives_k(self):
        for k in (1, 2, 8, 1024):
            assert amdahl_speedup(1.0, k) == pytest.approx(float(k), rel=1e-12)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            amdahl_speedup(-0.1, 4)
        with pytest.raises(ValueError):
            amdahl_speedup(1.1, 4)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            amdahl_speedup(0.5, 0)


class TestAmdahlEfficiency:
    def test_example_half(self):
        assert amdahl_efficiency(0.9, 11) == pytest.approx(0.5, abs=1e-12)

    def test_example_large_k(self):
        assert amdahl_efficiency(0.999, 1001) == pytest.approx(0.5, abs=1e-12)

    def test_fully_parallel_is_always_one(self):
        for k in (1, 2, 64, 100000):
            assert amdahl_efficiency(1.0, k) == 1.0

    def test_single_processor_is_one(self):
        for a in (0.0, 0.3, 0.99):
            assert amdahl_efficiency(a, 1) == pytest.approx(1.0, abs=1e-12)


class TestAmdahlModel:
    def test_methods_match_functions(self):
        m = AmdahlModel(0.75)
        assert m.speedup(3) == amdahl_speedup(0.75, 3)
        assert m.efficiency(3) == amdahl_efficiency(0.75, 3)

    def test_frozen(self):
        m = AmdahlModel(0.5)
        with pytest.raises(Exception):
            m.alpha = 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            AmdahlModel(1.5)
        with pytest.raises(ValueError):
            AmdahlModel(-0.001)
        with pytest.raises(ValueError):
            AmdahlModel(math.nan)


# ------------------------------------------------------ half_efficiency_k

class TestHalfEfficiencyK:
    def test_example_999(self):
        k = half_efficiency_k(0.999)
        assert k == pytest.approx(1001.0, rel=1e-12)
        assert round(k) == 1001

    def test_example_09(self):
        k = half_efficiency_k(0.9)
        assert k == pytest.approx(11.0, rel=1e-12)
        assert round(k) == 11

    def test_all_serial(self):
        assert half_efficiency_k(0.0) == 2.0

    def test_fully_parallel_is_infinite(self):
        assert half_efficiency_k(1.0) == math.inf

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            half_efficiency_k(-0.1)
        with pytest.raises(ValueError):
            half_efficiency_k(1.0000001)


# ----------------------------------------------------------- alpha_classic

class TestAlphaClassic:
    def test_worked_example(self):
        assert alpha_classic([1.5, 1.0], [2.5, 2.5, 2.5]) == 0.75

    def test_no_parallel_work(self):
        assert alpha_classic([4.2], []) == 0.0

    def test_depends_only_on_totals(self):
        # Same totals, different split: same answer.
        assert alpha_classic([1.5, 1.0], [2.5, 2.0, 3.0]) == 0.75
        assert alpha_classic([2.5], [7.5]) == 0.75

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            alpha_classic([0.0, 0.0], [0.0])
        with pytest.raises(ValueError):
            alpha_classic([], [])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            alpha_classic([-1.0], [2.0])
        with pytest.raises(ValueError):
            alpha_classic([1.0], [-2.0])

    def test_all_parallel(self):
        assert alpha_classic([], [1.0, 2.0]) == 1.0


# -------------------------------------------------------------- fit_alpha

def _series(points):
    """Minimal stand-in exposing the fitting interface."""

    class _Stub:
        def speedup_points(self):
            return list(points)

    return _Stub()


class TestFitAlpha:
    def test_exact_recovery(self):
        ks = (2, 4, 8, 16)
        pts = [(k, amdahl_speedup(0.9, k)) for k in ks]
        result = fit_alpha(_series(pts))
        assert result.model.alpha == pytest.approx(0.9, abs=1e-12)
        assert result.residual == pytest.approx(0.0, abs=1e-24)

    def test_single_point_matches_inverse(self):
        result = fit_alpha(_series([(3, 10.0 / 7.0)]))
        assert result.model.alpha == pytest.approx(0.45, abs=1e-12)

    def test_perfect_scaling_fits_one(self):
        pts = [(k, float(k)) for k in (2, 4, 8)]
        result = fit_alpha(_series(pts))
        assert result.model.alpha == pytest.approx(1.0, abs=1e-12)

    def test_clamped_to_zero_for_slowdowns(self):
        result = fit_alpha(_series([(2, 0.5), (4, 0.4)]))
        assert result.model.alpha == 0.0
        assert result.residual > 0.0

    def test_clamped_to_one_for_superlinear(self):
        result = fit_alpha(_series([(2, 3.0), (4, 6.0)]))
        assert result.model.alpha == 1.0

    def test_baseline_only_points_ignored(self):
        result = fit_alpha(_series([(1, 1.0), (4, amdahl_speedup(0.6, 4))]))
        assert result.model.alpha == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_nonpositive_speedup_rejected(self, s):
        with pytest.raises(ValueError) as info:
            fit_alpha([(2, 1.5), (4, s)])
        assert str(info.value) == f"speedup must be positive, got {s}"

    def test_no_usable_points_rejected(self):
        with pytest.raises(ValueError):
            fit_alpha(_series([(1, 1.0)]))
        with pytest.raises(ValueError):
            fit_alpha(_series([]))

    @pytest.mark.parametrize("points", [
        [(2, 1e-160)],
        [(2, 1.0), (3, 1e-200), (4, 1e-200)],
        [(2, 1e-154), (3, 1e-154)],        # finite squares, sum past the float range
        [(100, 1e-308), (200, 1e-308)],    # the slope's sum too
    ])
    def test_residual_past_float_range_reads_inf(self, points):
        # Flagged, not clamped, as alpha_eff reads -inf at s = 5e-324.
        result = fit_alpha(points)
        assert result.model.alpha == 0.0
        assert result.residual == math.inf

    def test_residual_squares_by_power(self):
        # r * r and r ** 2 can differ in the last place (they do here under
        # glibc), and reports write the residual with repr.
        pts = [(2, 1.2519), (4, 1.7229)]
        result = fit_alpha(pts)
        alpha = result.model.alpha
        assert result.residual == math.fsum(
            (1.0 / s - ((1.0 - alpha) + alpha / k)) ** 2 for k, s in pts)

    def test_accepts_plain_pairs(self):
        result = fit_alpha([(2, amdahl_speedup(0.5, 2)), (8, amdahl_speedup(0.5, 8))])
        assert result.model.alpha == pytest.approx(0.5, abs=1e-12)


# -------------------------------------------------------------- MetricRow

class TestMetricRow:
    def test_regime_compares_the_exact_k(self):
        # float(2**53 + 3) rounds to 2**53 + 4, which would make s equal to k.
        k, s = 2**53 + 3, float(2**53 + 4)
        row = MetricRow(k, s)
        assert alpha_eff(s, k).regime == SUPERLINEAR
        assert row.alpha_eff.regime == row.regime == SUPERLINEAR

    def test_from_speedup_consistency(self):
        row = MetricRow.from_speedup(3, 10.0 / 7.0)
        assert row.efficiency == row.speedup / 3
        assert row.alpha_eff is not None
        assert row.serial_fraction == 1.0 - row.alpha_eff
        assert row.regime == NORMAL

    def test_baseline_row_has_no_alpha(self):
        row = MetricRow.from_speedup(1, 1.0)
        assert row.alpha_eff is None
        assert row.serial_fraction is None

    def test_inconsistent_efficiency_rejected(self):
        # The derived fields cannot be passed in, so they cannot disagree.
        with pytest.raises(TypeError):
            MetricRow(k=4, speedup=2.0, efficiency=0.51)

    def test_inconsistent_serial_fraction_rejected(self):
        with pytest.raises(TypeError):
            MetricRow(k=4, speedup=2.0, alpha_eff=alpha_eff(2.0, 4))
        with pytest.raises(TypeError):
            MetricRow(k=4, speedup=2.0, serial_fraction=0.25)

    def test_alpha_required_for_k_ge_2(self):
        assert MetricRow(4, 2.0).alpha_eff == alpha_eff(2.0, 4)
        assert MetricRow(2, 1.0).alpha_eff is not None
        assert MetricRow(1, 2.0).alpha_eff is None

    @pytest.mark.parametrize("k, s", [(True, 1.0), (2.0, 1.0), ("2", 1.0),
                                      (2, True), (2, "1.5"), (2, None)])
    def test_bools_strings_and_floats_rejected(self, k, s):
        with pytest.raises(ValueError):
            MetricRow(k, s)
        with pytest.raises(ValueError):
            MetricRow.from_speedup(k, s)


# ---------------------------------------------------------- property tests

@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0),
       k=st.integers(min_value=2, max_value=1024))
def test_round_trip_alpha_through_speedup(alpha, k):
    s = amdahl_speedup(alpha, k)
    assert abs(alpha_eff(s, k) - alpha) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(k=st.integers(min_value=2, max_value=1024),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_complement_identity_on_normal_range(k, frac):
    # Any speedup between 1 and k: the two metrics sum to exactly 1.0.
    s = 1.0 + frac * (k - 1.0)
    assert karp_flatt(s, k) + alpha_eff(s, k) == 1.0


@settings(max_examples=300, deadline=None)
@given(k=st.integers(min_value=2, max_value=64),
       s1=st.floats(min_value=0.1, max_value=60.0),
       factor=st.floats(min_value=1.000001, max_value=2.0))
def test_alpha_eff_strictly_increasing_in_speedup(k, s1, factor):
    s2 = s1 * factor
    assert alpha_eff(s2, k) > alpha_eff(s1, k)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=0.9999),
       k=st.integers(min_value=1, max_value=1000))
def test_amdahl_efficiency_strictly_decreasing_in_k(alpha, k):
    assert amdahl_efficiency(alpha, k + 1) < amdahl_efficiency(alpha, k)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(min_value=1, max_value=100000))
def test_amdahl_efficiency_constant_at_full_parallelism(k):
    assert amdahl_efficiency(1.0, k) == 1.0


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_half_efficiency_k_lands_on_half(alpha):
    k_star = half_efficiency_k(alpha)
    assert abs(amdahl_efficiency(alpha, k_star) - 0.5) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(seq=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=6),
       par=st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=6),
       scale=st.floats(min_value=1e-6, max_value=1e6))
def test_alpha_classic_scale_invariant(seq, par, scale):
    total = math.fsum(seq) + math.fsum(par)
    if total <= 0.0:
        return
    # Scaling keeps the ratio to rounding only while every scaled
    # duration stays a normal float; a subnormal or underflowed product
    # (5e-324 * 0.5 == 0.0) loses its relative precision.
    if any(0.0 < d and scale * d < sys.float_info.min for d in seq + par):
        return
    base = alpha_classic(seq, par)
    scaled = alpha_classic([scale * d for d in seq], [scale * d for d in par])
    assert scaled == pytest.approx(base, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=1, max_value=1024),
       s=st.floats(min_value=0.01, max_value=2048.0))
def test_metric_row_from_speedup_always_valid(k, s):
    row = MetricRow.from_speedup(k, s)
    assert row.efficiency == row.speedup / k
    if k >= 2:
        assert row.serial_fraction == 1.0 - row.alpha_eff
    else:
        assert row.alpha_eff is None


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=1, max_value=1024),
       s=st.floats(min_value=1e-300, max_value=1e300))
def test_metric_row_fields_derive_from_k_and_speedup(k, s):
    row = MetricRow(k, s)
    assert row == MetricRow.from_speedup(k, s)
    assert row.efficiency == efficiency(s, k)
    if k >= 2:
        assert row.alpha_eff == alpha_eff(s, k)
        assert row.serial_fraction == 1.0 - alpha_eff(s, k)
    else:
        assert row.alpha_eff is None and row.serial_fraction is None


# --------------------------------------------------- regime classification

@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=2, max_value=1024),
       s=st.floats(min_value=1e-3, max_value=4096.0))
def test_regime_matches_definition(k, s):
    a = alpha_eff(s, k)
    if s < 1.0:
        assert a.regime == SLOWDOWN
    elif s > k:
        assert a.regime == SUPERLINEAR
    else:
        assert a.regime == NORMAL


# ------------------------------------------------------ the one count rule

def test_count_rule_edges():
    accepted = [1, 2, sys.maxsize]
    rejected = [0, -1, sys.maxsize + 1, 10**400, True, False, 1.0, "1", None]
    assert all(metrics._is_count(v) for v in accepted)
    assert not any(metrics._is_count(v) for v in rejected)


def _rejects(make, value) -> bool:
    try:
        make(value)
    except ValueError:
        return True
    return False


def _csv_doc(k) -> str:
    return f"label,k,value,kind\na,{k},1.0,speedup\n"


def _json_doc(k) -> str:
    return json.dumps({"series": [{"label": "a", "kind": "speedup",
                                   "points": [{"k": k, "value": 1.0}]}]})


# Every site that takes a processor count, as a function of that count.
_COUNT_SITES = {
    "MetricRow": lambda k: MetricRow(k, 2.0),
    "MeasurementSeries": lambda k: dataio.MeasurementSeries("a", ((k, 1.0),), dataio.ValueKind.SPEEDUP),
    "json reader": lambda k: dataio.parse_measurements(_json_doc(k), "json"),
    "SyntheticWorkload.k_list": lambda k: harness.SyntheticWorkload(0.5, 1, k_list=(k,)),
    "Fixture published k": lambda k: dataio.Fixture("f", "d", (), {"x": ((k, 0.01),)}, False),
}

# Ints around each edge of the rule and past the float range, plus
# non-ints.  Nothing from 65 to 2**60: simulate would really allocate
# that many loads.
count_candidates = st.one_of(
    st.integers(-3, 64),
    st.integers(sys.maxsize - 64, sys.maxsize + 64),
    st.integers(2**1024, 10**400),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(value=count_candidates, policy=st.sampled_from([timeline.ROUND_ROBIN, timeline.LPT]))
def test_every_count_site_applies_the_one_rule(value, policy):
    is_count = metrics._is_count(value)
    for site, make in _COUNT_SITES.items():
        assert _rejects(make, value) is not is_count, site
    if not isinstance(value, str):  # CSV fields are text: "1" is a count there
        assert _rejects(lambda k: dataio.parse_measurements(_csv_doc(k)), value) is not is_count

    tl = timeline.Timeline([timeline.parallel_chunk(1.0)])
    if not is_count:
        with pytest.raises(ValueError):
            timeline.simulate(tl, value, policy)
    elif value <= 64:
        assert timeline.simulate(tl, value, policy).k == value
    else:  # k loads cannot exist; CPython says so without allocating
        with pytest.raises(MemoryError):
            timeline.simulate(tl, value, policy)

    surface_ok = is_count and value >= 2
    assert _rejects(lambda k: timeline.surface(0.0, 0.0, k, 0.25), value) is not surface_ok
