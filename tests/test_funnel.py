import math
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from fssfunnel import funnel, transform
from fssfunnel.errors import DegenerateSample
from fssfunnel.funnel import (
    Classification,
    PooledFit,
    adjusted_means,
    build_funnel_report,
    classify_institution,
    confidence_bands,
    fit_pooled,
    performance_ranks,
    qq_points,
    size_slope,
)
from fssfunnel.model import AssessmentConfig, GrandMeanMode, SkewnessTarget
from fssfunnel.transform import sample_skewness, solve_zero_skew, zero_skewness_delta


def brute_force_pooled(groups):
    all_values = [v for _, values in groups for v in values]
    grand = sum(all_values) / len(all_values)
    ss = 0.0
    for _, values in groups:
        mean = sum(values) / len(values)
        ss += sum((v - mean) ** 2 for v in values)
    sd = math.sqrt(ss / (len(all_values) - len(groups)))
    return grand, sd


def test_fit_pooled_hand_anova():
    fit = fit_pooled([("A", [0.0, 2.0]), ("B", [1.0, 3.0])])
    assert fit.grand_mean == 1.5
    assert fit.pooled_sd == pytest.approx(math.sqrt(2), abs=1e-12)
    assert fit.total_n == 4 and fit.group_count == 2


def test_fit_pooled_no_within_variation():
    fit = fit_pooled([("A", [5.0, 5.0]), ("B", [5.0, 5.0, 5.0])])
    assert fit.grand_mean == 5.0
    assert fit.pooled_sd == 0.0


def test_fit_pooled_matches_brute_force_on_random_groups():
    rng = np.random.default_rng(5)
    groups = [
        (f"g{j}", list(rng.normal(rng.uniform(-2, 2), 1.4, size=rng.integers(2, 30))))
        for j in range(10)
    ]
    fit = fit_pooled(groups)
    grand, sd = brute_force_pooled(groups)
    assert fit.grand_mean == pytest.approx(grand, abs=1e-12)
    assert fit.pooled_sd == pytest.approx(sd, abs=1e-12)


def test_fit_pooled_insufficient_degrees_of_freedom():
    with pytest.raises(DegenerateSample, match=r"\(N=2, J=2\)"):
        fit_pooled([("A", [1.0]), ("B", [2.0])])


def test_fit_pooled_group_means_mode():
    fit = fit_pooled([("A", [0.0, 2.0]), ("B", [4.0])], grand_mean_mode="group_means")
    assert fit.grand_mean == pytest.approx(2.5, abs=1e-12)  # (1 + 4) / 2


def test_confidence_bands_direct_substitution():
    band = confidence_bands(PooledFit(0.0, 1.0, 100, 4), 4, 2.0)
    assert (band.lower, band.upper) == (-1.0, 1.0)


def test_confidence_bands_collapse_at_zero_sd():
    band = confidence_bands(PooledFit(3.2, 0.0, 10, 2), 7, 3.0)
    assert band.lower == band.upper == 3.2


@given(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=1e-6, max_value=5),
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.5, max_value=4),
)
@settings(max_examples=200, derandomize=True)
def test_band_symmetry_and_inverse_sqrt_law(grand, sd, n, z):
    fit = PooledFit(grand, sd, 10 * n, 2)
    band = confidence_bands(fit, n, z)
    assert band.upper + band.lower == pytest.approx(2 * grand, abs=1e-9)
    wide = confidence_bands(fit, 4 * n, z)
    half = (band.upper - band.lower) / 2
    half_wide = (wide.upper - wide.lower) / 2
    assert half_wide == pytest.approx(half / 2, rel=1e-12)


@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=1e-3, max_value=5),
    st.integers(min_value=1, max_value=500),
)
@settings(max_examples=100, derandomize=True)
def test_band_nesting(grand, sd, n):
    fit = PooledFit(grand, sd, 10 * n, 2)
    inner = confidence_bands(fit, n, 2.0)
    outer = confidence_bands(fit, n, 3.0)
    assert outer.lower < inner.lower < inner.upper < outer.upper


FIT = PooledFit(grand_mean=1.0, pooled_sd=0.8, total_n=200, group_count=20)


def _bands(fit, n):
    """The inner (z = 2) and outer (z = 3) bands at size n."""
    return confidence_bands(fit, n, 2.0), confidence_bands(fit, n, 3.0)


@pytest.mark.parametrize(
    "offset_in_sd_units, expected",
    [
        (0.0, Classification.WITHIN),
        (2.5, Classification.ABOVE_INNER),
        (-2.5, Classification.BELOW_INNER),
        (3.5, Classification.ABOVE_OUTER),
        (-3.5, Classification.BELOW_OUTER),
        (1.9, Classification.WITHIN),
    ],
)
def test_classification_thresholds(offset_in_sd_units, expected):
    n = 16
    mean = FIT.grand_mean + offset_in_sd_units * FIT.pooled_sd / math.sqrt(n)
    assert classify_institution(mean, *_bands(FIT, n)) is expected


def test_classification_boundary_counts_as_within():
    n = 9
    upper = FIT.grand_mean + 2.0 * FIT.pooled_sd / math.sqrt(n)
    assert classify_institution(upper, *_bands(FIT, n)) is Classification.WITHIN


def test_classification_needs_the_inner_band_inside_the_outer():
    inner, outer = _bands(FIT, 9)
    with pytest.raises(ValueError, match="inner_z must be smaller"):
        classify_institution(FIT.grand_mean, outer, inner)
    with pytest.raises(ValueError, match="inner_z must be smaller"):
        classify_institution(FIT.grand_mean, inner, inner)


def test_classification_matches_raw_band_arithmetic():
    rng = np.random.default_rng(9)
    for _ in range(300):
        fit = PooledFit(rng.normal(), rng.uniform(0.01, 2), 500, 40)
        n = int(rng.integers(1, 80))
        mean = rng.normal(fit.grand_mean, 3 * fit.pooled_sd)
        label = classify_institution(mean, *_bands(fit, n))
        half2 = 2.0 * fit.pooled_sd / math.sqrt(n)
        half3 = 3.0 * fit.pooled_sd / math.sqrt(n)
        if mean > fit.grand_mean + half3:
            expected = Classification.ABOVE_OUTER
        elif mean > fit.grand_mean + half2:
            expected = Classification.ABOVE_INNER
        elif mean < fit.grand_mean - half3:
            expected = Classification.BELOW_OUTER
        elif mean < fit.grand_mean - half2:
            expected = Classification.BELOW_INNER
        else:
            expected = Classification.WITHIN
        assert label is expected


def test_adjusted_means_examples():
    groups = [("A", [1.0, 1.0, 1.0, 1.0]), ("B", [1.5, 1.5, 1.5, 1.5])]
    fit = PooledFit(
        grand_mean=1.0, pooled_sd=0.5, total_n=8, group_count=2, group_means=(1.0, 1.5)
    )
    adjusted = adjusted_means(groups, fit)
    assert adjusted[0] == pytest.approx(0.0, abs=1e-12)
    assert adjusted[1] == pytest.approx(1.0, abs=1e-12)  # sqrt(4) * 0.5


def test_adjusted_means_equalize_variance():
    # Institution means have SD sigma/sqrt(n); the sqrt(n) rescaling restores a
    # common SD, so their sample variance should sit near the pooled variance.
    rng = np.random.default_rng(21)
    sigma = 1.3
    groups = [
        (f"g{j}", list(rng.normal(0.0, sigma, size=rng.integers(5, 31))))
        for j in range(1000)
    ]
    fit = fit_pooled(groups)
    adjusted = np.asarray(adjusted_means(groups, fit))
    assert np.var(adjusted, ddof=1) == pytest.approx(fit.pooled_sd**2, rel=0.15)


def test_qq_points_match_blom_oracle():
    rng = np.random.default_rng(33)
    values = rng.normal(2.0, 3.0, size=25)
    points = qq_points(values)
    ordered = np.sort(values)
    mean, sd = ordered.mean(), ordered.std(ddof=1)
    n = len(ordered)
    for i, (theoretical, sample) in enumerate(points):
        expected = mean + sd * norm.ppf((i + 1 - 0.375) / (n + 0.25))
        assert theoretical == pytest.approx(expected, abs=1e-9)
        assert sample == ordered[i]


@pytest.mark.parametrize("n", [3, 4, 17, 500, 2336])
def test_qq_points_keep_the_bits_of_normal_dist_inv_cdf(n):
    # qq_points calls the C function behind NormalDist.inv_cdf, so that no run
    # imports statistics; every theoretical quantile must keep its bits.
    values = [math.sin(i) * (i % 7 + 1) for i in range(n)]
    ordered = sorted(values)
    mean = math.fsum(ordered) / n
    sd = math.sqrt(math.fsum([(v - mean) * (v - mean) for v in ordered]) / (n - 1))
    inv = NormalDist().inv_cdf
    expected = [(mean + sd * inv((i + 1 - 0.375) / (n + 0.25))).hex() for i in range(n)]
    assert [theoretical.hex() for theoretical, _ in qq_points(values)] == expected


def test_qq_points_sample_axis_is_sorted_input():
    values = [0.4, -1.2, 3.3, 0.0, 2.2]
    points = qq_points(values)
    assert [s for _, s in points] == sorted(values)


def test_qq_points_degenerate():
    with pytest.raises(DegenerateSample):
        qq_points([1.0, 1.0, 1.0])
    with pytest.raises(DegenerateSample):
        qq_points([1.0, 2.0])


def test_size_slope_flat_line():
    assert size_slope([(5, 1.0), (10, 1.0), (20, 1.0)]) == (0.0, 0.0)


def test_size_slope_perfect_fit():
    slope, se = size_slope([(n, 0.1 * n) for n in (5, 11, 17, 29)])
    assert slope == pytest.approx(0.1, rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_size_slope_matches_normal_equations():
    rng = np.random.default_rng(2)
    points = [(int(n), float(m)) for n, m in zip(rng.integers(5, 60, 25), rng.normal(0, 1, 25))]
    slope, se = size_slope(points)
    xs = [float(n) for n, _ in points]
    ys = [m for _, m in points]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    expected_slope = sxy / sxx
    intercept = y_mean - expected_slope * x_mean
    sse = sum((y - intercept - expected_slope * x) ** 2 for x, y in zip(xs, ys))
    expected_se = math.sqrt(sse / (len(xs) - 2) / sxx)
    assert slope == pytest.approx(expected_slope, abs=1e-12)
    assert se == pytest.approx(expected_se, abs=1e-12)


def test_size_slope_degenerate():
    with pytest.raises(DegenerateSample, match="all sizes are equal"):
        size_slope([(5, 1.0), (5, 2.0), (5, 3.0)])
    with pytest.raises(DegenerateSample, match="at least 3 points, got 2"):
        size_slope([(5, 1.0), (6, 2.0)])


# ---------------------------------------------------------------------------
# report orchestration
# ---------------------------------------------------------------------------


CONFIG = AssessmentConfig(min_faculty=1)


def test_report_single_institution_is_trivially_within():
    report = build_funnel_report({"A": [0.1, 0.4, 0.9, 0.2]}, CONFIG)
    (summary,) = report.summaries
    assert summary.classification is Classification.WITHIN
    assert summary.mean_transformed == pytest.approx(report.fit.grand_mean, abs=1e-12)
    assert report.qq_points is None
    assert report.size_slope is None
    assert report.rankings == {"A": 1}


def test_report_single_member_fails():
    with pytest.raises(DegenerateSample):
        build_funnel_report({"A": [0.3]}, CONFIG)


def test_report_zero_pooled_sd_fails():
    # Constant inside every institution, different between them: the bands
    # would have zero width and every institution would be labelled *_outer.
    with pytest.raises(DegenerateSample, match="pooled SD is 0"):
        build_funnel_report({"a": [0.1] * 3, "b": [0.5] * 2, "c": [1.0] * 4}, CONFIG)


@pytest.mark.parametrize("skewness_target", list(SkewnessTarget))
@pytest.mark.parametrize(
    "bad, reason",
    [([0.2, math.nan], "nan"), ([math.inf, 0.2], "inf"), ([0.2, -0.5], "-0.5"), ([], "no values")],
    ids=["nan", "inf", "negative", "empty"],
)
def test_report_rejects_values_that_are_not_finite_and_non_negative(
    skewness_target, bad, reason
):
    # Checked before any solve: a NaN or inf would give a nan fit with every
    # institution labelled within, and a negative value would reach the log.
    data = {"A": [0.1, 0.4, 0.9], "B": [0.2, 0.3, 0.05], "C": bad, "D": [0.5, 0.7, 0.0]}
    config = AssessmentConfig(min_faculty=1, skewness_target=skewness_target)
    with pytest.raises(ValueError, match=f"institution 'C'.*{reason}"):
        build_funnel_report(data, config)


def test_report_orders_institutions_and_is_deterministic():
    rng = np.random.default_rng(8)
    data = {
        inst: list(rng.lognormal(-1.5, 0.8, size=rng.integers(5, 15)))
        for inst in ("zeta", "alpha", "mid")
    }
    report = build_funnel_report(data, CONFIG)
    ids = [s.institution_id for s in report.summaries]
    assert ids == sorted(ids)
    again = build_funnel_report(data, CONFIG)
    assert again == report


def _leaves(value):
    """Every leaf of a report, in order, with each float as its ``float.hex``."""
    if isinstance(value, float):
        return [value.hex()]
    if isinstance(value, dict):
        return [leaf for item in value.items() for leaf in _leaves(item)]
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


@pytest.mark.parametrize("grand_mean_mode", list(GrandMeanMode))
@pytest.mark.parametrize("skewness_target", list(SkewnessTarget))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_does_not_depend_on_the_order_of_institutions_or_values(
    skewness_target, grand_mean_mode, seed
):
    # apply_exclusions hands over institutions and members in row order, and
    # the report is the one place that orders them: any order of either gives
    # the same report, down to every float's bits.
    rng = np.random.default_rng(seed)
    data = {}
    for j in range(12):
        values = rng.lognormal(-1.5, 0.9, size=rng.integers(2, 30))
        values = np.where(rng.random(len(values)) < 0.2, 0.0, values)
        data[f"u{j:02d}"] = [float(v) for v in values]
    config = AssessmentConfig(
        min_faculty=1, skewness_target=skewness_target, grand_mean_mode=grand_mean_mode
    )
    expected = _leaves(build_funnel_report(data, config))
    for _ in range(3):
        institutions = list(data)
        rng.shuffle(institutions)
        permuted = {
            inst: [data[inst][i] for i in rng.permutation(len(data[inst]))]
            for inst in institutions
        }
        assert _leaves(build_funnel_report(permuted, config)) == expected


def test_report_formats_no_owner_text_for_valid_values(monkeypatch):
    # An institution's name is put into a message only when its check fails.
    shown = []
    monkeypatch.setattr(transform, "_shown", lambda value: shown.append(value) or repr(value))
    build_funnel_report({"a": [0.1, 0.4, 0.9], "b": [0.2, 0.3], "c": [0.5, 0.7]}, CONFIG)
    assert shown == []
    with pytest.raises(ValueError, match="institution 'b' has value nan"):
        build_funnel_report({"a": [0.1, 0.4, 0.9], "b": [0.2, math.nan]}, CONFIG)
    assert shown == ["b"]


def test_report_exposes_both_scales_and_consistent_summaries(monkeypatch):
    rng = np.random.default_rng(13)
    data = {
        f"u{j:02d}": list(rng.lognormal(-1.5, 0.8, size=rng.integers(5, 40)))
        for j in range(12)
    }
    built = []
    bands = funnel.confidence_bands

    def counted(fit, n, level_z):
        built.append((n, level_z))
        return bands(fit, n, level_z)

    monkeypatch.setattr(funnel, "confidence_bands", counted)
    report = build_funnel_report(data, CONFIG)
    # Institutions of one size share its inner and outer band.
    sizes = {summary.size for summary in report.summaries}
    assert len(sizes) < len(report.summaries)
    assert sorted(built) == sorted((n, z) for n in sizes for z in (2.0, 3.0))
    assert report.transform.delta > 0
    for summary in report.summaries:
        values = data[summary.institution_id]
        assert summary.size == len(values)
        assert summary.mean_original == pytest.approx(
            sum(values) / len(values), rel=1e-12
        )
        expected_mean_t = float(
            np.log(np.asarray(values) + report.transform.delta).mean()
        )
        assert summary.mean_transformed == pytest.approx(expected_mean_t, rel=1e-12)
        assert summary.classification is classify_institution(
            summary.mean_transformed, *_bands(report.fit, summary.size)
        )
        assert summary.inner_band.upper <= summary.outer_band.upper
    assert report.qq_points is not None and len(report.qq_points) == 12
    best = min(report.summaries, key=lambda s: -s.mean_transformed)
    assert report.rankings[best.institution_id] == 1


@pytest.mark.parametrize("grand_mean_mode", list(GrandMeanMode))
@pytest.mark.parametrize("skewness_target", list(SkewnessTarget))
def test_report_sums_each_institution_once(monkeypatch, grand_mean_mode, skewness_target):
    rng = np.random.default_rng(14)
    data = {
        f"u{j:02d}": list(rng.lognormal(-1.5, 0.8, size=rng.integers(5, 40)))
        for j in range(12)
    }
    summed = []
    mean = funnel._mean

    def recorded(values):
        summed.append(values)  # kept alive, so no two ids coincide
        return mean(values)

    monkeypatch.setattr(funnel, "_mean", recorded)
    config = AssessmentConfig(grand_mean_mode=grand_mean_mode, skewness_target=skewness_target)
    report = build_funnel_report(data, config)
    assert len({id(values) for values in summed}) == len(summed)
    assert [s.mean_transformed for s in report.summaries] == list(report.fit.group_means)


def test_report_means_level_skewness_target():
    rng = np.random.default_rng(30)
    data = {
        f"u{j:02d}": list(rng.lognormal(-1.5, 0.8, size=20)) for j in range(10)
    }
    config = AssessmentConfig(min_faculty=1, skewness_target="institution_means")
    report = build_funnel_report(data, config)
    assert report.transform.converged
    group_means = [
        float(np.log(np.asarray(values) + report.transform.delta).mean())
        for _, values in sorted(data.items())
    ]
    from fssfunnel.transform import sample_skewness

    assert abs(sample_skewness(group_means)) <= config.skewness_tolerance


def _funnel_one_institution_at_a_time(groups, config):
    """The report's transform, fit, adjusted means and transformed means,
    computed one institution at a time: ``math.log`` of each value and one
    ``math.fsum`` per institution."""

    def mean(values):
        return math.fsum(values) / len(values)

    if config.skewness_target is SkewnessTarget.INDIVIDUALS:
        spec = zero_skewness_delta(
            [v for values in groups for v in values],
            config.delta_bracket,
            config.skewness_tolerance,
        )
    else:
        spec = solve_zero_skew(
            lambda delta: sample_skewness(
                [mean([math.log(v + delta) for v in values]) for values in groups]
            ),
            config.delta_bracket,
            config.skewness_tolerance,
        )
    logged = [[math.log(v + spec.delta) for v in values] for values in groups]
    means = [mean(values) for values in logged]
    total_n, count = sum(len(values) for values in logged), len(logged)
    if config.grand_mean_mode is GrandMeanMode.INDIVIDUALS:
        # fsum is exact before its one rounding, so this is the total of the
        # per-institution sums whatever their order.
        grand_mean = math.fsum(v for values in logged for v in values) / total_n
    else:
        grand_mean = mean(means)
    ss_within = math.fsum(
        (v - m) * (v - m) for values, m in zip(logged, means) for v in values
    )
    fit = PooledFit(
        grand_mean, math.sqrt(ss_within / (total_n - count)), total_n, count, tuple(means)
    )
    adjusted = tuple(
        math.sqrt(len(values)) * (m - grand_mean) for values, m in zip(logged, means)
    )
    return spec, fit, adjusted, means


@pytest.mark.parametrize("grand_mean_mode", list(GrandMeanMode))
@pytest.mark.parametrize("skewness_target", list(SkewnessTarget))
@given(
    # Size 1, small and large institutions, mixed so that size order differs
    # from institution order.
    rest=st.lists(
        st.one_of(st.just(1), st.integers(2, 7), st.integers(8, 140)),
        min_size=2,
        max_size=14,
    ),
    first=st.integers(3, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(rest=[1, 8, 1, 12, 2, 9, 3, 1], first=5, seed=0)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_report_equals_one_institution_at_a_time(
    skewness_target, grand_mean_mode, rest, first, seed
):
    # Bit for bit, not approximately: the report must not depend on how the
    # funnel layer orders or groups its logs and sums.
    rng = np.random.default_rng(seed)
    groups = [list(rng.lognormal(-1.5, 0.9, size=first))]  # within SD > 0
    for size in rest:
        values = rng.lognormal(-1.5, 0.9, size=size)
        groups.append(list(np.where(rng.random(size) < 0.2, 0.0, values)))
    config = AssessmentConfig(
        min_faculty=1, skewness_target=skewness_target, grand_mean_mode=grand_mean_mode
    )
    report = build_funnel_report({f"u{j:02d}": values for j, values in enumerate(groups)}, config)
    spec, fit, adjusted, means = _funnel_one_institution_at_a_time(groups, config)
    assert report.transform == spec
    assert report.fit == fit
    assert report.qq_points == tuple(qq_points(adjusted))
    assert [s.mean_transformed for s in report.summaries] == means


def test_coverage_calibration_quick():
    # Homogeneous truth: about 4.55% of institutions should fall outside the
    # inner bands; a 5000-institution run stays well inside [3.3%, 5.8%].
    rng = np.random.default_rng(77)
    sizes = rng.integers(5, 61, size=5000)
    groups = [(f"g{j}", rng.normal(0.0, 1.0, size=n)) for j, n in enumerate(sizes)]
    fit = fit_pooled([(g, list(v)) for g, v in groups])
    outside = sum(
        classify_institution(float(np.mean(v)), *_bands(fit, len(v)))
        is not Classification.WITHIN
        for _, v in groups
    )
    assert 0.033 <= outside / 5000 <= 0.058


# Mostly a few distinct values (signed zeros, neighbouring floats), so most
# draws hold ties.
tied_means = st.lists(
    st.one_of(
        st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.25000000000000006, 3.0]),
        st.floats(-10.0, 10.0),
    ),
    min_size=1,
    max_size=40,
)


@given(tied_means)
@settings(max_examples=200, derandomize=True)
def test_performance_ranks_match_the_counting_definition(means):
    summaries = [
        SimpleNamespace(institution_id=f"g{j}", mean_transformed=m)
        for j, m in enumerate(means)
    ]
    # Competition rank: one plus the number of strictly greater means.
    expected = {
        s.institution_id: 1 + sum(1 for m in means if m > s.mean_transformed)
        for s in summaries
    }
    assert performance_ranks(summaries) == expected
