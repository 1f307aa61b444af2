"""Fixed-effects fit, funnel confidence bands, classification, diagnostics.

Individuals are modeled as their institution's mean plus i.i.d. noise with a
common standard deviation. The funnel bands around the grand mean have
half-width z * s / sqrt(n), so larger institutions face tighter limits; an
institution outside the bands is a candidate outlier, not a ranked winner.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from enum import Enum
from math import fsum, log, sqrt

# NormalDist.inv_cdf's own C kernel: importing statistics would cost every run
# about 0.5 MB and 5 ms (fractions, decimal) for this one function.
from _statistics import _normal_dist_inv_cdf

from .errors import DegenerateSample, _shown
from .model import AssessmentConfig, GrandMeanMode, SkewnessTarget
from .transform import (
    TransformSpec,
    _finite_nonnegative,
    _mean,
    log_shift_transform,
    sample_skewness,
    solve_zero_skew,
    zero_skewness_delta,
)

Groups = list[tuple[str, list[float]]]


class Classification(Enum):
    WITHIN = "within"
    ABOVE_INNER = "above_inner"
    ABOVE_OUTER = "above_outer"
    BELOW_INNER = "below_inner"
    BELOW_OUTER = "below_outer"


# ``group_means`` are the fitted effects: each group's mean, in the order of
# the groups. ``adjusted_means`` needs them; a fit built by hand for bands
# alone may leave them out.
PooledFit = namedtuple(
    "PooledFit", "grand_mean pooled_sd total_n group_count group_means", defaults=((),)
)
BandPoint = namedtuple("BandPoint", "n level_z lower upper")
InstitutionSummary = namedtuple(
    "InstitutionSummary",
    "institution_id size mean_transformed mean_original classification inner_band outer_band",
)
FunnelReport = namedtuple(
    "FunnelReport", "fit transform summaries qq_points size_slope rankings config"
)


def fit_pooled(
    groups: Groups, grand_mean_mode: GrandMeanMode = GrandMeanMode.INDIVIDUALS
) -> PooledFit:
    """Least-squares fit of the common-variance fixed-effects model.

    The pooled SD is the residual SD after subtracting each group mean:
    sqrt(sum of within-group squared deviations / (N - J)). The group means
    are kept in the fit, so no later stage sums a group again. The mode may
    be given as a member or as its string value.
    """
    grand_mean_mode = GrandMeanMode(grand_mean_mode)
    if not groups:
        raise ValueError("fit_pooled needs at least one group")
    sizes = [len(values) for _, values in groups]
    if 0 in sizes:
        raise ValueError(f"group {_shown(groups[sizes.index(0)][0])} is empty")

    total_n = sum(sizes)
    group_count = len(groups)
    if total_n <= group_count:
        raise DegenerateSample(
            f"pooled fit needs more observations than groups "
            f"(N={total_n}, J={group_count})"
        )

    means = tuple(_mean(values) for _, values in groups)
    if grand_mean_mode is GrandMeanMode.INDIVIDUALS:
        grand_mean = fsum([v for _, values in groups for v in values]) / total_n
    else:
        grand_mean = _mean(means)

    ss_within = fsum([
        (v - mean) * (v - mean)
        for (_, values), mean in zip(groups, means)
        for v in values
    ])
    pooled_sd = sqrt(ss_within / (total_n - group_count))
    return PooledFit(grand_mean, pooled_sd, total_n, group_count, means)


def confidence_bands(fit: PooledFit, n: int, level_z: float) -> BandPoint:
    """Band limits at size n: grand mean -/+ z * s / sqrt(n)."""
    if n < 1:
        raise ValueError(f"band size must be >= 1, got {n}")
    half_width = level_z * fit.pooled_sd / sqrt(n)
    return BandPoint(n, level_z, fit.grand_mean - half_width, fit.grand_mean + half_width)


def classify_institution(mean: float, inner: BandPoint, outer: BandPoint) -> Classification:
    """Label a mean against the inner and outer bands at its own size.

    Exceedance is strict; a mean exactly on a band counts as Within, which
    keeps boundary cases from flipping on rounding noise."""
    if inner.level_z >= outer.level_z:
        raise ValueError("inner_z must be smaller than outer_z")
    if mean > outer.upper:
        return Classification.ABOVE_OUTER
    if mean > inner.upper:
        return Classification.ABOVE_INNER
    if mean < outer.lower:
        return Classification.BELOW_OUTER
    if mean < inner.lower:
        return Classification.BELOW_INNER
    return Classification.WITHIN


def adjusted_means(groups: Groups, fit: PooledFit) -> list[float]:
    """sqrt(n_j) * (group mean - grand mean): rescales institution means to a
    common SD so they can be normality-checked together. ``fit`` is the fit
    of ``groups``, whose group means it reuses."""
    return [
        sqrt(len(values)) * (mean - fit.grand_mean)
        for (_, values), mean in zip(groups, fit.group_means, strict=True)
    ]


def qq_points(adjusted) -> list[tuple[float, float]]:
    """Normal quantile plot coordinates for the adjusted means.

    Pairs each order statistic with mean + SD * inv_Phi((i - 0.375)/(n + 0.25))
    (Blom positions), so a near-normal sample tracks the 45-degree line.
    """
    ordered = sorted(float(v) for v in adjusted)
    n = len(ordered)
    if n < 3:
        raise DegenerateSample(f"quantile plot needs at least 3 values, got {n}")
    mean = _mean(ordered)
    sd = sqrt(fsum([(v - mean) * (v - mean) for v in ordered]) / (n - 1))
    if sd == 0.0:
        raise DegenerateSample("quantile plot is undefined for a constant sample")
    # Blom positions lie strictly inside (0, 1), the range inv_cdf checks for.
    return [
        (mean + sd * _normal_dist_inv_cdf((i + 1 - 0.375) / (n + 0.25), 0.0, 1.0), value)
        for i, value in enumerate(ordered)
    ]


def size_slope(points) -> tuple[float, float]:
    """OLS slope of institution mean on size, with its classical standard error."""
    pts = list(points)
    if len(pts) < 3:
        raise DegenerateSample(f"regression needs at least 3 points, got {len(pts)}")
    x = [float(n) for n, _ in pts]
    y = [float(m) for _, m in pts]
    x_mean, y_mean = _mean(x), _mean(y)
    sxx = fsum([(u - x_mean) * (u - x_mean) for u in x])
    if sxx == 0.0:
        raise DegenerateSample("all sizes are equal; slope is undefined")
    slope = fsum([(u - x_mean) * (v - y_mean) for u, v in zip(x, y)]) / sxx
    intercept = y_mean - slope * x_mean
    residuals = [v - (intercept + slope * u) for u, v in zip(x, y)]
    sse = fsum([r * r for r in residuals])
    se = sqrt(sse / (len(pts) - 2) / sxx)
    return slope, se


def build_funnel_report(
    values_by_institution: dict[str, list[float]], config: AssessmentConfig
) -> FunnelReport:
    """Run transform, fit, bands, classification, and diagnostics end to end
    on each institution's individual values (FSS, or any other indicator).

    The one place institutions are ordered: by id throughout, so identical
    inputs, in any order, produce an identical report. An institution with no
    values, or with a value that is not finite and >= 0, raises ValueError
    before anything is solved. A pooled SD of 0 raises DegenerateSample.
    Diagnostics that need more institutions than the report has (quantile
    plot, size regression) are set to None rather than failing the whole
    report.
    """
    original_groups: Groups = []
    for inst in sorted(values_by_institution):
        values = _finite_nonnegative(values_by_institution[inst], "institution", inst)
        if not values:
            raise ValueError(f"institution {_shown(inst)} has no values")
        original_groups.append((inst, values))

    pooled_values = [v for _, values in original_groups for v in values]
    spec = _solve_transform(pooled_values, original_groups, config)

    logged = log_shift_transform(pooled_values, spec.delta)
    transformed_groups: Groups = []
    start = 0
    for inst, values in original_groups:
        transformed_groups.append((inst, logged[start : start + len(values)]))
        start += len(values)
    fit = fit_pooled(transformed_groups, config.grand_mean_mode)
    if fit.pooled_sd == 0.0:
        raise DegenerateSample(
            "pooled SD is 0: every institution is constant inside, so the bands "
            "would have zero width"
        )

    # The bands depend on the size alone, so institutions of one size share them.
    bands_by_size: dict[int, tuple[BandPoint, BandPoint]] = {}
    summaries = []
    for (inst, original), mean_t in zip(original_groups, fit.group_means):
        n = len(original)
        bands = bands_by_size.get(n)
        if bands is None:
            bands = bands_by_size[n] = (
                confidence_bands(fit, n, config.inner_z),
                confidence_bands(fit, n, config.outer_z),
            )
        inner, outer = bands
        classification = classify_institution(mean_t, inner, outer)
        summaries.append(
            InstitutionSummary(inst, n, mean_t, _mean(original), classification, inner, outer)
        )

    try:
        qq = tuple(qq_points(adjusted_means(transformed_groups, fit)))
    except DegenerateSample:
        qq = None
    try:
        slope = size_slope([(s.size, s.mean_transformed) for s in summaries])
    except DegenerateSample:
        slope = None

    return FunnelReport(
        fit=fit,
        transform=spec,
        summaries=tuple(summaries),
        qq_points=qq,
        size_slope=slope,
        rankings=performance_ranks(summaries),
        config=config,
    )


def _solve_transform(
    pooled_values: list[float], groups: Groups, config: AssessmentConfig
) -> TransformSpec:
    if config.skewness_target is SkewnessTarget.INDIVIDUALS:
        return zero_skewness_delta(
            pooled_values, config.delta_bracket, config.skewness_tolerance
        )

    if len(groups) < 3:
        raise DegenerateSample(
            "tuning the shift on institution means needs at least 3 institutions"
        )

    def objective(delta: float) -> float:
        return sample_skewness(
            [_mean([log(v + delta) for v in values]) for _, values in groups]
        )

    return solve_zero_skew(objective, config.delta_bracket, config.skewness_tolerance)


def performance_ranks(summaries) -> dict[str, int]:
    """Competition ranks by transformed mean, best first: one plus the number
    of strictly greater means, so ties share a rank. Point ranks carry no
    uncertainty; they are reported only with that caveat attached."""
    ascending = sorted(s.mean_transformed for s in summaries)
    return {
        s.institution_id: 1 + len(ascending) - bisect_right(ascending, s.mean_transformed)
        for s in summaries
    }
