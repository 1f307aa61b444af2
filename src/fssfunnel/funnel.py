"""Fixed-effects fit, funnel confidence bands, classification, diagnostics.

Individuals are modeled as their institution's mean plus i.i.d. noise with a
common standard deviation. The funnel bands around the grand mean have
half-width z * s / sqrt(n), so larger institutions face tighter limits; an
institution outside the bands is a candidate outlier, not a ranked winner.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from math import sqrt
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateRegressor,
    DegenerateSample,
    InsufficientDegreesOfFreedom,
    MissingScore,
)
from .indicator import ResearcherScore
from .model import AssessablePopulation, AssessmentConfig, GrandMeanMode, SkewnessTarget
from .transform import (
    TransformSpec,
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


@dataclass(frozen=True)
class PooledFit:
    grand_mean: float
    pooled_sd: float
    total_n: int
    group_count: int


@dataclass(frozen=True)
class BandPoint:
    n: int
    level_z: float
    lower: float
    upper: float


@dataclass(frozen=True)
class InstitutionSummary:
    institution_id: str
    size: int
    mean_transformed: float
    mean_original: float
    classification: Classification
    inner_band: BandPoint
    outer_band: BandPoint


@dataclass(frozen=True)
class FunnelReport:
    fit: PooledFit
    transform: TransformSpec
    summaries: tuple[InstitutionSummary, ...]
    adjusted_means: tuple[float, ...]
    qq_points: tuple[tuple[float, float], ...] | None
    size_slope: tuple[float, float] | None
    rankings: dict[str, int]
    config: AssessmentConfig


def fit_pooled(
    groups: Groups, grand_mean_mode: GrandMeanMode = GrandMeanMode.INDIVIDUALS
) -> PooledFit:
    """Least-squares fit of the common-variance fixed-effects model.

    The pooled SD is the residual SD after subtracting each group mean:
    sqrt(sum of within-group squared deviations / (N - J)). The mode may be
    given as a member or as its string value.
    """
    grand_mean_mode = GrandMeanMode(grand_mean_mode)
    if not groups:
        raise ValueError("fit_pooled needs at least one group")
    sizes = [len(values) for _, values in groups]
    if 0 in sizes:
        raise ValueError(f"group {groups[sizes.index(0)][0]!r} is empty")

    total_n = sum(sizes)
    group_count = len(groups)
    if total_n <= group_count:
        raise InsufficientDegreesOfFreedom(total_n, group_count)

    blocks = _size_blocks(groups)
    if grand_mean_mode is GrandMeanMode.INDIVIDUALS:
        grand_mean = sum(_per_group(blocks, lambda b: b.sum(axis=1))) / total_n
    else:
        grand_mean = sum(_per_group(blocks, lambda b: b.mean(axis=1))) / group_count

    ss_within = sum(
        _per_group(blocks, lambda b: ((b - b.mean(axis=1, keepdims=True)) ** 2).sum(axis=1))
    )
    pooled_sd = sqrt(ss_within / (total_n - group_count))
    return PooledFit(grand_mean, pooled_sd, total_n, group_count)


def confidence_bands(fit: PooledFit, n: int, level_z: float) -> BandPoint:
    """Band limits at size n: grand mean -/+ z * s / sqrt(n)."""
    if n < 1:
        raise ValueError(f"band size must be >= 1, got {n}")
    half_width = level_z * fit.pooled_sd / sqrt(n)
    return BandPoint(n, level_z, fit.grand_mean - half_width, fit.grand_mean + half_width)


def classify_institution(
    mean_transformed: float,
    fit: PooledFit,
    n: int,
    inner_z: float,
    outer_z: float,
) -> Classification:
    """Label a mean against the inner and outer bands at its own size."""
    if inner_z >= outer_z:
        raise ValueError("inner_z must be smaller than outer_z")
    return _label(
        mean_transformed, confidence_bands(fit, n, inner_z), confidence_bands(fit, n, outer_z)
    )


def _label(mean: float, inner: BandPoint, outer: BandPoint) -> Classification:
    """Exceedance is strict; a mean exactly on a band counts as Within, which
    keeps boundary cases from flipping on rounding noise."""
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
    common SD so they can be normality-checked together."""
    means = _per_group(_size_blocks(groups), lambda b: b.mean(axis=1))
    return [
        sqrt(len(values)) * (mean - fit.grand_mean)
        for (_, values), mean in zip(groups, means)
    ]


def qq_points(adjusted) -> list[tuple[float, float]]:
    """Normal quantile plot coordinates for the adjusted means.

    Pairs each order statistic with mean + SD * inv_Phi((i - 0.375)/(n + 0.25))
    (Blom positions), so a near-normal sample tracks the 45-degree line.
    """
    arr = np.sort(np.asarray(adjusted, dtype=float))
    n = arr.size
    if n < 3:
        raise DegenerateSample(f"quantile plot needs at least 3 values, got {n}")
    sd = float(np.std(arr, ddof=1))
    if sd == 0.0:
        raise DegenerateSample("quantile plot is undefined for a constant sample")
    mean = float(arr.mean())
    inv = NormalDist().inv_cdf
    return [
        (mean + sd * inv((i + 1 - 0.375) / (n + 0.25)), float(arr[i]))
        for i in range(n)
    ]


def qq_max_deviation(points) -> float:
    """Largest |sample - theoretical| gap in the quantile plot; a rough
    normality summary with no pass/fail threshold attached."""
    return max(abs(sample - theoretical) for theoretical, sample in points)


def size_slope(points) -> tuple[float, float]:
    """OLS slope of institution mean on size, with its classical standard error."""
    pts = list(points)
    if len(pts) < 3:
        raise DegenerateRegressor(f"regression needs at least 3 points, got {len(pts)}")
    x = np.asarray([float(n) for n, _ in pts])
    y = np.asarray([float(m) for _, m in pts])
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0.0:
        raise DegenerateRegressor("all sizes are equal; slope is undefined")
    slope = float(((x - x.mean()) * (y - y.mean())).sum()) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    residuals = y - (intercept + slope * x)
    sse = float((residuals**2).sum())
    se = sqrt(sse / (len(pts) - 2) / sxx)
    return slope, se


def build_funnel_report(
    population: AssessablePopulation,
    scores: list[ResearcherScore],
    config: AssessmentConfig,
) -> FunnelReport:
    """Run transform, fit, bands, classification, and diagnostics end to end.

    Institutions are ordered by id throughout, so identical inputs produce an
    identical report. A pooled SD of 0 raises DegenerateSample. Diagnostics
    that need more institutions than the report has (quantile plot, size
    regression) are set to None rather than failing the whole report.
    """
    score_by_id: dict[str, ResearcherScore] = {}
    for score in scores:
        if score.researcher_id in score_by_id:
            raise ValueError(f"duplicate score for researcher {score.researcher_id!r}")
        score_by_id[score.researcher_id] = score

    original_groups: Groups = []
    for inst, members in population.institutions.items():
        values = []
        for rec in members:
            score = score_by_id.get(rec.researcher_id)
            if score is None:
                raise MissingScore(rec.researcher_id)
            values.append(score.fss)
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
    for (inst, values), (_, original) in zip(transformed_groups, original_groups):
        n = len(values)
        bands = bands_by_size.get(n)
        if bands is None:
            bands = bands_by_size[n] = (
                confidence_bands(fit, n, config.inner_z),
                confidence_bands(fit, n, config.outer_z),
            )
        inner, outer = bands
        mean_t = sum(values) / n
        summaries.append(
            InstitutionSummary(
                institution_id=inst,
                size=n,
                mean_transformed=mean_t,
                mean_original=sum(original) / n,
                classification=_label(mean_t, inner, outer),
                inner_band=inner,
                outer_band=outer,
            )
        )

    adjusted = adjusted_means(transformed_groups, fit)
    try:
        qq = tuple(qq_points(adjusted))
    except DegenerateSample:
        qq = None
    try:
        slope = size_slope([(s.size, s.mean_transformed) for s in summaries])
    except DegenerateRegressor:
        slope = None

    return FunnelReport(
        fit=fit,
        transform=spec,
        summaries=tuple(summaries),
        adjusted_means=tuple(adjusted),
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
    blocks = _size_blocks(groups)

    def objective(delta: float) -> float:
        return sample_skewness(_per_group(blocks, lambda b: np.log(b + delta).mean(axis=1)))

    return solve_zero_skew(objective, config.delta_bracket, config.skewness_tolerance)


def _size_blocks(groups: Groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """The groups' values stacked by size, so that a per-group reduction is
    one numpy call per distinct size rather than one per group.

    For each distinct size, in order of first appearance: the positions of its
    groups in ``groups`` and a C-contiguous 2-D block whose rows are their
    values. A reduction along ``axis=1`` of such a block gives, row by row, the
    same bits as the same reduction of each group's own 1-D array.
    """
    positions_by_size: dict[int, list[int]] = {}
    for position, (_, values) in enumerate(groups):
        positions_by_size.setdefault(len(values), []).append(position)
    return [
        (np.array(positions), np.array([groups[p][1] for p in positions], dtype=float))
        for positions in positions_by_size.values()
    ]


def _per_group(blocks, reduce) -> list[float]:
    """``reduce`` (block -> one value per row) applied to every size block,
    scattered back into group order."""
    out = np.empty(sum(len(positions) for positions, _ in blocks))
    for positions, block in blocks:
        out[positions] = reduce(block)
    return out.tolist()


def performance_ranks(summaries) -> dict[str, int]:
    """Competition ranks by transformed mean, best first: one plus the number
    of strictly greater means, so ties share a rank. Point ranks carry no
    uncertainty; they are reported only with that caveat attached."""
    ascending = sorted(s.mean_transformed for s in summaries)
    return {
        s.institution_id: 1 + len(ascending) - bisect_right(ascending, s.mean_transformed)
        for s in summaries
    }
