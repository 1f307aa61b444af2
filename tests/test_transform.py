import inspect
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fssfunnel.synth import draw_fss_sample
from fssfunnel.errors import DegenerateSample
from fssfunnel.model import AssessmentConfig
from fssfunnel.transform import (
    MAX_ITERATIONS,
    log_shift_transform,
    sample_skewness,
    solve_zero_skew,
    zero_skewness_delta,
)


def test_skewness_symmetric_sample_is_zero():
    assert sample_skewness([1, 2, 3]) == pytest.approx(0.0, abs=1e-12)


def test_skewness_hand_moments():
    # [0, 0, 1]: m2 = 2/9, m3 = 2/27, g1 = 1/sqrt(2).
    assert sample_skewness([0, 0, 1]) == pytest.approx(2 / 27 / (2 / 9) ** 1.5, abs=1e-9)
    assert sample_skewness([0, 0, 1]) == pytest.approx(0.7071067811865476, abs=1e-9)


def test_skewness_sign_antisymmetry():
    assert sample_skewness([0, 1, 1]) == pytest.approx(-0.7071067811865476, abs=1e-9)


@pytest.mark.parametrize("values", [[1.0], [1.0, 2.0], [3.0, 3.0, 3.0]])
def test_skewness_degenerate_samples(values):
    with pytest.raises(DegenerateSample):
        sample_skewness(values)


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=4, max_size=40),
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=-50, max_value=50),
    st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=150, derandomize=True)
def test_skewness_scale_equivariance(values, scale, offset, sign):
    arr = np.asarray(values)
    if arr.size < 3 or np.ptp(arr) < 1e-3:
        return
    base = sample_skewness(arr)
    transformed = sample_skewness(sign * scale * arr + offset)
    assert transformed == pytest.approx(sign * base, rel=1e-6, abs=1e-6)


def test_log_shift_examples():
    assert log_shift_transform([0.0], 1.0) == [0.0]
    assert log_shift_transform([math.e - 0.5], 0.5) == pytest.approx([1.0], abs=1e-12)
    # ln(x + 0.01678) for x in {0, 0.1, 0.25}; expectations are direct logs.
    result = log_shift_transform([0.0, 0.1, 0.25], 0.01678)
    expected = [math.log(0.01678), math.log(0.11678), math.log(0.26678)]
    assert result == pytest.approx(expected, abs=1e-12)
    assert result == pytest.approx([-4.0876, -2.1475, -1.3213], abs=1e-4)


def test_log_shift_rejects_non_positive_shift():
    with pytest.raises(ValueError, match="delta > 0"):
        log_shift_transform([1.0], 0.0)
    with pytest.raises(ValueError, match="delta > 0"):
        log_shift_transform([1.0], -0.2)


def test_log_shift_rejects_negative_values():
    with pytest.raises(ValueError):
        log_shift_transform([-0.5], 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_shift_rejects_values_that_are_not_finite(bad):
    # inf would pass through as inf, and NaN, smaller than nothing, as NaN.
    with pytest.raises(ValueError, match=re.escape(f"log shift has value {bad}, not finite")):
        log_shift_transform([1.0, bad, 2.0], 1.0)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=50, unique=True),
       st.floats(min_value=1e-6, max_value=100))
@example(values=[1.034e-21, 0.0], delta=1e-6)
@example(values=[1000000.0, 999999.9999999999], delta=1.0)
@settings(max_examples=150, derandomize=True)
def test_log_shift_preserves_ranking(values, delta):
    # At float resolution the shift and the log can map distinct values to
    # equal ones, so order is strict only where no two results tie.
    order = np.argsort(values)
    transformed = np.asarray(log_shift_transform(values, delta))
    assert np.all(np.diff(transformed[order]) >= 0)
    if np.unique(transformed).size == len(values):
        assert list(order) == list(np.argsort(transformed))


def _symmetric_sample(rng, half_size):
    half = rng.normal(0.0, 1.0, size=half_size)
    return np.concatenate([half, -half])


def _shifted_exponential_sample(rng, delta0, half_size=40):
    # exp of an exactly symmetric sample, anchored so min(x) == 0; by
    # construction ln(x + delta0) is the symmetric sample back again.
    sym = _symmetric_sample(rng, half_size)
    sym = sym - sym.min() + math.log(delta0)
    return np.maximum(np.exp(sym) - delta0, 0.0)


def test_zero_skewness_recovers_known_shift():
    values = _shifted_exponential_sample(np.random.default_rng(3), 0.5)
    spec = zero_skewness_delta(values)
    assert spec.converged
    assert spec.delta == pytest.approx(0.5, rel=1e-6)
    assert abs(spec.achieved_skewness) <= 1e-9
    assert abs(sample_skewness(log_shift_transform(values, spec.delta))) <= 1e-9


def test_zero_skewness_defaults_are_the_config_defaults():
    # Defined once: the solver's defaults are AssessmentConfig's.
    params = inspect.signature(zero_skewness_delta).parameters
    assert params["bracket"].default is AssessmentConfig.delta_bracket
    assert params["tolerance"].default is AssessmentConfig.skewness_tolerance
    config = AssessmentConfig()
    assert (config.delta_bracket, config.skewness_tolerance) == ((1e-9, 10.0), 1e-9)


def test_zero_skewness_no_sign_change_reports_diagnostic():
    # ln(x) is already right-skewed, and larger shifts only keep it positive,
    # so the solver cannot cross zero anywhere in the expanded bracket.
    values = np.exp([0.0, 1.0, 2.0, 10.0])
    spec = zero_skewness_delta(values)
    assert not spec.converged
    assert spec.achieved_skewness > 0
    assert spec.delta in spec.bracket_used


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_zero_skewness_rejects_values_that_are_not_finite(bad):
    # A NaN would otherwise come back as a spec with NaN skewness.
    message = f"zero-skewness solve has value {bad}, not finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        zero_skewness_delta([bad, 1.0, 2.0, 3.0, 5.0])


def test_zero_skewness_rejects_degenerate_samples():
    with pytest.raises(DegenerateSample):
        zero_skewness_delta([0.0, 0.0, 1.0])
    with pytest.raises(DegenerateSample):
        zero_skewness_delta([2.0, 2.0])


@pytest.mark.parametrize(
    "values, distinct",
    [
        ([], 0),
        ([4.0], 1),
        ([1.0, 1.0, 1.0, 1.0], 1),
        ([0.0, -0.0, 0.0], 1),  # signed zeros are one value
        ([0.0, 0.0, 1.0], 2),
        ([3.0, 0.5, 3.0, 0.5, 3.0], 2),
        ([0.0, -0.0, 1.0], 2),
        ([0.0, -0.0, 1.0, 2.0], 3),
        ([2.0, 0.0, 1.0], 3),
        ([5.0, 5.0, 0.25, 7.5, 0.25], 3),
        ([0.0, 1e-300, 2e-300, 1e300], 4),
    ],
)
def test_zero_skewness_needs_three_distinct_values(values, distinct):
    if distinct < 3:
        with pytest.raises(DegenerateSample, match="3 distinct values"):
            zero_skewness_delta(values)
    else:
        assert isinstance(zero_skewness_delta(values).delta, float)


def test_zero_skewness_on_productivity_like_sample():
    # 877 draws matched to mean 0.25, SD 0.34, skewness 3.14, zeros included.
    values = draw_fss_sample(random.Random(42), 877, 0.25, 0.34, 3.14)
    assert min(values) == 0.0
    spec = zero_skewness_delta(values)
    assert spec.converged
    assert 0.0 < spec.delta < 1.0
    assert abs(spec.achieved_skewness) < 1e-9


@pytest.mark.parametrize("delta0", [1e-3, 0.05, 0.8, 3.0])
def test_zero_skewness_round_trip_property(delta0):
    values = _shifted_exponential_sample(np.random.default_rng(17), delta0)
    spec = zero_skewness_delta(values)
    assert spec.converged
    assert spec.delta == pytest.approx(delta0, rel=1e-6)


def test_solve_zero_skew_needs_few_evaluations_on_a_smooth_objective():
    # Skewness that is linear in ln(delta): Brent's secant step lands on the
    # root at once, where bisection of delta would take dozens of halvings.
    calls = []

    def objective(delta):
        calls.append(delta)
        return math.log(delta) - math.log(0.3)

    spec = solve_zero_skew(objective, (1e-9, 10.0), 1e-9)
    assert spec.converged and spec.delta == pytest.approx(0.3, rel=1e-9)
    assert spec.bracket_used == (1e-9, 10.0)
    assert len(calls) <= 4


def test_solve_zero_skew_stops_when_the_bracket_collapses_on_a_jump():
    # A sign change with no root: the bracket shrinks onto the jump, the
    # solver stops there instead of running out its iterations, and the
    # shift with the smallest |skewness| seen, the first on a tie, is
    # reported as not converged.
    calls = []

    def objective(delta):
        calls.append(delta)
        return 1.0 if delta > 2.0 else -1.0

    spec = solve_zero_skew(objective, (1e-9, 10.0), 1e-9)
    assert not spec.converged
    assert (spec.delta, spec.achieved_skewness) == (10.0, 1.0)
    assert calls[-1] == pytest.approx(2.0, rel=1e-12)
    assert len(calls) < MAX_ITERATIONS
