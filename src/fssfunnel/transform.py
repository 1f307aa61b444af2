"""Zero-skewness log-shift transform.

The productivity index is heavily right-skewed, so institutional means are
compared on the scale y = ln(x + delta), with delta solved so the transformed
sample has zero moment skewness. The skewness-versus-delta map is smooth and
monotone in practice, so a bracketed bisection is robust and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSample

BRACKET_CAP = 1e6
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class TransformSpec:
    """Solved shift and the residual skewness it achieves.

    ``converged`` is False when the skewness never changed sign over the
    maximal bracket; ``delta`` is then the endpoint with the smaller absolute
    skewness and downstream consumers should treat the bands with care.
    """

    delta: float
    achieved_skewness: float
    bracket_used: tuple[float, float]
    converged: bool


def sample_skewness(values) -> float:
    """Moment coefficient g1 = m3 / m2^(3/2), central moments with divisor n."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 3:
        raise DegenerateSample(f"skewness needs at least 3 values, got {arr.size}")
    dev = arr - arr.mean()
    m2 = float(np.mean(dev * dev))
    if m2 == 0.0:
        raise DegenerateSample("skewness is undefined for a zero-variance sample")
    m3 = float(np.mean(dev * dev * dev))
    return m3 / m2**1.5


def log_shift_transform(values, delta: float) -> list[float]:
    """Elementwise ln(value + delta); strictly monotone, defined at zero."""
    if delta <= 0:
        raise ValueError(f"log shift requires delta > 0, got {delta}")
    arr = np.asarray(values, dtype=float)
    if arr.size and arr.min() < 0:
        raise ValueError("log shift expects non-negative values")
    return np.log(arr + delta).tolist()


def zero_skewness_delta(
    values,
    bracket: tuple[float, float] = (1e-9, 10.0),
    tolerance: float = 1e-9,
) -> TransformSpec:
    """Solve ln(x + delta) for the delta that zeroes the sample skewness.

    Bisection on delta -> skewness over ``bracket``; the upper end is doubled
    up to ``BRACKET_CAP`` until the skewness changes sign. Without a sign
    change the closer endpoint is reported with ``converged=False``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size and arr.min() < 0:
        raise ValueError("zero-skewness solve expects non-negative values")
    # Distinct values counted from the sorted gaps: np.unique would import
    # numpy.ma on its first call, a cost every default run would pay.
    if np.count_nonzero(np.diff(np.sort(arr))) < 2:
        raise DegenerateSample(
            "zero-skewness solve needs at least 3 distinct values"
        )

    def objective(delta: float) -> float:
        return sample_skewness(np.log(arr + delta))

    return solve_zero_skew(objective, bracket, tolerance)


def solve_zero_skew(
    objective: Callable[[float], float],
    bracket: tuple[float, float],
    tolerance: float,
) -> TransformSpec:
    """Bracketed bisection of a skewness objective over positive shifts."""
    lo, hi = bracket
    if not (0 < lo < hi):
        raise ValueError("bracket must be a positive increasing interval")

    f_lo = objective(lo)
    if abs(f_lo) <= tolerance:
        return TransformSpec(lo, f_lo, (lo, hi), True)
    f_hi = objective(hi)
    while f_lo * f_hi > 0 and hi < BRACKET_CAP:
        hi = min(hi * 2.0, BRACKET_CAP)
        f_hi = objective(hi)
    searched = (lo, hi)

    if f_lo * f_hi > 0:
        # No root in reach: report the endpoint closest to symmetry.
        if abs(f_lo) <= abs(f_hi):
            return TransformSpec(lo, f_lo, searched, False)
        return TransformSpec(hi, f_hi, searched, False)

    best, f_best = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    for _ in range(MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        f_mid = objective(mid)
        if abs(f_mid) < abs(f_best):
            best, f_best = mid, f_mid
        if abs(f_mid) <= tolerance:
            return TransformSpec(mid, f_mid, searched, True)
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return TransformSpec(best, f_best, searched, abs(f_best) <= tolerance)
