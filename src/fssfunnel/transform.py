"""Zero-skewness log-shift transform.

The productivity index is heavily right-skewed, so institutional means are
compared on the scale y = ln(x + delta), with delta solved so the transformed
sample has zero moment skewness. The skewness-versus-delta map is smooth and
monotone in practice, so a bracketed Brent search over ln(delta) is robust,
deterministic and needs few evaluations.

Every log is ``math.log`` of one value and every sum is ``math.fsum``, so the
results do not depend on how a sum is blocked or vectorised.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from math import copysign, exp, fsum, inf, log
from operator import mul
from sys import float_info

from .errors import DegenerateSample, _shown
from .model import AssessmentConfig

BRACKET_CAP = 1e6
MAX_ITERATIONS = 200


TransformSpec = namedtuple("TransformSpec", "delta achieved_skewness bracket_used converged")
TransformSpec.__doc__ = """Solved shift and the residual skewness it achieves. ``converged``
is False when the skewness never changed sign over the maximal bracket; ``delta`` is then
the endpoint with the smaller absolute skewness and downstream consumers should treat the
bands with care."""


def _mean(values) -> float:
    """The one mean of this package: the correctly rounded sum over the count."""
    return fsum(values) / len(values)


def _finite_nonnegative(values, owner: str, owner_id: str | None = None) -> list[float]:
    """The one value-domain check of this package: the values as floats,
    or ValueError naming ``owner`` (followed by ``owner_id``, if given) and
    the first that is not finite and >= 0."""
    values = [float(v) for v in values]
    for v in values:
        if not 0.0 <= v < inf:  # NaN fails too
            if owner_id is not None:
                owner = f"{owner} {_shown(owner_id)}"
            raise ValueError(f"{owner} has value {v}, not finite and >= 0")
    return values


def sample_skewness(values) -> float:
    """Moment coefficient g1 = m3 / m2^(3/2), central moments with divisor n."""
    values = list(values)
    n = len(values)
    if n < 3:
        raise DegenerateSample(f"skewness needs at least 3 values, got {n}")
    mean = _mean(values)
    dev = [v - mean for v in values]
    m2 = fsum(map(mul, dev, dev)) / n
    if m2 == 0.0:
        raise DegenerateSample("skewness is undefined for a zero-variance sample")
    m3 = fsum(map(mul, map(mul, dev, dev), dev)) / n
    return m3 / m2**1.5


def log_shift_transform(values, delta: float) -> list[float]:
    """Elementwise ln(value + delta); strictly monotone, defined at zero."""
    if delta <= 0:
        raise ValueError(f"log shift requires delta > 0, got {delta}")
    values = _finite_nonnegative(values, "log shift")
    return [log(v + delta) for v in values]


def zero_skewness_delta(
    values,
    bracket: tuple[float, float] = AssessmentConfig.delta_bracket,
    tolerance: float = AssessmentConfig.skewness_tolerance,
) -> TransformSpec:
    """Solve ln(x + delta) for the delta that zeroes the sample skewness.

    Brent's method on ln(delta) -> skewness over ``bracket``; the upper end is
    doubled up to ``BRACKET_CAP`` until the skewness changes sign. Without a
    sign change the closer endpoint is reported with ``converged=False``.
    """
    values = _finite_nonnegative(values, "zero-skewness solve")
    if len(set(values)) < 3:  # 0.0 and -0.0 are one value
        raise DegenerateSample(
            "zero-skewness solve needs at least 3 distinct values"
        )

    def objective(delta: float) -> float:
        return sample_skewness([log(v + delta) for v in values])

    return solve_zero_skew(objective, bracket, tolerance)


def solve_zero_skew(
    objective: Callable[[float], float],
    bracket: tuple[float, float],
    tolerance: float,
) -> TransformSpec:
    """Root of a skewness objective over positive shifts, bracketed.

    The upper end of ``bracket`` is doubled up to ``BRACKET_CAP`` until the
    skewness changes sign. Brent's method (inverse quadratic interpolation,
    secant steps, and bisection where those do not shrink the bracket fast
    enough) then searches t = ln(delta), on which the skewness is close to
    linear, and stops at the first shift with ``|skewness| <= tolerance``.
    It also stops once the bracket is narrower than the spacing of floats at
    t or delta, and then reports the shift with the smallest ``|skewness|``
    seen.
    """
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
    # b is the latest estimate, a the one before it and c the end that keeps
    # the root between b and c; d is the last step and e the one before it.
    a, fa = log(lo), f_lo
    b, fb = log(hi), f_hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(MAX_ITERATIONS):
        if fb * fc > 0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        # A narrower bracket can no longer move t, or delta = exp(t), by a float.
        step_min = float_info.epsilon * (2.0 * abs(b) + 0.5)
        half = 0.5 * (c - b)
        if abs(half) <= step_min:
            break
        if abs(e) >= step_min and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * half * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(step_min * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > step_min else copysign(step_min, half)
        delta = exp(b)
        fb = objective(delta)
        if abs(fb) < abs(f_best):
            best, f_best = delta, fb
        if abs(fb) <= tolerance:
            return TransformSpec(delta, fb, searched, True)
    return TransformSpec(best, f_best, searched, abs(f_best) <= tolerance)
