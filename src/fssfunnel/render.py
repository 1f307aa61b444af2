"""Self-contained SVG figures: funnel, normal quantile, caterpillar.

Everything is plain string assembly with fixed number formatting, so an
identical report produces byte-identical documents. No external fonts,
stylesheets, or scripts; all styling is inline, from the constants below.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import ceil, exp, floor, log10, sqrt

from .errors import DegenerateSample
from .funnel import Classification, FunnelReport, confidence_bands

WIDTH, HEIGHT = 760, 520
# Edges of the plotting area, in pixels.
LEFT, RIGHT, TOP, BOTTOM = 64, WIDTH - 64, 30, HEIGHT - 48
POINT_RADIUS = 3.5
TICK_TARGET = 6  # about this many ticks per axis
RANGE_PAD = 0.08  # the share of the data range added as margin at each end
MARKER_COLORS = {
    Classification.WITHIN: "#4878a8",
    Classification.ABOVE_INNER: "#2e8540",
    Classification.ABOVE_OUTER: "#1b5e20",
    Classification.BELOW_INNER: "#c0392b",
    Classification.BELOW_OUTER: "#7b241c",
}
BAND_COLOR = "#707070"
MEAN_COLOR = "#202020"
FONT_FAMILY = "Helvetica, Arial, sans-serif"
FONT_SIZE = 11


def _px(value: float) -> str:
    return f"{value:.2f}"


def _tick_label(value: float) -> str:
    return f"{round(value, 10):g}"


class _Frame:
    """Affine data-to-pixel mapping; y grows upward in data, downward in pixels."""

    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("frame needs non-empty data ranges")

    # Points map as a stream, with the frame's constants taken once per stream.
    def xs(self, values) -> Iterator[float]:
        x0, span, pixels = self.x0, self.x1 - self.x0, RIGHT - LEFT
        return (LEFT + (value - x0) / span * pixels for value in values)

    def ys(self, values) -> Iterator[float]:
        y0, span, pixels = self.y0, self.y1 - self.y0, BOTTOM - TOP
        return (TOP + (1.0 - (value - y0) / span) * pixels for value in values)

    def x(self, value: float) -> float:
        return next(self.xs((value,)))

    def y(self, value: float) -> float:
        return next(self.ys((value,)))


def _nice_ticks(lo: float, hi: float) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / TICK_TARGET
    magnitude = 10.0 ** floor(log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if raw <= step:
            break
    first = ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(round(value, 12))
        value += step
    return ticks


def _pad_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        pad = 1.0 if lo == 0 else abs(lo) * 0.5
        return lo - pad, lo + pad
    pad = (hi - lo) * RANGE_PAD
    return lo - pad, hi + pad


def _header() -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]


def _text(x: float, y: float, content: str, anchor: str = "middle",
          cls: str = "tick-label", rotate: float | None = None) -> str:
    # ``content`` is a module constant or a formatted number, never a report
    # id, so it holds no character that XML would need escaped.
    transform = f' transform="rotate({_px(rotate)} {_px(x)} {_px(y)})"' if rotate is not None else ""
    return (
        f'<text class="{cls}" x="{_px(x)}" y="{_px(y)}" text-anchor="{anchor}" '
        f'font-family="{FONT_FAMILY}" font-size="{FONT_SIZE}" '
        f'fill="#303030"{transform}>{content}</text>'
    )


def _axes(frame: _Frame, x_ticks, y_ticks,
          x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<line class="axis" x1="{_px(LEFT)}" y1="{_px(BOTTOM)}" '
        f'x2="{_px(RIGHT)}" y2="{_px(BOTTOM)}" stroke="#303030" stroke-width="1"/>',
        f'<line class="axis" x1="{_px(LEFT)}" y1="{_px(TOP)}" '
        f'x2="{_px(LEFT)}" y2="{_px(BOTTOM)}" stroke="#303030" stroke-width="1"/>',
    ]
    for tick in x_ticks:
        if tick < frame.x0 - 1e-12 or tick > frame.x1 + 1e-12:
            continue
        x = frame.x(tick)
        parts.append(
            f'<line class="tick" x1="{_px(x)}" y1="{_px(BOTTOM)}" '
            f'x2="{_px(x)}" y2="{_px(BOTTOM + 4)}" stroke="#303030" stroke-width="1"/>'
        )
        parts.append(_text(x, BOTTOM + 16, _tick_label(tick)))
    for tick in y_ticks:
        if tick < frame.y0 - 1e-12 or tick > frame.y1 + 1e-12:
            continue
        y = frame.y(tick)
        parts.append(
            f'<line class="tick" x1="{_px(LEFT - 4)}" y1="{_px(y)}" '
            f'x2="{_px(LEFT)}" y2="{_px(y)}" stroke="#303030" stroke-width="1"/>'
        )
        parts.append(_text(LEFT - 7, y + 3.5, _tick_label(tick), anchor="end"))
    parts.append(
        _text((LEFT + RIGHT) / 2, BOTTOM + 34, x_label, cls="axis-label")
    )
    parts.append(
        _text(LEFT - 46, (TOP + BOTTOM) / 2, y_label,
              cls="axis-label", rotate=-90.0)
    )
    return parts


# Per-point elements, one marker per classification; ``%.2f`` writes what _px does.
# Keyed by value: hashing an Enum member runs Python code.
_MARKER = {
    cls._value_: f'<circle class="marker {cls.value}" cx="%.2f" cy="%.2f" '
                 f'r="{POINT_RADIUS}" fill="{color}" stroke="#ffffff" stroke-width="0.8"/>'
    for cls, color in MARKER_COLORS.items()
}
_INTERVAL = (
    '<line class="interval" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
    f'stroke="{BAND_COLOR}" stroke-width="1.2"/>'
)


def _grand_mean_line(y: float) -> str:
    return (
        f'<line class="grand-mean" x1="{_px(LEFT)}" y1="{_px(y)}" '
        f'x2="{_px(RIGHT)}" y2="{_px(y)}" stroke="{MEAN_COLOR}" '
        f'stroke-width="1.4"/>'
    )


def _polyline(points, cls: str, dashed: bool) -> str:
    coords = " ".join(f"{_px(x)},{_px(y)}" for x, y in points)
    dash = ' stroke-dasharray="5,3"' if dashed else ""
    return (
        f'<polyline class="{cls}" points="{coords}" fill="none" '
        f'stroke="{BAND_COLOR}" stroke-width="1.2"{dash}/>'
    )


def render_funnel_svg(report: FunnelReport) -> str:
    """Scatter of institution means against size, with funnel-shaped bands.

    One marker per institution, two pairs of band polylines (inner solid,
    outer dashed), a grand-mean line, and a secondary right-hand axis showing
    the back-transformed (original-scale) values of the left-hand ticks.
    """
    if not report.summaries:
        raise DegenerateSample("funnel plot needs at least one institution")
    fit = report.fit
    sizes = [s.size for s in report.summaries]
    n_lo = max(1, min(sizes) - 2)
    n_hi = max(max(sizes) * 1.1, n_lo + 1.0)

    grid = [n_lo + (n_hi - n_lo) * i / 160 for i in range(161)]
    grid = sorted(set(grid) | set(float(n) for n in sizes))

    widest = confidence_bands(fit, n_lo, report.config.outer_z)
    y_values = [s.mean_transformed for s in report.summaries] + [widest.lower, widest.upper]
    y_range = _pad_range(min(y_values), max(y_values))
    frame = _Frame((n_lo, n_hi), y_range)

    y_ticks = _nice_ticks(*y_range)
    parts = _header()
    parts += _axes(
        frame, _nice_ticks(n_lo, n_hi), y_ticks,
        "faculty size (n)", "mean of transformed index",
    )
    # Secondary axis: left ticks back-transformed to the original index scale.
    for tick in y_ticks:
        if tick < y_range[0] or tick > y_range[1]:
            continue
        original = exp(tick) - report.transform.delta
        parts.append(
            _text(RIGHT + 7, frame.y(tick) + 3.5,
                  f"{original:.3g}", anchor="start")
        )
    parts.append(
        _text(RIGHT + 46, (TOP + BOTTOM) / 2,
              "original scale", cls="axis-label", rotate=90.0)
    )

    for z, cls, dashed in (
        (report.config.inner_z, "band inner", False),
        (report.config.outer_z, "band outer", True),
    ):
        bands = [confidence_bands(fit, n, z) for n in grid]
        for edge in ([b.lower for b in bands], [b.upper for b in bands]):
            parts.append(_polyline(zip(frame.xs(grid), frame.ys(edge)), cls, dashed))

    parts.append(_grand_mean_line(frame.y(fit.grand_mean)))

    summaries = report.summaries
    xs = frame.xs(s.size for s in summaries)
    ys = frame.ys(s.mean_transformed for s in summaries)
    parts += [_MARKER[s.classification._value_] % (x, y) for s, x, y in zip(summaries, xs, ys)]
    parts.append("</svg>\n")
    return "\n".join(parts)


def render_qq_svg(report: FunnelReport) -> str:
    """Normal quantile plot of the adjusted means with a 45-degree reference."""
    if not report.qq_points:
        raise DegenerateSample("quantile plot needs at least 3 adjusted means")
    values = [v for pair in report.qq_points for v in pair]
    lo, hi = _pad_range(min(values), max(values))
    frame = _Frame((lo, hi), (lo, hi))

    parts = _header()
    ticks = _nice_ticks(lo, hi)
    parts += _axes(frame, ticks, ticks,
                   "theoretical quantile", "adjusted mean")
    parts.append(
        f'<line class="reference" x1="{_px(frame.x(lo))}" y1="{_px(frame.y(lo))}" '
        f'x2="{_px(frame.x(hi))}" y2="{_px(frame.y(hi))}" stroke="{MEAN_COLOR}" '
        f'stroke-width="1" stroke-dasharray="5,3"/>'
    )
    marker = _MARKER[Classification.WITHIN.value]
    points = report.qq_points
    parts += [
        marker % xy for xy in zip(frame.xs(t for t, _ in points), frame.ys(v for _, v in points))
    ]
    parts.append("</svg>\n")
    return "\n".join(parts)


def render_caterpillar_svg(report: FunnelReport) -> str:
    """Institutions in ascending order of mean, each with mean +/- z*s/sqrt(n),
    z being the report's inner band level.

    Interval length shrinks with size, but unlike the funnel this layout hides
    the size-uncertainty relationship and over-emphasizes rank order; it is
    provided for comparison with the funnel view.
    """
    if not report.summaries:
        raise DegenerateSample("caterpillar plot needs at least one institution")
    fit = report.fit
    ordered = sorted(
        report.summaries, key=lambda s: (s.mean_transformed, s.institution_id)
    )
    half = [report.config.inner_z * fit.pooled_sd / sqrt(s.size) for s in ordered]
    y_values = [s.mean_transformed - h for s, h in zip(ordered, half)]
    y_values += [s.mean_transformed + h for s, h in zip(ordered, half)]
    y_values.append(fit.grand_mean)
    y_range = _pad_range(min(y_values), max(y_values))
    count = len(ordered)
    frame = _Frame((0.0, count + 1.0), y_range)

    label_every = max(1, count // 12)
    x_ticks = [i for i in range(1, count + 1) if (i - 1) % label_every == 0]
    parts = _header()
    parts += _axes(frame, x_ticks, _nice_ticks(*y_range),
                   "institutions (ascending mean)", "mean of transformed index")
    parts.append(
        _text((LEFT + RIGHT) / 2, TOP - 10,
              "Overlapping intervals: the displayed order is not statistically meaningful.",
              cls="caveat")
    )

    parts.append(_grand_mean_line(frame.y(fit.grand_mean)))
    for summary, x, low, high, mean in zip(
        ordered,
        frame.xs(map(float, range(1, count + 1))),
        frame.ys(s.mean_transformed - h for s, h in zip(ordered, half)),
        frame.ys(s.mean_transformed + h for s, h in zip(ordered, half)),
        frame.ys(s.mean_transformed for s in ordered),
    ):
        parts += (
            _INTERVAL % (x, low, x, high),
            _MARKER[summary.classification._value_] % (x, mean),
        )
    parts.append("</svg>\n")
    return "\n".join(parts)
