import dataclasses
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from statistics import NormalDist

from fssfunnel import render
from fssfunnel.errors import DegenerateSample
from fssfunnel.funnel import (
    BandPoint,
    Classification,
    FunnelReport,
    InstitutionSummary,
    PooledFit,
    confidence_bands,
    qq_points,
)
from fssfunnel.model import AssessmentConfig
from fssfunnel.render import (
    HEIGHT,
    WIDTH,
    render_caterpillar_svg,
    render_funnel_svg,
    render_qq_svg,
)
from fssfunnel.transform import TransformSpec
from helpers import make_report


def _elements(svg_text, class_prefix):
    root = ET.fromstring(svg_text)
    return [e for e in root.iter() if e.get("class", "").startswith(class_prefix)]


def _three_institution_report(**config_kwargs):
    rng = np.random.default_rng(4)
    data = {
        "alpha": list(rng.lognormal(-1.5, 0.7, 8)),
        "beta": list(rng.lognormal(-1.5, 0.7, 15)),
        "gamma": list(rng.lognormal(-1.5, 0.7, 30)),
    }
    return make_report(data, **config_kwargs)


def test_funnel_structure_counts():
    svg = render_funnel_svg(_three_institution_report())
    assert len(_elements(svg, "marker")) == 3
    assert len(_elements(svg, "band")) == 4
    assert len(_elements(svg, "grand-mean")) == 1

    # Institutions outside the bands get no text label.
    rng = np.random.default_rng(6)
    data = {f"u{j:02d}": list(rng.lognormal(-1.5, 0.7, 12)) for j in range(20)}
    data["hot"] = list(rng.lognormal(0.5, 0.3, 12))  # far above the rest
    report = make_report(data)
    assert any(s.classification.value != "within" for s in report.summaries)
    assert not _elements(render_funnel_svg(report), "label")


def test_funnel_zero_sd_bands_collapse_onto_mean_line():
    # build_funnel_report rejects a zero pooled SD, so set it by hand.
    report = _three_institution_report()
    report = dataclasses.replace(report, fit=dataclasses.replace(report.fit, pooled_sd=0.0))
    svg = render_funnel_svg(report)
    root = ET.fromstring(svg)
    mean_line = next(e for e in root.iter() if e.get("class") == "grand-mean")
    mean_y = mean_line.get("y1")
    for poly in _elements(svg, "band"):
        ys = {pair.split(",")[1] for pair in poly.get("points").split()}
        assert ys == {mean_y}


def test_funnel_band_half_width_strictly_decreases_with_size():
    report = _three_institution_report()
    sizes = range(1, max(s.size for s in report.summaries) + 1)
    for z in (2.0, 3.0):
        bands = [confidence_bands(report.fit, n, z) for n in sizes]
        halves = [(b.upper - b.lower) / 2 for b in bands]
        assert all(a > b for a, b in zip(halves, halves[1:]))


def test_funnel_marker_positions_follow_affine_mapping():
    # Institutions constructed so size order equals mean order: ascending data
    # must land at ascending pixel x and descending pixel y.
    report = make_report(
        {"low": [0.1] * 5 + [0.2] * 5, "mid": [0.4] * 10 + [0.5] * 10,
         "high": [0.9] * 20 + [1.1] * 20}
    )
    means = sorted(s.mean_transformed for s in report.summaries)
    sizes = sorted(s.size for s in report.summaries)
    assert [s.mean_transformed for s in sorted(report.summaries, key=lambda s: s.size)] == means
    svg = render_funnel_svg(report)
    markers = sorted(_elements(svg, "marker"), key=lambda m: float(m.get("cx")))
    assert len(markers) == 3 and len(sizes) == len(set(sizes))
    cys = [float(m.get("cy")) for m in markers]
    assert cys == sorted(cys, reverse=True)


def test_funnel_empty_report_rejected():
    report = _three_institution_report()
    empty = FunnelReport(
        fit=report.fit,
        transform=report.transform,
        summaries=(),
        qq_points=None,
        size_slope=None,
        rankings={},
        config=report.config,
    )
    with pytest.raises(DegenerateSample, match="funnel plot needs at least one institution"):
        render_funnel_svg(empty)
    with pytest.raises(DegenerateSample, match="caterpillar plot needs at least one"):
        render_caterpillar_svg(empty)


def _qq_report(adjusted):
    return FunnelReport(
        fit=PooledFit(0.0, 1.0, 100, 10),
        transform=TransformSpec(0.01, 0.0, (1e-9, 10.0), True),
        summaries=(),
        qq_points=tuple(qq_points(adjusted)),
        size_slope=None,
        rankings={},
        config=AssessmentConfig(),
    )


def test_qq_structure_counts():
    svg = render_qq_svg(_qq_report([0.4, -1.2, 3.3, 0.0, 2.2]))
    assert len(_elements(svg, "marker")) == 5
    assert len(_elements(svg, "reference")) == 1
    ET.fromstring(svg)


def test_qq_normal_sample_hugs_reference_line():
    n = 42
    sample = [NormalDist().inv_cdf((i + 1 - 0.375) / (n + 0.25)) for i in range(n)]
    report = _qq_report(sample)
    deviation = max(abs(s - t) for t, s in report.qq_points)
    assert deviation < 0.05


def test_qq_empty_rejected():
    report = _three_institution_report()
    gutted = FunnelReport(
        fit=report.fit,
        transform=report.transform,
        summaries=report.summaries,
        qq_points=None,
        size_slope=None,
        rankings=report.rankings,
        config=report.config,
    )
    with pytest.raises(DegenerateSample, match="quantile plot needs at least 3 adjusted means"):
        render_qq_svg(gutted)


def test_caterpillar_orders_institutions_by_mean():
    report = _three_institution_report()
    svg = render_caterpillar_svg(report)
    markers = _elements(svg, "marker")
    assert len(markers) == 3
    xs = [float(m.get("cx")) for m in markers]
    ys = [float(m.get("cy")) for m in markers]
    assert xs == sorted(xs)
    assert ys == sorted(ys, reverse=True)  # ascending means rise on screen
    assert len(_elements(svg, "interval")) == 3
    assert len(_elements(svg, "grand-mean")) == 1
    assert len(_elements(svg, "caveat")) == 1


def test_caterpillar_interval_shrinks_with_size():
    # Same value mix in both institutions (equal means), different sizes.
    mix = [0.5, 0.6, 0.7]
    report = make_report({"small": mix * 2, "big": mix * 8})
    svg = render_caterpillar_svg(report)
    intervals = {
        round(float(e.get("x1")), 2): abs(float(e.get("y2")) - float(e.get("y1")))
        for e in _elements(svg, "interval")
    }
    lengths = sorted(intervals.values())
    assert lengths[0] < lengths[1]
    small = next(s for s in report.summaries if s.institution_id == "small")
    big = next(s for s in report.summaries if s.institution_id == "big")
    assert small.mean_transformed == pytest.approx(big.mean_transformed, abs=1e-12)


def _y_pixels_per_unit(svg_text):
    """Pixels per data unit of the y axis, from its two outermost labelled
    ticks (the labels sit 3.5 px below their tick)."""
    ticks = sorted(
        (float(e.text), float(e.get("y")) - 3.5)
        for e in _elements(svg_text, "tick-label")
        if e.get("text-anchor") == "end"
    )
    (low, low_y), (high, high_y) = ticks[0], ticks[-1]
    return (low_y - high_y) / (high - low)


@pytest.mark.parametrize(
    "band_z_levels", [(2.0, 3.0), (2.5, 3.0)], ids=["inner_z=2", "inner_z=2.5"]
)
def test_caterpillar_interval_matches_recentered_band(band_z_levels):
    report = _three_institution_report(band_z_levels=band_z_levels)
    svg = render_caterpillar_svg(report)
    scale = _y_pixels_per_unit(svg)
    intervals = sorted(_elements(svg, "interval"), key=lambda e: float(e.get("x1")))
    ordered = sorted(report.summaries, key=lambda s: (s.mean_transformed, s.institution_id))
    assert len(intervals) == len(ordered) == 3
    for line, summary in zip(intervals, ordered):
        pixels = float(line.get("y1")) - float(line.get("y2"))
        width = 2 * band_z_levels[0] * report.fit.pooled_sd / math.sqrt(summary.size)
        assert pixels == pytest.approx(width * scale, abs=0.05)


def test_rendering_is_deterministic():
    report = _three_institution_report()
    assert render_funnel_svg(report) == render_funnel_svg(report)
    assert render_caterpillar_svg(report) == render_caterpillar_svg(report)


def test_all_documents_are_well_formed_xml_with_declared_size():
    report = _three_institution_report()
    for svg in (
        render_funnel_svg(report),
        render_qq_svg(_qq_report([0.1, -0.4, 0.9, 0.3])),
        render_caterpillar_svg(report),
    ):
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.get("width") == str(WIDTH)
        assert root.get("height") == str(HEIGHT)


def _two_size_report(count):
    """``count`` institutions of 2 or 3 values each, as on the ``wide`` input."""
    rng = np.random.default_rng(17)
    return make_report({
        f"u{j:05d}": list(rng.lognormal(-1.5, 0.7, 2 + j % 2)) for j in range(count)
    })


def _px_calls_beside_ticks(report, monkeypatch):
    """Numbers the three figures write through ``_px``, less the 6 of each
    tick (4 for its line, 2 for its label): a wider data range can add ticks."""
    calls = []
    px = render._px
    with monkeypatch.context() as patch:
        patch.setattr(render, "_px", lambda value: calls.append(value) or px(value))
        svgs = [render_funnel_svg(report), render_qq_svg(report), render_caterpillar_svg(report)]
    return len(calls) - 6 * sum(svg.count('<line class="tick"') for svg in svgs)


def test_per_point_elements_format_no_number_through_px(monkeypatch):
    # Markers and intervals are filled from templates, so twice the
    # institutions, of the same two sizes, send no more numbers through _px.
    single = _px_calls_beside_ticks(_two_size_report(1000), monkeypatch)
    assert _px_calls_beside_ticks(_two_size_report(2000), monkeypatch) == single


@given(st.floats())
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072e-308)
@example(1e308)
@example(0.005)
@example(-0.004999)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_template_number_text_is_px(value):
    assert "%.2f" % value == render._px(value)


def _one_institution_per_class():
    inner, outer = BandPoint(4, 2.0, -1.0, 1.0), BandPoint(4, 3.0, -1.5, 1.5)
    means = {
        Classification.BELOW_OUTER: -2.0, Classification.BELOW_INNER: -1.25,
        Classification.WITHIN: 0.0, Classification.ABOVE_INNER: 1.25,
        Classification.ABOVE_OUTER: 2.0,
    }
    summaries = tuple(
        InstitutionSummary(f"u{i}", 4, mean, mean, cls, inner, outer)
        for i, (cls, mean) in enumerate(means.items())
    )
    return FunnelReport(
        fit=PooledFit(0.0, 1.0, 20, 5),
        transform=TransformSpec(0.01, 0.0, (1e-9, 10.0), True),
        summaries=summaries,
        qq_points=None,
        size_slope=None,
        rankings={s.institution_id: i for i, s in enumerate(summaries, start=1)},
        config=AssessmentConfig(),
    )


def _lines_starting(svg, prefix):
    return [line for line in svg.splitlines() if line.startswith(prefix)]


def test_marker_and_interval_elements_are_pinned():
    report = _one_institution_per_class()
    assert _lines_starting(render_funnel_svg(report), "<circle") == [
        '<circle class="marker below_outer" cx="590.67" cy="430.62" r="3.5" '
        'fill="#7b241c" stroke="#ffffff" stroke-width="0.8"/>',
        '<circle class="marker below_inner" cx="590.67" cy="363.26" r="3.5" '
        'fill="#c0392b" stroke="#ffffff" stroke-width="0.8"/>',
        '<circle class="marker within" cx="590.67" cy="251.00" r="3.5" '
        'fill="#4878a8" stroke="#ffffff" stroke-width="0.8"/>',
        '<circle class="marker above_inner" cx="590.67" cy="138.74" r="3.5" '
        'fill="#2e8540" stroke="#ffffff" stroke-width="0.8"/>',
        '<circle class="marker above_outer" cx="590.67" cy="71.38" r="3.5" '
        'fill="#1b5e20" stroke="#ffffff" stroke-width="0.8"/>',
    ]
    assert _lines_starting(render_caterpillar_svg(report), '<line class="interval"')[0] == (
        '<line class="interval" x1="169.33" y1="441.52" x2="169.33" y2="314.51" '
        'stroke="#707070" stroke-width="1.2"/>'
    )
