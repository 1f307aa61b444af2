"""Acceptance suite: every criterion prints one PASS/FAIL line when run.

Each statistical criterion is checked against an oracle implemented here from
scratch (rule enumeration, direct summation, plain-Python ANOVA and normal
equations) so the package code is never used to generate its own expected
values.
"""

import json
import math
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager

import numpy as np
import pytest

from fssfunnel.cli import main
from fssfunnel.funnel import (
    Classification,
    PooledFit,
    classify_institution,
    confidence_bands,
    fit_pooled,
    size_slope,
)
from fssfunnel.indicator import fractional_weights, researcher_fss
from fssfunnel.model import (
    AssessmentConfig,
    AuthorSlot,
    CitationBaseline,
    PublicationRecord,
    Rank,
    ResearcherRecord,
)
from fssfunnel.render import render_funnel_svg
from fssfunnel.transform import zero_skewness_delta
from helpers import make_report


@contextmanager
def announce(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_weights(institutions):
    """Brute-force enumeration of the positional credit rules."""
    count = len(institutions)
    raw = [0.0] * count
    if institutions[0] == institutions[-1]:
        for i in range(count):
            if i == 0 or i == count - 1:
                raw[i] = 0.40
        middles = [i for i in range(count) if raw[i] == 0.0]
        for i in middles:
            raw[i] = 0.20 / len(middles)
    else:
        for i in range(count):
            if i == 0 or i == count - 1:
                raw[i] = 0.30
            elif i == 1 or i == count - 2:
                raw[i] = 0.15
        others = [i for i in range(count) if raw[i] == 0.0]
        for i in others:
            raw[i] = 0.10 / len(others)
    # Normalized as the package does, with one rounding.
    total = math.fsum(raw)
    return [w / total for w in raw]


def oracle_fss(researcher, publications, baseline_map, salary_map):
    total = 0.0
    for pub in publications:
        weights = oracle_weights([slot.institution_id for slot in pub.authors])
        index = next(
            i for i, slot in enumerate(pub.authors)
            if slot.researcher_id == researcher.researcher_id
        )
        c_bar = baseline_map[(pub.year, pub.subject_category)]
        total += pub.citations / c_bar * weights[index]
    return total / salary_map[researcher.rank] / researcher.years_active


def oracle_pooled(groups):
    all_values = [v for _, values in groups for v in values]
    grand = sum(all_values) / len(all_values)
    ss = 0.0
    for _, values in groups:
        mean = sum(values) / len(values)
        ss += sum((v - mean) ** 2 for v in values)
    return grand, math.sqrt(ss / (len(all_values) - len(groups)))


def oracle_slope(points):
    xs = [float(n) for n, _ in points]
    ys = [float(m) for _, m in points]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sxx
    intercept = y_mean - slope * x_mean
    sse = sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    se = math.sqrt(sse / (len(xs) - 2) / sxx)
    return slope, se


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_weight_conservation(capsys):
    with announce(capsys, "1 weight conservation (10k bylines, exact oracle match)"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(10_000):
            count = int(rng.integers(1, 26))
            insts = [f"u{int(rng.integers(0, 4))}" for _ in range(count)]
            if count >= 2 and rng.random() < 0.5:
                insts[-1] = insts[0]  # force the intra-mural rule half the time
            slots = tuple(
                AuthorSlot(i + 1, None, inst) for i, inst in enumerate(insts)
            )
            weights = fractional_weights(slots)
            assert abs(sum(weights) - 1.0) <= 1e-12
            assert list(weights) == oracle_weights(insts)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_fss_oracle_equivalence(capsys):
    with announce(capsys, "2 FSS oracle equivalence (1k datasets, 1e-12 relative)"):
        rng = np.random.default_rng(202)
        config = AssessmentConfig()
        years = list(range(2008, 2013))
        categories = ["Biochemistry", "Genetics"]
        for _ in range(1_000):
            baseline_map = {
                (y, c): float(rng.uniform(1.0, 20.0))
                for y in years for c in categories
            }
            baselines = CitationBaseline(baseline_map)
            researchers = [
                ResearcherRecord(
                    f"r{i}", f"u{int(rng.integers(0, 3))}", "Biochemistry",
                    [Rank.ASSISTANT, Rank.ASSOCIATE, Rank.FULL][int(rng.integers(0, 3))],
                    int(rng.integers(1, 6)),
                )
                for i in range(int(rng.integers(1, 6)))
            ]
            publications = []
            for p in range(int(rng.integers(0, 11))):
                count = int(rng.integers(1, 9))
                slots = [
                    AuthorSlot(i + 1, None, f"u{int(rng.integers(0, 5))}")
                    for i in range(count)
                ]
                chosen = rng.permutation(len(researchers))[: int(rng.integers(0, min(count, len(researchers)) + 1))]
                positions = rng.permutation(count)[: len(chosen)]
                for rid_idx, pos in zip(chosen, positions):
                    old = slots[pos]
                    slots[pos] = AuthorSlot(
                        old.position, researchers[rid_idx].researcher_id,
                        researchers[rid_idx].institution_id,
                    )
                publications.append(
                    PublicationRecord(
                        f"p{p}", int(rng.choice(years)), str(rng.choice(categories)),
                        int(rng.integers(0, 60)), tuple(slots),
                    )
                )
            for rec in researchers:
                authored = [
                    pub for pub in publications
                    if any(s.researcher_id == rec.researcher_id for s in pub.authors)
                ]
                observed = researcher_fss(rec, authored, baselines, config)
                expected = oracle_fss(
                    rec, authored, baseline_map, config.salary_coefficients
                )
                if expected == 0.0:
                    assert observed == 0.0
                else:
                    assert abs(observed - expected) / abs(expected) <= 1e-12


def test_criterion_03_pooled_fit_oracle(capsys):
    with announce(capsys, "3 pooled-fit oracle (1k groupings, 1e-10)"):
        rng = np.random.default_rng(303)
        for _ in range(1_000):
            group_count = int(rng.integers(2, 13))
            groups = [
                (
                    f"g{j}",
                    [float(v) for v in rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 2), int(rng.integers(2, 31)))],
                )
                for j in range(group_count)
            ]
            fit = fit_pooled(groups)
            grand, sd = oracle_pooled(groups)
            assert abs(fit.grand_mean - grand) <= 1e-10
            assert abs(fit.pooled_sd - sd) <= 1e-10


def test_criterion_04_zero_skewness_solver(capsys):
    with announce(capsys, "4 zero-skewness solver (500 known shifts, 1e-4 relative)"):
        rng = np.random.default_rng(404)
        started = time.perf_counter()
        for _ in range(500):
            delta0 = float(np.exp(rng.uniform(math.log(1e-4), math.log(5.0))))
            half = rng.normal(0.0, 1.0, size=int(rng.integers(15, 101)))
            sym = np.concatenate([half, -half])
            sym = sym - sym.min() + math.log(delta0)
            values = np.maximum(np.exp(sym) - delta0, 0.0)
            spec = zero_skewness_delta(values)
            assert spec.converged
            assert abs(spec.delta - delta0) / delta0 < 1e-4, (
                f"delta0={delta0} recovered={spec.delta}"
            )
            assert abs(spec.achieved_skewness) < 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_05_band_calibration(capsys):
    with announce(capsys, "5 band calibration (20k institutions, 4.55%/0.27% targets)"):
        rng = np.random.default_rng(505)
        started = time.perf_counter()
        count = 20_000
        sizes = rng.integers(5, 61, size=count)
        groups = [rng.normal(0.0, 1.0, size=int(n)) for n in sizes]
        fit = fit_pooled([(str(j), values) for j, values in enumerate(groups)])
        outside_inner = 0
        outside_outer = 0
        for values in groups:
            label = classify_institution(
                float(values.mean()),
                confidence_bands(fit, values.size, 2.0),
                confidence_bands(fit, values.size, 3.0),
            )
            if label is not Classification.WITHIN:
                outside_inner += 1
            if label in (Classification.ABOVE_OUTER, Classification.BELOW_OUTER):
                outside_outer += 1
        inner_rate = outside_inner / count
        outer_rate = outside_outer / count
        assert 0.035 <= inner_rate <= 0.055, f"inner rate {inner_rate:.4f}"
        assert 0.001 <= outer_rate <= 0.006, f"outer rate {outer_rate:.4f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_06_inverse_sqrt_law(capsys):
    with announce(capsys, "6 inverse-sqrt-n band law (half-width halves from k to 4k)"):
        rng = np.random.default_rng(606)
        for _ in range(300):
            fit = PooledFit(
                float(rng.normal()), float(rng.uniform(1e-4, 3.0)),
                int(rng.integers(50, 500)), int(rng.integers(2, 40)),
            )
            k = int(rng.integers(1, 2501))
            z = float(rng.uniform(0.5, 4.0))
            narrow = confidence_bands(fit, k, z)
            wide = confidence_bands(fit, 4 * k, z)
            half_narrow = (narrow.upper - narrow.lower) / 2
            half_wide = (wide.upper - wide.lower) / 2
            assert abs(half_wide - half_narrow / 2) <= 1e-12 * max(1.0, half_narrow)


def test_criterion_07_end_to_end_synthetic_reproduction(capsys, tmp_path):
    with announce(capsys, "7 end-to-end synthetic run (42 institutions, ~877 staff)"):
        started = time.perf_counter()
        fixture = tmp_path / "fixture"
        assert main(["synth", "--out-dir", str(fixture), "--seed", "2718", "--quiet"]) == 0
        out = tmp_path / "out"
        out.mkdir()
        code = main([
            "assess",
            "--researchers", str(fixture / "researchers.csv"),
            "--publications", str(fixture / "publications.csv"),
            "--baselines", str(fixture / "baselines.csv"),
            "--config", str(fixture / "config.txt"),
            "--report", str(out / "report.json"),
            "--funnel-svg", str(out / "funnel.svg"),
            "--qq-svg", str(out / "qq.svg"),
            "--caterpillar-svg", str(out / "caterpillar.svg"),
            "--quiet",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["fit"]["group_count"] == 42
        assert report["fit"]["total_n"] == 877
        assert all(5 <= inst["size"] <= 61 for inst in report["institutions"])
        assert report["transform"]["delta"] > 0
        assert report["transform"]["converged"] is True
        for svg in ("funnel.svg", "qq.svg", "caterpillar.svg"):
            ET.fromstring((out / svg).read_text())
        within = sum(
            1 for inst in report["institutions"] if inst["classification"] == "within"
        )
        assert within / 42 >= 0.85, f"within fraction {within / 42:.3f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_08_determinism(capsys, tmp_path):
    with announce(capsys, "8 determinism (byte-identical report and figures)"):
        fixture = tmp_path / "fixture"
        assert main(["synth", "--out-dir", str(fixture), "--institutions", "8",
                     "--total", "80", "--seed", "31", "--quiet"]) == 0
        outputs = []
        for run in ("one", "two"):
            out = tmp_path / run
            out.mkdir()
            code = main([
                "assess",
                "--researchers", str(fixture / "researchers.csv"),
                "--publications", str(fixture / "publications.csv"),
                "--baselines", str(fixture / "baselines.csv"),
                "--report", str(out / "report.json"),
                "--funnel-svg", str(out / "funnel.svg"),
                "--qq-svg", str(out / "qq.svg"),
                "--caterpillar-svg", str(out / "caterpillar.svg"),
                "--quiet",
            ])
            assert code == 0
            outputs.append(out)
        for name in ("report.json", "funnel.svg", "qq.svg", "caterpillar.svg"):
            first = (outputs[0] / name).read_bytes()
            second = (outputs[1] / name).read_bytes()
            assert first == second, f"{name} differs between runs"


def test_criterion_09_slope_regression_oracle(capsys):
    with announce(capsys, "9 size-slope oracle (1k fixtures, 1e-9) and 3-SE calibration"):
        rng = np.random.default_rng(909)
        for _ in range(1_000):
            count = int(rng.integers(10, 41))
            points = [
                (int(rng.integers(5, 61)), float(rng.normal(0.0, 1.0)))
                for _ in range(count)
            ]
            if len({n for n, _ in points}) < 2:
                continue
            slope, se = size_slope(points)
            expected_slope, expected_se = oracle_slope(points)
            assert abs(slope - expected_slope) <= 1e-9
            assert abs(se - expected_se) <= 1e-9

        inside = 0
        runs = 1_000
        for _ in range(runs):
            sizes = rng.integers(5, 61, size=60)
            means = rng.normal(0.3, 0.5, size=60)  # zero true slope
            slope, se = size_slope(list(zip(sizes, means)))
            if abs(slope) < 3 * se:
                inside += 1
        assert inside / runs >= 0.99, f"only {inside}/{runs} inside 3 SE"


def test_criterion_10_svg_structure(capsys):
    with announce(capsys, "10 funnel SVG structure for 1, 3, and 42 institutions"):
        rng = np.random.default_rng(1010)
        for count in (1, 3, 42):
            data = {
                f"u{j:02d}": list(rng.lognormal(-1.5, 0.8, size=int(rng.integers(5, 31))))
                for j in range(count)
            }
            report = make_report(data)
            svg = render_funnel_svg(report)
            root = ET.fromstring(svg)
            markers = [
                e for e in root.iter() if e.get("class", "").startswith("marker")
            ]
            bands = [e for e in root.iter() if e.get("class", "").startswith("band")]
            mean_lines = [e for e in root.iter() if e.get("class") == "grand-mean"]
            assert len(markers) == count, f"{count}: {len(markers)} markers"
            assert len(bands) == 4
            assert len(mean_lines) == 1
