"""Output check for the fssfunnel benchmark, independent of the code under test.

The expected institution means come from a reference FSS written here from
PAPER.md (positional credit rules, renormalisation for short bylines, salary
coefficient and years active) and computed from the CSV files the CLI reads.
Nothing here imports ``fssfunnel``.
"""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET
from bisect import bisect_right
from dataclasses import dataclass

# Tolerance of the acceptance suite's FSS oracle.
RELATIVE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Expected:
    """What a correct report must say about the generated inputs."""

    institution_ids: tuple[str, ...]
    sizes: dict[str, int]
    mean_fss: dict[str, float]

    @property
    def total_n(self) -> int:
        return sum(self.sizes.values())


def read_config(path) -> dict[str, str]:
    config = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                config[key.strip()] = value.strip()
    return config


def _rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        yield from reader


def credit(institutions: list[str], scheme: str) -> list[float]:
    """Fractional authorship credit for one byline, as PAPER.md states it.

    Each author takes the strongest position it qualifies for (first/last,
    then second/penultimate, then the rest) and the raw shares are
    renormalised so a short byline still hands out exactly one unit.
    """
    count = len(institutions)
    if scheme == "uniform":
        return [1.0 / count] * count
    ends = {0, count - 1}
    if institutions[0] == institutions[-1]:
        middles = count - len(ends)
        raw = [0.40 if i in ends else 0.20 / middles for i in range(count)]
    else:
        near = {1, count - 2} & set(range(count)) - ends
        others = count - len(ends) - len(near)
        raw = [
            0.30 if i in ends else 0.15 if i in near else 0.10 / others
            for i in range(count)
        ]
    total = sum(raw)
    return [share / total for share in raw]


def expected_report(paths) -> Expected:
    """Reference FSS, exclusions and institution means for one input set."""
    config = read_config(paths["config"])
    salary = {
        rank: float(config[f"salary_coefficient_{rank.lower()}"])
        for rank in ("Assistant", "Associate", "Full")
    }
    min_years = int(config["min_years_active"])
    min_faculty = int(config["min_faculty"])
    scheme = config["weighting_scheme"]

    baseline = {
        (int(year), category): float(mean)
        for year, category, mean in _rows(paths["baselines"])
    }
    researchers = [
        (rid, inst, rank, int(years)) for rid, inst, _, rank, years in _rows(paths["researchers"])
    ]
    earned = {rid: 0.0 for rid, *_ in researchers}
    for _, year, category, cites, cell in _rows(paths["publications"]):
        slots = sorted(
            (int(pos), rid, inst)
            for pos, rid, inst in (part.split(":") for part in cell.split(";"))
        )
        shares = credit([inst for _, _, inst in slots], scheme)
        impact = int(cites) / baseline[(int(year), category)]
        for (_, rid, _), share in zip(slots, shares):
            if rid != "-":
                earned[rid] += impact * share

    members: dict[str, list[float]] = {}
    for rid, inst, rank, years in researchers:
        if years >= min_years:
            members.setdefault(inst, []).append(earned[rid] / salary[rank] / years)
    kept = sorted(inst for inst, values in members.items() if len(values) >= min_faculty)
    return Expected(
        institution_ids=tuple(kept),
        sizes={inst: len(members[inst]) for inst in kept},
        mean_fss={inst: sum(members[inst]) / len(members[inst]) for inst in kept},
    )


def _label(mean: float, inner: dict, outer: dict) -> str:
    if mean > outer["upper"]:
        return "above_outer"
    if mean > inner["upper"]:
        return "above_inner"
    if mean < outer["lower"]:
        return "below_outer"
    if mean < inner["lower"]:
        return "below_inner"
    return "within"


def check_report(text: str, expected: Expected) -> list[str]:
    """Every way the report disagrees with the reference; empty when correct."""
    try:
        return _report_problems(json.loads(text), expected)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report is not a readable assessment report: {exc!r}"]


def _report_problems(report: dict, expected: Expected) -> list[str]:
    institutions = report["institutions"]
    fit = report["fit"]
    problems = []
    ids = tuple(entry["id"] for entry in institutions)
    if ids != expected.institution_ids:
        problems.append(
            f"institution ids differ: {len(ids)} reported, "
            f"{len(expected.institution_ids)} expected"
        )
    if fit["total_n"] != expected.total_n:
        problems.append(f"total_n {fit['total_n']} != {expected.total_n}")
    if fit["group_count"] != len(expected.institution_ids):
        problems.append(
            f"group_count {fit['group_count']} != {len(expected.institution_ids)}"
        )

    means = sorted(entry["mean_transformed"] for entry in institutions)
    for entry in institutions:
        inst = entry["id"]
        if inst in expected.sizes:
            if entry["size"] != expected.sizes[inst]:
                problems.append(f"{inst}: size {entry['size']} != {expected.sizes[inst]}")
            want, got = expected.mean_fss[inst], entry["mean_original"]
            if abs(got - want) > RELATIVE_TOLERANCE * abs(want) or (want == 0) != (got == 0):
                problems.append(f"{inst}: mean_original {got!r} != reference {want!r}")
        label = _label(entry["mean_transformed"], entry["inner_band"], entry["outer_band"])
        if entry["classification"] != label:
            problems.append(
                f"{inst}: classification {entry['classification']!r} but its bands say {label!r}"
            )
        rank = 1 + len(means) - bisect_right(means, entry["mean_transformed"])
        if entry["rank_with_caveat"]["rank"] != rank:
            problems.append(
                f"{inst}: rank {entry['rank_with_caveat']['rank']} but its mean gives {rank}"
            )
    return problems


def check_svg(text: str) -> list[str]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"SVG is not well-formed XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"SVG root element is {root.tag!r}"]
    return []
