"""Synthetic CSV fixtures for the ``synth`` command.

Every draw comes from one ``random.Random(seed)``, so one seed always gives
the same bytes. ``cli.main`` imports this module only for ``synth``: an
``assess`` run never compiles or loads it.
"""

from __future__ import annotations

import csv
import io
import math
import random
from pathlib import Path

from .cli import BASELINE_HEADER, PUBLICATION_HEADER, RESEARCHER_HEADER, _write_all
from .errors import IoError
from .indicator import fractional_weights
from .model import AssessmentConfig, AuthorSlot, Rank


def solve_shifted_lognormal(mean: float, sd: float, skewness: float):
    """Parameters (theta, mu, sigma) of theta + LogNormal(mu, sigma) matching
    the requested mean, SD, and (positive) skewness."""
    if sd <= 0 or skewness <= 0:
        raise ValueError("sd and skewness must be positive")
    target = skewness**2

    def excess(w: float) -> float:
        return (w + 2.0) ** 2 * (w - 1.0) - target

    lo, hi = 1.0 + 1e-12, 2.0
    while excess(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)

    sigma = math.sqrt(math.log(w))
    scale = sd / math.sqrt(w * (w - 1.0))
    theta = mean - scale * math.sqrt(w)
    return theta, math.log(scale), sigma


def draw_fss_sample(
    rng: random.Random, count: int, mean: float, sd: float, skewness: float
) -> list[float]:
    """Shifted-lognormal draws clipped at zero (mirrors nil-productivity cases)."""
    theta, mu, sigma = solve_shifted_lognormal(mean, sd, skewness)
    return [max(theta + math.exp(rng.gauss(mu, sigma)), 0.0) for _ in range(count)]


def _institution_sizes(
    rng: random.Random, count: int, size_min: int, size_max: int, total: int
) -> list[int]:
    total = min(max(total, count * size_min), count * size_max)
    raw = [math.exp(rng.gauss(0.0, 0.55)) for _ in range(count)]
    scale = total / math.fsum(raw)
    sizes = [min(max(round(r * scale), size_min), size_max) for r in raw]
    # Step random sizes, within their bounds, until they add up to the total.
    missing = total - sum(sizes)
    while missing:
        index = rng.randrange(count)
        step = 1 if missing > 0 else -1
        if size_min <= sizes[index] + step <= size_max:
            sizes[index] += step
            missing -= step
    return sizes


_RANKS = tuple(Rank)
_RANK_PROBS = (0.35, 0.40, 0.25)


def generate_synthetic_dataset(
    out_dir: str,
    institutions: int = 42,
    size_min: int = 5,
    size_max: int = 61,
    total_researchers: int = 877,
    mean: float = 0.25,
    sd: float = 0.34,
    skewness: float = 3.1,
    institution_effect_sd: float = 0.0,
    seed: int = 12345,
) -> dict[str, str]:
    """Write a researchers/publications/baselines/config fixture under out_dir,
    for the default AssessmentConfig, which the written config file repeats.

    Each researcher's publications are reverse-engineered so the pipeline
    reproduces a target productivity drawn from the requested distribution:
    the researcher sits at a random byline position among unassessed
    co-authors, and citation counts are rounded to hit the target through the
    positional weight, salary coefficient, and years active.
    """
    if institutions < 1:
        raise ValueError("institutions must be >= 1")
    if not (1 <= size_min <= size_max):
        raise ValueError("need 1 <= size_min <= size_max")
    config = AssessmentConfig()
    rng = random.Random(seed)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(out_dir, exc.strerror or str(exc)) from exc

    years = list(range(config.period_start, config.period_end + 1))
    baselines = {year: round(rng.uniform(8.0, 25.0), 2) for year in years}
    category = "Biochemistry"

    sizes = _institution_sizes(rng, institutions, size_min, size_max, total_researchers)
    targets = draw_fss_sample(rng, sum(sizes), mean, sd, skewness)

    researcher_rows = []
    publication_rows = []
    for j, size in enumerate(sizes, start=1):
        inst = f"u{j:02d}"
        effect = (
            math.exp(rng.gauss(0.0, institution_effect_sd))
            if institution_effect_sd > 0
            else 1.0
        )
        for _ in range(size):
            target = targets[len(researcher_rows)] * effect
            rid = f"r{len(researcher_rows) + 1:04d}"
            rank = rng.choices(_RANKS, _RANK_PROBS)[0]
            salary = config.salary_coefficients[rank]
            tenure = rng.randint(config.min_years_active, config.period_length)
            researcher_rows.append([rid, inst, category, rank.value, str(tenure)])
            _append_publications(
                publication_rows, rng, rid, inst, target, salary, tenure,
                years, baselines, category,
            )

    # The config file repeats the integer fields: the period and the exclusion thresholds.
    settings = [f"{n}={v}\n" for n, v in zip(config._fields, config._values()) if isinstance(v, int)]
    paths = {
        "researchers": str(out / "researchers.csv"),
        "publications": str(out / "publications.csv"),
        "baselines": str(out / "baselines.csv"),
        "config": str(out / "config.txt"),
    }
    _write_all({
        paths["researchers"]: lambda: _csv_text(RESEARCHER_HEADER, researcher_rows),
        paths["publications"]: lambda: _csv_text(PUBLICATION_HEADER, publication_rows),
        paths["baselines"]: lambda: _csv_text(
            BASELINE_HEADER,
            [[str(year), category, f"{baselines[year]:g}"] for year in years],
        ),
        paths["config"]: lambda: "".join(["# synthetic fixture configuration\n", *settings]),
    })
    return paths


def _append_publications(
    rows, rng, rid, inst, target, salary, tenure, years, baselines, category
) -> None:
    if target <= 0:
        if rng.random() < 0.5:
            return  # no publications at all
        byline, _ = _random_byline(rng, rid, inst)
        rows.append(
            [f"p{len(rows) + 1:05d}", str(rng.choice(years)), category, "0",
             _format_byline(byline)]
        )
        return

    shares = [rng.random() for _ in range(rng.randint(1, 3))]
    budget = target * salary * tenure / math.fsum(shares)
    for share in shares:
        byline, index = _random_byline(rng, rid, inst)
        weight = fractional_weights(byline)[index]
        year = rng.choice(years)
        citations = max(0, round(share * budget * baselines[year] / weight))
        rows.append(
            [f"p{len(rows) + 1:05d}", str(year), category, str(citations),
             _format_byline(byline)]
        )


def _random_byline(rng, rid, inst) -> tuple[tuple[AuthorSlot, ...], int]:
    """A byline among unassessed co-authors, and the index of ``rid``'s slot."""
    count = rng.randint(1, 8)
    position = rng.randrange(count)
    slots = []
    for i in range(count):
        if i == position:
            slots.append(AuthorSlot(i + 1, rid, inst))
        else:
            slots.append(AuthorSlot(i + 1, None, f"ext{rng.randint(1, 29):02d}"))
    # Force some intra-mural bylines so both weighting rules are exercised.
    if count >= 2 and rng.random() < 0.3:
        first, last = slots[0], slots[-1]
        if first.researcher_id is None:
            slots[0] = AuthorSlot(1, None, last.institution_id)
        elif last.researcher_id is None:
            slots[-1] = AuthorSlot(count, None, first.institution_id)
    return tuple(slots), position


def _format_byline(slots) -> str:
    return ";".join(
        f"{s.position}:{s.researcher_id or '-'}:{s.institution_id}" for s in slots
    )


def _csv_text(header: list[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
