"""Seeded input generator for the fssfunnel benchmark.

Uses numpy and csv only and never imports ``fssfunnel``, so a refactor of the
package (including its own ``synth`` generator) cannot change the inputs. The
same (workload, seed, scale) always gives the same bytes.

Every publication year lies inside the configured observation period. Scoring
of out-of-period publications is a known open defect whose fix brings its own
oracle fixture; keeping the benchmark inside the period means that fix cannot
flip the benchmark's output check.

Counts (researchers, institutions, publications, byline lengths) are fixed per
workload, and the seed only moves identities, positions, citations and
tenure, so the amount of work barely changes from seed to seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PERIOD_START, PERIOD_END = 2008, 2012
RANKS = ("Assistant", "Associate", "Full")
RANK_PROBS = (0.35, 0.40, 0.25)
CATEGORIES = (
    "Biochemistry", "Genetics", "Immunology", "Neuroscience", "Oncology", "Pharmacology",
)
EXTERNAL_INSTITUTIONS = 300
# Share of bylines whose first and last author are forced to share an
# institution, so both positional credit rules occur.
INTRAMURAL_SHARE = 0.3
# years_active is drawn from 1..5; with min_years_active=3 the first two
# values (10%) fall to the researcher exclusion rule.
TENURE_PROBS = (0.04, 0.06, 0.20, 0.30, 0.40)

RESEARCHER_HEADER = ["researcher_id", "institution_id", "field_code", "rank", "years_active"]
PUBLICATION_HEADER = ["publication_id", "year", "subject_category", "citations", "authors"]
BASELINE_HEADER = ["year", "subject_category", "mean_citations"]
INPUT_NAMES = ("researchers", "publications", "baselines", "config")


@dataclass
class Population:
    """Researchers laid out institution by institution.

    Researcher ``i`` belongs to institution ``inst_of[i]``; institution ``j``
    holds researchers ``start[j] .. start[j] + size[j] - 1``.
    """

    size: np.ndarray
    start: np.ndarray
    inst_of: np.ndarray
    rank: np.ndarray
    tenure: np.ndarray
    field: np.ndarray

    @property
    def count(self) -> int:
        return int(self.size.sum())


@dataclass
class Bylines:
    """Publications in CSR form: slots ``offsets[p] .. offsets[p+1]-1`` in
    byline order; ``rid`` is -1 for an external author; ``inst`` codes below
    the population's institution count are assessed institutions, the rest are
    external ones."""

    offsets: np.ndarray
    rid: np.ndarray
    inst: np.ndarray


@dataclass
class Inputs:
    """Generated CSV and config text, ready to be written."""

    name: str
    seed: int
    texts: dict[str, str]

    def write(self, directory: Path) -> tuple[dict[str, Path], dict[str, str]]:
        """Write the four input files; return their paths and sha256 digests."""
        directory.mkdir(parents=True, exist_ok=True)
        paths, digests = {}, {}
        for key in INPUT_NAMES:
            path = directory / (f"{key}.txt" if key == "config" else f"{key}.csv")
            data = self.texts[key].encode("utf-8")
            path.write_bytes(data)
            paths[key] = path
            digests[key] = hashlib.sha256(data).hexdigest()
        return paths, digests


def institution_sizes(rng, count: int, total: int, sigma: float) -> np.ndarray:
    """Log-normal sizes, at least 1 each, summing to exactly ``total``."""
    raw = rng.lognormal(0.0, sigma, size=count)
    sizes = np.maximum(1, np.floor(raw / raw.sum() * total)).astype(np.int64)
    order = np.argsort(-raw, kind="stable")
    i = 0
    while sizes.sum() != total:
        j = order[i % count]
        if sizes.sum() < total:
            sizes[j] += 1
        elif sizes[j] > 1:
            sizes[j] -= 1
        i += 1
    return sizes


def population(rng, sizes: np.ndarray, tenure_probs=TENURE_PROBS) -> Population:
    sizes = np.asarray(sizes, dtype=np.int64)
    count = int(sizes.sum())
    start = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return Population(
        size=sizes,
        start=start,
        inst_of=np.repeat(np.arange(sizes.size), sizes),
        rank=rng.choice(len(RANKS), size=count, p=RANK_PROBS),
        tenure=1 + rng.choice(len(tenure_probs), size=count, p=tenure_probs),
        field=rng.integers(len(CATEGORIES), size=count),
    )


def short_bylines(rng, pop: Population, leads, lengths, extra) -> Bylines:
    """Bylines of the given lengths, each holding its lead researcher plus
    ``extra`` colleagues from the lead's institution at random positions; the
    other slots are external authors."""
    leads = np.asarray(leads, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    pubs = leads.size
    lead_inst = pop.inst_of[leads]
    assessed_count = np.minimum(1 + np.asarray(extra), np.minimum(lengths, pop.size[lead_inst]))

    offsets = np.concatenate([[0], np.cumsum(lengths)])
    total = int(offsets[-1])
    pub_of = np.repeat(np.arange(pubs), lengths)
    # Rank the slots of each byline by a random key; the lowest ranks hold the
    # assessed authors, so their positions are uniform and distinct.
    order = np.lexsort((rng.random(total), pub_of))
    rank = np.empty(total, dtype=np.int64)
    rank[order] = np.arange(total) - offsets[pub_of[order]]
    assessed = rank < assessed_count[pub_of]

    rid = np.full(total, -1, dtype=np.int64)
    p = pub_of[assessed]
    home = lead_inst[p]
    local = leads[p] - pop.start[home]
    rid[assessed] = pop.start[home] + (local + rank[assessed]) % pop.size[home]

    inst = pop.size.size + rng.integers(EXTERNAL_INSTITUTIONS, size=total)
    inst[assessed] = pop.inst_of[rid[assessed]]
    _force_intramural(rng, offsets, rid, inst)
    return Bylines(offsets, rid, inst)


def _force_intramural(rng, offsets, rid, inst) -> None:
    pubs = offsets.size - 1
    first, last = offsets[:-1], offsets[1:] - 1
    chosen = (rng.random(pubs) < INTRAMURAL_SHARE) & (last > first)
    to_first = chosen & (rid[first] < 0)
    inst[first[to_first]] = inst[last[to_first]]
    to_last = chosen & ~to_first & (rid[last] < 0)
    inst[last[to_last]] = inst[first[to_last]]


def citations(rng, count: int, mean: float) -> np.ndarray:
    """Over-dispersed counts with a share of uncited papers."""
    return rng.negative_binomial(1, 1.0 / (1.0 + mean), size=count)


def render_inputs(name, seed, rng, pop: Population, bylines: Bylines, pub_citations,
                  config: dict[str, str]) -> Inputs:
    years = list(range(PERIOD_START, PERIOD_END + 1))
    baselines = [
        [str(year), category, f"{rng.uniform(5.0, 30.0):.2f}"]
        for year in years for category in CATEGORIES
    ]
    pubs = bylines.offsets.size - 1
    pub_year = PERIOD_START + rng.integers(len(years), size=pubs)
    pub_category = rng.integers(len(CATEGORIES), size=pubs)

    rid_text = [f"r{i:06d}" for i in range(pop.count)]
    inst_text = [f"u{j:05d}" for j in range(pop.size.size)]
    inst_text += [f"x{k:03d}" for k in range(EXTERNAL_INSTITUTIONS)]

    researchers = [
        [rid_text[i], inst_text[j], CATEGORIES[f], RANKS[r], str(t)]
        for i, (j, f, r, t) in enumerate(
            zip(pop.inst_of.tolist(), pop.field.tolist(), pop.rank.tolist(),
                pop.tenure.tolist())
        )
    ]
    slots = [
        f"{rid_text[r] if r >= 0 else '-'}:{inst_text[j]}"
        for r, j in zip(bylines.rid.tolist(), bylines.inst.tolist())
    ]
    offsets = bylines.offsets.tolist()
    publications = []
    for p in range(pubs):
        lo, hi = offsets[p], offsets[p + 1]
        cell = ";".join(f"{pos}:{slot}" for pos, slot in enumerate(slots[lo:hi], start=1))
        publications.append([
            f"p{p:07d}", str(int(pub_year[p])), CATEGORIES[int(pub_category[p])],
            str(int(pub_citations[p])), cell,
        ])

    config_text = "".join(f"{key}={value}\n" for key, value in config.items())
    return Inputs(name, seed, {
        "researchers": _csv_text(RESEARCHER_HEADER, researchers),
        "publications": _csv_text(PUBLICATION_HEADER, publications),
        "baselines": _csv_text(BASELINE_HEADER, baselines),
        "config": f"# fssfunnel benchmark workload {name}, seed {seed}\n" + config_text,
    })


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def base_config(**overrides) -> dict[str, str]:
    config = {
        "period_start": str(PERIOD_START),
        "period_end": str(PERIOD_END),
        "min_years_active": "3",
        "min_faculty": "5",
        "salary_coefficient_assistant": "1.0",
        "salary_coefficient_associate": "1.4",
        "salary_coefficient_full": "2.0",
        "weighting_scheme": "life_science",
    }
    config.update({key: str(value) for key, value in overrides.items()})
    return config


def _scaled(value: int, scale: float, minimum: int) -> int:
    return max(minimum, int(round(value * scale)))


def bulk(seed: int, scale: float = 1.0) -> Inputs:
    """The ordinary national exercise: many researchers, many short bylines."""
    rng = np.random.default_rng([seed, 1])
    researchers = _scaled(10_000, scale, 60)
    institutions = _scaled(200, scale, 6)
    pubs = _scaled(18_000, scale, 100)
    pop = population(rng, institution_sizes(rng, institutions, researchers, sigma=1.0))
    leads = rng.integers(pop.count, size=pubs)
    lengths = rng.integers(1, 13, size=pubs)
    extra = rng.choice(4, size=pubs, p=(0.70, 0.20, 0.07, 0.03))
    bylines = short_bylines(rng, pop, leads, lengths, extra)
    return render_inputs("bulk", seed, rng, pop, bylines, citations(rng, pubs, 12.0),
                         base_config())


def hyperauthor(seed: int, scale: float = 1.0) -> Inputs:
    """A few consortium papers whose byline lists every assessed researcher,
    beside ordinary short papers."""
    rng = np.random.default_rng([seed, 2])
    institutions = _scaled(24, scale, 6)
    pop = population(rng, np.full(institutions, 50))
    ordinary = _scaled(2_800, scale, 50)
    leads = rng.integers(pop.count, size=ordinary)
    lengths = rng.integers(1, 9, size=ordinary)
    extra = rng.choice(2, size=ordinary, p=(0.8, 0.2))
    short = short_bylines(rng, pop, leads, lengths, extra)

    consortium, externals = 2, 40
    offsets = list(short.offsets)
    rid, inst = [short.rid], [short.inst]
    for c in range(consortium):
        members = rng.permutation(pop.count)
        byline_rid = np.insert(
            members, np.sort(rng.integers(0, pop.count + 1, size=externals)), -1
        )
        byline_inst = np.where(
            byline_rid >= 0,
            pop.inst_of[np.maximum(byline_rid, 0)],
            institutions + rng.integers(EXTERNAL_INSTITUTIONS, size=byline_rid.size),
        )
        # A trailing external author: half the consortium papers follow the
        # intramural credit rule, the other half the extramural one.
        outside = institutions + EXTERNAL_INSTITUTIONS - 1
        if c % 2 == 0:
            last = byline_inst[0]
        else:
            last = outside if byline_inst[0] != outside else institutions
        byline_rid = np.append(byline_rid, -1)
        byline_inst = np.append(byline_inst, last)
        rid.append(byline_rid)
        inst.append(byline_inst)
        offsets.append(offsets[-1] + byline_rid.size)
    bylines = Bylines(np.asarray(offsets), np.concatenate(rid), np.concatenate(inst))
    pub_citations = np.concatenate([
        citations(rng, ordinary, 12.0), rng.integers(500, 3_000, size=consortium)
    ])
    return render_inputs("hyperauthor", seed, rng, pop, bylines, pub_citations,
                         base_config())


def wide(seed: int, scale: float = 1.0) -> Inputs:
    """Many tiny institutions on one funnel, in the non-default transform and
    grand-mean modes."""
    rng = np.random.default_rng([seed, 3])
    institutions = _scaled(2_400, scale, 8)
    pop = population(rng, rng.integers(2, 4, size=institutions),
                     tenure_probs=(0.01, 0.02, 0.27, 0.30, 0.40))
    leads = np.arange(pop.count)
    lengths = rng.integers(1, 5, size=pop.count)
    bylines = short_bylines(rng, pop, leads, lengths, np.zeros(pop.count, dtype=np.int64))
    config = base_config(
        min_faculty=2,
        grand_mean_mode="group_means",
        skewness_target="institution_means",
    )
    return render_inputs("wide", seed, rng, pop, bylines,
                         citations(rng, pop.count, 12.0), config)


WORKLOADS = {"bulk": bulk, "hyperauthor": hyperauthor, "wide": wide}


def generate(name: str, seed: int, scale: float = 1.0) -> Inputs:
    return WORKLOADS[name](seed, scale)
