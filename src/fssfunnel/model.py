"""Domain records, dataset validation, and the exclusion rules.

The assessable population is defined in two ordered steps: researchers with
too few years on faculty are dropped first, then institutions whose remaining
faculty is too small. Both thresholds live in :class:`AssessmentConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

from .errors import (
    DataViolation,
    DuplicatePublicationId,
    DuplicateResearcherId,
    EmptyPopulation,
    MalformedAuthorList,
    MissingBaseline,
    UnknownResearcherRef,
    ValidationErrors,
    YearsOutOfRange,
)


class Rank(Enum):
    ASSISTANT = "Assistant"
    ASSOCIATE = "Associate"
    FULL = "Full"


class WeightingScheme(Enum):
    """How co-author credit is split: by byline position or uniformly."""

    LIFE_SCIENCE = "life_science"
    UNIFORM = "uniform"


class GrandMeanMode(Enum):
    """Which mean the funnel bands are centred on."""

    # Mean of all individuals: the least-squares-consistent grand mean.
    INDIVIDUALS = "individuals"
    # Unweighted mean of the institution means.
    GROUP_MEANS = "group_means"


class SkewnessTarget(Enum):
    """Which sample the log shift is tuned to make symmetric."""

    INDIVIDUALS = "individuals"
    INSTITUTION_MEANS = "institution_means"


@dataclass(frozen=True, slots=True)
class ResearcherRecord:
    researcher_id: str
    institution_id: str
    field_code: str
    rank: Rank
    years_active: int

    def __post_init__(self):
        if self.years_active < 0:
            raise ValueError(f"years_active must be >= 0, got {self.years_active}")
        if not self.researcher_id.strip() or not self.institution_id.strip():
            raise ValueError("researcher_id and institution_id must not be blank")


@dataclass(frozen=True, slots=True)
class AuthorSlot:
    """One byline position. ``researcher_id`` is None for authors outside
    the assessed population; ``institution_id`` is the affiliation on this
    publication."""

    position: int
    researcher_id: str | None
    institution_id: str

    def __post_init__(self):
        if self.position < 1:
            raise ValueError(f"position must be >= 1, got {self.position}")


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    publication_id: str
    year: int
    subject_category: str
    citations: int
    authors: tuple[AuthorSlot, ...]
    # Filled by ``first_slots`` on first use.
    _first_slots: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.citations < 0:
            raise ValueError(f"citations must be >= 0, got {self.citations}")
        object.__setattr__(self, "authors", tuple(self.authors))

    @property
    def first_slots(self) -> dict[str, int]:
        """Researcher id -> index of that researcher's first byline slot.
        Built on first use; authors outside the population are not keys."""
        index = self._first_slots
        if index is None:
            index = {}
            for i, slot in enumerate(self.authors):
                if slot.researcher_id is not None:
                    index.setdefault(slot.researcher_id, i)
            object.__setattr__(self, "_first_slots", index)
        return index


@dataclass(frozen=True)
class CitationBaseline:
    """Mean citations of cited publications, keyed by (year, subject category)."""

    entries: dict[tuple[int, str], float]

    def __post_init__(self):
        for key, mean in self.entries.items():
            if not math.isfinite(mean) or mean <= 0:
                raise ValueError(
                    f"baseline mean for {key} must be finite and > 0, got {mean}"
                )

    def lookup(self, year: int, subject_category: str) -> float:
        try:
            return self.entries[(year, subject_category)]
        except KeyError:
            raise MissingBaseline(year, subject_category) from None

    def __contains__(self, key: tuple[int, str]) -> bool:
        return key in self.entries


DEFAULT_SALARY_COEFFICIENTS = {
    Rank.ASSISTANT: 1.0,
    Rank.ASSOCIATE: 1.4,
    Rank.FULL: 2.0,
}


@dataclass(frozen=True)
class AssessmentConfig:
    """Every run option. The fields, in order, are the schema of the config
    file and of the report's ``config`` block. An Enum field also accepts its
    members' string values."""

    period_start: int = 2008
    period_end: int = 2012
    min_years_active: int = 3
    min_faculty: int = 5
    # Spelled salary_coefficient_<rank> in the config file, one key per rank.
    salary_coefficients: dict[Rank, float] = field(
        default_factory=lambda: dict(DEFAULT_SALARY_COEFFICIENTS),
        metadata={"key_prefix": "salary_coefficient_"},
    )
    band_z_levels: tuple[float, ...] = (2.0, 3.0)
    delta_bracket: tuple[float, float] = (1e-9, 10.0)
    skewness_tolerance: float = 1e-9
    weighting_scheme: WeightingScheme = WeightingScheme.LIFE_SCIENCE
    grand_mean_mode: GrandMeanMode = GrandMeanMode.INDIVIDUALS
    skewness_target: SkewnessTarget = SkewnessTarget.INDIVIDUALS

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, Enum):
                # The Enum call returns a member unchanged, maps a value to
                # its member and raises ValueError on anything else.
                object.__setattr__(self, f.name, type(f.default)(value))
                continue
            if isinstance(value, dict):
                value = value.values()
            elif not isinstance(value, (tuple, list)):
                value = (value,)
            for item in value:
                # NaN slips past every check below, and JSON holds neither it nor inf.
                if isinstance(item, float) and not math.isfinite(item):
                    raise ValueError(f"{f.name} must be finite, got {item}")
        if self.period_end < self.period_start:
            raise ValueError("period_end must be >= period_start")
        if self.min_years_active < 1:
            raise ValueError("min_years_active must be >= 1")
        if self.min_faculty < 1:
            raise ValueError("min_faculty must be >= 1")
        for rank in Rank:
            coeff = self.salary_coefficients.get(rank)
            if coeff is None or coeff <= 0:
                raise ValueError(f"salary coefficient for {rank.value} must be > 0")
        # Rank order, whatever the caller's, keeps the report byte-stable.
        object.__setattr__(
            self, "salary_coefficients", {rank: self.salary_coefficients[rank] for rank in Rank}
        )
        levels = tuple(self.band_z_levels)
        if len(levels) < 2 or any(z <= 0 for z in levels):
            raise ValueError("band_z_levels needs at least two positive levels")
        if any(b >= a for a, b in zip(levels[1:], levels)):
            raise ValueError("band_z_levels must be strictly increasing")
        # As floats, so levels given as ints report as a config file's do.
        object.__setattr__(self, "band_z_levels", tuple(float(z) for z in levels))
        lo, hi = self.delta_bracket
        if not (0 < lo < hi):
            raise ValueError("delta_bracket must be a positive increasing interval")
        if self.skewness_tolerance <= 0:
            raise ValueError("skewness_tolerance must be > 0")

    @property
    def period_length(self) -> int:
        return self.period_end - self.period_start + 1

    @property
    def inner_z(self) -> float:
        return self.band_z_levels[0]

    @property
    def outer_z(self) -> float:
        return self.band_z_levels[-1]


@dataclass
class ValidatedDataset:
    """Built by :func:`validate_dataset`, which also indexes each researcher's
    publications in input order."""

    researchers: tuple[ResearcherRecord, ...]
    publications: tuple[PublicationRecord, ...]
    baselines: CitationBaseline
    _by_researcher: dict[str, tuple[PublicationRecord, ...]] = field(repr=False)

    def publications_for(self, researcher_id: str) -> tuple[PublicationRecord, ...]:
        return self._by_researcher.get(researcher_id, ())


@dataclass
class AssessablePopulation:
    """Researchers kept after the exclusion rules, grouped by institution."""

    researchers: tuple[ResearcherRecord, ...]
    dropped_researchers: int
    dropped_institutions: int

    def __post_init__(self):
        self.researchers = tuple(self.researchers)
        groups: dict[str, list[ResearcherRecord]] = {}
        for rec in self.researchers:
            groups.setdefault(rec.institution_id, []).append(rec)
        self.institutions: dict[str, tuple[ResearcherRecord, ...]] = {
            inst: tuple(members) for inst, members in sorted(groups.items())
        }


def validate_dataset(
    researchers: list[ResearcherRecord],
    publications: list[PublicationRecord],
    baselines: CitationBaseline,
    config: AssessmentConfig,
) -> ValidatedDataset:
    """Check cross-record consistency and collect every violation found.

    Also checks every researcher's ``years_active`` against the length of the
    configured observation period. A publication dated outside that period
    gets its byline checks but needs no baseline, because it is never
    scored. Raises :class:`ValidationErrors` carrying
    all problems, period violations first; on success returns a dataset
    holding exactly the input records. Inputs are never mutated.
    """
    errors: list[DataViolation] = [
        YearsOutOfRange(r.researcher_id, r.years_active, config.period_length)
        for r in researchers
        if r.years_active > config.period_length
    ]

    errors.extend(
        DuplicateResearcherId(rid) for rid in _repeated(r.researcher_id for r in researchers)
    )
    errors.extend(
        DuplicatePublicationId(pid) for pid in _repeated(p.publication_id for p in publications)
    )

    known_ids = {rec.researcher_id for rec in researchers}
    missing_baselines: set[tuple[int, str]] = set()
    by_researcher: dict[str, list[PublicationRecord]] = {}
    for pub in publications:
        listed = [s.researcher_id for s in pub.authors if s.researcher_id is not None]
        errors.extend(_author_list_violations(pub, listed, known_ids))
        for rid in listed:
            by_researcher.setdefault(rid, []).append(pub)
        if not config.period_start <= pub.year <= config.period_end:
            continue  # never scored, so it needs no baseline
        key = (pub.year, pub.subject_category)
        if key not in baselines and key not in missing_baselines:
            missing_baselines.add(key)
            errors.append(MissingBaseline(pub.year, pub.subject_category))

    if errors:
        raise ValidationErrors(errors)
    # A short list keeps spare capacity, which would stay allocated through scoring.
    index = {rid: tuple(pubs) for rid, pubs in by_researcher.items()}
    return ValidatedDataset(tuple(researchers), tuple(publications), baselines, index)


def _repeated(ids) -> list[str]:
    """Each id that occurs more than once, in the order of its second
    occurrence."""
    seen: set[str] = set()
    repeated: dict[str, None] = {}
    for item in ids:
        if item in seen:
            repeated[item] = None
        seen.add(item)
    return list(repeated)


def _author_list_violations(
    pub: PublicationRecord, listed: list[str], known_ids: set[str]
) -> list[DataViolation]:
    """The byline's violations; ``listed`` holds its assessed ids in order."""
    errors: list[DataViolation] = []
    if not pub.authors:
        errors.append(MalformedAuthorList(pub.publication_id, "empty author list"))
        return errors
    for i, slot in enumerate(pub.authors):
        if slot.position != i + 1:
            errors.append(
                MalformedAuthorList(
                    pub.publication_id,
                    f"author positions must run 1..{len(pub.authors)} in byline "
                    f"order; slot {i} has position {slot.position}",
                )
            )
            break
    # Most bylines repeat no one, and one set says so at C speed.
    duplicated = set(_repeated(listed)) if len(set(listed)) != len(listed) else set()
    for rid in sorted(duplicated):
        errors.append(
            MalformedAuthorList(
                pub.publication_id, f"researcher {rid!r} occupies multiple author slots"
            )
        )
    for rid in listed:
        if rid not in known_ids and rid not in duplicated:
            errors.append(UnknownResearcherRef(pub.publication_id, rid))
    return errors


def apply_exclusions(dataset, config: AssessmentConfig) -> AssessablePopulation:
    """Drop short-tenure researchers, then undersized institutions, in that order.

    Accepts anything exposing a ``researchers`` sequence, so applying it to its
    own output is a no-op on membership (idempotence).
    """
    researchers = tuple(dataset.researchers)
    kept = [r for r in researchers if r.years_active >= config.min_years_active]
    dropped_researchers = len(researchers) - len(kept)

    sizes: dict[str, int] = {}
    for rec in kept:
        sizes[rec.institution_id] = sizes.get(rec.institution_id, 0) + 1
    large_enough = {inst for inst, n in sizes.items() if n >= config.min_faculty}
    dropped_institutions = len(sizes) - len(large_enough)

    final = tuple(r for r in kept if r.institution_id in large_enough)
    if not final:
        raise EmptyPopulation(
            "no institution meets the faculty-size threshold after exclusions"
        )
    return AssessablePopulation(final, dropped_researchers, dropped_institutions)
