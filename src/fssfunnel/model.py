"""Domain records, dataset validation, and the exclusion rules.

The assessable population is defined in two ordered steps: researchers with
too few years on faculty are dropped first, then institutions whose remaining
faculty is too small. Both thresholds live in :class:`AssessmentConfig`.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from numbers import Real
from operator import attrgetter, index

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
        # As AssessmentConfig coerces its Enum fields: a member passes, a
        # value maps to its member and anything else raises ValueError.
        if not isinstance(self.rank, Rank):
            object.__setattr__(self, "rank", Rank(self.rank))


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
        if self.researcher_id is not None and not self.researcher_id.strip():
            raise ValueError("researcher_id must be None or not blank")
        if not self.institution_id.strip():
            raise ValueError("institution_id must not be blank")


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    publication_id: str
    year: int
    subject_category: str
    citations: int
    authors: tuple[AuthorSlot, ...]
    # ``first_slot``'s map, kept only when it holds more than one researcher.
    _first_slots: dict[str, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.citations < 0:
            raise ValueError(f"citations must be >= 0, got {self.citations}")
        if self.year < 0:
            raise ValueError(f"year must be >= 0, got {self.year}")
        if not self.publication_id.strip():
            raise ValueError("publication_id must not be blank")
        if type(self.authors) is not tuple:
            object.__setattr__(self, "authors", tuple(self.authors))

    def first_slot(self, researcher_id: str) -> int:
        """Index of the researcher's first byline slot; KeyError if it has none.

        One walk maps each assessed id to its first slot. The map is kept only
        if it holds more than one researcher, so a byline read by all of its
        authors is walked once and the usual one-researcher byline keeps none."""
        slots = self._first_slots
        if slots is None:
            slots = {}
            for i, slot in enumerate(self.authors):
                if slot.researcher_id is not None:
                    slots.setdefault(slot.researcher_id, i)
            if len(slots) > 1:
                object.__setattr__(self, "_first_slots", slots)
        return slots[researcher_id]


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


def _as_type_of(default, value, name: str):
    """``value`` as the type of ``default``, the default of the config field
    ``name``; TypeError or ValueError, naming the field, if it is not one."""
    if isinstance(default, Enum):
        # A member passes, a value maps to its member, anything else is a ValueError.
        return type(default)(value)
    if isinstance(default, int):
        return index(value)  # any integer, numpy's too; TypeError on 2008.0
    if isinstance(default, float):
        if not isinstance(value, Real):
            raise TypeError(f"{name} must be a real number, got {value!r}")
        value = float(value)
        # NaN slips past every range check, and JSON holds neither it nor inf.
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        return value
    if isinstance(default, tuple):
        value = tuple(value)
        if len(value) != len(default):
            raise ValueError(f"{name} needs {len(default)} values, got {len(value)}")
        return tuple(_as_type_of(d, v, name) for d, v in zip(default, value))
    # An Enum-keyed dict in the default's order, whatever the caller's: byte-stable reports.
    return {key: _as_type_of(d, value[key], name) for key, d in default.items() if key in value}


@dataclass(frozen=True)
class AssessmentConfig:
    """Every run option. The fields, in order, are the schema of the config
    file and of the report's ``config`` block. Each value is held as the type
    of its field's default (see ``_as_type_of``): an Enum field also accepts
    its members' string values, and a float field any real number."""

    period_start: int = 2008
    period_end: int = 2012
    min_years_active: int = 3
    min_faculty: int = 5
    # Spelled salary_coefficient_<rank> in the config file, one key per rank.
    salary_coefficients: dict[Rank, float] = field(
        default_factory=lambda: dict(DEFAULT_SALARY_COEFFICIENTS),
        metadata={"key_prefix": "salary_coefficient_"},
    )
    band_z_levels: tuple[float, float] = (2.0, 3.0)
    delta_bracket: tuple[float, float] = (1e-9, 10.0)
    skewness_tolerance: float = 1e-9
    weighting_scheme: WeightingScheme = WeightingScheme.LIFE_SCIENCE
    grand_mean_mode: GrandMeanMode = GrandMeanMode.INDIVIDUALS
    skewness_target: SkewnessTarget = SkewnessTarget.INDIVIDUALS

    def __post_init__(self):
        for f in fields(self):
            default = f.default_factory() if f.default is MISSING else f.default
            object.__setattr__(self, f.name, _as_type_of(default, getattr(self, f.name), f.name))
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
        if min(self.band_z_levels) <= 0:
            raise ValueError("band_z_levels needs exactly two positive levels")
        if self.inner_z >= self.outer_z:
            raise ValueError("band_z_levels must be strictly increasing")
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
        return self.band_z_levels[1]


@dataclass
class AssessablePopulation:
    """Researchers kept after the exclusion rules: institution id -> its
    members, institutions in id order and members in researcher-id order."""

    institutions: dict[str, tuple[ResearcherRecord, ...]]
    dropped_researchers: int
    dropped_institutions: int


_PUBLICATION_ID = attrgetter("publication_id")
_RESEARCHER_ID = attrgetter("researcher_id")


def validate_dataset(
    researchers: list[ResearcherRecord],
    publications: list[PublicationRecord],
    baselines: CitationBaseline,
    config: AssessmentConfig,
) -> dict[str, tuple[PublicationRecord, ...]]:
    """Check cross-record consistency and collect every violation found.

    Also checks every researcher's ``years_active`` against the length of the
    configured observation period. A publication dated outside that period
    gets its byline checks but needs no baseline, because it is never
    scored. Raises :class:`ValidationErrors` carrying all problems, period
    violations first; on success returns the index from researcher id to
    the publications that list it, in publication-id order. A researcher
    with no publications is not a key. Inputs are never mutated.
    """
    errors: list[DataViolation] = [
        YearsOutOfRange(r.researcher_id, r.years_active, config.period_length)
        for r in researchers
        if r.years_active > config.period_length
    ]

    known_ids = {rec.researcher_id for rec in researchers}
    # The one id set says whether any id repeats; only then is the walk that
    # names the repeats worth a second set.
    if len(known_ids) < len(researchers):
        errors.extend(
            DuplicateResearcherId(rid) for rid in _repeated(r.researcher_id for r in researchers)
        )
    errors.extend(
        DuplicatePublicationId(pid) for pid in _repeated(p.publication_id for p in publications)
    )

    missing_baselines: set[tuple[int, str]] = set()
    by_researcher: dict[str, list[PublicationRecord] | tuple[PublicationRecord, ...]] = {}
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
    # Publication-id order makes each FSS sum independent of row order; a
    # tuple drops the spare capacity a list would keep through scoring. Each
    # list is replaced in place, so it is freed before the next is copied.
    for rid, pubs in by_researcher.items():
        pubs.sort(key=_PUBLICATION_ID)
        by_researcher[rid] = tuple(pubs)
    return by_researcher


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


def apply_exclusions(
    researchers: list[ResearcherRecord], config: AssessmentConfig
) -> AssessablePopulation:
    """Drop short-tenure researchers, then undersized institutions, in that order.

    The one place researchers are grouped by institution; sorting each group
    by researcher id makes the funnel's sums independent of row order.
    """
    groups: dict[str, list[ResearcherRecord]] = {}
    dropped_researchers = 0
    for rec in researchers:
        if rec.years_active >= config.min_years_active:
            groups.setdefault(rec.institution_id, []).append(rec)
        else:
            dropped_researchers += 1
    institutions = {
        inst: tuple(sorted(groups[inst], key=_RESEARCHER_ID))
        for inst in sorted(groups)
        if len(groups[inst]) >= config.min_faculty
    }
    if not institutions:
        raise EmptyPopulation(
            "no institution meets the faculty-size threshold after exclusions"
        )
    return AssessablePopulation(institutions, dropped_researchers, len(groups) - len(institutions))
