"""Domain records, dataset validation, and the exclusion rules.

The assessable population is defined in two ordered steps: researchers with
too few years on faculty are dropped first, then institutions whose remaining
faculty is too small. Both thresholds live in :class:`AssessmentConfig`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from numbers import Real
from operator import index

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
    _shown,
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


class _Record:
    """A frozen dataclass's contract (equality, hash and repr by field, no
    assignment) without the code that ``dataclasses`` compiles at import. A
    subclass names its fields in ``_fields``; its ``__init__`` sets them."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        """A new record with the named fields changed, checked as any other."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _setters(cls: type) -> list:
    """Each slot's member-descriptor ``__set__``: it writes as
    ``object.__setattr__`` does, without a lookup by name per call."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


# A byline of at most this many slots keeps no researcher -> first slot map.
_SCANNED_BYLINE = 32


class ResearcherRecord(_Record):
    _fields = ("researcher_id", "institution_id", "field_code", "rank", "years_active")
    __slots__ = _fields

    def __init__(
        self, researcher_id: str, institution_id: str, field_code: str, rank: Rank, years_active: int
    ):
        if years_active < 0:
            raise ValueError(f"years_active must be >= 0, got {years_active}")
        if not researcher_id.strip() or not institution_id.strip():
            raise ValueError("researcher_id and institution_id must not be blank")
        _set_rid(self, researcher_id)
        _set_inst(self, institution_id)
        _set_field(self, field_code)
        # As AssessmentConfig coerces its Enum fields: a member passes, a
        # value maps to its member and anything else raises ValueError.
        _set_rank(self, rank if isinstance(rank, Rank) else Rank(rank))
        _set_years(self, years_active)


class AuthorSlot(_Record):
    """One byline position. ``researcher_id`` is None for authors outside
    the assessed population; ``institution_id`` is the affiliation on this
    publication."""

    __slots__ = _fields = ("position", "researcher_id", "institution_id")

    def __init__(self, position: int, researcher_id: str | None, institution_id: str):
        if position < 1:
            raise ValueError(f"position must be >= 1, got {position}")
        if researcher_id is not None and not researcher_id.strip():
            raise ValueError("researcher_id must be None or not blank")
        if not institution_id.strip():
            raise ValueError("institution_id must not be blank")
        _set_position(self, position)
        _set_slot_rid(self, researcher_id)
        _set_slot_inst(self, institution_id)


class PublicationRecord(_Record):
    _fields = ("publication_id", "year", "subject_category", "citations", "authors")
    # ``first_slot``'s map, kept only when it holds more than one researcher;
    # no field, so no part of equality, hash or repr.
    __slots__ = (*_fields, "_first_slots")

    def __init__(
        self,
        publication_id: str,
        year: int,
        subject_category: str,
        citations: int,
        authors: tuple[AuthorSlot, ...],
    ):
        if citations < 0:
            raise ValueError(f"citations must be >= 0, got {citations}")
        if year < 0:
            raise ValueError(f"year must be >= 0, got {year}")
        if not publication_id.strip():
            raise ValueError("publication_id must not be blank")
        _set_pid(self, publication_id)
        _set_year(self, year)
        _set_category(self, subject_category)
        _set_citations(self, citations)
        _set_authors(self, authors if type(authors) is tuple else tuple(authors))
        _set_first_slots(self, None)

    def first_slot(self, researcher_id: str) -> int:
        """Index of the researcher's first byline slot; KeyError if it has none.

        A short byline is scanned. A longer one maps each assessed id to its
        first slot in one walk and keeps the map if it holds more than one
        researcher, so a byline read by all of its authors is walked once."""
        authors = self.authors
        if len(authors) <= _SCANNED_BYLINE:
            if researcher_id is not None:  # None is an external slot's id
                i = 0
                for slot in authors:
                    if slot.researcher_id == researcher_id:
                        return i
                    i += 1
            raise KeyError(researcher_id)
        slots = self._first_slots
        if slots is None:
            slots = {}
            for i, slot in enumerate(authors):
                if slot.researcher_id is not None:
                    slots.setdefault(slot.researcher_id, i)
            if len(slots) > 1:
                _set_first_slots(self, slots)
        return slots[researcher_id]


class CitationBaseline(_Record):
    """Mean citations of cited publications, keyed by (year, subject category)."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: dict[tuple[int, str], float]):
        for key, mean in entries.items():
            if not math.isfinite(mean) or mean <= 0:
                raise ValueError(
                    f"baseline mean for {_shown(key)} must be finite and > 0, got {mean}"
                )
        _set_entries(self, entries)


_set_rid, _set_inst, _set_field, _set_rank, _set_years = _setters(ResearcherRecord)
_set_position, _set_slot_rid, _set_slot_inst = _setters(AuthorSlot)
_set_pid, _set_year, _set_category, _set_citations, _set_authors, _set_first_slots = (
    _setters(PublicationRecord)
)
(_set_entries,) = _setters(CitationBaseline)


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
            raise TypeError(f"{name} must be a real number, got {_shown(value)}")
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


class AssessmentConfig(_Record):
    """Every run option. The fields, in order, are the schema of the config
    file and of the report's ``config`` block. Each value is held as the type
    of its field's default (see ``_as_type_of``): an Enum field also accepts
    its members' string values, and a float field any real number. The class
    attributes are the defaults."""

    period_start: int = 2008
    period_end: int = 2012
    min_years_active: int = 3
    min_faculty: int = 5
    salary_coefficients: dict[Rank, float] = DEFAULT_SALARY_COEFFICIENTS
    band_z_levels: tuple[float, float] = (2.0, 3.0)
    delta_bracket: tuple[float, float] = (1e-9, 10.0)
    skewness_tolerance: float = 1e-9
    weighting_scheme: WeightingScheme = WeightingScheme.LIFE_SCIENCE
    grand_mean_mode: GrandMeanMode = GrandMeanMode.INDIVIDUALS
    skewness_target: SkewnessTarget = SkewnessTarget.INDIVIDUALS
    _fields = tuple(__annotations__)  # the names above, in order
    # One config-file key per member of a dict field: <prefix><member value, lower case>.
    _key_prefixes = {"salary_coefficients": "salary_coefficient_"}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._fields, args), **kwargs)
        if len(given) != len(args) + len(kwargs) or not given.keys() <= set(self._fields):
            raise TypeError(f"AssessmentConfig takes each of {self._fields} at most once")
        for name in self._fields:
            default = getattr(AssessmentConfig, name)
            object.__setattr__(self, name, _as_type_of(default, given.get(name, default), name))
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


AssessablePopulation = namedtuple(
    "AssessablePopulation", "institutions dropped_researchers dropped_institutions"
)
AssessablePopulation.__doc__ = """Researchers kept after the exclusion rules: institution
id -> its members, both in row order (an institution at its first kept researcher)."""


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
    the publications that list it, in input order. A researcher
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
    if len({p.publication_id for p in publications}) < len(publications):
        errors.extend(
            DuplicatePublicationId(pid) for pid in _repeated(p.publication_id for p in publications)
        )

    start, end = config.period_start, config.period_end
    entries = baselines.entries
    missing_baselines: set[tuple[int, str]] = set()
    by_researcher: dict[str, list[PublicationRecord] | tuple[PublicationRecord, ...]] = {}
    for pub in publications:
        # One walk: the first slot off 1..n (counted from 1; 0 if none) and the assessed ids.
        listed = []
        misplaced = count = 0
        for slot in pub.authors:
            count += 1
            if slot.position != count and not misplaced:
                misplaced = count
            rid = slot.researcher_id
            if rid is not None:
                listed.append(rid)
        if (
            not count
            or misplaced
            or (len(listed) > 1 and len(set(listed)) < len(listed))
            or not known_ids.issuperset(listed)
        ):
            errors.extend(_author_list_violations(pub, misplaced, listed, known_ids))
        for rid in listed:
            by_researcher.setdefault(rid, []).append(pub)
        year = pub.year
        if not start <= year <= end:
            continue  # never scored, so it needs no baseline
        key = (year, pub.subject_category)
        if key not in entries and key not in missing_baselines:
            missing_baselines.add(key)
            errors.append(MissingBaseline(year, pub.subject_category))

    if errors:
        raise ValidationErrors(errors)
    # A tuple drops the spare capacity a list would keep through scoring. Each
    # list is replaced in place, so it is freed before the next is copied.
    for rid, pubs in by_researcher.items():
        by_researcher[rid] = tuple(pubs)
    return by_researcher


def _repeated(ids) -> dict[str, None]:
    """Each id that occurs more than once, in the order of its second
    occurrence, as the keys of a dict (so a membership test is a lookup)."""
    seen: set[str] = set()
    repeated: dict[str, None] = {}
    for item in ids:
        if item in seen:
            repeated[item] = None
        seen.add(item)
    return repeated


def _author_list_violations(
    pub: PublicationRecord, misplaced: int, listed: list[str], known_ids: set[str]
) -> list[DataViolation]:
    """The violations of a byline that ``validate_dataset``'s walk found at
    fault, from that walk's ``misplaced`` and ``listed``."""
    if not pub.authors:
        return [MalformedAuthorList(pub.publication_id, "empty author list")]
    errors: list[DataViolation] = []
    if misplaced:
        errors.append(
            MalformedAuthorList(
                pub.publication_id,
                f"author positions must run 1..{len(pub.authors)} in byline "
                f"order; slot {misplaced - 1} has position "
                f"{_shown(pub.authors[misplaced - 1].position)}",
            )
        )
    duplicated = _repeated(listed)
    for rid in duplicated:
        errors.append(
            MalformedAuthorList(
                pub.publication_id, f"researcher {_shown(rid)} occupies multiple author slots"
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

    The one place researchers are grouped by institution. Institutions come
    in the order of their first kept researcher and members in row order;
    only the funnel report sorts institutions.
    """
    groups: dict[str, list[ResearcherRecord]] = {}
    dropped_researchers = 0
    for rec in researchers:
        if rec.years_active >= config.min_years_active:
            groups.setdefault(rec.institution_id, []).append(rec)
        else:
            dropped_researchers += 1
    institutions = {
        inst: tuple(members)
        for inst, members in groups.items()
        if len(members) >= config.min_faculty
    }
    if not institutions:
        raise EmptyPopulation(
            "no institution meets the faculty-size threshold after exclusions"
        )
    return AssessablePopulation(institutions, dropped_researchers, len(groups) - len(institutions))
