"""Per-researcher productivity (FSS).

FSS is yearly output value per unit labor cost: field-normalized citations of
each publication, scaled by the researcher's fractional authorship credit,
summed over the observation period, divided by salary coefficient and years
active.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyAuthorList, ZeroYearsActive
from .model import (
    AssessmentConfig,
    AuthorSlot,
    CitationBaseline,
    PublicationRecord,
    ResearcherRecord,
    WeightingScheme,
)

# Positional credit for life-science bylines. When first and last author share
# an institution they take 0.40 each and the middles split 0.20; otherwise the
# ends take 0.30, second and penultimate 0.15, and everyone else splits 0.10.
_INTRA_END = 0.40
_INTRA_MIDDLE_POOL = 0.20
_EXTRA_END = 0.30
_EXTRA_NEAR = 0.15
_EXTRA_OTHER_POOL = 0.10


@dataclass(frozen=True, slots=True)
class ResearcherScore:
    researcher_id: str
    fss: float
    salary_coefficient: float
    years_active: int
    publication_count: int


def fractional_weights(
    authors: tuple[AuthorSlot, ...] | list[AuthorSlot],
    scheme: WeightingScheme = WeightingScheme.LIFE_SCIENCE,
) -> tuple[float, ...]:
    """Split one unit of credit across a byline: one weight per slot.

    Under the life-science scheme each author is paid from the strongest tier
    its position qualifies for (first/last beat second/penultimate beat the
    rest), and the assigned weights are renormalized to sum to 1 so degenerate
    bylines (fewer authors than named positions) keep total credit constant.
    The uniform scheme gives every author 1/A.

    The vector depends only on the byline length, on whether the first and
    last authors share an institution and on the scheme, so it is built once
    per distinct triple and shared.
    """
    count = len(authors)
    if count == 0:
        raise EmptyAuthorList("a publication needs at least one author")
    intramural = authors[0].institution_id == authors[-1].institution_id
    return _weights_for(count, intramural, scheme)


# Bounded, because the vectors of many distinct long bylines would otherwise
# pile up; a run sees few distinct (length, intramural, scheme) triples.
@lru_cache(maxsize=256)
def _weights_for(
    count: int, intramural: bool, scheme: WeightingScheme
) -> tuple[float, ...]:
    if scheme is WeightingScheme.UNIFORM:
        raw = [1.0 / count] * count
    else:
        raw = _positional_weights(count, intramural)
    total = sum(raw)
    weights = tuple(w / total for w in raw)
    # A self-check of the rules above, run once per cached vector.
    if any(w < 0 or w > 1 for w in weights):
        raise ValueError("weights must lie in [0, 1]")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(weights)}")
    return weights


def _positional_weights(count: int, intramural: bool) -> list[float]:
    indices = set(range(count))
    end_idx = {0, count - 1} & indices
    if intramural:
        middle_count = count - len(end_idx)
        return [
            _INTRA_END if i in end_idx else _INTRA_MIDDLE_POOL / middle_count
            for i in range(count)
        ]
    near_idx = ({1, count - 2} & indices) - end_idx
    other_count = count - len(end_idx) - len(near_idx)
    weights = []
    for i in range(count):
        if i in end_idx:
            weights.append(_EXTRA_END)
        elif i in near_idx:
            weights.append(_EXTRA_NEAR)
        else:
            weights.append(_EXTRA_OTHER_POOL / other_count)
    return weights


def normalized_impact(
    publication: PublicationRecord, baselines: CitationBaseline
) -> float:
    """Citations divided by the (year, subject category) baseline mean."""
    return publication.citations / baselines.lookup(
        publication.year, publication.subject_category
    )


def researcher_fss(
    researcher: ResearcherRecord,
    publications: tuple[PublicationRecord, ...] | list[PublicationRecord],
    baselines: CitationBaseline,
    config: AssessmentConfig,
) -> ResearcherScore:
    """Score one researcher over their authored publications.

    ``publications`` must already be restricted to this researcher's authored
    set; each one dated inside the observation period contributes normalized
    impact times this researcher's fractional weight, and the sum is divided
    by salary coefficient and years active. Publications outside the period
    are skipped and not counted.
    """
    if researcher.years_active < 1:
        raise ZeroYearsActive(researcher.researcher_id)
    salary = config.salary_coefficients[researcher.rank]
    start, end = config.period_start, config.period_end

    total = 0.0
    count = 0
    for pub in publications:
        if not start <= pub.year <= end:
            continue
        count += 1
        weights = fractional_weights(pub.authors, config.weighting_scheme)
        try:
            index = pub.first_slots[researcher.researcher_id]
        except KeyError:
            raise ValueError(
                f"publication {pub.publication_id!r} is not authored by "
                f"{researcher.researcher_id!r}"
            ) from None
        total += normalized_impact(pub, baselines) * weights[index]
    fss = total / salary / researcher.years_active
    return ResearcherScore(
        researcher_id=researcher.researcher_id,
        fss=fss,
        salary_coefficient=salary,
        years_active=researcher.years_active,
        publication_count=count,
    )
