"""Per-researcher productivity (FSS).

FSS is yearly output value per unit labor cost: field-normalized citations of
each publication, scaled by the researcher's fractional authorship credit,
summed over the observation period, divided by salary coefficient and years
active.
"""

from __future__ import annotations

from functools import lru_cache
from math import fsum, isfinite

from .errors import MissingBaseline, NonFiniteScore, _shown
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
        raise ValueError("a publication needs at least one author")
    intramural = authors[0].institution_id == authors[-1].institution_id
    return _weights_for(count, intramural, scheme is WeightingScheme.UNIFORM)


# Bounded, because the vectors of many distinct long bylines would otherwise
# pile up; a run sees few distinct (length, intramural, scheme) triples. The
# scheme is a bool: hashing an Enum member runs Python code.
@lru_cache(maxsize=256)
def _weights_for(count: int, intramural: bool, uniform: bool) -> tuple[float, ...]:
    if uniform:
        raw = [1.0 / count] * count
    else:
        raw = _positional_weights(count, intramural)
    # fsum rounds once, as CPython's sum() does only from 3.12 on.
    total = fsum(raw)
    weights = tuple(w / total for w in raw)
    # A self-check of the rules above, run once per cached vector.
    if any(w < 0 or w > 1 for w in weights):
        raise ValueError("weights must lie in [0, 1]")
    if abs(fsum(weights) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {fsum(weights)}")
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


def researcher_fss(
    researcher: ResearcherRecord,
    publications: tuple[PublicationRecord, ...] | list[PublicationRecord],
    baselines: CitationBaseline,
    config: AssessmentConfig,
) -> float:
    """Score one researcher over their authored publications.

    ``publications`` must already be restricted to this researcher's authored
    set; each one dated inside the observation period contributes its
    citations over the (year, subject category) baseline mean, times this
    researcher's fractional weight, and the sum is divided by salary
    coefficient and years active. Publications outside the period are skipped.
    The terms are summed with ``fsum``, so their order does not move a bit.
    An FSS too large for a float, from a citation count beyond a float's range
    or a sum that overflows, raises NonFiniteScore.
    """
    if researcher.years_active < 1:
        raise ValueError(
            f"researcher {_shown(researcher.researcher_id)} has zero years active; "
            "should have been excluded upstream"
        )
    start, end = config.period_start, config.period_end
    uniform = config.weighting_scheme is WeightingScheme.UNIFORM
    entries = baselines.entries
    rid = researcher.researcher_id

    # fractional_weights inline, with its error.
    terms = []
    try:
        for pub in publications:
            year = pub.year
            if not start <= year <= end:
                continue
            authors = pub.authors
            if not authors:
                fractional_weights(authors)  # raises its ValueError for an empty byline
            weights = _weights_for(
                len(authors), authors[0].institution_id == authors[-1].institution_id, uniform
            )
            try:
                index = pub.first_slot(rid)
            except KeyError:
                raise ValueError(
                    f"publication {_shown(pub.publication_id)} is not authored by {_shown(rid)}"
                ) from None
            baseline = entries.get((year, pub.subject_category))
            if baseline is None:
                raise MissingBaseline(year, pub.subject_category)
            terms.append(pub.citations / baseline * weights[index])
        fss = fsum(terms) / config.salary_coefficients[researcher.rank] / researcher.years_active
    except OverflowError:  # a count beyond a float's range, or a sum beyond it in fsum
        raise NonFiniteScore(rid) from None
    if not isfinite(fss):
        raise NonFiniteScore(rid)
    return fss
