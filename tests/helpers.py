"""Construction shortcuts shared by the test modules."""

from fssfunnel.funnel import build_funnel_report
from fssfunnel.model import (
    AssessmentConfig,
    AuthorSlot,
    CitationBaseline,
    PublicationRecord,
    Rank,
    ResearcherRecord,
)


def byline(*institutions, researcher_ids=None):
    """Author slots in byline order; researcher_ids aligns with institutions."""
    ids = researcher_ids or [None] * len(institutions)
    return tuple(
        AuthorSlot(i + 1, rid, inst)
        for i, (rid, inst) in enumerate(zip(ids, institutions))
    )


def researcher(rid, inst="u01", rank=Rank.ASSISTANT, years=4):
    return ResearcherRecord(rid, inst, "Biochemistry", rank, years)


def publication(pid, citations, authors, year=2008, category="Biochemistry"):
    return PublicationRecord(pid, year, category, citations, tuple(authors))


def baseline(entries=None):
    return CitationBaseline(entries or {(2008, "Biochemistry"): 5.0})


def make_report(fss_by_institution, **config_kwargs):
    """Full report built from raw per-institution productivity values."""
    return build_funnel_report(
        fss_by_institution, AssessmentConfig(min_faculty=1, **config_kwargs)
    )
