import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fssfunnel import indicator
from fssfunnel.errors import EmptyAuthorList, MissingBaseline, MissingScore, ZeroYearsActive
from fssfunnel.funnel import build_funnel_report
from fssfunnel.indicator import (
    ResearcherScore,
    fractional_weights,
    normalized_impact,
    researcher_fss,
)
from fssfunnel.model import (
    AssessmentConfig,
    Rank,
    WeightingScheme,
    apply_exclusions,
    validate_dataset,
)
from helpers import baseline, byline, publication, researcher

affiliations = st.lists(
    st.sampled_from(["u01", "u02", "u03", "ext1"]), min_size=1, max_size=25
)


def test_five_authors_shared_ends_split_forty_forty_and_middle_pool():
    weights = fractional_weights(byline("a", "b", "c", "d", "a"))
    expected = [0.40, 0.2 / 3, 0.2 / 3, 0.2 / 3, 0.40]
    assert all(math.isclose(w, e, abs_tol=1e-9) for w, e in zip(weights, expected))


def test_six_authors_distinct_ends_use_positional_tiers():
    weights = fractional_weights(byline("a", "b", "c", "d", "e", "f"))
    expected = [0.30, 0.15, 0.05, 0.05, 0.15, 0.30]
    assert all(math.isclose(w, e, abs_tol=1e-9) for w, e in zip(weights, expected))


def test_single_author_takes_all_credit():
    assert fractional_weights(byline("a")) == (1.0,)


def test_two_authors_same_institution_renormalize_to_halves():
    # 0.40/0.40 with no middle recipients renormalizes by 0.8.
    weights = fractional_weights(byline("a", "a"))
    assert weights == (0.5, 0.5)


def test_empty_author_list_rejected():
    with pytest.raises(EmptyAuthorList):
        fractional_weights(())


def test_uniform_scheme():
    weights = fractional_weights(byline("a", "b", "c", "d"), WeightingScheme.UNIFORM)
    assert all(w == 0.25 for w in weights)


def test_uniform_scheme_given_by_its_string_value():
    # First of four authors with distinct affiliations: 0.30 under the
    # life-science rule, 0.25 under the uniform one.
    config = AssessmentConfig(weighting_scheme="uniform")
    assert config.weighting_scheme is WeightingScheme.UNIFORM
    rec = researcher("r1", years=1)
    authors = byline("u01", "x", "y", "z", researcher_ids=["r1", None, None, None])
    score = researcher_fss(rec, [publication("p1", 5, authors)], baseline(), config)
    assert score.fss == 0.25


@given(affiliations)
@settings(max_examples=200)
def test_weights_sum_to_one_and_lie_in_unit_interval(insts):
    weights = fractional_weights(byline(*insts))
    assert abs(sum(weights) - 1.0) <= 1e-12
    assert all(0.0 <= w <= 1.0 for w in weights)


@given(affiliations)
@settings(max_examples=200)
def test_weights_reverse_with_the_byline(insts):
    forward = fractional_weights(byline(*insts))
    backward = fractional_weights(byline(*reversed(insts)))
    assert forward == tuple(reversed(backward))


def test_weights_self_check_rejects_bad_vectors(monkeypatch):
    # Sums to 1 but leaves [0, 1]: a tier rule gone wrong must not score.
    monkeypatch.setattr(
        indicator, "_positional_weights", lambda count, intramural: [1.2, -0.2]
    )
    indicator._weights_for.cache_clear()
    try:
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            fractional_weights(byline("u01", "u02"))
    finally:
        indicator._weights_for.cache_clear()


def test_normalized_impact_examples():
    entries = baseline({(2008, "Biochemistry"): 5.0, (2009, "Biochemistry"): 4.2})
    assert normalized_impact(publication("p", 10, byline("u01")), entries) == 2.0
    assert normalized_impact(publication("p", 0, byline("u01")), entries) == 0.0
    ratio = normalized_impact(publication("p", 7, byline("u01"), year=2009), entries)
    assert math.isclose(ratio, 7 / 4.2, abs_tol=1e-9)


def test_normalized_impact_missing_baseline():
    with pytest.raises(MissingBaseline):
        normalized_impact(publication("p", 1, byline("u01"), year=1999), baseline())


CONFIG = AssessmentConfig()


def test_fss_assistant_single_publication():
    # (1/1) * (1/4) * (10/5 * 0.4) = 0.2 with the researcher leading a
    # five-author intramural byline (first-author weight 0.40).
    rec = researcher("r1", years=4)
    authors = byline("u01", "x", "y", "z", "u01", researcher_ids=["r1", None, None, None, None])
    score = researcher_fss(rec, [publication("p1", 10, authors)], baseline(), CONFIG)
    assert math.isclose(score.fss, 0.2, rel_tol=1e-12)
    assert score.publication_count == 1
    assert score.salary_coefficient == 1.0


def test_fss_full_professor_two_unit_contributions():
    # Two single-author publications with c = c_bar each contribute 1.0;
    # (1/2) * (1/5) * 2.0 = 0.2.
    rec = researcher("r1", rank=Rank.FULL, years=5)
    pubs = [
        publication(f"p{i}", 5, byline("u01", researcher_ids=["r1"])) for i in range(2)
    ]
    score = researcher_fss(rec, pubs, baseline(), CONFIG)
    assert math.isclose(score.fss, 0.2, rel_tol=1e-12)


def test_fss_skips_publications_outside_the_period():
    # The default period is 2008-2012; the baseline has no 1990 or 2013 entry,
    # so a lookup for either would raise MissingBaseline.
    rec = researcher("r1", years=4)
    inside = publication("p1", 10, byline("u01", researcher_ids=["r1"]))
    outside = [
        publication(f"p{year}", 500, byline("u01", researcher_ids=["r1"]), year=year)
        for year in (1990, 2007, 2013)
    ]
    score = researcher_fss(rec, [outside[0], inside, *outside[1:]], baseline(), CONFIG)
    assert score == researcher_fss(rec, [inside], baseline(), CONFIG)
    assert score.publication_count == 1
    edges = [publication("p1", 10, byline("u01", researcher_ids=["r1"]), year=2012)]
    assert researcher_fss(rec, edges, baseline({(2012, "Biochemistry"): 5.0}), CONFIG) == score


def test_fss_no_publications_is_zero():
    score = researcher_fss(researcher("r1"), [], baseline(), CONFIG)
    assert score.fss == 0.0


def test_fss_zero_exactly_when_no_cited_publications():
    rec = researcher("r1", years=3)
    pubs = [publication("p1", 0, byline("u01", researcher_ids=["r1"]))]
    assert researcher_fss(rec, pubs, baseline(), CONFIG).fss == 0.0


def test_fss_rejects_zero_years_active():
    with pytest.raises(ZeroYearsActive):
        researcher_fss(researcher("r1", years=0), [], baseline(), CONFIG)


def _random_case(seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    rec = researcher("r1", rank=Rank.ASSOCIATE, years=int(rng.integers(1, 6)))
    pubs = []
    for i in range(int(rng.integers(1, 6))):
        count = int(rng.integers(1, 7))
        position = int(rng.integers(count))
        ids = [None] * count
        ids[position] = "r1"
        insts = [f"u{int(rng.integers(1, 4)):02d}" for _ in range(count)]
        pubs.append(
            publication(
                f"p{i}", int(rng.integers(0, 40)), byline(*insts, researcher_ids=ids)
            )
        )
    return rec, pubs


def test_fss_scales_linearly_in_citations_years_and_salary():
    rec, pubs = _random_case(7)
    entries = baseline()
    base = researcher_fss(rec, pubs, entries, CONFIG).fss
    assert base > 0

    doubled_pubs = [
        publication(p.publication_id, 2 * p.citations, p.authors) for p in pubs
    ]
    assert math.isclose(
        researcher_fss(rec, doubled_pubs, entries, CONFIG).fss, 2 * base, rel_tol=1e-12
    )

    rec_2t = researcher("r1", rank=Rank.ASSOCIATE, years=2 * rec.years_active)
    assert math.isclose(
        researcher_fss(rec_2t, pubs, entries, CONFIG).fss, base / 2, rel_tol=1e-12
    )

    doubled_salary = AssessmentConfig(
        salary_coefficients={
            rank: 2 * coeff for rank, coeff in CONFIG.salary_coefficients.items()
        }
    )
    assert math.isclose(
        researcher_fss(rec, pubs, entries, doubled_salary).fss, base / 2, rel_tol=1e-12
    )


def test_fss_invariant_under_publication_order():
    rec, pubs = _random_case(11)
    forward = researcher_fss(rec, pubs, baseline(), CONFIG).fss
    backward = researcher_fss(rec, list(reversed(pubs)), baseline(), CONFIG).fss
    assert math.isclose(forward, backward, rel_tol=1e-12)


def _fresh_weights(authors, scheme):
    """The byline's credit vector, built from the tier rule on every call."""
    count = len(authors)
    ends = {0, count - 1}
    if scheme is WeightingScheme.UNIFORM:
        raw = [1.0 / count] * count
    elif authors[0].institution_id == authors[-1].institution_id:
        raw = [0.40 if i in ends else 0.20 / (count - len(ends)) for i in range(count)]
    else:
        near = {1, count - 2} - ends
        others = count - len(ends) - len(near)
        raw = [
            0.30 if i in ends else 0.15 if i in near else 0.10 / others
            for i in range(count)
        ]
    total = sum(raw)
    return [w / total for w in raw]


def _reference_fss(rec, pubs, entries, config):
    """FSS with fresh weights and a linear scan for the researcher's first slot."""
    total = 0.0
    for pub in pubs:
        weights = _fresh_weights(pub.authors, config.weighting_scheme)
        index = next(
            i for i, slot in enumerate(pub.authors)
            if slot.researcher_id == rec.researcher_id
        )
        impact = pub.citations / entries.lookup(pub.year, pub.subject_category)
        total += impact * weights[index]
    return total / config.salary_coefficients[rec.rank] / rec.years_active


# A byline that names r1 at least once; ids may repeat, as on the library
# path, which does not validate.
bylines_with_r1 = st.lists(
    st.tuples(st.sampled_from(["r1", "r2", None]), st.sampled_from(["u01", "u02", "x"])),
    min_size=1,
    max_size=12,
).filter(lambda slots: any(rid == "r1" for rid, _ in slots))


@given(
    st.lists(st.tuples(bylines_with_r1, st.integers(0, 50)), min_size=1, max_size=5),
    st.sampled_from(list(WeightingScheme)),
    st.integers(1, 5),
)
# r1 in the second and last of four slots: the second slot's credit counts.
@example([([(None, "u01"), ("r1", "x"), (None, "y"), ("r1", "u02")], 10)],
         WeightingScheme.LIFE_SCIENCE, 1)
@settings(max_examples=200)
def test_fss_equals_fresh_weights_and_linear_scan(papers, scheme, years):
    rec = researcher("r1", rank=Rank.ASSOCIATE, years=years)
    pubs = [
        publication(
            f"p{i}",
            citations,
            byline(*(inst for _, inst in slots), researcher_ids=[rid for rid, _ in slots]),
        )
        for i, (slots, citations) in enumerate(papers)
    ]
    config = AssessmentConfig(weighting_scheme=scheme)
    expected = _reference_fss(rec, pubs, baseline(), config)
    # Twice, so the second pass reads every cached weight vector and slot map.
    assert researcher_fss(rec, pubs, baseline(), config).fss == expected
    assert researcher_fss(rec, pubs, baseline(), config).fss == expected


def test_researcher_off_the_byline_is_rejected():
    pub = publication("p1", 10, byline("u01", "u02", researcher_ids=["r1", None]))
    with pytest.raises(ValueError, match="not authored by 'r2'"):
        researcher_fss(researcher("r2"), [pub], baseline(), CONFIG)


def test_long_byline_builds_weights_once_per_distinct_key(monkeypatch):
    builds = []
    positional = indicator._positional_weights

    def counted(count, intramural):
        builds.append((count, intramural))
        return positional(count, intramural)

    monkeypatch.setattr(indicator, "_positional_weights", counted)
    indicator._weights_for.cache_clear()
    ids = [f"r{i:04d}" for i in range(2000)]
    recs = [researcher(rid, years=1) for rid in ids]
    intramural = publication("p1", 7, byline(*["u01"] * 2000, researcher_ids=ids))
    extramural = publication(
        "p2", 7, byline(*["u01"] * 1999, "u02", researcher_ids=ids)
    )
    for scheme in WeightingScheme:
        config = AssessmentConfig(weighting_scheme=scheme)
        for pub in (intramural, extramural):
            credit = sum(
                researcher_fss(rec, [pub], baseline(), config).fss for rec in recs
            )
            assert math.isclose(credit, 7 / 5.0, rel_tol=1e-12)
    # Positional weights once per (length, intramural) under the life-science
    # scheme; one vector per key in all, the uniform one ignoring position.
    assert builds == [(2000, True), (2000, False)]
    assert indicator._weights_for.cache_info().misses == 4


# Institution means are taken by build_funnel_report from these scores.
CONFIG_ALL_SIZES = AssessmentConfig(min_faculty=1)


def _population(members_by_institution):
    recs = [
        researcher(rid, inst=inst, years=5)
        for inst, rids in members_by_institution.items()
        for rid in rids
    ]
    dataset = validate_dataset(recs, [], baseline(), CONFIG_ALL_SIZES)
    return apply_exclusions(dataset, CONFIG_ALL_SIZES)


def _score(rid, fss):
    return ResearcherScore(rid, fss, 1.0, 5, 1)


def _summaries(table):
    """Institution summaries for {institution: {researcher id: fss}}."""
    population = _population({inst: list(vals) for inst, vals in table.items()})
    scores = [_score(rid, fss) for vals in table.values() for rid, fss in vals.items()]
    report = build_funnel_report(population, scores, CONFIG_ALL_SIZES)
    return {summary.institution_id: summary for summary in report.summaries}


# A second institution with three distinct values lets the transform solve.
OTHER = {"B": {"s1": 0.05, "s2": 0.2, "s3": 0.6}}


def test_institution_means_two_point_mean():
    summary = _summaries({"A": {"r1": 0.1, "r2": 0.3}, **OTHER})["A"]
    assert math.isclose(summary.mean_original, 0.2, rel_tol=1e-12)
    assert summary.size == 2


def test_institution_means_all_zero():
    summary = _summaries({"A": {"r1": 0.0, "r2": 0.0, "r3": 0.0}, **OTHER})["A"]
    assert summary.mean_original == 0.0


def test_institution_means_match_independent_recomputation():
    table = {
        "A": {"r1": 0.12, "r2": 0.50, "r3": 0.03},
        "B": {"r4": 0.00, "r5": 0.27},
        "C": {"r6": 1.10, "r7": 0.42, "r8": 0.09, "r9": 0.33},
        "D": {"r10": 0.0, "r11": 0.0, "r12": 0.0},
    }
    summaries = _summaries(table)

    assert list(summaries) == ["A", "B", "C", "D"]
    for inst, summary in summaries.items():
        values = list(table[inst].values())
        expected = sum(values) / len(values)
        assert math.isclose(summary.mean_original, expected, rel_tol=1e-12)
        assert summary.size == len(values)
    assert summaries["D"].mean_original == 0.0

    conservation = sum(s.size * s.mean_original for s in summaries.values())
    total = sum(fss for vals in table.values() for fss in vals.values())
    assert math.isclose(conservation, total, abs_tol=1e-9)


def test_institution_means_missing_score():
    population = _population({"A": ["r1", "r2"]})
    with pytest.raises(MissingScore):
        build_funnel_report(population, [_score("r1", 0.1)], CONFIG_ALL_SIZES)


def test_institution_means_duplicate_score_rejected():
    population = _population({"A": ["r1"]})
    with pytest.raises(ValueError):
        build_funnel_report(
            population, [_score("r1", 0.1), _score("r1", 0.2)], CONFIG_ALL_SIZES
        )
