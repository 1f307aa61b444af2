import itertools
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fssfunnel import indicator
from fssfunnel.errors import MissingBaseline, NonFiniteScore
from fssfunnel.funnel import build_funnel_report
from fssfunnel.indicator import fractional_weights, researcher_fss
from fssfunnel.model import (
    AssessmentConfig,
    CitationBaseline,
    Rank,
    WeightingScheme,
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
    with pytest.raises(ValueError, match="at least one author"):
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
    assert score == 0.25


@given(affiliations)
@settings(max_examples=200, derandomize=True)
def test_weights_sum_to_one_and_lie_in_unit_interval(insts):
    weights = fractional_weights(byline(*insts))
    assert abs(sum(weights) - 1.0) <= 1e-12
    assert all(0.0 <= w <= 1.0 for w in weights)


@given(affiliations)
@settings(max_examples=200, derandomize=True)
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


CONFIG = AssessmentConfig()


def test_fss_divides_citations_by_the_baseline_mean():
    # A lone single-author assistant with one year active: FSS is the ratio.
    rec = researcher("r1", years=1)
    authors = byline("u01", researcher_ids=["r1"])
    entries = baseline({(2008, "Biochemistry"): 5.0, (2009, "Biochemistry"): 4.2})
    assert researcher_fss(rec, [publication("p", 10, authors)], entries, CONFIG) == 2.0
    assert researcher_fss(rec, [publication("p", 0, authors)], entries, CONFIG) == 0.0
    ratio = researcher_fss(rec, [publication("p", 7, authors, year=2009)], entries, CONFIG)
    assert math.isclose(ratio, 7 / 4.2, abs_tol=1e-9)


def test_a_baseline_keeps_its_own_entries():
    # A mean the caller sets to 0 after construction would bypass the
    # constructor's check and divide by zero.
    entries = {(2008, "Biochemistry"): 5.0}
    baselines = CitationBaseline(entries)
    rec = researcher("r1", years=1)
    pubs = [publication("p", 10, byline("u01", researcher_ids=["r1"]))]
    entries[(2008, "Biochemistry")] = 0.0
    assert researcher_fss(rec, pubs, baselines, CONFIG) == 2.0


def test_fss_missing_baseline():
    pub = publication("p", 1, byline("u01", researcher_ids=["r1"]), year=2009)
    with pytest.raises(MissingBaseline):
        researcher_fss(researcher("r1"), [pub], baseline(), CONFIG)


def test_fss_assistant_single_publication():
    # (1/1) * (1/4) * (10/5 * 0.4) = 0.2 with the researcher leading a
    # five-author intramural byline (first-author weight 0.40).
    rec = researcher("r1", years=4)
    authors = byline("u01", "x", "y", "z", "u01", researcher_ids=["r1", None, None, None, None])
    score = researcher_fss(rec, [publication("p1", 10, authors)], baseline(), CONFIG)
    assert math.isclose(score, 0.2, rel_tol=1e-12)


def test_fss_full_professor_two_unit_contributions():
    # Two single-author publications with c = c_bar each contribute 1.0;
    # (1/2) * (1/5) * 2.0 = 0.2.
    rec = researcher("r1", rank=Rank.FULL, years=5)
    pubs = [
        publication(f"p{i}", 5, byline("u01", researcher_ids=["r1"])) for i in range(2)
    ]
    score = researcher_fss(rec, pubs, baseline(), CONFIG)
    assert math.isclose(score, 0.2, rel_tol=1e-12)


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
    edges = [publication("p1", 10, byline("u01", researcher_ids=["r1"]), year=2012)]
    assert researcher_fss(rec, edges, baseline({(2012, "Biochemistry"): 5.0}), CONFIG) == score


def test_fss_does_not_depend_on_the_order_of_its_publications():
    # Impacts 1.0, 1e-16 and 1e-16: added left to right, 1.0 first gives 1.0
    # and 1.0 last gives 1.0000000000000002. The exact sum rounds to the latter.
    rec = researcher("r1", years=1)
    means = {
        (2008, "Biochemistry"): 1.0, (2009, "Biochemistry"): 1e16, (2010, "Biochemistry"): 1e16,
    }
    pubs = [
        publication(f"p{year}", 1, byline("u01", researcher_ids=["r1"]), year=year)
        for year, _ in means
    ]
    scores = {
        researcher_fss(rec, order, baseline(means), CONFIG).hex()
        for order in itertools.permutations(pubs)
    }
    assert scores == {(1.0 + 2e-16).hex()}


def test_fss_no_publications_is_zero():
    score = researcher_fss(researcher("r1"), [], baseline(), CONFIG)
    assert score == 0.0


def test_fss_zero_exactly_when_no_cited_publications():
    rec = researcher("r1", years=3)
    pubs = [publication("p1", 0, byline("u01", researcher_ids=["r1"]))]
    assert researcher_fss(rec, pubs, baseline(), CONFIG) == 0.0


@pytest.mark.parametrize(
    "citations, mean, salary",
    [
        (10**400, 5.0, 1.0),  # a count beyond a float's range
        (10**307, 0.001, 1.0),  # a finite count over a small baseline
        (10**308, 1.0, 1.0),  # a sum of two finite impacts
        (10**307, 1.0, 0.01),  # a finite sum over a small salary coefficient
    ],
    ids=["count", "impact", "sum", "salary"],
)
def test_fss_too_large_for_a_float_is_a_typed_error(citations, mean, salary):
    rec = researcher("r1", years=1)
    pubs = [publication(f"p{i}", citations, byline("u01", researcher_ids=["r1"])) for i in "12"]
    config = AssessmentConfig(
        salary_coefficients={**AssessmentConfig.salary_coefficients, Rank.ASSISTANT: salary}
    )
    with pytest.raises(NonFiniteScore) as caught:
        researcher_fss(rec, pubs, baseline({(2008, "Biochemistry"): mean}), config)
    assert str(caught.value) == "FSS of researcher 'r1' is too large for a float"
    assert caught.value.researcher_id == "r1"


def test_fss_just_inside_a_floats_range_is_kept():
    rec = researcher("r1", years=1)
    pub = publication("p", 10**308, byline("u01", researcher_ids=["r1"]))
    assert researcher_fss(rec, [pub], baseline({(2008, "Biochemistry"): 1.0}), CONFIG) == 1e308


def test_fss_rejects_zero_years_active():
    with pytest.raises(ValueError, match="zero years active"):
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
    base = researcher_fss(rec, pubs, entries, CONFIG)
    assert base > 0

    doubled_pubs = [
        publication(p.publication_id, 2 * p.citations, p.authors) for p in pubs
    ]
    assert math.isclose(
        researcher_fss(rec, doubled_pubs, entries, CONFIG), 2 * base, rel_tol=1e-12
    )

    rec_2t = researcher("r1", rank=Rank.ASSOCIATE, years=2 * rec.years_active)
    assert math.isclose(
        researcher_fss(rec_2t, pubs, entries, CONFIG), base / 2, rel_tol=1e-12
    )

    doubled_salary = AssessmentConfig(
        salary_coefficients={
            rank: 2 * coeff for rank, coeff in CONFIG.salary_coefficients.items()
        }
    )
    assert math.isclose(
        researcher_fss(rec, pubs, entries, doubled_salary), base / 2, rel_tol=1e-12
    )


def test_fss_invariant_under_publication_order():
    rec, pubs = _random_case(11)
    forward = researcher_fss(rec, pubs, baseline(), CONFIG)
    backward = researcher_fss(rec, list(reversed(pubs)), baseline(), CONFIG)
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
    # Normalized as the package does, with one rounding.
    total = math.fsum(raw)
    return [w / total for w in raw]


def _reference_fss(rec, pubs, baselines, config):
    """FSS with fresh weights and a linear scan for the researcher's first
    slot, its terms summed with ``math.fsum`` as the package sums them."""
    terms = []
    for pub in pubs:
        weights = _fresh_weights(pub.authors, config.weighting_scheme)
        index = next(
            i for i, slot in enumerate(pub.authors)
            if slot.researcher_id == rec.researcher_id
        )
        impact = pub.citations / baselines.entries[pub.year, pub.subject_category]
        terms.append(impact * weights[index])
    return math.fsum(terms) / config.salary_coefficients[rec.rank] / rec.years_active


# A byline that names r1 at least once; ids may repeat, as on the library
# path, which does not validate. Past 32 slots the record maps each id to
# its first slot; up to 32 it scans.
bylines_with_r1 = st.lists(
    st.tuples(st.sampled_from(["r1", "r2", None]), st.sampled_from(["u01", "u02", "x"])),
    min_size=1,
    max_size=40,
).filter(lambda slots: any(rid == "r1" for rid, _ in slots))


@given(
    st.lists(st.tuples(bylines_with_r1, st.integers(0, 50)), min_size=1, max_size=5),
    st.sampled_from(list(WeightingScheme)),
    st.integers(1, 5),
)
# r1 in the second and last of four slots: the second slot's credit counts.
@example([([(None, "u01"), ("r1", "x"), (None, "y"), ("r1", "u02")], 10)],
         WeightingScheme.LIFE_SCIENCE, 1)
# Forty slots, so the map: r1 in the second slot and slot 20, r2 in slot 10.
@example([([("r1" if i in (1, 20) else "r2" if i == 10 else None, "u02" if i == 39 else "u01")
            for i in range(40)], 10)],
         WeightingScheme.LIFE_SCIENCE, 2)
@settings(max_examples=200, derandomize=True)
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
    assert researcher_fss(rec, pubs, baseline(), config) == expected
    assert researcher_fss(rec, pubs, baseline(), config) == expected


@pytest.mark.parametrize("intramural", [True, False])
def test_weights_equal_the_tier_rule_on_long_bylines(intramural):
    # The property test above stops at 40 slots; 1,241 is the benchmark's
    # consortium byline. A one-slot byline is intramural only.
    for count in [*range(1 if intramural else 2, 301), 1241, 2000]:
        authors = byline(*["u01"] * (count - 1), "u01" if intramural else "u02")
        scheme = WeightingScheme.LIFE_SCIENCE
        assert list(fractional_weights(authors, scheme)) == _fresh_weights(authors, scheme), count


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
                researcher_fss(rec, [pub], baseline(), config) for rec in recs
            )
            assert math.isclose(credit, 7 / 5.0, rel_tol=1e-12)
    # Positional weights once per (length, intramural) under the life-science
    # scheme; one vector per key in all, the uniform one ignoring position.
    assert builds == [(2000, True), (2000, False)]
    assert indicator._weights_for.cache_info().misses == 4


def _one_researcher_per_byline(count):
    """``count`` researchers, each the one assessed author of their own
    byline among external co-authors, and the index validation returns."""
    recs = [researcher(f"r{i:04d}", years=1) for i in range(count)]
    pubs = []
    for i, rec in enumerate(recs):
        ids = [None] * (1 + i % 5)
        ids[i % len(ids)] = rec.researcher_id
        authors = byline(*["u01"] * len(ids), researcher_ids=ids)
        pubs.append(publication(f"p{i:04d}", i % 9, authors))
    index = validate_dataset(recs, pubs, baseline(), CONFIG)
    return recs, pubs, index


def test_bylines_read_by_one_researcher_hold_no_map():
    recs, pubs, index = _one_researcher_per_byline(200)
    for rec in recs:
        researcher_fss(rec, index[rec.researcher_id], baseline(), CONFIG)
    # No byline kept a map, and each still finds its one researcher's slot.
    assert [pub._first_slots for pub in pubs] == [None] * len(pubs)
    assert [pub.first_slot(rec.researcher_id) for rec, pub in zip(recs, pubs)] == [
        [slot.researcher_id for slot in pub.authors].index(rec.researcher_id)
        for rec, pub in zip(recs, pubs)
    ]
    assert [pub._first_slots for pub in pubs] == [None] * len(pubs)


def test_scoring_a_one_researcher_byline_allocates_well_under_a_dict():
    # Weight vectors are cached per byline shape, so a first set of bylines
    # of the same shapes fills that cache before memory is traced.
    recs, pubs, index = _one_researcher_per_byline(2000)
    for rec in recs[:10]:
        researcher_fss(rec, index[rec.researcher_id], baseline(), CONFIG)
    recs, pubs, index = _one_researcher_per_byline(2000)
    entries = baseline()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for rec in recs:
            researcher_fss(rec, index[rec.researcher_id], entries, CONFIG)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A one-key dict alone takes about 200 bytes.
    assert grown / len(pubs) < 50


def test_all_authors_of_a_long_byline_share_one_map():
    ids = [f"r{i:04d}" for i in range(2000)]
    recs = [researcher(rid, years=1) for rid in ids]
    pub = publication("p1", 7, byline(*["u01"] * 1999, "u02", researcher_ids=ids))
    entries = baseline()
    # The record holds the map; the first researcher's score and every later
    # one read it.
    scores = [researcher_fss(recs[0], [pub], entries, CONFIG)]
    built = pub._first_slots
    assert built == {rid: i for i, rid in enumerate(ids)}
    scores += [researcher_fss(rec, [pub], entries, CONFIG) for rec in recs[1:]]
    assert pub._first_slots is built
    expected = [_reference_fss(rec, [pub], entries, CONFIG) for rec in recs]
    assert scores == expected


@pytest.mark.parametrize("askers", [["r1", "r2"], ["r2", "r1"], ["r1", "r1", "r2"]])
def test_the_first_slot_wins_whoever_asks_first(askers):
    # Unvalidated, as on the library path: r1 holds slots 0 and 2.
    authors = byline("u01", "u02", "u01", researcher_ids=["r1", "r2", "r1"])
    pub = publication("p1", 10, authors)
    slots = {"r1": 0, "r2": 1}
    for rid in askers:
        assert pub.first_slot(rid) == slots[rid]
    assert pub.first_slot("r1") == 0
    assert {rid: pub.first_slot(rid) for rid in slots} == slots


def test_a_researcher_off_the_byline_leaves_the_memo_as_it_was():
    pub = publication("p1", 10, byline("u01", "u02", researcher_ids=["r1", None]))
    for absent in ("r2", None):
        with pytest.raises(KeyError):
            pub.first_slot(absent)
    assert pub._first_slots is None
    assert pub.first_slot("r1") == 0
    with pytest.raises(KeyError):
        pub.first_slot("r2")


# Institution means are taken by build_funnel_report from these values.
CONFIG_ALL_SIZES = AssessmentConfig(min_faculty=1)


def _summaries(table):
    """Institution summaries for {institution: {researcher id: fss}}."""
    values = {inst: list(vals.values()) for inst, vals in table.items()}
    report = build_funnel_report(values, CONFIG_ALL_SIZES)
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
