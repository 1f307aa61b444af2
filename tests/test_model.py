import inspect
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fssfunnel.errors import (
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
from fssfunnel.funnel import build_funnel_report, confidence_bands, fit_pooled
from fssfunnel.indicator import researcher_fss
from fssfunnel.model import (
    DEFAULT_SALARY_COEFFICIENTS,
    AssessmentConfig,
    AuthorSlot,
    CitationBaseline,
    PublicationRecord,
    Rank,
    ResearcherRecord,
    apply_exclusions,
    validate_dataset,
)
from fssfunnel.transform import log_shift_transform
from helpers import baseline, byline, make_report, publication, researcher

CONFIG = AssessmentConfig()


def test_validate_empty_dataset():
    assert validate_dataset([], [], CitationBaseline({}), CONFIG) == {}


def test_validate_minimal_dataset():
    recs = [researcher("r1")]
    pubs = [publication("p1", 7, byline("u01", researcher_ids=["r1"]))]
    index = validate_dataset(recs, pubs, baseline({(2008, "Biochemistry"): 4.2}), CONFIG)
    assert index == {"r1": (pubs[0],)}


@given(st.lists(
    st.lists(st.sampled_from(["r1", "r2", "r3", "r4", None]), min_size=1, max_size=6),
    max_size=12,
))
@settings(deadline=None, derandomize=True)
def test_index_lists_each_researchers_bylines_in_input_order(bylines):
    pubs = []
    for n, ids in enumerate(bylines):
        # Keep each researcher's first slot only; validation rejects repeats.
        ids = [rid if rid not in ids[:i] else None for i, rid in enumerate(ids)]
        year = 2008 if n % 3 else 2020  # the index ignores the period
        authors = byline(*["u01"] * len(ids), researcher_ids=ids)
        # Ids out of input order, so an index in id order would differ; 5 and
        # 12 are coprime, so they stay distinct.
        pubs.append(publication(f"p{5 * n % 12:02d}", n, authors, year=year))
    recs = [researcher(rid) for rid in ("r1", "r2", "r3", "r4", "r5")]
    index = validate_dataset(recs, pubs, baseline(), CONFIG)
    for rec in recs:
        expected = tuple(
            p for p in pubs if rec.researcher_id in [s.researcher_id for s in p.authors]
        )
        assert index.get(rec.researcher_id, ()) == expected
        assert (rec.researcher_id in index) == bool(expected)
    assert "r5" not in index


def test_validate_missing_baseline():
    pubs = [publication("p1", 3, byline("u01"), year=2010)]
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset([], pubs, baseline(), CONFIG)
    (violation,) = exc.value.errors
    assert isinstance(violation, MissingBaseline)
    assert violation.year == 2010


def test_validate_duplicate_researcher_id():
    recs = [researcher("r1"), researcher("r1", inst="u02")]
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset(recs, [], baseline(), CONFIG)
    (violation,) = exc.value.errors
    assert isinstance(violation, DuplicateResearcherId)
    assert violation.researcher_id == "r1"


def test_validate_duplicate_publication_id():
    recs = [researcher("r1")]
    first = publication("p1", 3, byline("u01", researcher_ids=["r1"]))
    pubs = [first, publication("p2", 1, byline("u01")), first, first]
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset(recs, pubs, baseline(), CONFIG)
    (violation,) = exc.value.errors
    assert isinstance(violation, DuplicatePublicationId)
    assert violation.publication_id == "p1"
    assert str(violation) == "duplicate publication id 'p1'"


def test_validate_publication_outside_the_period_needs_no_baseline():
    recs = [researcher("r1")]
    old = publication("p0", 500, byline("u01", researcher_ids=["r1"]), year=1990)
    assert validate_dataset(recs, [old], baseline(), CONFIG) == {"r1": (old,)}
    # Its byline is still checked.
    bad = publication("p0", 5, byline("u01", researcher_ids=["ghost"]), year=2013)
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset(recs, [bad], baseline(), CONFIG)
    assert [type(v) for v in exc.value.errors] == [UnknownResearcherRef]


def test_validate_unknown_researcher_ref():
    pubs = [publication("p1", 1, byline("u01", researcher_ids=["ghost"]))]
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset([], pubs, baseline(), CONFIG)
    (violation,) = exc.value.errors
    assert isinstance(violation, UnknownResearcherRef)
    assert violation.researcher_id == "ghost"


@pytest.mark.parametrize(
    "authors, reason_fragment",
    [
        ((), "empty"),
        ((AuthorSlot(2, None, "u01"),), "positions"),
        ((AuthorSlot(1, None, "u01"), AuthorSlot(3, None, "u02")), "positions"),
        (byline("u01", "u02", researcher_ids=["r1", "r1"]), "multiple author slots"),
    ],
)
def test_validate_malformed_author_lists(authors, reason_fragment):
    pubs = [publication("p1", 0, authors)]
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset([researcher("r1")], pubs, baseline(), CONFIG)
    assert any(
        isinstance(v, MalformedAuthorList) and reason_fragment in v.reason
        for v in exc.value.errors
    )


def test_validate_collects_all_violations():
    recs = [researcher("r1"), researcher("r1")]
    pubs = [
        publication("p1", 1, byline("u01", researcher_ids=["ghost"])),
        publication("p2", 1, byline("u01"), year=2010),
    ]
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset(recs, pubs, baseline(), CONFIG)
    kinds = {type(v) for v in exc.value.errors}
    assert kinds == {DuplicateResearcherId, UnknownResearcherRef, MissingBaseline}


def test_long_byline_violations_keep_their_order():
    # Duplicates first, in the order of their second occurrence, then
    # unknown ids in byline order.
    ids = [f"r{i:04d}" for i in range(1997)] + ["r0100", "ghost", "r0005"]
    authors = byline(*["u01"] * len(ids), researcher_ids=ids)
    recs = [researcher(rid) for rid in ids[:1997]]
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset(recs, [publication("p1", 1, authors)], baseline(), CONFIG)
    assert [(type(v), str(v)) for v in exc.value.errors] == [
        (MalformedAuthorList, "publication 'p1': researcher 'r0100' occupies multiple author slots"),
        (MalformedAuthorList, "publication 'p1': researcher 'r0005' occupies multiple author slots"),
        (UnknownResearcherRef, "publication 'p1' references unknown researcher 'ghost'"),
    ]


@pytest.mark.parametrize("k", [4300, 4301, 5000, 12345])
def test_an_int_too_long_for_repr_is_shown_by_its_digits(k):
    # Past sys.get_int_max_str_digits() (4,300 by default) repr() of an int
    # raises ValueError; a message shows the int's sign and exact number of
    # digits.
    assert sys.get_int_max_str_digits() == 4300
    assert _shown(10**k) == f"<int of {k + 1} digits>"
    assert _shown(-(10**k)) == f"-<int of {k + 1} digits>"
    assert _shown(10**(k + 1) - 1) == f"<int of {k + 1} digits>"


def test_validation_collects_an_int_too_long_for_repr():
    huge = 10**5000
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset(
            [ResearcherRecord("r1", "u", "f", "Full", huge)], [], CitationBaseline({}), CONFIG
        )
    assert [str(v) for v in exc.value.errors] == [
        "researcher 'r1': years_active <int of 5001 digits> exceeds the 5-year observation period",
    ]
    misplaced = publication("p1", 1, (AuthorSlot(huge, "r1", "u01"),))
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset([researcher("r1")], [misplaced], baseline(), CONFIG)
    assert [str(v) for v in exc.value.errors] == [
        "publication 'p1': author positions must run 1..1 in byline order; slot 0 has "
        "position <int of 5001 digits>",
    ]


HUGE = -(10**5000)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: AuthorSlot(HUGE, "r1", "u01"), "position must be >= 1, got -{}"),
        (lambda: researcher("r1", years=HUGE), "years_active must be >= 0, got -{}"),
        (lambda: PublicationRecord("p1", HUGE, "c", 1, ()), "year must be >= 0, got -{}"),
        (lambda: PublicationRecord("p1", 2008, "c", HUGE, ()), "citations must be >= 0, got -{}"),
        (lambda: confidence_bands(None, HUGE, 1.96), "band size must be >= 1, got -{}"),
        (lambda: log_shift_transform([1.0], HUGE), "log shift requires delta > 0, got -{}"),
        (
            lambda: CitationBaseline({(-HUGE, "c"): 0.0}),
            "baseline mean for ({}, 'c') must be finite and > 0, got 0.0",
        ),
    ],
    ids=["position", "years-active", "year", "citations", "band-size", "delta", "baseline-key"],
)
def test_a_library_error_shows_a_huge_int_by_its_digits(call, message):
    # str() of an int past 4,300 digits raises its own ValueError, which would
    # take the place of the message; a negative int keeps its sign and a
    # tuple key is shown part by part.
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message.format("<int of 5001 digits>")


class CountedId(str):
    """A researcher id that counts the hashes and comparisons made of it."""

    operations = 0

    def __hash__(self):
        CountedId.operations += 1
        return str.__hash__(self)

    def __eq__(self, other):
        CountedId.operations += 1
        return str.__eq__(self, other)


def byline_operations(n):
    """The hashes and comparisons of ids taken to validate one byline of
    ``n`` assessed authors and to score each of them."""
    ids = [CountedId(f"r{i:05d}") for i in range(n)]
    records = [researcher(rid) for rid in ids]
    pub = publication("p1", 10, byline(*["u01"] * n, researcher_ids=ids))
    baselines = baseline()
    CountedId.operations = 0
    index = validate_dataset(records, [pub], baselines, CONFIG)
    for record in records:
        researcher_fss(record, index[record.researcher_id], baselines, CONFIG)
    return CountedId.operations


def test_one_long_byline_takes_id_operations_linear_in_its_length():
    # Counted, not timed, so no host noise: a scan of the byline per author
    # would take 16 times the operations at 4 times the authors.
    assert byline_operations(2000) <= 5 * byline_operations(500)


LONG_ID = "x" * 100_000


@pytest.mark.parametrize(
    "call",
    [
        lambda: fit_pooled([("a", [1.0, 2.0]), (LONG_ID, [])]),
        lambda: build_funnel_report({"a": [1.0, 2.0], LONG_ID: []}, CONFIG),
        lambda: build_funnel_report({"a": [1.0, 2.0], LONG_ID: [math.nan]}, CONFIG),
        lambda: researcher_fss(researcher(LONG_ID, years=0), [], baseline(), CONFIG),
        lambda: researcher_fss(
            researcher(LONG_ID), [publication(LONG_ID, 1, byline("u01"))], baseline(), CONFIG
        ),
        lambda: AssessmentConfig(skewness_tolerance=LONG_ID),
        lambda: CitationBaseline({(2008, LONG_ID): 0.0}),
    ],
    ids=[
        "empty-group", "no-values", "not-finite", "zero-years", "not-an-author",
        "not-a-real-number", "baseline-mean",
    ],
)
def test_a_library_error_shows_a_long_id_cut(call):
    # Each message names the id through errors._shown: cut after 100
    # characters, with the full length (of the key, for a baseline), so the
    # line stays short.
    with pytest.raises((ValueError, TypeError)) as exc:
        call()
    message = str(exc.value)
    assert re.search(r"\.\.\. \(1000\d\d characters\)", message)
    assert len(message) < 400


def test_validate_years_active_beyond_period():
    # The default period 2008-2012 is 5 years long.
    recs = [researcher("r1", years=5), researcher("r2", years=6)]
    pubs = [publication("p1", 1, byline("u01"), year=2010)]
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset(recs, pubs, baseline(), CONFIG)
    period, missing = exc.value.errors
    assert isinstance(period, YearsOutOfRange)
    assert (period.researcher_id, period.years_active, period.period_length) == ("r2", 6, 5)
    assert isinstance(missing, MissingBaseline)
    longer = AssessmentConfig(period_start=2007)
    assert validate_dataset(recs, [], baseline(), longer) == {}


def test_validate_does_not_mutate_inputs():
    recs = [researcher("r1")]
    pubs = [publication("p1", 2, byline("u01", researcher_ids=["r1"]))]
    recs_copy, pubs_copy = list(recs), list(pubs)
    index = validate_dataset(recs, pubs, baseline(), CONFIG)
    assert recs == recs_copy and pubs == pubs_copy
    assert index == {"r1": tuple(pubs_copy)}


def _population_of(researchers, config=CONFIG):
    validate_dataset(researchers, [], baseline(), config)
    return apply_exclusions(researchers, config)


def _kept(population):
    """Every kept researcher, institution by institution."""
    return [rec for members in population.institutions.values() for rec in members]


def test_exclusions_retain_full_institution():
    recs = [researcher(f"r{i}", years=5) for i in range(5)]
    population = _population_of(recs)
    assert len(_kept(population)) == 5
    assert population.dropped_researchers == 0
    assert population.dropped_institutions == 0


def test_exclusions_apply_researcher_filter_before_institution_filter():
    # 6 researchers, 2 below tenure: institution shrinks to 4 < 5 and is dropped.
    recs = [researcher(f"r{i}", years=5) for i in range(4)]
    recs += [researcher("r4", years=2), researcher("r5", years=2)]
    recs += [researcher(f"s{i}", inst="u02", years=5) for i in range(5)]
    population = _population_of(recs)
    assert population.dropped_researchers == 2
    assert population.dropped_institutions == 1
    assert {r.institution_id for r in _kept(population)} == {"u02"}


def test_exclusions_empty_population():
    recs = [researcher("r1", years=1)]
    with pytest.raises(EmptyPopulation):
        _population_of(recs)


def test_exclusions_idempotent():
    recs = [researcher(f"r{i}", years=3 + i % 3) for i in range(8)]
    recs += [researcher(f"s{i}", inst="u02", years=2) for i in range(6)]
    config = AssessmentConfig()
    first = _population_of(recs, config)
    second = apply_exclusions(_kept(first), config)
    assert second.institutions == first.institutions


def test_exclusions_group_each_institution_in_row_order():
    recs = [researcher(rid, inst=inst, years=5) for rid, inst in [
        ("r9", "u02"), ("r3", "u01"), ("r7", "u02"), ("r1", "u01"), ("r5", "u03"),
    ]]
    population = _population_of(recs, AssessmentConfig(min_faculty=2))
    assert {inst: [r.researcher_id for r in members]
            for inst, members in population.institutions.items()} == {
        "u02": ["r9", "r7"], "u01": ["r3", "r1"],
    }
    # An institution comes at its first kept researcher, a member at its row.
    assert list(population.institutions) == ["u02", "u01"]
    assert [r.researcher_id for r in _kept(population)] == ["r9", "r7", "r3", "r1"]
    assert (population.dropped_researchers, population.dropped_institutions) == (0, 1)


def test_exclusions_postconditions():
    recs = [researcher(f"r{i}", years=i % 6) for i in range(30)]
    recs += [researcher(f"s{i}", inst="u02", years=4) for i in range(7)]
    config = AssessmentConfig(min_years_active=2, min_faculty=4)
    population = _population_of(recs, config)
    assert all(r.years_active >= 2 for r in _kept(population))
    assert all(len(members) >= 4 for members in population.institutions.values())


def test_researcher_record_takes_a_rank_by_its_value():
    given_value = ResearcherRecord("r1", "u01", "Biochemistry", "Full", 3)
    assert given_value.rank is Rank.FULL
    assert given_value == researcher("r1", rank=Rank.FULL, years=3)
    pub = publication("p1", 10, byline("u01", researcher_ids=["r1"]))
    # (10 / 5) / 2.0 (full professor) / 3 years.
    assert researcher_fss(given_value, [pub], baseline(), CONFIG) == 2.0 / 2.0 / 3


@pytest.mark.parametrize("rank", ["bogus", "full", None])
def test_researcher_record_rejects_an_unknown_rank(rank):
    with pytest.raises(ValueError):
        ResearcherRecord("r1", "u01", "Biochemistry", rank, 3)


def test_researcher_record_rejects_negative_years():
    with pytest.raises(ValueError):
        researcher("r1", years=-1)


def test_publication_record_stores_a_list_byline_as_a_tuple():
    authors = list(byline("u01", "u02", researcher_ids=["r1", None]))
    record = PublicationRecord("p1", 2008, "Biochemistry", 3, authors)
    assert type(record.authors) is tuple
    assert record.authors == tuple(authors)


def test_publication_record_rejects_negative_citations():
    with pytest.raises(ValueError):
        publication("p1", -3, byline("u01"))


def test_publication_record_rejects_a_negative_year():
    # The reader's rule for the year column.
    with pytest.raises(ValueError, match="year must be >= 0, got -1"):
        PublicationRecord("p1", -1, "Biochemistry", 3, byline("u01"))
    assert PublicationRecord("p1", 0, "Biochemistry", 3, byline("u01")).year == 0


def test_baseline_rejects_non_positive_mean():
    with pytest.raises(ValueError):
        CitationBaseline({(2008, "Biochemistry"): 0.0})


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf])
def test_baseline_rejects_non_finite_mean(mean):
    # The reader's rule: a NaN mean would otherwise give a NaN pooled SD.
    with pytest.raises(ValueError, match="finite"):
        CitationBaseline({(2008, "Biochemistry"): mean})


@pytest.mark.parametrize("rid, inst", [("", "u01"), ("r1", " ")])
def test_researcher_record_rejects_blank_ids(rid, inst):
    with pytest.raises(ValueError, match="blank"):
        researcher(rid, inst=inst)


@pytest.mark.parametrize("pid", ["", " "])
def test_publication_record_rejects_a_blank_id(pid):
    with pytest.raises(ValueError, match="blank"):
        publication(pid, 3, byline("u01", researcher_ids=["r1"]))


@pytest.mark.parametrize("inst", ["", " "])
def test_author_slot_rejects_a_blank_institution(inst):
    # Two blank ends would otherwise compare equal and score as intramural.
    with pytest.raises(ValueError, match="blank"):
        AuthorSlot(1, None, inst)


@pytest.mark.parametrize("rid", ["", " ", "\t"])
def test_author_slot_rejects_a_blank_researcher_id(rid):
    # A blank id is no researcher; None is the external author.
    with pytest.raises(ValueError, match="blank"):
        AuthorSlot(1, rid, "u01")
    assert AuthorSlot(1, None, "u01").researcher_id is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_years_active": 0},
        {"min_faculty": 0},
        {"band_z_levels": (3.0, 2.0)},
        {"band_z_levels": (2.0,)},
        {"delta_bracket": (0.0, 1.0)},
        {"period_start": 2012, "period_end": 2008},
        {"skewness_tolerance": 0.0},
        {"grand_mean_mode": "median"},
        {"salary_coefficients": {Rank.ASSISTANT: 1.0}},
        {"skewness_target": "median"},
        {"weighting_scheme": "bogus"},
        {"salary_coefficients": {**DEFAULT_SALARY_COEFFICIENTS, Rank.FULL: math.nan}},
        {"salary_coefficients": {**DEFAULT_SALARY_COEFFICIENTS, Rank.FULL: math.inf}},
        {"band_z_levels": (2.0, math.inf)},
        {"delta_bracket": (1e-9, math.inf)},
        {"skewness_tolerance": math.nan},
        {"band_z_levels": (1.0, 2.0, 3.0)},
    ],
)
def test_config_invariants(kwargs):
    with pytest.raises(ValueError):
        AssessmentConfig(**kwargs)


def test_config_defaults_match_documented_values():
    config = AssessmentConfig()
    assert config.min_years_active == 3
    assert config.min_faculty == 5
    assert config.salary_coefficients[Rank.ASSISTANT] == 1.0
    assert config.salary_coefficients[Rank.ASSOCIATE] == 1.4
    assert config.salary_coefficients[Rank.FULL] == 2.0
    assert config.band_z_levels == (2.0, 3.0)
    assert config.period_length == 5


def _floats_in(value) -> list:
    """The numbers a config value holds: itself, a tuple's items or a dict's values."""
    if isinstance(value, dict):
        return list(value.values())
    return list(value) if isinstance(value, tuple) else [value]


# Every field whose default holds floats, with the same values given as ints.
INT_GIVEN_FLOAT_FIELDS = {
    "band_z_levels": (2, 3),
    "delta_bracket": (1, 10),
    "skewness_tolerance": 1,
    "salary_coefficients": {Rank.FULL: 3, Rank.ASSISTANT: 1, Rank.ASSOCIATE: 2},
}


@pytest.mark.parametrize("name", INT_GIVEN_FLOAT_FIELDS)
def test_ints_in_float_fields_are_held_as_floats(name):
    defaults = AssessmentConfig()
    assert set(INT_GIVEN_FLOAT_FIELDS) == {
        name for name in AssessmentConfig._fields
        if all(type(x) is float for x in _floats_in(getattr(defaults, name)))
    }
    given = INT_GIVEN_FLOAT_FIELDS[name]
    held = getattr(AssessmentConfig(**{name: given}), name)
    assert held == given
    assert all(type(x) is float for x in _floats_in(held))
    if isinstance(held, dict):
        assert list(held) == list(Rank)  # the default's order, not the caller's


def test_numpy_ints_are_held_as_ints():
    np = pytest.importorskip("numpy")
    config = AssessmentConfig(min_faculty=np.int64(2), period_end=np.int32(2013))
    assert config == AssessmentConfig(min_faculty=2, period_end=2013)
    assert type(config.min_faculty) is int and type(config.period_end) is int


@pytest.mark.parametrize("value", [2008.0, "2008", None])
def test_an_int_field_takes_no_float_or_text(value):
    with pytest.raises(TypeError):
        AssessmentConfig(period_start=value)


def test_a_list_is_held_as_the_tuple_of_its_values():
    config = AssessmentConfig(delta_bracket=[1e-9, 10.0], band_z_levels=[2, 3.0])
    assert config == AssessmentConfig()
    assert type(config.delta_bracket) is tuple and type(config.band_z_levels) is tuple


@pytest.mark.parametrize("name", ["band_z_levels", "delta_bracket"])
@pytest.mark.parametrize("values", [(1.0,), (1e-9, 1.0, 10.0)])
def test_a_pair_field_takes_exactly_two_values(name, values):
    with pytest.raises(ValueError, match=f"^{name} needs 2 values, got {len(values)}$"):
        AssessmentConfig(**{name: values})


@pytest.mark.parametrize("levels", [("2", "3"), (2j, 3j), (None, 3.0)])
def test_band_levels_that_are_not_real_numbers_raise(levels):
    with pytest.raises(TypeError):
        AssessmentConfig(band_z_levels=levels)


def test_per_entity_records_have_no_instance_dict():
    report = make_report(
        {"A": [0.1, 0.5, 0.2, 0.9, 0.33], "B": [0.0, 0.41, 0.07, 0.64, 0.5, 0.28]}
    )
    records = [
        researcher("r1"),
        AuthorSlot(1, "r1", "u01"),
        publication("p1", 3, byline("u01", researcher_ids=["r1"])),
        report.summaries[0],
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)


def test_first_slots_memo_is_no_part_of_the_record():
    def repeated_author():
        # Long enough to keep a map: a byline of at most 32 slots is scanned.
        ids = ["r1", "r2", "r1"] + [None] * 30
        authors = byline("u01", "u02", *["u01"] * 31, researcher_ids=ids)
        return publication("p1", 3, authors)

    built, fresh = repeated_author(), repeated_author()
    # The first ask builds the map; the first slot wins for a repeated id.
    assert built.first_slot("r2") == 1
    memo = built._first_slots
    assert memo == {"r1": 0, "r2": 1}
    assert built.first_slot("r1") == 0
    assert built._first_slots is memo
    assert fresh._first_slots is None
    assert built == fresh
    assert hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)
    assert "first_slots" not in repr(built)
    assert list(inspect.signature(PublicationRecord).parameters) == [
        "publication_id", "year", "subject_category", "citations", "authors",
    ]


def reference_validation(researchers, publications, baselines, config):
    """What ``validate_dataset`` finds, written out rule by rule: its
    violations as (type, text) in order, or its index as (id, publication
    ids) items in first-listed order."""
    period = config.period_end - config.period_start + 1

    def repeats(ids):
        counts = {}
        for item in ids:
            counts[item] = counts.get(item, 0) + 1
            if counts[item] == 2:
                yield item

    errors = [
        YearsOutOfRange(r.researcher_id, r.years_active, period)
        for r in researchers
        if r.years_active > period
    ]
    errors += [DuplicateResearcherId(rid) for rid in repeats(r.researcher_id for r in researchers)]
    errors += [DuplicatePublicationId(pid) for pid in repeats(p.publication_id for p in publications)]
    known = {r.researcher_id for r in researchers}
    reported = set()
    for pub in publications:
        pid, slots = pub.publication_id, pub.authors
        ids = [s.researcher_id for s in slots if s.researcher_id is not None]
        if not slots:
            errors.append(MalformedAuthorList(pid, "empty author list"))
        else:
            wrong = [i for i, s in enumerate(slots) if s.position != i + 1]
            if wrong:
                errors.append(MalformedAuthorList(
                    pid,
                    f"author positions must run 1..{len(slots)} in byline order; "
                    f"slot {wrong[0]} has position {slots[wrong[0]].position}",
                ))
            twice = list(repeats(ids))
            errors += [
                MalformedAuthorList(pid, f"researcher {rid!r} occupies multiple author slots")
                for rid in twice
            ]
            errors += [
                UnknownResearcherRef(pid, rid) for rid in ids if rid not in known and rid not in twice
            ]
        key = (pub.year, pub.subject_category)
        inside = config.period_start <= pub.year <= config.period_end
        if inside and key not in baselines.entries and key not in reported:
            reported.add(key)
            errors.append(MissingBaseline(*key))
    if errors:
        return [(type(e), str(e)) for e in errors]
    index = {}
    for pub in publications:
        for slot in pub.authors:
            if slot.researcher_id is not None:
                index.setdefault(slot.researcher_id, []).append(pub)
    return [(rid, [p.publication_id for p in pubs]) for rid, pubs in index.items()]


DEFECTS = (
    "repeated researcher id", "years beyond the period", "repeated publication id",
    "empty byline", "misplaced position", "researcher twice on a byline", "unknown id",
    "missing baseline inside the period", "missing baseline outside the period",
)


@st.composite
def defective_datasets(draw):
    """A clean dataset with any subset of ``DEFECTS`` put in, each at drawn
    places (a defect may land more than once)."""
    defects = draw(st.sets(st.sampled_from(DEFECTS)))
    config = AssessmentConfig(period_start=2008, period_end=2010)
    ids = [f"r{i}" for i in range(draw(st.integers(1, 5)))]
    if "repeated researcher id" in defects:
        ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))
    top = 5 if "years beyond the period" in defects else 3
    researchers = [researcher(rid, years=draw(st.integers(1, top))) for rid in ids]
    pids = [f"p{i}" for i in range(draw(st.integers(1, 6)))]
    if "repeated publication id" in defects:
        pids.insert(draw(st.integers(0, len(pids))), draw(st.sampled_from(pids)))
    years = st.integers(2007, 2011)
    publications = []
    for pid in pids:
        listed = draw(st.lists(st.sampled_from(ids), max_size=4, unique=True))
        listed += [None] * draw(st.integers(0 if listed else 1, 3))
        listed = draw(st.permutations(listed))
        if "unknown id" in defects and draw(st.booleans()):
            listed[draw(st.integers(0, len(listed) - 1))] = "zz"
        if "researcher twice on a byline" in defects:
            for _ in range(draw(st.integers(0, 2))):
                listed.insert(draw(st.integers(0, len(listed))), draw(st.sampled_from(ids)))
        if "empty byline" in defects and draw(st.booleans()):
            listed = []
        positions = list(range(1, len(listed) + 1))
        if "misplaced position" in defects and listed:
            for i in draw(st.lists(st.integers(0, len(listed) - 1), min_size=1, max_size=3)):
                positions[i] = draw(st.integers(1, 7))
        slots = tuple(AuthorSlot(pos, rid, "u01") for pos, rid in zip(positions, listed))
        publications.append(publication(
            pid, draw(st.integers(0, 9)), slots,
            year=draw(years), category=draw(st.sampled_from(["A", "B"])),
        ))
    entries = {(year, c): 2.0 for year in range(2007, 2012) for c in "AB"}
    for defect, inside in (
        ("missing baseline inside the period", True),
        ("missing baseline outside the period", False),
    ):
        if defect in defects:
            for year in draw(st.lists(years.filter(lambda y: (2008 <= y <= 2010) == inside))):
                entries.pop((year, draw(st.sampled_from("AB"))), None)
    return researchers, publications, CitationBaseline(entries), config


@settings(max_examples=400, deadline=None, derandomize=True)
@given(defective_datasets())
def test_validation_matches_its_rules_written_out(dataset):
    expected = reference_validation(*dataset)
    try:
        index = validate_dataset(*dataset)
    except ValidationErrors as exc:
        got = [(type(e), str(e)) for e in exc.errors]
    else:
        got = [(rid, [p.publication_id for p in pubs]) for rid, pubs in index.items()]
        assert all(type(pubs) is tuple for pubs in index.values())
    assert got == expected
