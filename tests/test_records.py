"""The records' contract: construction, equality, hash, repr and
immutability, pinned field by field so that a change of how the records are
built cannot change how they behave."""

import pickle

import pytest

from fssfunnel.funnel import (
    BandPoint,
    Classification,
    FunnelReport,
    InstitutionSummary,
    PooledFit,
)
from fssfunnel.model import (
    AssessablePopulation,
    AssessmentConfig,
    AuthorSlot,
    CitationBaseline,
    PublicationRecord,
    Rank,
    ResearcherRecord,
)
from fssfunnel.transform import TransformSpec

SLOT = AuthorSlot(1, "r1", "u01")

# Each per-row record: its type, its field values in order, and its repr.
PER_ROW = {
    "researcher": (
        ResearcherRecord,
        ("r1", "u01", "Biochemistry", Rank.FULL, 3),
        "ResearcherRecord(researcher_id='r1', institution_id='u01', "
        "field_code='Biochemistry', rank=<Rank.FULL: 'Full'>, years_active=3)",
    ),
    "slot": (
        AuthorSlot,
        (2, None, "ext07"),
        "AuthorSlot(position=2, researcher_id=None, institution_id='ext07')",
    ),
    "publication": (
        PublicationRecord,
        ("p1", 2009, "Biochemistry", 7, (SLOT,)),
        "PublicationRecord(publication_id='p1', year=2009, subject_category='Biochemistry', "
        "citations=7, authors=(AuthorSlot(position=1, researcher_id='r1', "
        "institution_id='u01'),))",
    ),
}
NAMES = {
    ResearcherRecord: ("researcher_id", "institution_id", "field_code", "rank", "years_active"),
    AuthorSlot: ("position", "researcher_id", "institution_id"),
    PublicationRecord: ("publication_id", "year", "subject_category", "citations", "authors"),
}


@pytest.mark.parametrize("kind", PER_ROW)
def test_a_per_row_record_is_built_by_position_or_by_keyword(kind):
    cls, values, _ = PER_ROW[kind]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(NAMES[cls], values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in NAMES[cls]] == list(values)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])


@pytest.mark.parametrize("kind", PER_ROW)
def test_a_per_row_record_prints_each_field_by_name(kind):
    cls, values, text = PER_ROW[kind]
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("kind", PER_ROW)
def test_equal_per_row_records_are_equal_and_hash_alike(kind):
    cls, values, _ = PER_ROW[kind]
    one, other = cls(*values), cls(*values)
    assert one == other and not one != other
    assert hash(one) == hash(other)
    assert len({one, other}) == 1
    # A record is no tuple, whatever it holds.
    assert one != tuple(values) and tuple(values) != one


@pytest.mark.parametrize("kind", PER_ROW)
def test_per_row_records_differ_by_any_field(kind):
    cls, values, _ = PER_ROW[kind]
    changed = {
        ResearcherRecord: ("r2", "u02", "Chemistry", Rank.ASSISTANT, 4),
        AuthorSlot: (3, "r9", "u09"),
        PublicationRecord: ("p2", 2010, "Chemistry", 8, (SLOT, AuthorSlot(2, None, "x"))),
    }[cls]
    for i in range(len(values)):
        other = list(values)
        other[i] = changed[i]
        assert cls(*values) != cls(*other), NAMES[cls][i]


@pytest.mark.parametrize("kind", PER_ROW)
def test_a_per_row_record_takes_no_assignment(kind):
    cls, values, _ = PER_ROW[kind]
    record = cls(*values)
    for name in NAMES[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(TypeError):
        vars(record)
    assert [getattr(record, name) for name in NAMES[cls]] == list(values)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ResearcherRecord("r1", "u01", "Biochemistry", Rank.FULL, -1),
        lambda: ResearcherRecord(" ", "u01", "Biochemistry", Rank.FULL, 3),
        lambda: ResearcherRecord("r1", "", "Biochemistry", Rank.FULL, 3),
        lambda: ResearcherRecord("r1", "u01", "Biochemistry", "Dean", 3),
        lambda: AuthorSlot(0, "r1", "u01"),
        lambda: AuthorSlot(1, "\t", "u01"),
        lambda: AuthorSlot(1, None, " "),
        lambda: PublicationRecord("p1", 2009, "Biochemistry", -1, (SLOT,)),
        lambda: PublicationRecord("p1", -1, "Biochemistry", 7, (SLOT,)),
        lambda: PublicationRecord("", 2009, "Biochemistry", 7, (SLOT,)),
        lambda: CitationBaseline({(2009, "Biochemistry"): 0.0}),
        lambda: AssessmentConfig(min_faculty=0),
    ],
)
def test_every_constructor_check_raises_value_error(build):
    with pytest.raises(ValueError):
        build()


def _result_records():
    """One of each per-run and per-institution record, built by keyword."""
    band = BandPoint(n=4, level_z=2.0, lower=-1.0, upper=1.0)
    outer = BandPoint(n=4, level_z=3.0, lower=-1.5, upper=1.5)
    fit = PooledFit(grand_mean=0.5, pooled_sd=1.0, total_n=8, group_count=2)
    spec = TransformSpec(
        delta=0.1, achieved_skewness=0.0, bracket_used=(1e-9, 10.0), converged=True
    )
    summary = InstitutionSummary(
        institution_id="A",
        size=4,
        mean_transformed=0.2,
        mean_original=1.2,
        classification=Classification.WITHIN,
        inner_band=band,
        outer_band=outer,
    )
    report = FunnelReport(
        fit=fit,
        transform=spec,
        summaries=(summary,),
        qq_points=None,
        size_slope=None,
        rankings={"A": 1},
        config=AssessmentConfig(),
    )
    population = AssessablePopulation(
        institutions={"A": ()}, dropped_researchers=1, dropped_institutions=0
    )
    baselines = CitationBaseline(entries={(2009, "Biochemistry"): 5.0})
    config = AssessmentConfig(min_faculty=2, grand_mean_mode="group_means")
    return [band, fit, spec, summary, report, population, baselines, config]


def test_result_records_are_built_by_keyword():
    band, fit, spec, summary, report, population, baselines, config = _result_records()
    assert (band.n, band.level_z, band.lower, band.upper) == (4, 2.0, -1.0, 1.0)
    assert summary.inner_band is band and summary.outer_band.level_z == 3.0
    assert report.fit is fit and report.transform is spec and report.summaries == (summary,)
    assert spec.bracket_used == (1e-9, 10.0) and spec.converged is True
    assert population.dropped_researchers == 1 and population.institutions == {"A": ()}
    assert baselines.entries == {(2009, "Biochemistry"): 5.0}
    assert config.min_faculty == 2 and config.grand_mean_mode.value == "group_means"


def test_a_fit_built_by_hand_needs_no_group_means():
    fit = PooledFit(0.5, 1.0, 8, 2)
    assert fit.group_means == ()
    assert fit == PooledFit(grand_mean=0.5, pooled_sd=1.0, total_n=8, group_count=2)
    assert fit != PooledFit(0.5, 1.0, 8, 2, (0.25, 0.75))


@pytest.mark.parametrize("index", [0, 1, 2, 3, 4, 6, 7])
def test_frozen_result_records_take_no_assignment(index):
    record = _result_records()[index]
    for name in ("n", "grand_mean", "delta", "size", "fit", "entries", "min_faculty"):
        if hasattr(record, name):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


@pytest.mark.parametrize("index", range(8))
def test_every_record_survives_pickling(index):
    record = _result_records()[index]
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("kind", PER_ROW)
def test_a_per_row_record_survives_pickling(kind):
    cls, values, _ = PER_ROW[kind]
    assert pickle.loads(pickle.dumps(cls(*values))) == cls(*values)


def test_every_record_names_its_fields_and_replaces_them():
    records = [cls(*values) for cls, values, _ in PER_ROW.values()] + _result_records()
    for record in records:
        names = type(record)._fields
        assert type(names) is tuple and names == record._fields
        assert all(type(name) is str and hasattr(record, name) for name in names)
        same = record._replace()
        assert same == record and type(same) is type(record)
        assert same is not record
    researcher, slot, publication = records[:3]
    assert NAMES == {type(r): r._fields for r in records[:3]}
    moved = researcher._replace(institution_id="u02", rank="Associate")
    assert moved == ResearcherRecord("r1", "u02", "Biochemistry", Rank.ASSOCIATE, 3)
    assert slot._replace(position=5) == AuthorSlot(5, None, "ext07")
    with pytest.raises(ValueError):
        publication._replace(citations=-1)  # the constructor's checks run again
    config = _result_records()[-1]
    assert config._replace(min_faculty=5) == AssessmentConfig(grand_mean_mode="group_means")


def test_no_record_takes_a_new_attribute():
    # A frozen slotted dataclass raised TypeError here on CPython 3.11.
    records = [cls(*values) for cls, values, _ in PER_ROW.values()] + _result_records()
    for record in records:
        with pytest.raises(AttributeError):
            record.extra = 1
    # The population, which a run builds once, is immutable too.
    population = _result_records()[5]
    with pytest.raises(AttributeError):
        population.dropped_researchers = 2
