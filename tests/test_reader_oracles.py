"""Oracle tests of the config-file reader and the three CSV readers.

Each test writes files with the quirks README accepts and at most one
defect, or a defect and a later byte that is not UTF-8, and reads them
twice: with the package's reader and with a small reference reader written
here from README's rules. Both must give the same value, or the same first
``file:line: column: reason`` in file order."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fssfunnel.cli import (
    parse_config_file,
    read_baselines_csv,
    read_publications_csv,
    read_researchers_csv,
)
from fssfunnel.errors import ParseError
from fssfunnel.model import (
    DEFAULT_SALARY_COEFFICIENTS,
    AssessmentConfig,
    GrandMeanMode,
    Rank,
    SkewnessTarget,
    WeightingScheme,
)
from helpers import SLOT_DEFECTS, reference_slot

BAD_BYTE = "\ue000"  # stands for a byte that is not UTF-8 until the text is encoded


def put_bad_byte(draw, rows: list[list[str]], first: int = 0) -> None:
    """Put a byte that is not UTF-8 into one cell of a row from ``rows[first]`` on."""
    if first < len(rows):
        row = rows[draw(st.integers(first, len(rows) - 1))]
        column = draw(st.integers(0, len(row) - 1))
        cut = draw(st.integers(0, len(row[column])))
        row[column] = row[column][:cut] + BAD_BYTE + row[column][cut:]


# ---------------------------------------------------------------------------
# the config file
# ---------------------------------------------------------------------------

INT_KEYS = ("period_start", "period_end", "min_years_active", "min_faculty")
SALARY_KEYS = {f"salary_coefficient_{rank.value.lower()}": rank for rank in Rank}
FLOAT_KEYS = (*SALARY_KEYS, "skewness_tolerance")
PAIR_KEYS = ("band_z_levels", "delta_bracket")
ENUM_KEYS = {
    "weighting_scheme": WeightingScheme,
    "grand_mean_mode": GrandMeanMode,
    "skewness_target": SkewnessTarget,
}
CONFIG_KEYS = (*INT_KEYS, *FLOAT_KEYS, *PAIR_KEYS, *ENUM_KEYS)

INT_TEXT = re.compile(r"[+-]?[0-9]+")
FLOAT_TEXT = re.compile(
    r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[+-]?(?:inf|infinity|nan)",
    re.IGNORECASE,
)


def _reference_value(key: str, text: str):
    """(value, None) for a good value text, (None, reason) for a bad one."""
    if key in ENUM_KEYS:
        allowed = sorted(member.value for member in ENUM_KEYS[key])
        if text not in allowed:
            return None, f"expected one of {allowed}, got {text!r}"
        return ENUM_KEYS[key](text), None
    if key in INT_KEYS:
        return (int(text), None) if INT_TEXT.fullmatch(text) else (None, f"bad value {text!r}")
    if key in FLOAT_KEYS:
        return (float(text), None) if FLOAT_TEXT.fullmatch(text) else (None, f"bad value {text!r}")
    parts = [part.strip(" \t") for part in text.split(",")]
    if not all(FLOAT_TEXT.fullmatch(part) for part in parts):
        return None, f"bad value {text!r}"
    if len(parts) != 2:
        return None, f"expected 2 values, got {text!r}"
    return tuple(float(part) for part in parts), None


def _config_of(values: dict) -> AssessmentConfig | str:
    """The config these key values give, or the message of the invariant
    they break; a salary key overrides one rank of the default."""
    kwargs = {key: value for key, value in values.items() if key not in SALARY_KEYS}
    kwargs["salary_coefficients"] = {
        **DEFAULT_SALARY_COEFFICIENTS,
        **{SALARY_KEYS[key]: value for key, value in values.items() if key in SALARY_KEYS},
    }
    try:
        return AssessmentConfig(**kwargs)
    except ValueError as exc:
        return str(exc)


def reference_config(data: bytes, path: str) -> AssessmentConfig | str:
    """The config a file gives, or the ParseError text of its first defect.
    A whole line's own defect is named first, in line order; then a byte that
    is not UTF-8, at its line under its line's key; then a broken invariant,
    at the first line by which the lines so far break it."""

    def error(line_no, column, reason):
        return f"{path}:{line_no}: column {column!r}: {reason}"

    try:
        text, bad_byte = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8").removeprefix("\ufeff")
        text, _, partial = before.rpartition("\n")
        bad_byte = error(
            before.count("\n") + 1,
            partial.partition("=")[0].strip(),
            f"not UTF-8: byte 0x{data[exc.start]:02x}",
        )
    values: dict[str, object] = {}
    read: list[tuple[int, str, AssessmentConfig | str]] = []
    for line_no, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value_text = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            return error(line_no, key, "unknown configuration key")
        if key in values:
            return error(line_no, key, "key given twice")
        value, reason = _reference_value(key, value_text.strip())
        if reason is not None:
            return error(line_no, key, reason)
        values[key] = value
        read.append((line_no, key, _config_of(values)))
    if bad_byte is not None:
        return bad_byte
    config = _config_of(values)
    if isinstance(config, str):
        line_no, key, _ = next(entry for entry in read if entry[2] == config)
        return error(line_no, key, config)
    return config


def _number_text(value: float):
    return st.sampled_from([repr(value), f"{value:e}", f"{value:E}", f"{value:g}"])


GOOD_VALUES = {
    # Any subset of these, in any order, keeps every invariant.
    "period_start": st.integers(1990, 2008).map(str),
    "period_end": st.integers(2008, 2030).map(str),
    "min_years_active": st.sampled_from(["1", "3", "+4", "007"]),
    "min_faculty": st.integers(1, 40).map(str),
    **{
        key: st.sampled_from([0.5, 1.0, 1.4, 2.0, 3.25]).flatmap(_number_text)
        for key in SALARY_KEYS
    },
    "skewness_tolerance": st.sampled_from([1e-9, 1e-12, 0.001]).flatmap(_number_text),
    "band_z_levels": st.sampled_from(["2,3", "1.5,3.5", "1.96, 3.09", "2.0,3.0", "1e0,2.5E0"]),
    "delta_bracket": st.sampled_from(["1e-9,10", "1e-8,20.0", "0.001, 5", "1E-12,1e2"]),
    **{
        key: st.sampled_from(sorted(member.value for member in enum))
        for key, enum in ENUM_KEYS.items()
    },
}
NUMBER_KEYS = (*INT_KEYS, *FLOAT_KEYS, *PAIR_KEYS)
# key -> a value that breaks an invariant of AssessmentConfig on its own.
BREAKERS = {
    "min_faculty": "0",
    "min_years_active": "0",
    "band_z_levels": "3,2",
    "delta_bracket": "2,1",
    "skewness_tolerance": "0",
    "salary_coefficient_full": "0",
    "period_start": "2015",
    "period_end": "2001",
}
# The other period key, at a value that mends the rule if it comes later.
MENDERS = {"period_start": ("period_end", "2020"), "period_end": ("period_start", "1995")}


@st.composite
def config_files(draw) -> bytes:
    keys = draw(st.permutations(CONFIG_KEYS))
    entries = [[key, draw(GOOD_VALUES[key])] for key in keys[: draw(st.integers(0, len(keys)))]]

    def put(key, value):
        """Give ``key`` this value on its line, or on a new line anywhere."""
        for entry in entries:
            if entry[0] == key:
                entry[1] = value
                return
        entries.insert(draw(st.integers(0, len(entries))), [key, value])

    defect = draw(st.sampled_from([
        None, "unknown", "repeat", "underscore", "full_width", "nan", "length", "enum",
        "invariant",
    ]))
    if defect == "unknown":
        unknown = ["unknown_key", "Min_Faculty", "salary_coefficient_emeritus"]
        put(draw(st.sampled_from(unknown)), "1")
    elif defect == "repeat" and entries:
        at = draw(st.integers(0, len(entries) - 1))
        key = entries[at][0]
        entries.insert(draw(st.integers(at + 1, len(entries))), [key, draw(GOOD_VALUES[key])])
    elif defect in ("underscore", "full_width", "nan"):
        key = draw(st.sampled_from(NUMBER_KEYS))
        choices = {"underscore": ["1_0"], "full_width": ["\uff12"], "nan": ["nan", "inf"]}
        bad = draw(st.sampled_from(choices[defect]))
        put(key, f"{bad},3" if key in PAIR_KEYS else bad)
    elif defect == "length":
        put(draw(st.sampled_from(PAIR_KEYS)), draw(st.sampled_from(["1.5", "1,2,3", " 2 "])))
    elif defect == "enum":
        bad = draw(st.sampled_from(["median", "Individuals", ""]))
        put(draw(st.sampled_from(sorted(ENUM_KEYS))), bad)
    elif defect == "invariant":
        key = draw(st.sampled_from(sorted(BREAKERS)))
        put(key, BREAKERS[key])
        if key in MENDERS and draw(st.booleans()):
            other, mend = MENDERS[key]
            entries[:] = [entry for entry in entries if entry[0] != other]
            put(other, mend)

    lines = []
    for key, value in entries:
        lines += draw(st.lists(st.sampled_from(["", "   ", "# note", "  # k = 1"]), max_size=2))
        layout = draw(st.sampled_from(["{}={}", "{} = {}", "  {}=  {}  ", "\t{} =\t{}"]))
        lines.append(layout.format(key, value))
    if lines and draw(st.booleans()):
        put_bad_byte(draw, [lines])  # the lines as the cells of one row
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    text = bom + newline.join(lines) + draw(st.sampled_from(["", newline]))
    bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3("]))
    return text.encode("utf-8").replace(BAD_BYTE.encode("utf-8"), bad)


@given(config_files())
@example(b"min_faculty=2\n# note\nband_z_levels=3,2\n")
@example(b"period_start=2015\nperiod_end=2020\ndelta_bracket=2,1\n")
@example(b"\xef\xbb\xbfmin_faculty = 1_0\r\n")
# A line's own defect comes before a later bad byte; an invariant does not.
@example(b"no_such_key=1\nmin_faculty=2\xff\n")
@example(b"min_faculty=0\nperiod_start=2\xff\n")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_config_files_read_as_the_reference_reads_them(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "config.txt"
    path.write_bytes(data)
    expected = reference_config(data, str(path))
    if isinstance(expected, str):
        with pytest.raises(ParseError) as caught:
            parse_config_file(str(path))
        assert str(caught.value) == expected
    else:
        assert parse_config_file(str(path)) == expected


# ---------------------------------------------------------------------------
# the CSV files
# ---------------------------------------------------------------------------

RESEARCHER_COLUMNS = ["researcher_id", "institution_id", "field_code", "rank", "years_active"]
PUBLICATION_COLUMNS = ["publication_id", "year", "subject_category", "citations", "authors"]
BASELINE_COLUMNS = ["year", "subject_category", "mean_citations"]
RANK_NAMES = {"assistant": Rank.ASSISTANT, "associate": Rank.ASSOCIATE, "full": Rank.FULL}
INT_CELL = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
FLOAT_CELL = re.compile(rf"[ \t]*(?:{FLOAT_TEXT.pattern})[ \t]*", re.IGNORECASE)


def split_records(text: str) -> list[tuple[int, int, list[str]]]:
    """(first line, first offset, fields) of each RFC 4180 record of
    ``text``, with ``\\n`` or ``\\r\\n`` line ends; a blank line is a record
    of no fields, and text that ends inside quotes ends its last field. Lines
    are counted as csv counts them: in a quoted field, a lone ``\\r`` ends one."""
    records, line, i = [], 1, 0
    while i < len(text):
        start, offset, fields = line, i, []
        if text[i] not in "\r\n":
            while True:
                field = []
                if text[i : i + 1] == '"':
                    i += 1
                    while i < len(text):
                        if text[i] == '"':
                            if text[i + 1 : i + 2] != '"':
                                i += 1
                                break
                            i += 1
                        line += text[i] == "\n" or (text[i] == "\r" and text[i + 1 : i + 2] != "\n")
                        field.append(text[i])
                        i += 1
                while i < len(text) and text[i] not in ",\r\n":
                    field.append(text[i])
                    i += 1
                fields.append("".join(field))
                if text[i : i + 1] != ",":
                    break
                i += 1
        if i < len(text):  # the line end
            i += 2 if text.startswith("\r\n", i) else 1
            line += 1
        records.append((start, offset, fields))
    return records


class Defect(Exception):
    """A row's defect, as (column, reason)."""


def reference_csv(data: bytes, path: str, columns: list[str], read_row) -> list | str:
    """``read_row(line, fields)`` of each non-blank row of a CSV file, or the
    ParseError text of the file's first defect in file order: a Defect that
    ``read_row`` raises, a wrong field count, or a byte that is not UTF-8.
    The byte is named at its record's first line plus the ``\\n``s before it
    in the record, in the field it is in, and only if no complete record
    above it has a defect."""

    def error(line, column, reason):
        return f"{path}:{line}: column {column!r}: {reason}"

    try:
        records = split_records(data.decode("utf-8").removeprefix("\ufeff"))
        bad_byte = None
    except UnicodeDecodeError as exc:
        before = data[: exc.start].decode("utf-8").removeprefix("\ufeff")
        *records, (start, offset, fields) = split_records(before + "?")
        bad_byte = error(
            start + before.count("\n", offset),
            columns[min(len(fields), len(columns)) - 1],
            f"not UTF-8: byte 0x{data[exc.start]:02x}",
        )
    assert all(fields == columns for _, _, fields in records[:1])
    values = []
    for line, _, fields in records[1:]:
        if not fields:
            continue
        if len(fields) != len(columns):
            return error(line, columns[0], f"expected {len(columns)} fields, got {len(fields)}")
        try:
            values.append(read_row(line, fields))
        except Defect as defect:
            return error(line, *defect.args)
    return bad_byte or values


def reference_int(column: str, text: str) -> int:
    """A number cell that must hold an integer >= 0."""
    if not INT_CELL.fullmatch(text):
        raise Defect(column, f"not an integer: {text!r}")
    if int(text) < 0:
        raise Defect(column, f"must be >= 0, got {int(text)}")
    return int(text)


def reference_researchers(data: bytes, path: str) -> list[tuple] | str:
    """The (id, institution, field, rank, years) records of a researchers.csv,
    or the ParseError text of its first defect."""
    first_line: dict[str, int] = {}

    def read_row(line, fields):
        rid, inst, field_code, rank_text, years_text = fields
        rid, inst = rid.strip(), inst.strip()
        if not rid:
            raise Defect("researcher_id", "must not be blank")
        if not inst:
            raise Defect("institution_id", "must not be blank")
        if rid in first_line:
            raise Defect(
                "researcher_id",
                f"duplicate researcher id {rid!r} (first seen on line {first_line[rid]})",
            )
        first_line[rid] = line
        rank = RANK_NAMES.get(rank_text.strip().lower())
        if rank is None:
            raise Defect("rank", f"expected one of Assistant/Associate/Full, got {rank_text!r}")
        return rid, inst, field_code, rank, reference_int("years_active", years_text)

    return reference_csv(data, path, RESEARCHER_COLUMNS, read_row)


def reference_publications(data: bytes, path: str) -> list[tuple] | str:
    """The (id, year, category, citations, byline) records of a
    publications.csv, each byline a position-sorted tuple of
    (position, researcher id or None, institution), or the ParseError text
    of its first defect."""

    def read_row(line, fields):
        pid, year_text, category, citations_text, cell = fields
        if not pid.strip():
            raise Defect("publication_id", "must not be blank")
        year = reference_int("year", year_text)
        citations = reference_int("citations", citations_text)
        slots = [reference_slot(part) for part in cell.split(";")]
        reason = next((slot for slot in slots if isinstance(slot, str)), None)
        if reason is not None:
            raise Defect("authors", reason)
        byline = tuple(sorted(slots, key=lambda slot: slot[0]))
        return pid.strip(), year, category.strip(), citations, byline

    return reference_csv(data, path, PUBLICATION_COLUMNS, read_row)


def reference_baselines(data: bytes, path: str) -> list[tuple] | str:
    """The ((year, category), mean) entries of a baselines.csv, or the
    ParseError text of its first defect."""
    keys: set[tuple[int, str]] = set()

    def read_row(line, fields):
        year_text, category, mean_text = fields
        year = reference_int("year", year_text)
        if not FLOAT_CELL.fullmatch(mean_text):
            raise Defect("mean_citations", f"not a number: {mean_text!r}")
        mean = float(mean_text)
        if not math.isfinite(mean) or mean <= 0:
            raise Defect("mean_citations", f"must be finite and > 0, got {mean}")
        key = (year, category.strip())
        if key in keys:
            raise Defect("year", f"duplicate baseline entry {key}")
        keys.add(key)
        return key, mean

    return reference_csv(data, path, BASELINE_COLUMNS, read_row)


def csv_bytes(draw, columns: list[str], rows: list[list[str]], newline: str) -> bytes:
    """The file of these rows, with a BOM or none, blank rows and quoting
    drawn, a quoted cell for every cell that needs one."""
    lines = [",".join(columns)]
    for row in rows:
        lines += [""] * draw(st.integers(0, 1))
        lines.append(",".join(
            '"' + cell.replace('"', '""') + '"'
            if any(c in cell for c in ',"\r\n') or draw(st.booleans())
            else cell
            for cell in row
        ))
    text = draw(st.sampled_from(["", "\ufeff"])) + newline.join(lines)
    text += draw(st.sampled_from(["", newline]))
    bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3("]))
    return text.encode("utf-8").replace(BAD_BYTE.encode("utf-8"), bad)


def with_defects(draw, rows: list[list[str]], defects: dict) -> list[list[str]]:
    """``rows`` with at most one defect: a bad byte anywhere, or in one row a
    wrong field count or one of ``defects`` (name -> function that makes a
    row defective), then maybe a bad byte in a later row."""
    defect = draw(st.sampled_from([None, "byte", "fields", *sorted(defects)]))
    if defect == "byte":
        put_bad_byte(draw, rows)
    elif defect is not None:
        at = draw(st.integers(0, len(rows) - 1))
        if defect == "fields":
            del rows[at][draw(st.integers(0, len(rows[at]) - 1))]
            if draw(st.booleans()):
                rows[at][1:1] = ["x", "y"]
        else:
            defects[defect](rows[at])
        if draw(st.booleans()):
            put_bad_byte(draw, rows, at + 1)
    return rows


def cell_defect(draw, columns: list[int], texts: list[str]):
    """A defect that puts one of ``texts`` into one of ``columns`` of a row."""

    def put(row):
        row[draw(st.sampled_from(columns))] = draw(st.sampled_from(texts))

    return put


def read_both(tmp_path_factory, data: bytes, read, reference):
    """``read``'s value of a file of ``data``, or its ParseError text, and
    then the reference's."""
    path = tmp_path_factory.getbasetemp() / "input.csv"
    path.write_bytes(data)
    try:
        got = read(str(path))
    except ParseError as exc:
        got = str(exc)
    return got, reference(data, str(path))


BAD_INTS = ["-1", "x", "1_0", "\uff13", "\uff12\uff10\uff11\uff10", "1.5", ""]
PADDED = ["{}", " {}", "{}  ", "\t{} "]
# "{}" takes the file's newline; a lone "\r" ends a line as csv counts them too.
CATEGORIES = ["Biochemistry", " Plant science ", "Physics, applied", "Plant{}science", "Plant\rscience"]


# ---------------------------------------------------------------------------
# researchers.csv
# ---------------------------------------------------------------------------


@st.composite
def researcher_files(draw) -> bytes:
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [
        [
            draw(st.sampled_from(PADDED)).format(f"r{i}"),
            draw(st.sampled_from(
                ["u1", " u2 ", "Uni, North", f"Uni{newline}of{newline}North", "Uni\rNorth"]
            )),
            draw(st.sampled_from(["Biochemistry", "Plant science", " Physics"])),
            draw(st.sampled_from(["Full", "full", " FULL ", "Assistant", "associate\t"])),
            draw(st.sampled_from(["0", "3", "12", " 4", "007", "+2"])),
        ]
        for i in range(draw(st.integers(1, 7)))
    ]
    first = rows[0][0].strip()
    rows = with_defects(draw, rows, {
        "blank_id": cell_defect(draw, [0, 1], ["", "  "]),
        "rank": cell_defect(draw, [3], ["Professor", "", "Ful"]),
        "years": cell_defect(draw, [4], BAD_INTS),
        "repeat": cell_defect(draw, [0], [first, f" {first} "]),  # none in the first row
    })
    return csv_bytes(draw, RESEARCHER_COLUMNS, rows, newline)


def _researchers(path):
    return [
        (r.researcher_id, r.institution_id, r.field_code, r.rank, r.years_active)
        for r in read_researchers_csv(path)
    ]


@given(researcher_files())
@example(b'researcher_id,institution_id,field_code,rank,years_active\n'
         b'r1,"Uni\nNorth",Bio\xff,Full,3\n')
@example(b'researcher_id,institution_id,field_code,rank,years_active\n'
         b'r1,"Uni\nNorth",Bio,Full,3\nr2,u1,Bio,Full,1_0\n')
# A quoted field's lone \r ends a line as csv counts them: the next row is on line 4.
@example(b'researcher_id,institution_id,field_code,rank,years_active\n'
         b'r1,"Uni\rNorth",Bio,Full,3\nr2,u1,Bio,Full,1_0\n')
# Two defects: the first in file order is named, not the later byte.
@example(b'researcher_id,institution_id,field_code,rank,years_active\n'
         b'r1,u1,Bio,Full\nr2,u1,Bio\xff,Full,3\n')
@example(b'researcher_id,institution_id,field_code,rank,years_active\n'
         b'r1,u1,Bio,Full,3\nr1,u1,Bio,Full,3\nr2,u1,Bio\xff,Full,3\n')
@settings(max_examples=300, deadline=None, derandomize=True)
def test_researcher_files_read_as_the_reference_reads_them(tmp_path_factory, data):
    got, expected = read_both(tmp_path_factory, data, _researchers, reference_researchers)
    assert got == expected


# ---------------------------------------------------------------------------
# publications.csv
# ---------------------------------------------------------------------------


def byline_cell(draw, defect: bool = False) -> str:
    """Padded researcher and ``-`` external slots in any position order;
    with ``defect``, one slot is made one of SLOT_DEFECTS."""
    count = draw(st.integers(1, 4))
    slots = [
        (pos, draw(st.sampled_from(["r1", "r2", " r3", "-"])), draw(st.sampled_from(["u1", "ext07 "])))
        for pos in draw(st.permutations(range(1, count + 1)))
    ]
    texts = [draw(st.sampled_from(["{}:{}:{}", " {} : {}:{}"])).format(*slot) for slot in slots]
    if defect:
        at = draw(st.integers(0, count - 1))
        texts[at] = SLOT_DEFECTS[draw(st.sampled_from(sorted(SLOT_DEFECTS)))](*slots[at])
    return ";".join(texts)


@st.composite
def publication_files(draw) -> bytes:
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [
        [
            draw(st.sampled_from(PADDED)).format(f"q{i}"),
            draw(st.sampled_from(["2008", " 2009", "+2010", "2011 ", "0"])),
            draw(st.sampled_from(CATEGORIES)).format(newline),
            draw(st.sampled_from(["0", "3", "12", " 7", "007"])),
            byline_cell(draw),
        ]
        for i in range(draw(st.integers(1, 6)))
    ]

    def bad_slot(row):
        row[4] = byline_cell(draw, defect=True)

    rows = with_defects(draw, rows, {
        "blank_id": cell_defect(draw, [0], ["", "  "]),
        "number": cell_defect(draw, [1, 3], BAD_INTS),
        "slot": bad_slot,
    })
    return csv_bytes(draw, PUBLICATION_COLUMNS, rows, newline)


def _publications(path):
    return [
        (p.publication_id, p.year, p.subject_category, p.citations,
         tuple((s.position, s.researcher_id, s.institution_id) for s in p.authors))
        for p in read_publications_csv(path)
    ]


@given(publication_files())
# A quoted field over two lines: the next row starts on line 4, not 3.
@example(b'publication_id,year,subject_category,citations,authors\r\n'
         b'q1,2008,"Plant\r\nscience",3,1:r1:u1\r\nq2,x,Bio,3,1:r1:u1\r\n')
@example(b'\xef\xbb\xbfpublication_id,year,subject_category,citations,authors\n'
         b'q1,2008,Bio,3,2:-:ext;1: r1 :u1\n\nq2,2009,Bio,3,1:r1:u1;2: :u2\n'
         b'q3,2010,Bio,x\xff,1:r1:u1\n')
@settings(max_examples=300, deadline=None, derandomize=True)
def test_publication_files_read_as_the_reference_reads_them(tmp_path_factory, data):
    got, expected = read_both(tmp_path_factory, data, _publications, reference_publications)
    assert got == expected


# ---------------------------------------------------------------------------
# baselines.csv
# ---------------------------------------------------------------------------


@st.composite
def baseline_files(draw) -> bytes:
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    rows = [
        [
            draw(st.sampled_from([*PADDED, "+{}"])).format(2000 + i),
            draw(st.sampled_from(CATEGORIES)).format(newline),
            draw(st.sampled_from(["5", "2.5", " 3.25 ", "1e1", "4.", ".5", "+7", "1E-3"])),
        ]
        for i in range(draw(st.integers(1, 6)))
    ]
    key = rows[0][0].strip(), rows[0][1].strip()

    def repeat(row):  # none in the first row
        row[0], row[1] = draw(st.sampled_from(PADDED)).format(key[0]), f" {key[1]} "

    rows = with_defects(draw, rows, {
        "year": cell_defect(draw, [0], ["x", "-1", "1_0", "\uff12\uff10\uff11\uff10"]),
        "mean": cell_defect(draw, [2], ["0", "-1", "nan", "inf", "1_0", "\uff13", ""]),
        "repeat": repeat,
    })
    return csv_bytes(draw, BASELINE_COLUMNS, rows, newline)


def _baselines(path):
    return list(read_baselines_csv(path).entries.items())


@given(baseline_files())
@example(b"year,subject_category,mean_citations\n2008,Bio,1_0\n")
@example(b"year,subject_category,mean_citations\n2008,Bio,0\n2009,Bio\xff,1\n")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_baseline_files_read_as_the_reference_reads_them(tmp_path_factory, data):
    got, expected = read_both(tmp_path_factory, data, _baselines, reference_baselines)
    assert got == expected
