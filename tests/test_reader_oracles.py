"""Oracle tests of the config-file reader and the researchers.csv reader.

Each test writes files with the quirks README accepts and at most one
defect, and reads them twice: with the package's reader and with a small
reference reader written here from README's rules. Both must give the same
value, or the same first ``file:line: column: reason``."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fssfunnel.cli import parse_config_file, read_researchers_csv
from fssfunnel.errors import ParseError
from fssfunnel.model import (
    DEFAULT_SALARY_COEFFICIENTS,
    AssessmentConfig,
    GrandMeanMode,
    Rank,
    SkewnessTarget,
    WeightingScheme,
)

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


def reference_config(text: str, path: str) -> AssessmentConfig | str:
    """The config a file's text gives, or the ParseError text of its first
    defect. A line's own defect is named first, in line order; a broken
    invariant is named at the first line by which the lines so far break it."""

    def error(line_no, column, reason):
        return f"{path}:{line_no}: column {column!r}: {reason}"

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
def config_texts(draw) -> str:
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
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + draw(st.sampled_from(["", newline]))


@given(config_texts())
@example("min_faculty=2\n# note\nband_z_levels=3,2\n")
@example("period_start=2015\nperiod_end=2020\ndelta_bracket=2,1\n")
@example("\ufeffmin_faculty = 1_0\r\n")
@settings(max_examples=300, deadline=None, derandomize=True)
def test_config_files_read_as_the_reference_reads_them(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "config.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = reference_config(text, str(path))
    if isinstance(expected, str):
        with pytest.raises(ParseError) as caught:
            parse_config_file(str(path))
        assert str(caught.value) == expected
    else:
        assert parse_config_file(str(path)) == expected


# ---------------------------------------------------------------------------
# researchers.csv
# ---------------------------------------------------------------------------

RESEARCHER_COLUMNS = ["researcher_id", "institution_id", "field_code", "rank", "years_active"]
RANK_NAMES = {"assistant": Rank.ASSISTANT, "associate": Rank.ASSOCIATE, "full": Rank.FULL}
YEARS_TEXT = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")


def split_records(text: str) -> list[tuple[int, list[str]]]:
    """(first line, fields) of each RFC 4180 record of ``text``, with ``\\n``
    or ``\\r\\n`` line ends; a blank line is a record of no fields, and text
    that ends inside quotes ends its last field."""
    records, line, i = [], 1, 0
    while i < len(text):
        start, fields = line, []
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
                        line += text[i] == "\n"
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
        records.append((start, fields))
    return records


def reference_researchers(data: bytes, path: str) -> list[tuple] | str:
    """The (id, institution, field, rank, years) records of a researchers.csv,
    or the ParseError text of its first defect."""

    def error(line, column, reason):
        return f"{path}:{line}: column {column!r}: {reason}"

    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Named at the byte's own line, in the field of the record it is in.
        before = data[: exc.start].decode("utf-8").removeprefix("\ufeff")
        count = len(split_records(before + "?")[-1][1])
        return error(
            data.count(b"\n", 0, exc.start) + 1,
            RESEARCHER_COLUMNS[min(count, 5) - 1],
            f"not UTF-8: byte 0x{data[exc.start]:02x}",
        )
    header, *rows = split_records(text.removeprefix("\ufeff"))
    assert header[1] == RESEARCHER_COLUMNS
    records, first_line = [], {}
    for line, fields in rows:
        if not fields:
            continue
        if len(fields) != 5:
            return error(line, "researcher_id", f"expected 5 fields, got {len(fields)}")
        rid, inst, field_code, rank_text, years_text = fields
        rid, inst = rid.strip(), inst.strip()
        if not rid:
            return error(line, "researcher_id", "must not be blank")
        if not inst:
            return error(line, "institution_id", "must not be blank")
        if rid in first_line:
            return error(
                line, "researcher_id",
                f"duplicate researcher id {rid!r} (first seen on line {first_line[rid]})",
            )
        first_line[rid] = line
        rank = RANK_NAMES.get(rank_text.strip().lower())
        if rank is None:
            return error(
                line, "rank", f"expected one of Assistant/Associate/Full, got {rank_text!r}"
            )
        if not YEARS_TEXT.fullmatch(years_text):
            return error(line, "years_active", f"not an integer: {years_text!r}")
        if int(years_text) < 0:
            return error(line, "years_active", f"must be >= 0, got {int(years_text)}")
        records.append((rid, inst, field_code, rank, int(years_text)))
    return records


BAD_BYTE = "\ue000"  # stands for a byte that is not UTF-8 until the text is encoded


@st.composite
def researcher_files(draw) -> bytes:
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    rows = []
    for i in range(draw(st.integers(1, 7))):
        rows.append([
            draw(st.sampled_from(["{}", " {}", "{}  ", "\t{} "])).format(f"r{i}"),
            draw(st.sampled_from(["u1", " u2 ", "Uni, North", f"Uni{newline}of{newline}North"])),
            draw(st.sampled_from(["Biochemistry", "Plant science", " Physics"])),
            draw(st.sampled_from(["Full", "full", " FULL ", "Assistant", "associate\t"])),
            draw(st.sampled_from(["0", "3", "12", " 4", "007", "+2"])),
        ])
    defect = draw(st.sampled_from([
        None, "fields", "blank_id", "rank", "years", "repeat", "byte",
    ]))
    row = draw(st.sampled_from(rows))
    if defect == "fields":
        del row[draw(st.integers(0, 4))]
        if draw(st.booleans()):
            row[3:3] = ["x", "y"]
    elif defect == "blank_id":
        row[draw(st.sampled_from([0, 1]))] = draw(st.sampled_from(["", "  "]))
    elif defect == "rank":
        row[3] = draw(st.sampled_from(["Professor", "", "Ful"]))
    elif defect == "years":
        row[4] = draw(st.sampled_from(["-1", "x", "1_0", "\uff13", "1.5", ""]))
    elif defect == "repeat" and len(rows) > 1:
        at = draw(st.integers(1, len(rows) - 1))
        rows[at][0] = draw(st.sampled_from(["{}", " {} "])).format(rows[0][0].strip())
    elif defect == "byte":
        column = draw(st.integers(0, 4))
        cut = draw(st.integers(0, len(row[column])))
        row[column] = row[column][:cut] + BAD_BYTE + row[column][cut:]

    lines = [",".join(RESEARCHER_COLUMNS)]
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


@given(researcher_files())
@example(b'researcher_id,institution_id,field_code,rank,years_active\n'
         b'r1,"Uni\nNorth",Bio\xff,Full,3\n')
@example(b'researcher_id,institution_id,field_code,rank,years_active\n'
         b'r1,"Uni\nNorth",Bio,Full,3\nr2,u1,Bio,Full,1_0\n')
@settings(max_examples=300, deadline=None, derandomize=True)
def test_researcher_files_read_as_the_reference_reads_them(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "researchers.csv"
    path.write_bytes(data)
    expected = reference_researchers(data, str(path))
    if isinstance(expected, str):
        with pytest.raises(ParseError) as caught:
            read_researchers_csv(str(path))
        assert str(caught.value) == expected
    else:
        assert [
            (r.researcher_id, r.institution_id, r.field_code, r.rank, r.years_active)
            for r in read_researchers_csv(str(path))
        ] == expected
