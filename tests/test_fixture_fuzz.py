"""Fuzz the fixture error contract.  One line of a real fixture file is
mutated: a field dropped, an integer corrupted or negated, an id pointed at
no record, or a support field changed.  Each fixture file then either loads
through criteria.Context or is rejected with a one-line FixtureError, a
table row that parses goes through verify_table_row without raising, and
hj-example, spin-lkt and strings exit 0, or 3 with a single error line.

The fixture files are small slices of the shipped ones (the first parameter
and table lines, the kgb records they name, the first branching lines and
every string count), so an example takes milliseconds.  The phi census
never runs on a mutated kgb.txt.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e7dirac import atlas_ingest as ingest
from e7dirac import cli, criteria

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# the fields a dangling id goes into, and the field a support-like value
# replaces (the K-type of a branching line, which has no support field)
ID_FIELDS = {"kgb.txt": (0,), "params_1011108.txt": (0,), "table.txt": (1, 2),
             "branching_2969.txt": (0,), "dirac_counts.txt": (0,)}
SUPPORT_FIELDS = {"kgb.txt": 1, "params_1011108.txt": 3, "table.txt": 6,
                  "branching_2969.txt": 1, "dirac_counts.txt": 0}
SUPPORTS = ("full", "empty", "", "0", "6", "7", "-1", "0,0", "0,1", "2,3,4,5,6",
            "0,1,2,3,4,5,6", "fs", "unitary,fs", "bogus", "1")
BAD_INTS = ("", "x", "-", "1.5", "1/2", "0", "3", "999999", "99999999999")


def _data_lines(name):
    return [raw for raw in (FIXTURES / name).read_text().splitlines()
            if raw.split("#", 1)[0].strip()]


@pytest.fixture(scope="module")
def slices():
    params = _data_lines("params_1011108.txt")[:8]
    table = _data_lines("table.txt")[:3]
    named = {int(line.split("|")[0]) for line in params}
    for line in table:
        named.update(int(x) for x in line.split("|")[1:3] if x.strip() != "-")
    kgb = [line for line in _data_lines("kgb.txt") if int(line.split("|")[0]) in named]
    return {"kgb.txt": kgb, "params_1011108.txt": params,
            "branching_2969.txt": _data_lines("branching_2969.txt")[:12],
            "table.txt": table, "dirac_counts.txt": _data_lines("dirac_counts.txt")}


def _mutate(line, name, draw):
    fields = line.split("|")
    how = draw(st.sampled_from(("drop-field", "corrupt-int", "negate", "dangling-id",
                                "support")))
    if how == "drop-field":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif how in ("corrupt-int", "negate"):
        m = draw(st.sampled_from(list(re.finditer(r"-?\d+", line))))
        digits = m.group()
        new = (digits[1:] if digits.startswith("-") else "-" + digits) \
            if how == "negate" else draw(st.sampled_from(BAD_INTS))
        return line[:m.start()] + new + line[m.end():]
    elif how == "dangling-id":
        fields[draw(st.sampled_from(ID_FIELDS[name]))] = " 999999 "
    else:
        fields[SUPPORT_FIELDS[name]] = draw(st.sampled_from(SUPPORTS))
    return "|".join(fields)


def _check_loaders(fdir, names, name, line):
    ctx = criteria.Context(fdir)
    for fname in names:
        try:
            ctx.read(fname)
        except ingest.FixtureError as e:
            assert str(e) and "\n" not in str(e), repr(e)
    if name == "table.txt":
        try:
            rows = ingest.parse_fixture("table", line)
        except ingest.FixtureError:
            rows = []
        for row in rows:
            assert isinstance(ingest.verify_table_row(row).passed, bool)


def _check_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == "", (argv, err.getvalue())
    else:
        assert code == 3 and out.getvalue() == "", (argv, code)
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1, (argv, text)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_fixture_line(slices, data):
    name = data.draw(st.sampled_from(sorted(slices)))
    lines = list(slices[name])
    i = data.draw(st.integers(0, len(lines) - 1))
    lines[i] = _mutate(lines[i], name, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        fdir = Path(tmp)
        for fname, text in slices.items():
            (fdir / fname).write_text("\n".join(lines if fname == name else text) + "\n")
        _check_loaders(fdir, slices, name, lines[i])
        for command in ("hj-example", "spin-lkt", "strings"):
            _check_main([command, "--fixtures", str(fdir)])
