"""Tests for the command-line interface.

Every subcommand's stdout is pinned by its sha256, rendered from the
session context, so the heavy ones (usmall, certs, omega, phi, verify)
reuse the enumerations and criteria results the other modules compute.
The cheap ones also run end to end here, with the exit-code contract.
"""

import argparse
import hashlib
import io
from pathlib import Path

import pytest

from e7dirac import cli, criteria
from frozen_values import HD_TWELVE, PHI_COEFF_ONE, STDOUT_SHA256

FIXTURES = str(Path(__file__).resolve().parent.parent / "fixtures")
IDENTITY_TEXT = ";".join(
    ",".join(str(int(i == j)) for j in range(7)) for i in range(7))


def run_cli(argv, ctx=None):
    """Render argv's subcommand over ctx, by default a fresh context of
    argv's --fixtures, as main does."""
    args = cli.build_parser().parse_args(argv)
    out = io.StringIO()
    code = cli.render(ctx or criteria.Context(args.fixtures), args, out)
    return code, out.getvalue()


def run_main(argv):
    """Through main(), so the FixtureError handling is exercised too."""
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def test_chambers_output():
    code, text = run_cli(["chambers"])
    lines = text.splitlines()
    assert code == 0
    assert lines[0] == "#chamber\trho\trho_noncompact"
    assert lines[1].split("\t") == [
        "0", "0,1,2,3,4,5,-17/2,17/2", "0,0,0,0,0,9,-9/2,9/2"
    ], f"BUG: base chamber row wrong: {lines[1]}"
    assert lines[-1] == "# total\t56"
    assert len(lines) == 58


def test_chambers_pretty_format():
    code, text = run_cli(["chambers", "--format", "pretty"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0].split() == ["chamber", "rho", "rho_noncompact"]
    assert lines[-1] == "total: 56"
    assert "\t" not in text


def test_phi_partition(ctx):
    # rendered from the session context, which holds the census of the
    # shipped kgb.txt; the CLI's own census run is covered by the slice below
    code, text = run_cli(["phi"], ctx)
    assert code == 0
    lines = text.splitlines()
    sizes = criteria.CENSUS_PARTITION_SIZES
    assert lines[1] == f"1\t{sizes[0]}" == "1\t23"
    assert lines[-2] == f"{len(sizes)}\t{sizes[-1]}" == "13\t13"
    assert lines[-1] == f"# total\t{criteria.CHARACTER_CENSUS_SIZE}"


@pytest.mark.parametrize("argv", list(STDOUT_SHA256))
def test_stdout_digest(ctx, argv):
    # the digests were taken from the output of the shipped fixtures; a
    # change meant to alter an output updates its digest here
    code, text = run_cli(argv.split(), ctx)
    got = hashlib.sha256(text.encode()).hexdigest()
    assert code == 0 and got == STDOUT_SHA256[argv], \
        f"{argv}: exit {code}, stdout sha256 {got}"


def test_phi_jobs2_byte_identical_on_slice(tmp_path, phi_slice):
    # the original kgb.txt lines of the slice's involutions
    keep = {rec.id for rec in phi_slice}
    lines = [raw for raw in Path(FIXTURES, "kgb.txt").read_text().splitlines()
             if raw.split("#", 1)[0].strip()
             and int(raw.split("|", 1)[0]) in keep]
    assert len(lines) == len(phi_slice)
    (tmp_path / "kgb.txt").write_text("\n".join(lines) + "\n")
    serial = run_main(["phi", "--fixtures", str(tmp_path)])
    pooled = run_main(["phi", "--fixtures", str(tmp_path), "--jobs", "2"])
    assert serial[0] == 0 and serial[1].startswith("#max_coordinate\tcount\n")
    assert pooled == serial, "BUG: --jobs 2 changes the phi output"


def test_hj_example(fixture_dir):
    code, text = run_cli(["hj-example", "--fixtures", str(fixture_dir)])
    assert code == 0
    body = dict(line.split("\t") for line in text.splitlines()[1:])
    keys = ("parameters", "fully_supported", "nu_norm_sq_le_399/2", "nu_norm_sq_lt_94")
    assert body == dict(zip(keys, map(str, criteria.FUNNEL))), \
        f"BUG: funnel counts wrong: {body}"


def test_spin_lkt(fixture_dir):
    code, text = run_cli(["spin-lkt", "--fixtures", str(fixture_dir)])
    assert code == 0
    body = dict(line.split("\t") for line in text.splitlines()[1:])
    assert body["k_types"] == "157"
    assert body["min_spin_norm_sq"] == "159/2"
    assert body["hd_nonzero"] == "false"


def test_strings(fixture_dir):
    code, text = run_cli(["strings", "--fixtures", str(fixture_dir)])
    assert code == 0
    lines = text.splitlines()
    assert lines[1:8] == [f"N_{i}\t{n}" for i, n in enumerate(criteria.STRING_SUMS)]
    assert lines[-1] == f"# total\t{criteria.STRING_TOTAL}"


def test_dirac_candidates_default_char():
    code, text = run_cli(["dirac-candidates"])
    assert code == 0
    lines = text.splitlines()
    assert lines[-1] == "# total\t12"
    got = {tuple(int(c) for c in row.split("\t")[0].split(","))
           for row in lines[1:-1]}
    assert got == HD_TWELVE, f"BUG: candidate set differs: {sorted(got)}"


def test_dirac_candidates_scalar_pair():
    code, text = run_cli(["dirac-candidates", "--inf-char", "1,1,1,0,1,0,1"])
    assert code == 0
    lines = text.splitlines()
    assert lines[-1] == "# total\t2"
    got = {row.split("\t")[0] for row in lines[1:-1]}
    assert got == {"0,0,0,0,0,0,3", "0,0,0,0,0,0,-3"}


def test_dirac_candidates_non_dominant_char(capsys):
    # 1,1,-2,2,1,1,1 is the default character 1,1,1,0,1,1,1 moved by two
    # simple reflections: the same W(G)-orbit, so the same bytes.  A
    # negative coordinate needs the --inf-char=... form; separated by a
    # space, argparse reads it as an option
    moved = run_cli(["dirac-candidates", "--inf-char=1,1,-2,2,1,1,1"])
    assert moved == run_cli(["dirac-candidates", "--inf-char", "1,1,1,0,1,1,1"])
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["dirac-candidates", "--inf-char", "-1,2,1,1,1,1,1"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_inline_census_slice_matches_frozen():
    # the criteria carry their own copies of the 23 size-1 census members and
    # of the twelve candidate weights; the frozen copies are the reference
    assert criteria.SMALLEST_CENSUS_SLICE == PHI_COEFF_ONE
    assert criteria.TWELVE_CANDIDATES == HD_TWELVE


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["no-such-command"])
    assert exc.value.code == 2


def test_bad_inf_char_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["dirac-candidates", "--inf-char", "1,2"])
    assert exc.value.code == 2
    assert "7 comma-separated" in capsys.readouterr().err


def test_missing_fixtures_exits_3(monkeypatch):
    monkeypatch.delenv("DIRAC_FIXTURES", raising=False)
    code, _ = run_main(["phi"])
    assert code == 3
    code, _ = run_main(["strings", "--fixtures", "/no/such/dir"])
    assert code == 3


def test_env_fallback(fixture_dir, monkeypatch):
    monkeypatch.setenv("DIRAC_FIXTURES", str(fixture_dir))
    code, text = run_main(["strings"])
    assert code == 0
    assert text.splitlines()[-1] == f"# total\t{criteria.STRING_TOTAL}"


def test_corrupt_fixture_exits_3(tmp_path, monkeypatch):
    (tmp_path / "dirac_counts.txt").write_text("empty | 56\nbogus line\n")
    code, _ = run_main(["strings", "--fixtures", str(tmp_path)])
    assert code == 3


def test_phi_unusable_involution_exits_3(tmp_path, capsys):
    # the identity marked "full" has an empty split support, and -1 has a
    # split part of dimension 7: the parser rejects both
    minus = IDENTITY_TEXT.replace("1", "-1")
    for matrix, needle in ((IDENTITY_TEXT, "line 1: kgb 0: support field 'full' is not the "
                                           "split support []"),
                           (minus, "line 1: kgb 0: split part of dimension 7")):
        (tmp_path / "kgb.txt").write_text(f"0 | full | {matrix}\n")
        for extra in ([], ["--jobs", "2"]):
            code, text = run_main(["phi", "--fixtures", str(tmp_path), *extra])
            assert code == 3 and text == ""
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert needle in err and "Traceback" not in err


def test_verify_rejects_a_wrong_support_field_first(tmp_path, capsys, monkeypatch):
    # a full record whose field claims a partial support: verify exits 3
    # while reading the fixtures, before any criterion runs
    for src in Path(FIXTURES).iterdir():
        text = src.read_text()
        if src.name == "kgb.txt":
            text = text.replace("\n3016 | full |", "\n3016 | 0,1,2,3,4,5 |", 1)
            assert "3016 | 0,1,2,3,4,5 |" in text
        (tmp_path / src.name).write_text(text)
    monkeypatch.setattr(criteria, "CRITERIA", None)  # a criterion run would fail
    code, text = run_main(["verify", "--fixtures", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3 and text == ""
    assert "kgb.txt: line" in err and "kgb 3016: support field '0,1,2,3,4,5'" in err, err


def _one_error_line(capsys, argv, code, needle):
    got, text = run_main(argv)
    err = capsys.readouterr().err
    assert got == code and text == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err and "Traceback" not in err


def test_strings_incomplete_counts_exits_3(tmp_path, capsys):
    (tmp_path / "dirac_counts.txt").write_text("empty | 56\n")
    _one_error_line(capsys, ["strings", "--fixtures", str(tmp_path)], 3,
                    "missing subset")


def test_spin_lkt_empty_branching_exits_3(tmp_path, capsys):
    (tmp_path / "branching_2969.txt").write_text("# no rows\n")
    _one_error_line(capsys, ["spin-lkt", "--fixtures", str(tmp_path)], 3,
                    f"{tmp_path / 'branching_2969.txt'}: branching: no K-types")


def test_spin_lkt_negative_e6_coordinate_exits_3(tmp_path, capsys):
    (tmp_path / "branching_2969.txt").write_text("1 | -1,0,0,0,0,0,1 | 10\n")
    _one_error_line(capsys, ["spin-lkt", "--fixtures", str(tmp_path)], 3,
                    "line 1: ktype: negative e6 coordinate in '-1,0,0,0,0,0,1'")


def test_hj_example_reads_only_kgb_and_its_params(tmp_path):
    for name in ("kgb.txt", "params_1011108.txt"):
        (tmp_path / name).write_text(Path(FIXTURES, name).read_text())
    code, text = run_main(["hj-example", "--fixtures", str(tmp_path)])
    assert code == 0
    assert [line.split("\t")[1] for line in text.splitlines()[1:]] == \
        [str(n) for n in criteria.FUNNEL]


def _subparsers():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def test_jobs_accepted_by_every_subcommand():
    # --jobs has no effect, but scripts that pass it keep parsing
    parser, choices = _subparsers()
    assert len(choices) == 10
    for name in choices:
        assert parser.parse_args([name, "--jobs", "2"]).jobs == 2


def test_subcommand_options():
    # the scan bounds are derived or fixed in code, so no subcommand takes one
    _, choices = _subparsers()
    for name, sp in choices.items():
        options = {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
        want = {"--fixtures", "--format", "--jobs"}
        if name in ("spin-lkt", "dirac-candidates"):
            want.add("--inf-char")
        assert options == want, f"{name}: {sorted(options)}"


def test_byte_identical_reruns(fixture_dir):
    argv = ["hj-example", "--fixtures", str(fixture_dir)]
    assert run_cli(argv) == run_cli(argv), "BUG: output not deterministic"
    argv = ["chambers"]
    assert run_cli(argv) == run_cli(argv)


def _fixtures_with(tmp_path, name, text):
    """A copy of the fixture directory with one file replaced."""
    import shutil

    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    (fixtures / name).write_text(text)
    return fixtures


def _assert_fixture_error(code, out, err, message):
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("name, text, message", [
    ("params_1111111.txt", "999999 | 1,1,1,1,1,1,1 | 4,0,0,0,0,4,1 | unitary,fs\n",
     "x=999999 has no kgb record"),
    ("params_1110111.txt", "# parameters: x | lambda | nu | flags\n", "no parameters"),
    ("dirac_counts.txt", "empty | 56\n", "dirac_counts.txt: dirac_counts: missing subset"),
])
def test_verify_bad_cross_reference_exits_3(tmp_path, capsys, monkeypatch, name, text, message):
    # checked right after loading: no criterion runs (the first would print
    # a line) and the census is never reached
    fixtures = _fixtures_with(tmp_path, name, text)

    def no_census(*args, **kwargs):
        raise AssertionError("the census ran before the fixture check")

    monkeypatch.setattr(criteria, "enumerate_usmall_ktypes", no_census)
    code, out = run_main(["verify", "--fixtures", str(fixtures)])
    _assert_fixture_error(code, out, capsys.readouterr().err, message)


def test_verify_rejects_a_negative_table_spin_weight(tmp_path, capsys, monkeypatch):
    # verify_table_row would raise on it after every heavy stage
    text = Path(FIXTURES, "table.txt").read_text()
    bad = text.replace("| 0,0,0,0,0,1,16;", "| -1,0,0,0,0,1,16;", 1)
    assert bad != text
    fixtures = _fixtures_with(tmp_path, "table.txt", bad)
    monkeypatch.setattr(criteria, "CRITERIA", None)  # a criterion run would fail
    code, out = run_main(["verify", "--fixtures", str(fixtures)])
    _assert_fixture_error(code, out, capsys.readouterr().err,
                          "table.txt: line 2: spin lkt: negative e6 coordinate")


@pytest.mark.parametrize("command", ["verify", "strings"])
def test_fixture_not_utf8_exits_3(tmp_path, capsys, monkeypatch, command):
    # undecodable bytes make the file unreadable, not a failed verification
    fixtures = _fixtures_with(tmp_path, "dirac_counts.txt", "")
    (fixtures / "dirac_counts.txt").write_bytes(
        Path(FIXTURES, "dirac_counts.txt").read_bytes() + b"\xff\xfe")
    monkeypatch.setattr(criteria, "CRITERIA", None)  # a criterion run would fail
    code, out = run_main([command, "--fixtures", str(fixtures)])
    _assert_fixture_error(code, out, capsys.readouterr().err,
                          f"cannot read fixture {fixtures / 'dirac_counts.txt'}: 'utf-8' codec")


@pytest.mark.parametrize("text, message", [
    # x=1 is a kgb record without full support
    ("1 | 1,0,1,1,1,0,8 | -11/2,-11/2,11/2,0,0,0,11/2 | fs\n",
     "x=1: fs flag contradicts kgb support"),
    ("999999 | 1,0,1,1,1,0,8 | -11/2,-11/2,11/2,0,0,0,11/2 | fs\n",
     "x=999999 has no kgb record"),
])
def test_hj_example_bad_cross_reference_exits_3(tmp_path, capsys, text, message):
    fixtures = _fixtures_with(tmp_path, "params_1011108.txt", text)
    code, out = run_main(["hj-example", "--fixtures", str(fixtures)])
    _assert_fixture_error(code, out, capsys.readouterr().err, message)


def test_verify_failing_criterion_exits_1(fixture_dir, monkeypatch):
    monkeypatch.setattr(criteria, "CRITERIA", [
        ("passes", lambda ctx: (True, "as it should")),
        ("fails", lambda ctx: (False, "as it must")),
    ])
    code, out = run_main(["verify", "--fixtures", str(fixture_dir)])
    assert code == 1
    assert out == "PASS passes: as it should\nFAIL fails: as it must\n"
