"""Quick tests of the benchmark itself: every check rejects a corrupted
output, a small height scan runs end to end, and BENCHMARK.json lists the
metrics the command prints.  They take seconds, not the minutes of the
full workloads."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import expected as ex
import run
import workloads

from e7dirac import norms, screening
from e7dirac.atlas_ingest import TableRowReport


@pytest.fixture(scope="module")
def certs():
    return screening.compute_certs(set(ex.CERTS_KTYPES))


def test_certs_check_rejects_a_missing_ktype(certs):
    exact = lambda mu: norms.lambda_datum(mu).lambda_norm_sq  # noqa: E731
    assert checks.check_certs(certs, exact) == []
    assert checks.check_certs(set(sorted(certs, key=lambda e: e.ktype)[1:]), exact)


def test_certs_check_rejects_a_wrong_lambda(certs):
    assert checks.check_certs(certs, lambda mu: Fraction(0))


def test_census_check_rejects_a_short_census():
    census = set(ex.CERTS_KTYPES)
    problems = checks.check_census(census)
    assert any("21294" in p for p in problems)
    census.discard((0, 0, 0, 0, 0, 0, 3))  # its dual (0,...,-3) stays behind
    assert any("dual" in p for p in checks.check_census(census))


def test_omega_check():
    omega = screening.enumerate_omega()
    norm = lambda c: norms.norm_sq(norms.infchar_ambient(c))  # noqa: E731
    assert checks.check_omega(omega, norm) == []
    assert checks.check_omega(omega - {min(omega)}, norm)
    assert checks.check_omega((omega - {min(omega)}) | {(0,) * 7}, norm)


def test_phi_partition_off_by_one_is_rejected():
    slice1 = tuple(sorted(ex.PHI_SIZE_ONE_SLICE))
    assert checks.check_phi_slice(slice1, {1: slice1}, screening.hp_admissible) == []
    extra = (1, 1, 1, 1, 1, 1, 1)  # admissible, but not in the paper's slice
    assert checks.check_phi_slice(slice1 + (extra,), {1: slice1 + (extra,)},
                                  screening.hp_admissible)
    wrong_key = {2: slice1}
    assert checks.check_phi_slice(slice1, wrong_key, screening.hp_admissible)


def test_phi_membership_check():
    chars = [(0, 1, 1, 1, 1, 1, 1)]
    assert checks.check_phi_membership(chars, chars, lambda c: True) == []
    assert checks.check_phi_membership(chars, chars, lambda c: False)
    assert checks.check_phi_membership(chars, [(0, 0, 1, 1, 1, 1, 1)], lambda c: True)


def test_fixture_screen_checks():
    assert checks.check_funnel(ex.FUNNEL) == []
    assert checks.check_funnel((525, 246, 218, 30))
    assert checks.check_branching(*ex.BRANCHING) == []
    assert checks.check_branching(157, Fraction(159, 2), True)
    assert checks.check_strings(ex.STRING_SUMS, ex.STRING_TOTAL) == []
    assert checks.check_strings(ex.STRING_SUMS, ex.STRING_TOTAL + 1)


def test_table_check_rejects_a_failing_line():
    class Line:
        def __init__(self, n):
            self.n = n

        def row_count(self):
            return self.n

    table = [Line(2)] * 33 + [Line(1)] * 7
    ok = TableRowReport(table_id="1011010", x=1, checks=(("spin-norm", True, ""),))
    bad = TableRowReport(table_id="1011010", x=2, checks=(("spin-norm", False, "off"),))
    assert checks.check_table(table, [ok]) == []
    assert checks.check_table(table, [ok, bad])
    assert checks.check_table(table[1:], [ok])


def test_ularge_gap_of_80_is_rejected():
    mu = (0, 0, 0, 0, 0, 0, 30)
    assert checks.check_ularge_gaps({mu: Fraction(79)}) == []
    assert checks.check_ularge_gaps({mu: Fraction(80)})


def test_height_scan_checks_reject_corruption():
    points = {(0, 0, 0, 0, 0, 0, 3): 10, (0, 0, 0, 0, 0, 0, -3): 10}
    assert checks.check_height_scan(points, 10, {}) == []
    assert checks.check_height_scan(points, 9, {})
    assert checks.check_height_scan({**points, (0, 0, 0, 0, 0, 0, 1): 4}, 10, {})
    assert checks.check_height_scan(points, 10, {(0, 0, 0, 0, 0, 0, 3): 11})
    steps = [(2, -1, 0, 0, 0, 0)]
    below = {(0, 1, 0, 0, 0, 0, 0): 1, (2, 0, 0, 0, 0, 0, 0): 1}
    problems = checks.check_usmall_split(below, {(2, 0, 0, 0, 0, 0, 0)}, steps)
    assert any("below" in p for p in problems)
    assert checks.check_usmall_split(points, {(0, 0, 0, 0, 0, 0, 3)}, steps)


def test_jobs2_digest_mismatch_is_rejected():
    out = "#ktype\n0,0,0,0,0,0,0\n# total\t1\n"
    assert checks.check_cli("usmall", 0, out, checks.digest(out), 1) == []
    assert checks.check_cli("usmall", 0, out, checks.digest(out + "\n"), 1)
    assert checks.check_cli("usmall", 0, out, checks.digest(out), 2)
    assert checks.check_cli("usmall", 1, out, checks.digest(out), 1)
    phi = "#max_coordinate\tcount\n1\t23\n2\t922\n# total\t945\n"
    assert any("beyond" in p for p in checks.check_cli("phi", 0, phi, checks.digest(phi)))


def test_height_scan_smoke_at_a_small_cap():
    scan = workloads.HeightScan(cap=140)
    state = scan.setup()
    out = scan.run_round(state)
    assert out["scan"] and all(h <= 140 for h in out["scan"].values())
    assert scan.check(state, out, random.Random(1)) == {op: [] for op in scan.ops}


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    from spans import Tracer

    printed = run.layer_metrics(Tracer(), Tracer(), 1)
    printed.update({"trace.overhead_s": (0, "s"), "trace.overhead_share": (0, "ratio")})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_v, unit) in printed.items()}
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
