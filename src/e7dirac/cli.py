"""Command-line front end: prints the engine's tables and counts as TSV or
aligned text, plus a one-shot verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 missing or
unreadable fixture data.  Output is deterministic: canonical sort order,
exact rationals (p/q), no floating point.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import atlas_ingest as ingest
from .norms import (
    enumerate_by_height,
    infchar_ambient,
    ktype_ambient,
    lambda_datum,
    lambda_norm_sq_fast,
    norm12_ktype,
    spin_sq12,
)
from .screening import (
    compute_certs,
    dirac_candidate_gammas,
    dirac_index_no_cancellation,
    enumerate_omega,
    enumerate_usmall_ktypes,
    spin_lkts,
)
from .structure import (
    RANK,
    build_root_datum,
    contragredient,
    from_ambient,
    inner,
    norm_sq,
    sub,
    to_ambient,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FIXTURE = 3


class FixtureMissing(Exception):
    pass


# ---------------------------------------------------------------------------
# output


def fmt_q(q) -> str:
    return str(Fraction(q))


def fmt_vec(v) -> str:
    return ",".join(fmt_q(c) for c in v)


def emit(out, header, rows, footer=None, fmt="tsv") -> None:
    if fmt == "tsv":
        print("#" + "\t".join(header), file=out)
        for r in rows:
            print("\t".join(r), file=out)
        if footer is not None:
            print(f"# {footer[0]}\t{footer[1]}", file=out)
        return
    widths = [len(h) for h in header]
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()
    print(line, file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip(), file=out)
    if footer is not None:
        print(f"{footer[0]}: {footer[1]}", file=out)


# ---------------------------------------------------------------------------
# fixture access


def _fixture_dir(args) -> Path:
    where = args.fixtures or os.environ.get("DIRAC_FIXTURES")
    if not where:
        raise FixtureMissing(
            "no fixture directory: pass --fixtures DIR or set DIRAC_FIXTURES")
    path = Path(where)
    if not path.is_dir():
        raise FixtureMissing(f"fixture directory not found: {path}")
    return path


def _load(kind: str, path: Path):
    try:
        text = path.read_text()
    except OSError as e:
        raise FixtureMissing(f"cannot read fixture {path}: {e}") from None
    try:
        return ingest.parse_fixture(kind, text)
    except ingest.FixtureError as e:
        raise FixtureMissing(f"{path}: {e}") from None


def _phi_census(args, fdir: Path, kgb):
    """enumerate_phi, with an involution the census cannot use reported as a
    fixture error."""
    try:
        return ingest.enumerate_phi(kgb, coord_cap=args.coord_cap, jobs=args.jobs)
    except ingest.FixtureError as e:
        raise FixtureMissing(f"{fdir / 'kgb.txt'}: {e}") from None


# ---------------------------------------------------------------------------
# subcommands


def run_chambers(args, out) -> int:
    from .weyl import enumerate_chambers

    rows = [(str(ch.index), fmt_vec(ch.rho_j), fmt_vec(ch.rho_n_j))
            for ch in enumerate_chambers()]
    emit(out, ("chamber", "rho", "rho_noncompact"), rows,
         ("total", str(len(rows))), args.format)
    return EXIT_OK


def run_usmall(args, out) -> int:
    census = enumerate_usmall_ktypes(jobs=args.jobs)
    rows = [(fmt_vec(mu),) for mu in sorted(census)]
    emit(out, ("ktype",), rows, ("total", str(len(rows))), args.format)
    return EXIT_OK


def run_certs(args, out) -> int:
    census = enumerate_usmall_ktypes(jobs=args.jobs)
    entries = sorted(compute_certs(census), key=lambda e: e.ktype)
    rows = [(fmt_vec(e.ktype), fmt_q(e.gap), fmt_q(e.lambda_norm_sq))
            for e in entries]
    emit(out, ("ktype", "gap", "lambda_norm_sq"), rows,
         ("total", str(len(rows))), args.format)
    return EXIT_OK


def run_omega(args, out) -> int:
    chars = sorted(enumerate_omega(jobs=args.jobs))
    rows = [(fmt_vec(c), fmt_q(norm_sq(infchar_ambient(c)))) for c in chars]
    emit(out, ("inf_char", "norm_sq"), rows, ("total", str(len(rows))), args.format)
    return EXIT_OK


def run_phi(args, out) -> int:
    fdir = _fixture_dir(args)
    kgb = _load("kgb", fdir / "kgb.txt")
    chars, partition = _phi_census(args, fdir, kgb)
    rows = [(str(k), str(len(partition[k]))) for k in sorted(partition)]
    emit(out, ("max_coordinate", "count"), rows,
         ("total", str(len(chars))), args.format)
    return EXIT_OK


def run_hj_example(args, out) -> int:
    fdir = _fixture_dir(args)
    kgb = _load("kgb", fdir / "kgb.txt")
    params = _load("params", fdir / "params_1011108.txt")
    total, fs, old, new = ingest.hj_filter(params, kgb)
    rows = [("parameters", str(total)),
            ("fully_supported", str(fs)),
            ("nu_norm_sq_le_399/2", str(old)),
            ("nu_norm_sq_lt_94", str(new))]
    emit(out, ("filter", "count"), rows, None, args.format)
    return EXIT_OK


def run_spin_lkt(args, out) -> int:
    fdir = _fixture_dir(args)
    branch = _load("branching", fdir / "branching_2969.txt")
    ktypes = [(b.ktype, b.mult) for b in branch]
    min_spin, achievers, hd = spin_lkts(ktypes, args.inf_char)
    rows = [("k_types", str(len(branch))),
            ("min_spin_norm_sq", fmt_q(min_spin)),
            ("min_achievers", str(len(achievers))),
            ("hd_nonzero", "true" if hd else "false")]
    emit(out, ("quantity", "value"), rows, None, args.format)
    return EXIT_OK


def run_dirac_candidates(args, out) -> int:
    cs = dirac_candidate_gammas(args.inf_char)
    rows = [(fmt_vec(g), str(cs.gammas[g])) for g in sorted(cs.gammas)]
    emit(out, ("candidate", "witness_chamber"), rows,
         ("total", str(len(rows))), args.format)
    return EXIT_OK


def run_strings(args, out) -> int:
    fdir = _fixture_dir(args)
    counts = _load("dirac_counts", fdir / "dirac_counts.txt")
    _, by_size, total = ingest.count_strings(counts)
    rows = [(f"N_{i}", str(n)) for i, n in enumerate(by_size)]
    emit(out, ("support_size", "count"), rows, ("total", str(total)), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite

# the complete size-1 slice of the character census, kept inline so the
# verifier does not depend on the test tree
SMALLEST_CENSUS_SLICE = frozenset([
    (0, 0, 1, 1, 1, 1, 1), (0, 1, 1, 0, 1, 1, 1), (0, 1, 1, 1, 0, 1, 1),
    (0, 1, 1, 1, 1, 0, 1), (0, 1, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 1, 1),
    (1, 0, 0, 1, 1, 1, 1), (1, 0, 1, 1, 0, 1, 0), (1, 0, 1, 1, 0, 1, 1),
    (1, 0, 1, 1, 1, 0, 1), (1, 0, 1, 1, 1, 1, 0), (1, 0, 1, 1, 1, 1, 1),
    (1, 1, 0, 1, 0, 1, 1), (1, 1, 0, 1, 1, 0, 1), (1, 1, 0, 1, 1, 1, 0),
    (1, 1, 0, 1, 1, 1, 1), (1, 1, 1, 0, 1, 0, 1), (1, 1, 1, 0, 1, 1, 0),
    (1, 1, 1, 0, 1, 1, 1), (1, 1, 1, 1, 0, 1, 0), (1, 1, 1, 1, 0, 1, 1),
    (1, 1, 1, 1, 1, 0, 1), (1, 1, 1, 1, 1, 1, 0),
])

CENSUS_PARTITION_SIZES = (23, 921, 7817, 27246, 42088, 39685, 28107, 17649,
                          9042, 4022, 1359, 220, 13)

STRING_SUMS = (56, 84, 102, 133, 164, 181, 158)

TWELVE_CANDIDATES = frozenset([
    (1, 0, 0, 0, 0, 0, 11), (0, 0, 0, 0, 0, 1, -11),
    (2, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 2, -1),
    (0, 0, 0, 0, 1, 0, 5), (0, 0, 1, 0, 0, 0, -5),
    (0, 0, 0, 0, 0, 0, 15), (0, 0, 0, 0, 0, 0, -15),
    (0, 1, 0, 0, 0, 0, 9), (0, 1, 0, 0, 0, 0, -9),
    (1, 0, 0, 0, 0, 1, 3), (1, 0, 0, 0, 0, 1, -3),
])


def _random_ktype(rng, span=4, gspan=5):
    a = [rng.randint(0, span) for _ in range(6)]
    base = 2 * a[0] + 3 * a[1] + 4 * a[2] + 6 * a[3] + 5 * a[4] + 4 * a[5]
    return tuple(a) + (base + 3 * rng.randint(-gspan, gspan),)


def _check_references(fdir: Path, kgb, params: dict, table) -> None:
    """The cross-references verify relies on: every parameter file is
    nonempty, every parameter and table line names a kgb record, and each
    parameter's fs flag agrees with its record's support."""
    for name, rows in params.items():
        if not rows:
            raise FixtureMissing(f"{fdir / name}: no parameters")
        for p in rows:
            rec = kgb.get(p.x)
            if rec is None:
                raise FixtureMissing(f"{fdir / name}: parameter x={p.x} has no kgb record")
            if p.fully_supported != (rec.support == ingest.FULL_SUPPORT):
                raise FixtureMissing(
                    f"{fdir / name}: parameter x={p.x}: fs flag contradicts kgb support")
    for row in table:
        for x in (row.x, row.x_prime):
            if x is not None and x not in kgb:
                raise FixtureMissing(
                    f"{fdir / 'table.txt'}: line {row.table_id} x={x} has no kgb record")


def run_verify(args, out) -> int:
    from .norms import cone_project
    from .weyl import enumerate_chambers, spin_module_dimension_check

    fdir = _fixture_dir(args)
    kgb = _load("kgb", fdir / "kgb.txt")
    census_params = _load("params", fdir / "params_1011108.txt")
    big_params = _load("params", fdir / "params_1111111.txt")
    small_params = _load("params", fdir / "params_1110111.txt")
    branch = _load("branching", fdir / "branching_2969.txt")
    table = _load("table", fdir / "table.txt")
    string_counts = _load("dirac_counts", fdir / "dirac_counts.txt")
    _check_references(fdir, kgb, {
        "params_1011108.txt": census_params,
        "params_1111111.txt": big_params,
        "params_1110111.txt": small_params,
    }, table)

    d = build_root_datum()
    failures = 0

    def report(name, ok, detail):
        nonlocal failures
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)

    # 1: chamber census
    chambers = enumerate_chambers()
    ok = len(chambers) == 56 and chambers[0].rho_j == d.rho and all(
        all(inner(ch.rho_n_j, a) >= 0 for a in d.compact_simple) for ch in chambers)
    report("chamber-census", ok,
           f"{len(chambers)} chambers, rho^(0) = ({fmt_vec(chambers[0].rho_j)})")

    # 2: spin module dimension
    ok = spin_module_dimension_check()
    report("spin-module-dimension", ok, f"sum of 56 summand dims = 2^27 is {ok}")

    # 3: u-small census
    census = enumerate_usmall_ktypes(jobs=args.jobs)
    report("usmall-census", len(census) == 21294, f"{len(census)} u-small K-types")

    # 4: certificate set
    certs = compute_certs(census)
    ok = len(certs) == 71 and all(
        e.gap >= 94 and 14 <= e.lambda_norm_sq <= 49 for e in certs)
    report("certificate-set", ok, f"{len(certs)} certificates")

    # 5: norm-window characters
    omega = enumerate_omega(jobs=args.jobs)
    ok = len(omega) == 4676 and all(
        108 <= norm_sq(infchar_ambient(c)) <= Fraction(469, 2) for c in omega)
    report("norm-window-characters", ok, f"{len(omega)} characters in the window")

    # 6: norm spot checks
    checks = [
        (norm_sq(d.rho), Fraction(399, 2)),
        (inner(d.rho, d.highest_root), 17),
        (Fraction(spin_sq12((0, 0, 0, 0, 0, 0, -12)), 12), Fraction(231, 2)),
        (Fraction(spin_sq12((0, 0, 0, 0, 0, 0, -24)), 12), Fraction(159, 2)),
        (norm_sq(infchar_ambient((1, 0, 1, 1, 0, 1, 0))), 78),
    ]
    ok = all(a == b for a, b in checks)
    report("norm-spot-checks", ok,
           "; ".join(f"{fmt_q(a)}={fmt_q(b)}" for a, b in checks))

    # 7: cohomology candidates
    cs = dirac_candidate_gammas((1, 1, 1, 0, 1, 1, 1))
    ok = TWELVE_CANDIDATES <= set(cs.gammas)
    pair = dirac_candidate_gammas((1, 1, 1, 0, 1, 0, 1))
    ok = ok and (0, 0, 0, 0, 0, 0, 3) in pair.gammas \
        and (0, 0, 0, 0, 0, 0, -3) in pair.gammas
    family = [((0, 0, 0, 0, 0, n, -12 - 2 * n), 1) for n in range(21)]
    _, achievers, hd = spin_lkts(family, (1, 1, 1, 0, 1, 1, 1))
    ok = ok and hd and sorted(mu[5] for mu, _ in achievers) == list(range(6))
    report("cohomology-candidates", ok,
           f"12 candidate weights present, scalar pair present, "
           f"{len(achievers)} family achievers")

    # 8: index parity
    lkt = (0, 0, 0, 0, 0, 0, 3)
    spins = [(0, 0, 0, 0, 0, 1, 25), (4, 0, 0, 0, 0, 1, 9), (0, 0, 0, 0, 0, 5, -7)]
    vals = [abs(int(inner(sub(ktype_ambient(mu), ktype_ambient(lkt)), d.zeta)))
            for mu in spins]
    ok = vals == [11, 3, 5] and dirac_index_no_cancellation(lkt, spins)
    report("index-parity", ok, f"pairings {vals}, no cancellation")

    # 9: character census (fixture-gated)
    chars, partition = _phi_census(args, fdir, kgb)
    sizes = tuple(len(partition[k]) for k in sorted(partition))
    ok = len(chars) == 178192 and sizes == CENSUS_PARTITION_SIZES \
        and set(partition.get(1, ())) == SMALLEST_CENSUS_SLICE
    report("character-census", ok, f"{len(chars)} characters, slice sizes {sizes}")

    # 10: screening examples (fixture-gated)
    funnel = ingest.hj_filter(census_params, kgb)
    min_spin, _, hd = spin_lkts([(b.ktype, b.mult) for b in branch],
                                (1, 0, 1, 1, 0, 1, 0))
    nu_big = ingest.nu_from_involution((1,) * RANK, kgb[big_params[0].x])
    nu_small = small_params[0].nu
    ok = funnel == (525, 246, 218, 29) \
        and (len(branch), min_spin, hd) == (157, Fraction(159, 2), False) \
        and ingest.norm_sq_nu(nu_big) == Fraction(371, 2) \
        and ingest.norm_sq_nu(nu_small) == 97 \
        and all(p.unitary for p in small_params) and len(small_params) == 2
    report("screening-examples", ok,
           f"funnel {funnel}; branching ({len(branch)}, {fmt_q(min_spin)}, "
           f"{'true' if hd else 'false'}); extreme nu norms "
           f"{fmt_q(ingest.norm_sq_nu(nu_big))}, {fmt_q(ingest.norm_sq_nu(nu_small))}")

    # 11: table verification (fixture-gated)
    bad = []
    for row in table:
        rep = ingest.verify_table_row(row)
        if not rep.passed:
            bad.append((row.table_id, row.x))
    n_rows = sum(r.row_count() for r in table)
    ok = not bad and n_rows == 73
    report("table-verification", ok,
           f"{n_rows} rows over {len(table)} lines" + (f", failing {bad}" if bad else ""))

    # 12: string counts (fixture-gated)
    _, by_size, total = ingest.count_strings(string_counts)
    ok = by_size == STRING_SUMS and total == 878
    report("string-counts", ok, f"N_i = {by_size}, total {total}")

    # 13: property suite
    props = []
    rng = random.Random(20260822)
    sample = [_random_ktype(rng) for _ in range(500)]

    ok = True
    for mu in sample[:40]:
        eta = ktype_ambient(mu)
        for ch in (chambers[0], chambers[17], chambers[55]):
            p1 = cone_project(eta, ch)
            if cone_project(p1, ch) != p1:
                ok = False
    props.append(("projection-idempotent", ok))

    ok = all(lambda_datum(mu).lambda_norm_sq == lambda_norm_sq_fast(mu)
             for mu in sample)
    props.append(("lambda-chamber-independent", ok))

    ok = True
    for mu in sample[:200]:
        cmu = contragredient(mu)
        if (lambda_norm_sq_fast(cmu) != lambda_norm_sq_fast(mu)
                or spin_sq12(cmu) != spin_sq12(mu)
                or norm12_ktype(cmu) != norm12_ktype(mu)):
            ok = False
    props.append(("contragredient-invariant", ok))

    ok = True
    for mu in sample[:100]:
        for basis in ("zeta", "varpi"):
            back = from_ambient(basis, to_ambient(basis, mu))
            if tuple(int(c) for c in back) != mu:
                ok = False
    props.append(("basis-round-trip", ok))

    ok = True
    ident = tuple(tuple(1 if i == j else 0 for j in range(RANK)) for i in range(RANK))
    for rec in kgb.values():
        sq = tuple(tuple(sum(rec.theta[i][j] * rec.theta[j][k] for j in range(RANK))
                         for k in range(RANK)) for i in range(RANK))
        if sq != ident:
            ok = False
    props.append(("involutions-square-to-one", ok))

    # the census holds every u-small K-type, so membership decides it
    ok = True
    heights = enumerate_by_height(args.height_cap)
    for mu in heights:
        if mu in census:
            continue
        gap = Fraction(spin_sq12(mu), 12) - lambda_norm_sq_fast(mu)
        if gap > 79:
            ok = False
    props.append(("ularge-gap-bounded", ok))

    ok = all(p_ok for _, p_ok in props)
    report("property-suite", ok,
           "; ".join(f"{name} {'ok' if p_ok else 'FAILED'}" for name, p_ok in props))

    return EXIT_FAIL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _inf_char(text: str):
    parts = text.split(",")
    if len(parts) != RANK:
        raise argparse.ArgumentTypeError(f"expected {RANK} comma-separated integers")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad coordinate in {text!r}") from None


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e7dirac",
        description="Exact screening pipeline tables for the Dirac series of "
                    "E7(-25).")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fixtures", metavar="DIR",
                        help="fixture directory (fallback: $DIRAC_FIXTURES)")
    common.add_argument("--format", choices=("tsv", "pretty"), default="tsv")
    common.add_argument("--height-cap", type=_positive, default=400,
                        metavar="N", help="K-type height bound for scans")
    common.add_argument("--coord-cap", type=_positive, default=64, metavar="N",
                        help="safety cap on census coordinates")
    common.add_argument("--jobs", type=_positive, default=1, metavar="N",
                        help="worker processes for the heavy enumerations")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    table = [
        ("chambers", run_chambers, "the 56 positive systems with their rho vectors"),
        ("usmall", run_usmall, "census of u-small K-types"),
        ("certs", run_certs, "the 71 high-gap certificate K-types"),
        ("omega", run_omega, "dominant integral characters in the norm window"),
        ("phi", run_phi, "census of characters cut out by the involution fixtures"),
        ("hj-example", run_hj_example, "parameter screening funnel at one character"),
        ("spin-lkt", run_spin_lkt, "minimal spin norm over a branching fixture"),
        ("dirac-candidates", run_dirac_candidates,
         "cohomology candidate weights for a character"),
        ("strings", run_strings, "string counts by support size"),
        ("verify", run_verify, "run the whole verification suite"),
    ]
    for name, fn, help_text in table:
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.set_defaults(func=fn)
        if name == "spin-lkt":
            sp.add_argument("--inf-char", type=_inf_char,
                            default=(1, 0, 1, 1, 0, 1, 0), metavar="C1,...,C7")
        if name == "dirac-candidates":
            sp.add_argument("--inf-char", type=_inf_char,
                            default=(1, 1, 1, 0, 1, 1, 1), metavar="C1,...,C7")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except FixtureMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FIXTURE


if __name__ == "__main__":
    sys.exit(main())
