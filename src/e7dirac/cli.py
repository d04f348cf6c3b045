"""Command-line front end: prints the engine's tables and counts as TSV or
aligned text, plus a one-shot verification suite over criteria.CRITERIA.

Exit codes: 0 success, 1 verification failure, 2 usage error (from
argparse), 3 missing, unreadable or inconsistent fixture data (any
FixtureError).  Output is deterministic: canonical sort order, exact
rationals (p/q), no floating point.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import atlas_ingest as ingest
from . import criteria
from .norms import infchar_norm_sq
from .screening import (
    compute_certs,
    dirac_candidate_gammas,
    enumerate_omega,
    enumerate_usmall_ktypes,
    spin_lkts,
)
from .structure import RANK, fmt_q, fmt_vec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_FIXTURE = 3


# ---------------------------------------------------------------------------
# output


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
        raise ingest.FixtureError(
            "no fixture directory: pass --fixtures DIR or set DIRAC_FIXTURES")
    path = Path(where)
    if not path.is_dir():
        raise ingest.FixtureError(f"fixture directory not found: {path}")
    return path


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
    census = enumerate_usmall_ktypes()
    rows = [(fmt_vec(mu),) for mu in sorted(census)]
    emit(out, ("ktype",), rows, ("total", str(len(rows))), args.format)
    return EXIT_OK


def run_certs(args, out) -> int:
    census = enumerate_usmall_ktypes()
    entries = sorted(compute_certs(census), key=lambda e: e.ktype)
    rows = [(fmt_vec(e.ktype), fmt_q(e.gap), fmt_q(e.lambda_norm_sq))
            for e in entries]
    emit(out, ("ktype", "gap", "lambda_norm_sq"), rows,
         ("total", str(len(rows))), args.format)
    return EXIT_OK


def run_omega(args, out) -> int:
    chars = sorted(enumerate_omega())
    rows = [(fmt_vec(c), fmt_q(infchar_norm_sq(c))) for c in chars]
    emit(out, ("inf_char", "norm_sq"), rows, ("total", str(len(rows))), args.format)
    return EXIT_OK


def run_phi(args, out) -> int:
    fdir = _fixture_dir(args)
    kgb = ingest.read_fixture("kgb", fdir / "kgb.txt")
    chars, partition = criteria.phi_census(fdir, kgb)
    rows = [(str(k), str(len(partition[k]))) for k in sorted(partition)]
    emit(out, ("max_coordinate", "count"), rows,
         ("total", str(len(chars))), args.format)
    return EXIT_OK


def run_hj_example(args, out) -> int:
    fdir = _fixture_dir(args)
    kgb = ingest.read_fixture("kgb", fdir / "kgb.txt")
    params = ingest.read_fixture("params", fdir / "params_1011108.txt")
    criteria.check_references(fdir, kgb, {"params_1011108.txt": params})
    total, fs, old, new = ingest.hj_filter(params, kgb)
    rows = [("parameters", str(total)),
            ("fully_supported", str(fs)),
            ("nu_norm_sq_le_399/2", str(old)),
            ("nu_norm_sq_lt_94", str(new))]
    emit(out, ("filter", "count"), rows, None, args.format)
    return EXIT_OK


def run_spin_lkt(args, out) -> int:
    fdir = _fixture_dir(args)
    branch = ingest.read_fixture("branching", fdir / "branching_2969.txt")
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
    counts = ingest.read_fixture("dirac_counts", fdir / "dirac_counts.txt")
    _, by_size, total = ingest.count_strings(counts)
    rows = [(f"N_{i}", str(n)) for i, n in enumerate(by_size)]
    emit(out, ("support_size", "count"), rows, ("total", str(total)), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suite


def run_verify(args, out) -> int:
    ctx = criteria.Context(_fixture_dir(args))
    failures = 0
    for name, check in criteria.CRITERIA:
        ok, detail = check(ctx)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)
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
    common.add_argument("--jobs", type=_positive, default=1, metavar="N",
                        help="accepted for compatibility; has no effect")

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
    except ingest.FixtureError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FIXTURE


if __name__ == "__main__":
    sys.exit(main())
