"""Command-line front end: prints the engine's tables and counts as TSV or
aligned text, plus a one-shot verification suite over criteria.CRITERIA.

Each subcommand is a builder run_x(ctx, args) over one criteria.Context,
which reads the fixture files and computes the enumerations on first use.
A builder returns (header, rows, footer) for `emit`; `verify`'s returns the
criteria results, printed one PASS/FAIL line each.  `render` prints what a
builder returns, so a test renders any subcommand from a context it
already holds.

Exit codes: 0 success, 1 verification failure, 2 usage error (from
argparse), 3 missing, unreadable or inconsistent fixture data (any
FixtureError).  Output is deterministic: canonical sort order, exact
rationals (p/q), no floating point.
"""

from __future__ import annotations

import argparse
import sys

from . import atlas_ingest as ingest
from . import criteria
from .norms import infchar_norm_sq
from .screening import dirac_candidate_gammas, spin_lkts
from .structure import RANK, ambient, fmt_q, fmt_vec
from .weyl import enumerate_chambers

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


def render(ctx, args, out) -> int:
    """Print the output of args' subcommand over ctx to out, and return the
    exit code."""
    built = args.func(ctx, args)
    if args.command != "verify":
        emit(out, *built, args.format)
        return EXIT_OK
    for name, (ok, detail) in built.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=out)
    return EXIT_OK if all(ok for ok, _ in built.values()) else EXIT_FAIL


# ---------------------------------------------------------------------------
# subcommands


def run_chambers(ctx, args):
    rows = [(str(ch.index), fmt_vec(ambient(ch.rho_j)), fmt_vec(ambient(ch.rho_n_j)))
            for ch in enumerate_chambers()]
    return ("chamber", "rho", "rho_noncompact"), rows, ("total", str(len(rows)))


def run_usmall(ctx, args):
    rows = [(fmt_vec(mu),) for mu in sorted(ctx.census)]
    return ("ktype",), rows, ("total", str(len(rows)))


def run_certs(ctx, args):
    rows = [(fmt_vec(e.ktype), fmt_q(e.gap), fmt_q(e.lambda_norm_sq))
            for e in sorted(ctx.certs, key=lambda e: e.ktype)]
    return ("ktype", "gap", "lambda_norm_sq"), rows, ("total", str(len(rows)))


def run_omega(ctx, args):
    rows = [(fmt_vec(c), fmt_q(infchar_norm_sq(c))) for c in sorted(ctx.omega)]
    return ("inf_char", "norm_sq"), rows, ("total", str(len(rows)))


def run_phi(ctx, args):
    chars, partition = ctx.phi
    rows = [(str(k), str(len(partition[k]))) for k in sorted(partition)]
    return ("max_coordinate", "count"), rows, ("total", str(len(chars)))


def run_hj_example(ctx, args):
    total, fs, old, new = ingest.hj_filter(ctx.read("params_1011108.txt"), ctx.kgb)
    rows = [("parameters", str(total)),
            ("fully_supported", str(fs)),
            ("nu_norm_sq_le_399/2", str(old)),
            ("nu_norm_sq_lt_94", str(new))]
    return ("filter", "count"), rows, None


def run_spin_lkt(ctx, args):
    min_spin, achievers, hd = spin_lkts([(b.ktype, b.mult) for b in ctx.branch],
                                        args.inf_char)
    rows = [("k_types", str(len(ctx.branch))),
            ("min_spin_norm_sq", fmt_q(min_spin)),
            ("min_achievers", str(len(achievers))),
            ("hd_nonzero", "true" if hd else "false")]
    return ("quantity", "value"), rows, None


def run_dirac_candidates(ctx, args):
    gammas = dirac_candidate_gammas(args.inf_char)
    rows = [(fmt_vec(g), str(gammas[g])) for g in sorted(gammas)]
    return ("candidate", "witness_chamber"), rows, ("total", str(len(rows)))


def run_strings(ctx, args):
    _, by_size, total = ingest.count_strings(ctx.string_counts)
    rows = [(f"N_{i}", str(n)) for i, n in enumerate(by_size)]
    return ("support_size", "count"), rows, ("total", str(total))


def run_verify(ctx, args):
    return ctx.results


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
        return render(criteria.Context(args.fixtures), args, sys.stdout)
    except ingest.FixtureError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FIXTURE


if __name__ == "__main__":
    sys.exit(main())
