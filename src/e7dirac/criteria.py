"""The paper's acceptance criteria, and the one copy of the counts they
check.

CRITERIA is the ordered list of (name, fn).  Each fn(ctx) returns
(ok, detail), where detail is the line `e7dirac verify` prints after
"PASS name: " or "FAIL name: ", and Context.results runs it for `verify`
and tests/test_acceptance.py.  Everything is exact arithmetic, no tolerances.

A Context is the one entry to the pipeline, for every subcommand and the
tests.  It reads each fixture file, computes each enumeration and runs the
criteria on first use, so a subcommand reads only the files it needs and
`verify` reads all of them before any criterion runs.  A missing, malformed
or inconsistent fixture raises FixtureError, which the command line turns
into exit code 3.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from . import atlas_ingest as ingest
from .norms import (
    cone_project,
    dirac_inequality_holds,
    height_witnesses,
    infchar_ambient,
    is_usmall,
    ktype_ambient,
    lambda_datum,
    lambda_norm_sq_fast,
    norm12_ktype,
    spin_sq12,
)
from .screening import (
    NU_BOUND,
    OMEGA_WINDOW,
    compute_certs,
    dirac_candidate_gammas,
    dirac_index_no_cancellation,
    enumerate_omega,
    enumerate_usmall_ktypes,
    spin_lkts,
)
from .structure import (
    RANK,
    ambient,
    build_root_datum,
    contragredient,
    fmt_q,
    fmt_vec,
    from_ambient,
    inner,
    ktype_form,
    norm_sq,
    sub,
    to_ambient,
)
from .weyl import enumerate_chambers, spin_module_dimension_check

# ---------------------------------------------------------------------------
# the paper's counts

CHAMBER_COUNT = 56
USMALL_CENSUS_SIZE = 21294
CERT_COUNT = 71
# every certificate's lambda norm lies in this closed interval
CERT_LAMBDA_RANGE = (14, 49)
OMEGA_SIZE = 4676

# the character census, by largest coordinate 1..13
CHARACTER_CENSUS_SIZE = 178192
CENSUS_PARTITION_SIZES = (23, 921, 7817, 27246, 42088, 39685, 28107, 17649,
                          9042, 4022, 1359, 220, 13)

# the complete size-1 slice of the character census
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

# the twelve Dirac-cohomology weights at the character [1,1,1,0,1,1,1]
TWELVE_CANDIDATES = frozenset([
    (1, 0, 0, 0, 0, 0, 11), (0, 0, 0, 0, 0, 1, -11),
    (2, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 2, -1),
    (0, 0, 0, 0, 1, 0, 5), (0, 0, 1, 0, 0, 0, -5),
    (0, 0, 0, 0, 0, 0, 15), (0, 0, 0, 0, 0, 0, -15),
    (0, 1, 0, 0, 0, 0, 9), (0, 1, 0, 0, 0, 0, -9),
    (1, 0, 0, 0, 0, 1, 3), (1, 0, 0, 0, 0, 1, -3),
])
SCALAR_PAIR = frozenset([(0, 0, 0, 0, 0, 0, 3), (0, 0, 0, 0, 0, 0, -3)])

# parameters, |nu|^2 <= |rho|^2 and |nu|^2 < NU_BOUND among the fully supported
FUNNEL = (525, 246, 218, 29)
# the branching table at [1,0,1,1,0,1,0]: K-types, least spin norm, HD != 0
BRANCHING = (157, Fraction(159, 2), False)
# |nu|^2 of the largest and of the smallest example parameter
NU_NORMS = (Fraction(371, 2), 97)
TABLE_ROWS = 73
# string counts N_i by support size, and their total
STRING_SUMS = (56, 84, 102, 133, 164, 181, 158)
STRING_TOTAL = 878
# the height cap of the property suite's u-large scan; the lowest u-large
# K-type with a positive spin-vs-lambda gap has height 290
HEIGHT_CAP = 400
# the largest spin-vs-lambda gap a u-large K-type may have up to HEIGHT_CAP
ULARGE_GAP_MAX = 79
assert ULARGE_GAP_MAX < NU_BOUND, "BUG: a u-large gap reaches the certificate floor"

PARAMS_FILES = ("params_1011108.txt", "params_1111111.txt", "params_1110111.txt")


# ---------------------------------------------------------------------------
# fixture data

# every fixture file and its kind, in the order verify reads them
FIXTURE_FILES = {"kgb.txt": "kgb", **dict.fromkeys(PARAMS_FILES, "params"),
                 "branching_2969.txt": "branching", "table.txt": "table",
                 "dirac_counts.txt": "dirac_counts"}


def _check_references(kind: str, rows, kgb) -> None:
    """The cross-references the checks rely on: a parameter file is
    nonempty, every parameter and table line names a kgb record, and each
    parameter's fs flag agrees with its record's support."""
    if kind == "params":
        if not rows:
            raise ingest.FixtureError("no parameters")
        for p in rows:
            rec = kgb.get(p.x)
            if rec is None:
                raise ingest.FixtureError(f"parameter x={p.x} has no kgb record")
            if p.fully_supported != (rec.support == ingest.FULL_SUPPORT):
                raise ingest.FixtureError(f"parameter x={p.x}: fs flag contradicts kgb support")
    elif kind == "table":
        for row in rows:
            for x in (row.x, row.x_prime):
                if x is not None and x not in kgb:
                    raise ingest.FixtureError(f"line {row.table_id} x={x} has no kgb record")


class Context:
    """One run's view of the pipeline: the fixture directory (the argument,
    else $DIRAC_FIXTURES), each fixture file, the heavy enumerations and the
    criteria results, each resolved, read or computed on first use."""

    def __init__(self, fixtures=None):
        self.fixtures = fixtures
        self._files = {}

    @cached_property
    def fdir(self) -> Path:
        where = self.fixtures or os.environ.get("DIRAC_FIXTURES")
        if not where:
            raise ingest.FixtureError(
                "no fixture directory: pass --fixtures DIR or set DIRAC_FIXTURES")
        path = Path(where)
        if not path.is_dir():
            raise ingest.FixtureError(f"fixture directory not found: {path}")
        return path

    def read(self, name: str):
        """The parsed fixture file `name` of FIXTURE_FILES, a params or table
        file checked against kgb.txt.  An unreadable, malformed or
        inconsistent file is a FixtureError that names it."""
        if name not in self._files:
            kind, path = FIXTURE_FILES[name], self.fdir / name
            kgb = self.kgb if kind in ("params", "table") else None
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as e:
                raise ingest.FixtureError(f"cannot read fixture {path}: {e}") from None
            try:
                rows = ingest.parse_fixture(kind, text)
                _check_references(kind, rows, kgb)
            except ingest.FixtureError as e:
                raise ingest.FixtureError(f"{path}: {e}") from None
            self._files[name] = rows
        return self._files[name]

    kgb = property(lambda self: self.read("kgb.txt"))
    branch = property(lambda self: self.read("branching_2969.txt"))
    table = property(lambda self: self.read("table.txt"))
    string_counts = property(lambda self: self.read("dirac_counts.txt"))

    @cached_property
    def census(self):
        return enumerate_usmall_ktypes()

    @cached_property
    def certs(self):
        return compute_certs(self.census)

    @cached_property
    def omega(self):
        return enumerate_omega()

    @cached_property
    def phi(self):
        """enumerate_phi; a fixture error it raises names kgb.txt."""
        kgb = self.kgb
        try:
            return ingest.enumerate_phi(kgb)
        except ingest.FixtureError as e:
            raise ingest.FixtureError(f"{self.fdir / 'kgb.txt'}: {e}") from None

    @cached_property
    def results(self) -> dict:
        """name -> (ok, detail) of each criterion, in CRITERIA order, once every
        fixture file is read and cross-checked."""
        for name in FIXTURE_FILES:
            self.read(name)
        return {name: check(self) for name, check in CRITERIA}


# ---------------------------------------------------------------------------
# the criteria


def chamber_census(ctx):
    d = build_root_datum()
    chambers = enumerate_chambers()
    ok = (len(chambers) == CHAMBER_COUNT and chambers[0].rho_j == d.rho
          and len({ch.rho_j for ch in chambers}) == CHAMBER_COUNT
          and all(inner(ch.rho_n_j, a) >= 0 for ch in chambers for a in d.compact_simple))
    return ok, f"{len(chambers)} chambers, rho^(0) = ({fmt_vec(ambient(chambers[0].rho_j))})"


def spin_module_dimension(ctx):
    ok = spin_module_dimension_check()
    return ok, f"sum of 56 summand dims = 2^27 is {ok}"


def usmall_census(ctx):
    return len(ctx.census) == USMALL_CENSUS_SIZE, f"{len(ctx.census)} u-small K-types"


def certificate_set(ctx):
    ok = len(ctx.certs) == CERT_COUNT and all(
        e.ktype in ctx.census and e.gap >= NU_BOUND
        and CERT_LAMBDA_RANGE[0] <= e.lambda_norm_sq <= CERT_LAMBDA_RANGE[1]
        for e in ctx.certs)
    return ok, f"{len(ctx.certs)} certificates"


def norm_window_characters(ctx):
    ok = len(ctx.omega) == OMEGA_SIZE and all(
        all(isinstance(c, int) and c >= 0 for c in lam)
        and OMEGA_WINDOW[0] <= norm_sq(infchar_ambient(lam)) <= OMEGA_WINDOW[1]
        for lam in ctx.omega)
    return ok, f"{len(ctx.omega)} characters in the window"


def norm_spot_checks(ctx):
    d = build_root_datum()
    checks = [
        (norm_sq(d.rho), Fraction(399, 2)),
        (inner(d.rho, d.highest_root), 17),
        (Fraction(spin_sq12((0, 0, 0, 0, 0, 0, -12)), 12), Fraction(231, 2)),
        (Fraction(spin_sq12((0, 0, 0, 0, 0, 0, -24)), 12), Fraction(159, 2)),
        (norm_sq(infchar_ambient((1, 0, 1, 1, 0, 1, 0))), 78),
    ]
    return (all(a == b for a, b in checks),
            "; ".join(f"{fmt_q(a)}={fmt_q(b)}" for a, b in checks))


def cohomology_candidates(ctx):
    lam = (1, 1, 1, 0, 1, 1, 1)
    ok = TWELVE_CANDIDATES <= set(dirac_candidate_gammas(lam))
    ok = ok and set(dirac_candidate_gammas((1, 1, 1, 0, 1, 0, 1))) == SCALAR_PAIR
    family = [((0, 0, 0, 0, 0, n, -12 - 2 * n), 1) for n in range(21)]
    _, achievers, hd = spin_lkts(family, lam)
    ok = ok and hd and sorted(mu[5] for mu, _ in achievers) == list(range(6)) \
        and all(dirac_inequality_holds(lam, mu) == "equality" for mu, _ in achievers)
    return ok, (f"12 candidate weights present, scalar pair present, "
                f"{len(achievers)} family achievers")


def index_parity(ctx):
    d = build_root_datum()
    lkt = (0, 0, 0, 0, 0, 0, 3)
    spins = [(0, 0, 0, 0, 0, 1, 25), (4, 0, 0, 0, 0, 1, 9), (0, 0, 0, 0, 0, 5, -7)]
    vals = [abs(int(inner(sub(ktype_ambient(mu), ktype_ambient(lkt)), d.zeta)))
            for mu in spins]
    ok = vals == [11, 3, 5] and dirac_index_no_cancellation(lkt, spins)
    return ok, f"pairings {vals}, no cancellation"


def character_census(ctx):
    chars, partition = ctx.phi
    sizes = tuple(len(partition[k]) for k in sorted(partition))
    ok = len(chars) == CHARACTER_CENSUS_SIZE and sizes == CENSUS_PARTITION_SIZES \
        and set(partition.get(1, ())) == SMALLEST_CENSUS_SLICE
    return ok, f"{len(chars)} characters, slice sizes {sizes}"


def screening_examples(ctx):
    funnel = ingest.hj_filter(ctx.read("params_1011108.txt"), ctx.kgb)
    min_spin, _, hd = spin_lkts([(b.ktype, b.mult) for b in ctx.branch],
                                (1, 0, 1, 1, 0, 1, 0))
    big = ctx.read("params_1111111.txt")
    small = ctx.read("params_1110111.txt")
    nu_big = ingest.norm_sq_nu(ingest.nu_from_involution((1,) * RANK, ctx.kgb[big[0].x]))
    nu_small = ingest.norm_sq_nu(small[0].nu)
    ok = funnel == FUNNEL and (len(ctx.branch), min_spin, hd) == BRANCHING \
        and (nu_big, nu_small) == NU_NORMS \
        and all(ingest.norm_sq_nu(p.nu) == nu_small for p in small) \
        and all(p.unitary for p in small) and len(small) == 2
    return ok, (f"funnel {funnel}; branching ({len(ctx.branch)}, {fmt_q(min_spin)}, "
                f"{'true' if hd else 'false'}); extreme nu norms "
                f"{fmt_q(nu_big)}, {fmt_q(nu_small)}")


def table_verification(ctx):
    bad = [(row.table_id, row.x) for row in ctx.table
           if not ingest.verify_table_row(row).passed]
    n_rows = sum(r.row_count() for r in ctx.table)
    return (not bad and n_rows == TABLE_ROWS,
            f"{n_rows} rows over {len(ctx.table)} lines" + (f", failing {bad}" if bad else ""))


def string_counts(ctx):
    subsets, by_size, total = ingest.count_strings(ctx.string_counts)
    ok = subsets[frozenset()] == STRING_SUMS[0] and by_size == STRING_SUMS \
        and total == STRING_TOTAL
    return ok, f"N_i = {by_size}, total {total}"


def _random_ktype(rng, span=4, gspan=5):
    a = [rng.randint(0, span) for _ in range(6)]
    return tuple(a) + (ktype_form(a) + 3 * rng.randint(-gspan, gspan),)


def ularge_gap_bounded(mu, lam, first) -> bool:
    """spin - lam <= ULARGE_GAP_MAX for the K-type mu of lambda norm lam:
    12 spin is an integer, so this is 12 spin < floor = floor(12 (lam +
    ULARGE_GAP_MAX)) + 1, and the first chamber value below the floor
    settles it.  The spin kernel walks chamber first before the others: the
    first chamber j* where mu + 2 rho_c is dominant, which norms.lambda_witness
    and the height scan's witness (norms.height_witnesses) both give."""
    floor = math.floor(12 * (lam + ULARGE_GAP_MAX)) + 1
    return spin_sq12(mu, floor, first) < floor


def property_suite(ctx):
    rng = random.Random(20260822)
    sample = [_random_ktype(rng) for _ in range(500)]
    chambers = enumerate_chambers()
    props = []

    # projection onto a chamber cone is idempotent
    ok = True
    for mu in sample[:40]:
        for ch in (chambers[0], chambers[17], chambers[55]):
            p1 = cone_project(ktype_ambient(mu), ch)
            ok = ok and cone_project(p1, ch) == p1
    props.append(("projection-idempotent", ok))

    # the minimizing distance does not depend on which chamber witnesses it
    props.append(("lambda-chamber-independent", all(
        lambda_datum(mu).lambda_norm_sq == lambda_norm_sq_fast(mu) for mu in sample)))

    # the dual K-type has the same three norms
    def norms(mu):
        return lambda_norm_sq_fast(mu), spin_sq12(mu), norm12_ktype(mu)

    props.append(("contragredient-invariant", all(
        norms(contragredient(mu)) == norms(mu) for mu in sample[:200])))

    props.append(("basis-round-trip", all(
        from_ambient(basis, to_ambient(basis, mu)) == mu
        for mu in sample[:100] for basis in ("zeta", "varpi"))))

    # outside the u-small cone the spin-vs-lambda gap stays below the
    # certificate threshold up to the height cap.  Every census member lies
    # under the cap, so the facet scan and the height scan, two independent
    # enumerations, must give the same u-small set.  Some gap must be
    # positive, which the exact spin norm shows until one is seen.  The scan
    # hands over each K-type's lambda norm and j* (no witness walk).
    codes, witness = height_witnesses(HEIGHT_CAP)
    ok = ctx.census == {mu for mu in codes if is_usmall(mu)}
    positive = False
    for mu, code in codes.items():
        if mu not in ctx.census:
            n, d, first = witness(code)
            lam = Fraction(n, d)
            ok = ok and ularge_gap_bounded(mu, lam, first)
            positive = positive or spin_sq12(mu) > 12 * lam
    props.append(("ularge-gap-bounded", ok and positive))

    return (all(p_ok for _, p_ok in props),
            "; ".join(f"{name} {'ok' if p_ok else 'FAILED'}" for name, p_ok in props))


CRITERIA = [
    ("chamber-census", chamber_census),
    ("spin-module-dimension", spin_module_dimension),
    ("usmall-census", usmall_census),
    ("certificate-set", certificate_set),
    ("norm-window-characters", norm_window_characters),
    ("norm-spot-checks", norm_spot_checks),
    ("cohomology-candidates", cohomology_candidates),
    ("index-parity", index_parity),
    ("character-census", character_census),
    ("screening-examples", screening_examples),
    ("table-verification", table_verification),
    ("string-counts", string_counts),
    ("property-suite", property_suite),
]
