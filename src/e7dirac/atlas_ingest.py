"""Fixture-backed KGB data: parsing, consistency checks, and the census of
infinitesimal characters seen by the fully supported involutions.

Everything that an external computation exported (involution matrices,
parameters, branching lists, row tables, string counts) enters through
line-oriented fixture files and is validated here; everything derivable from
the root datum is recomputed on the spot.  Fixture grammar, one record per
line, '#' starts a comment, fields separated by '|':

    kgb:          <id> | <support: comma list or "full"> | <7 rows of 7 ints, ';' between rows>
    params:       <x> | <lambda: 7 ints> | <nu: 7 rationals> | <flags: comma list of unitary,fs>
    branching:    <mult> | <ktype: 7 ints> | <height>
    table:        <table-id> | <x> | <x' or "-"> | <lambda> | <nu> | <spin lkts, ';' separated> | <unipotent: 0/1>
    dirac_counts: <S: comma list of indices or "empty"> | <N(S)>, one line
                  for each of the 127 proper subsets S of {0..6}

A K-type (a branching ktype or a table spin lkt) has nonnegative E6
coordinates, its first six.

Involution matrices act on the 7 coordinate entries of a weight written in
the zeta basis (pairings with the simple coroots); they are exact integer
matrices and must be involutive and orthogonal for the invariant form, and
their split part (the (-1)-eigenspace) has dimension at most REAL_RANK = 3,
the real rank of E7(-25).

The parser checks each matrix theta with matrix-vector products, not 7x7
matrix products.  With H = weight_gram2(), m = max |theta_ij| and h = max H_ij,
it takes B = 2^s above both RANK m^2 + 1 and 2 RANK h m, which bound the
entries of theta^2 - 1 and of H theta - theta^T H, and v = (1, B, ..., B^6).
Then theta (theta v) = v holds iff theta^2 = 1, and H (theta v) =
theta^T (H v) iff H theta is symmetric, which for an involution is
theta^T H theta = H (lemma of _check_involution).

The support field of a kgb record must be its split support, the simple
roots occurring in the orthogonal roots beta_j that span the split part:
{i : (H - H theta)_ii != 0} with H = weight_gram2(), since that entry is
2 sum_j f_j[i]^2 for f_j the simple-root coefficients of beta_j (see
_census_form).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul

from .screening import (ADMISSIBILITY_SUMS, NU_BOUND, dirac_candidate_gammas,
                        hp_admissible, quadratic_points)
from .structure import RANK, is_k_type
from .norms import height_steps, infchar_norm_sq, spin_sq12_with_weights, weight_gram2

REAL_RANK = 3  # real rank of E7(-25): largest split dimension

FULL_SUPPORT = frozenset(range(RANK))


@dataclass(frozen=True)
class KgbRecord:
    id: int
    support: frozenset
    theta: tuple  # 7 rows of 7 ints, acting on zeta-basis coordinates


@dataclass(frozen=True)
class AtlasParameter:
    x: int
    lam: tuple
    nu: tuple
    unitary: bool
    fully_supported: bool


@dataclass(frozen=True)
class BranchRow:
    mult: int
    ktype: tuple
    height: int


@dataclass(frozen=True)
class TableRow:
    table_id: str
    x: int
    x_prime: int | None
    lam: tuple
    nu: tuple
    spin_lkts: tuple
    lkt_flags: tuple
    unipotent: bool

    @property
    def inf_char(self) -> tuple:
        return tuple(int(c) for c in self.table_id)

    def row_count(self) -> int:
        """Representations covered by this line (two when x' is present)."""
        return 2 if self.x_prime is not None else 1


class FixtureError(ValueError):
    pass


def _err(line_no: int, msg: str) -> FixtureError:
    return FixtureError(f"line {line_no}: {msg}")


def _fields(line: str):
    return [f.strip() for f in line.split("|")]


def _ints(text: str, line_no: int, n: int | None, what: str) -> tuple:
    """The comma-separated integers of text: n of them, or any number if n
    is None."""
    parts = [p.strip() for p in text.split(",")]
    if n is not None and len(parts) != n:
        raise _err(line_no, f"{what}: expected {n} entries, got {len(parts)}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise _err(line_no, f"{what}: non-integer entry in {text!r}") from None


def _ktype(text: str, line_no: int, what: str) -> tuple:
    """Seven integers whose E6 part, the first six, is nonnegative."""
    coords = _ints(text, line_no, RANK, what)
    if min(coords[:6]) < 0:
        raise _err(line_no, f"{what}: negative e6 coordinate in {text!r}")
    return coords


def _rationals(text: str, line_no: int, what: str, known: dict) -> tuple:
    """RANK rationals; known maps each entry text already read in this file
    to its value, so that repeated entries are parsed once."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != RANK:
        raise _err(line_no, f"{what}: expected {RANK} entries, got {len(parts)}")
    try:
        return tuple(known[p] if p in known else known.setdefault(p, Fraction(p))
                     for p in parts)
    except (ValueError, ZeroDivisionError):
        raise _err(line_no, f"{what}: bad rational in {text!r}") from None


def _matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def apply_theta(theta, coords) -> tuple:
    """Image of a zeta-basis coordinate vector under an involution matrix."""
    return tuple(sum(theta[i][j] * coords[j] for j in range(RANK)) for i in range(RANK))


@lru_cache(maxsize=8)
def _probe(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(v, H v) with v = (1, B, ..., B^6) for H = weight_gram2() and the
    B = 2^s that _check_involution needs when max |theta_ij| = m."""
    h = weight_gram2()
    s = max(RANK * m * m + 1, 2 * RANK * max(map(max, h)) * m).bit_length()
    v = tuple(1 << (s * j) for j in range(RANK))
    return v, tuple(sum(map(mul, row, v)) for row in h)


def _check_involution(theta, ident: int, line_no: int) -> tuple:
    """Check theta^2 = 1 and theta^T H theta = H with H = weight_gram2(), by
    matrix-vector products; return diag(H theta).

    Lemma.  Let B = 2^s and v = (1, B, ..., B^6).  An integer matrix X whose
    entries are all below B in size has Xv = 0 only if X = 0: in each row,
    sum_j x_j B^j = 0 makes x_0 divisible by B, so x_0 = 0, and dividing by
    B the same holds for x_1, and so on.  With m = max |theta_ij| and
    h = max H_ij, the entries of theta^2 - 1 are at most RANK m^2 + 1 in
    size and those of H theta - theta^T H at most 2 RANK h m; _probe takes
    B above both.  So theta (theta v) = v iff theta^2 = 1, and
    H (theta v) = theta^T (H v) iff H theta is symmetric, which given
    theta^2 = 1 is theta^T H theta = H (theta^T H = H theta times theta
    on the right)."""
    m = max(max(map(max, theta)), -min(map(min, theta)))
    v, hv = _probe(m)
    tv = tuple(sum(map(mul, row, v)) for row in theta)
    if tuple(sum(map(mul, row, tv)) for row in theta) != v:
        raise _err(line_no, f"kgb {ident}: matrix is not an involution")
    h = weight_gram2()
    cols = tuple(zip(*theta))
    if (tuple(sum(map(mul, row, tv)) for row in h)
            != tuple(sum(map(mul, col, hv)) for col in cols)):
        raise _err(line_no, f"kgb {ident}: matrix does not preserve the form")
    return tuple(sum(map(mul, row, col)) for row, col in zip(h, cols))


def _iter_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _parse_support(text: str, line_no: int) -> frozenset:
    if text == "full":
        return FULL_SUPPORT
    if text == "empty":
        return frozenset()
    idx = _ints(text, line_no, None, "support")
    bad = [i for i in idx if not 0 <= i < RANK]
    if bad:
        raise _err(line_no, f"support index out of range: {bad[0]}")
    if len(set(idx)) != len(idx):
        raise _err(line_no, "support: repeated index")
    return frozenset(idx)


def parse_fixture(kind: str, text: str):
    """Parse the text of one fixture file.  Returns a dict for 'kgb' (id ->
    record) and 'dirac_counts' (subset -> count), a list of records otherwise."""
    if kind not in _PARSERS:
        raise ValueError(f"unknown fixture kind: {kind!r}")
    return _PARSERS[kind](text)


def _matrix(text: str, ident: int, line_no: int) -> tuple:
    """The RANK rows of a kgb matrix field.  A field of RANK rows of RANK
    entries is read with one split.  Any other field, or one with an entry
    int() rejects, goes through the per-row path: it raises the row-count,
    row-length or entry error, or accepts an entry that str.strip() turns
    into an integer (it strips characters that int() does not)."""
    rows = text.split(";")
    if len(rows) == RANK and all(r.count(",") == RANK - 1 for r in rows):
        try:
            return tuple(zip(*[map(int, text.replace(";", ",").split(","))] * RANK))
        except ValueError:
            pass
    rows = [r.strip() for r in rows]
    if len(rows) != RANK:
        raise _err(line_no, f"kgb {ident}: expected {RANK} matrix rows, got {len(rows)}")
    return tuple(_ints(r, line_no, RANK, f"kgb {ident} matrix row") for r in rows)


def _parse_kgb(text: str):
    h = weight_gram2()
    out = {}
    for no, line in _iter_lines(text):
        f = _fields(line)
        if len(f) != 3:
            raise _err(no, f"kgb: expected 3 fields, got {len(f)}")
        try:
            ident = int(f[0])
        except ValueError:
            raise _err(no, f"kgb: bad id {f[0]!r}") from None
        if ident < 0:
            raise _err(no, f"kgb: negative id {ident}")
        if ident in out:
            raise _err(no, f"kgb: duplicate id {ident}")
        support = _parse_support(f[1], no)
        theta = _matrix(f[2], ident, no)
        h_theta = _check_involution(theta, ident, no)
        split = (RANK - sum(theta[i][i] for i in range(RANK))) // 2
        if split > REAL_RANK:
            raise _err(no, f"kgb {ident}: split part of dimension {split} exceeds "
                           f"the real rank {REAL_RANK}")
        split_support = {i for i in range(RANK) if h[i][i] != h_theta[i]}
        if support != split_support:
            raise _err(no, f"kgb {ident}: support field {f[1]!r} is not the split "
                           f"support {sorted(split_support)}")
        out[ident] = KgbRecord(id=ident, support=support, theta=theta)
    return out


def _parse_params(text: str):
    out = []
    known = {}
    for no, line in _iter_lines(text):
        f = _fields(line)
        if len(f) != 4:
            raise _err(no, f"params: expected 4 fields, got {len(f)}")
        try:
            x = int(f[0])
        except ValueError:
            raise _err(no, f"params: bad KGB id {f[0]!r}") from None
        lam = _ints(f[1], no, RANK, "lambda")
        nu = _rationals(f[2], no, "nu", known)
        flags = set()
        if f[3]:
            for flag in (p.strip() for p in f[3].split(",")):
                if flag not in ("unitary", "fs"):
                    raise _err(no, f"params: unknown flag {flag!r}")
                flags.add(flag)
        out.append(AtlasParameter(x=x, lam=lam, nu=nu,
                                  unitary="unitary" in flags,
                                  fully_supported="fs" in flags))
    return out


def _parse_branching(text: str):
    out = []
    for no, line in _iter_lines(text):
        f = _fields(line)
        if len(f) != 3:
            raise _err(no, f"branching: expected 3 fields, got {len(f)}")
        try:
            mult = int(f[0])
            height = int(f[2])
        except ValueError:
            raise _err(no, "branching: bad integer field") from None
        if mult < 1:
            raise _err(no, f"branching: multiplicity {mult} < 1")
        if height < 0:
            raise _err(no, f"branching: negative height {height}")
        ktype = _ktype(f[1], no, "ktype")
        if not is_k_type(ktype):
            raise _err(no, f"branching: {ktype} is not a K-type weight")
        out.append(BranchRow(mult=mult, ktype=ktype, height=height))
    if not out:
        raise FixtureError("branching: no K-types")
    return out


def _parse_table(text: str):
    out = []
    seen = set()
    known = {}
    for no, line in _iter_lines(text):
        f = _fields(line)
        if len(f) != 7:
            raise _err(no, f"table: expected 7 fields, got {len(f)}")
        table_id = f[0]
        if len(table_id) != RANK or not (table_id.isascii() and table_id.isdigit()):
            raise _err(no, f"table: id {table_id!r} is not {RANK} digits")
        try:
            x = int(f[1])
        except ValueError:
            raise _err(no, f"table: bad KGB id {f[1]!r}") from None
        x_prime = None
        if f[2] != "-":
            try:
                x_prime = int(f[2])
            except ValueError:
                raise _err(no, f"table: bad x' field {f[2]!r}") from None
        if (table_id, x) in seen:
            raise _err(no, f"table: duplicate row {table_id}/{x}")
        seen.add((table_id, x))
        lam = _ints(f[3], no, RANK, "lambda")
        nu = _rationals(f[4], no, "nu", known)
        spins = []
        flags = []
        for part in (p.strip() for p in f[5].split(";")):
            if not part:
                raise _err(no, "table: empty spin entry")
            lkt = part.startswith("LKT:")
            if lkt:
                part = part[4:].strip()
            spins.append(_ktype(part, no, "spin lkt"))
            flags.append(lkt)
        if not spins:
            raise _err(no, "table: no spin lkts")
        if f[6] not in ("0", "1"):
            raise _err(no, f"table: unipotent flag must be 0 or 1, got {f[6]!r}")
        out.append(TableRow(table_id=table_id, x=x, x_prime=x_prime, lam=lam,
                            nu=nu, spin_lkts=tuple(spins),
                            lkt_flags=tuple(flags), unipotent=f[6] == "1"))
    return out


def _parse_dirac_counts(text: str):
    out = {}
    for no, line in _iter_lines(text):
        f = _fields(line)
        if len(f) != 2:
            raise _err(no, f"dirac_counts: expected 2 fields, got {len(f)}")
        subset = _parse_support(f[0], no)
        if subset == FULL_SUPPORT:
            raise _err(no, "dirac_counts: the full index set is not a proper subset")
        if subset in out:
            raise _err(no, f"dirac_counts: duplicate subset {sorted(subset)}")
        try:
            count = int(f[1])
        except ValueError:
            raise _err(no, f"dirac_counts: bad count {f[1]!r}") from None
        if count < 0:
            raise _err(no, f"dirac_counts: negative count {count}")
        out[subset] = count
    for size in range(RANK):
        for combo in combinations(range(RANK), size):
            if frozenset(combo) not in out:
                raise FixtureError(f"dirac_counts: missing subset {list(combo)}")
    return out


_PARSERS = {"kgb": _parse_kgb, "params": _parse_params, "branching": _parse_branching,
            "table": _parse_table, "dirac_counts": _parse_dirac_counts}


# ---------------------------------------------------------------------------
# parameter arithmetic


def nu_from_involution(inf_char, rec: KgbRecord) -> tuple:
    """(Lambda - theta Lambda)/2 in zeta-basis coordinates."""
    img = apply_theta(rec.theta, inf_char)
    return tuple(Fraction(a - b, 2) for a, b in zip(inf_char, img))


norm_sq_nu = infchar_norm_sq  # |nu|^2 of zeta-basis coordinates


def infinitesimal_char(p: AtlasParameter, rec: KgbRecord) -> tuple:
    """(1 + theta)/2 applied to lambda, plus nu."""
    if rec.id != p.x:
        raise ValueError(f"parameter has x={p.x} but involution record is {rec.id}")
    img = apply_theta(rec.theta, p.lam)
    return tuple(Fraction(a + b, 2) + n for a, b, n in zip(p.lam, img, p.nu))


# ---------------------------------------------------------------------------
# census of infinitesimal characters


_FORM_BOUND = 2 * NU_BOUND - 1  # 2|nu|^2 is an integer < 2 NU_BOUND


def _census_form(rec: KgbRecord) -> tuple[tuple[int, ...], ...]:
    """Q = (H - H theta)/2 with H = weight_gram2(), so that
    c^T Q c = 2|nu|^2 for zeta-basis coordinates c and nu = (1 - theta)c/2.

    Lemma.  The parser checks theta^2 = 1 and theta^T H = H theta (see
    _check_involution), hence theta^T H theta = H, and with v^T H v = 2|v|^2,
    8|nu|^2 = c^T (1 - theta)^T H (1 - theta) c = 2 c^T (H - H theta) c.
    So the census condition |nu|^2 < NU_BOUND is c^T Q c <= _FORM_BOUND.

    Q is integral and nonnegative: an integral theta preserving H is an
    automorphism of the E7 weight lattice, so an element of W(E7) (Conway-
    Sloane, SPLAG ch. 4 sec. 8); an involution of a Weyl group is -1 on the
    span of mutually orthogonal roots beta_j, which may be taken positive
    (Richardson, Bull. Austral. Math. Soc. 26, 1982); then Q = sum_j f_j f_j^T
    with f_j the simple-root coefficients of beta_j.  The scan rests on the
    sign, and quadratic_points asserts it.

    A zero diagonal entry leaves that coordinate unbounded, and the record's
    census would be infinite."""
    h = weight_gram2()
    q2 = tuple(tuple(a - b for a, b in zip(hr, tr))
               for hr, tr in zip(h, _matmul(h, rec.theta)))
    assert all(v % 2 == 0 for row in q2 for v in row), f"BUG: kgb {rec.id}: odd form entry"
    q = tuple(tuple(v // 2 for v in row) for row in q2)
    for i in range(RANK):
        if not q[i][i]:
            raise FixtureError(
                f"kgb {rec.id}: coordinate {i} is unconstrained by the split part; "
                "enumeration would not terminate")
    return q


def _minimal_forms(forms) -> list[tuple[tuple[int, ...], ...]]:
    """The distinct forms that lie entrywise above no other form.

    Lemma (subsumption).  For c >= 0 and P <= Q entrywise,
    c^T P c <= c^T Q c, so every point of Q under the bound is a point of P,
    and dropping Q loses no census point.  A form lies above another only
    if its entry sum is larger or the two are equal, so one pass in order
    of entry sum, testing each form against the kept ones, finds the
    minimal forms (domination is transitive)."""
    kept = []
    for q in sorted(dict.fromkeys(forms), key=lambda q: sum(map(sum, q))):
        if not any(all(a <= b for pr, qr in zip(p, q) for a, b in zip(pr, qr))
                   for p in kept):
            kept.append(q)
    return kept


@lru_cache(maxsize=1)
def _census_zero_sets() -> frozenset[tuple[bool, ...]]:
    """The zero sets Z allowed in the census, as the patterns
    tuple(map(not_, c)) of the points c they come from.  For a nonnegative
    integer point, min(c) == 0 and hp_admissible(c) hold iff Z is nonempty
    and contains none of the admissibility sums, since a sum of nonnegative
    terms is positive iff one term is nonzero.

    quadratic_points prunes by the prefix closure of these patterns
    (its lemma 1): a prefix whose zeros already cover an admissibility sum
    has no census point below it, and a zero-free prefix of length 6
    forces the last coordinate to 0."""
    return frozenset(
        z for z in product((False, True), repeat=RANK)
        if any(z) and not any(all(z[i] for i in s) for s in ADMISSIBILITY_SUMS)
    )


def enumerate_phi(kgb):
    """Census of the integral infinitesimal characters admitted by the fully
    supported records of kgb (id -> record): admissible coordinates,
    smallest coordinate zero, and |nu|^2 < NU_BOUND for at least one of them.

    Every record's form is built and checked first; the census is then the
    set of points of the minimal forms (_minimal_forms) under _FORM_BOUND,
    with the census zero patterns (_census_zero_sets).  One call of
    quadratic_points scans all of them at once: the monotone scan prunes
    by each form's value and by the patterns' prefix closure, settles the
    last coordinate in closed form, and yields each character once, in
    lexicographic order, filed by its largest coordinate as it is found
    (its lemmas 1 to 3).

    Returns (sorted tuple of coordinate vectors, partition dict keyed by the
    largest coordinate).
    """
    fs = [r for r in kgb.values() if r.support == FULL_SUPPORT]
    if not fs:
        raise FixtureError("no fully supported involution records in fixture")
    forms = [_census_form(r) for r in fs]
    chars, groups = quadratic_points(_minimal_forms(forms), 0, _FORM_BOUND, _census_zero_sets())
    return tuple(chars), {k: tuple(v) for k, v in groups.items()}


# ---------------------------------------------------------------------------
# counting helpers


def hj_filter(params, kgb):
    """(total, fully supported, |nu|^2 <= |rho|^2, |nu|^2 < NU_BOUND), the
    last two among the fully supported parameters: those whose record in kgb
    (id -> record) has full support.  |rho|^2 = (rho, 2 rho) / 2."""
    rho_sq = Fraction(sum(height_steps()), 2)
    total = len(params)
    fs = old = new = 0
    for p in params:
        if kgb[p.x].support != FULL_SUPPORT:
            continue
        fs += 1
        q = norm_sq_nu(p.nu)
        if q <= rho_sq:
            old += 1
        if q < NU_BOUND:
            new += 1
    return total, fs, old, new


@dataclass(frozen=True)
class TableRowReport:
    table_id: str
    x: int
    checks: tuple  # (name, ok, detail)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def verify_table_row(row: TableRow) -> TableRowReport:
    """Recompute everything about a table row that does not need external
    data: spin LKTs are genuine K-types, each attains the squared norm of the
    infinitesimal character, each has a dominance witness conjugate to it, and
    the character itself is dominant and admissible.  A witness is an
    achieving PRV weight p with p + rho_c conjugate to the character: by the
    lemma of screening.dirac_candidate_gammas, p lies in that set."""
    target = infchar_norm_sq(row.inf_char)

    checks = []
    bad = [m for m in row.spin_lkts if not is_k_type(m)]
    checks.append(("ktype-integrality", not bad,
                   f"non-integral entries: {bad}" if bad else ""))
    if bad:
        return TableRowReport(table_id=row.table_id, x=row.x, checks=tuple(checks))

    conjugates = dirac_candidate_gammas(row.inf_char)
    norm_bad = []
    witness_bad = []
    for mu in row.spin_lkts:
        spin12, prv_weights = spin_sq12_with_weights(mu)
        if Fraction(spin12, 12) != target:
            norm_bad.append((mu, Fraction(spin12, 12)))
            continue
        if not any(pw in conjugates for pw in prv_weights.values()):
            witness_bad.append(mu)
    checks.append(("spin-norm", not norm_bad,
                   f"wrong spin norms: {norm_bad}" if norm_bad else ""))
    checks.append(("dominance-witness", not witness_bad,
                   f"no conjugate witness: {witness_bad}" if witness_bad else ""))
    ok4 = hp_admissible(row.inf_char)
    checks.append(("inf-char", ok4, "" if ok4 else f"{row.inf_char} fails"))
    return TableRowReport(table_id=row.table_id, x=row.x, checks=tuple(checks))


def count_strings(counts):
    """Aggregate N(S) over the proper support subsets (parse_fixture checks
    that each has a count) into the by-size totals; returns the map, the
    seven by-size sums, and their total."""
    sums = [0] * RANK
    for s, n in counts.items():
        sums[len(s)] += n
    return dict(counts), tuple(sums), sum(sums)
