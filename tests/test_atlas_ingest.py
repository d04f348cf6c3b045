import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import isqrt
from operator import mul, not_

import pytest

from e7dirac import criteria
from e7dirac.atlas_ingest import (
    FULL_SUPPORT,
    REAL_RANK,
    AtlasParameter,
    FixtureError,
    KgbRecord,
    apply_theta,
    count_strings,
    enumerate_phi,
    hj_filter,
    infinitesimal_char,
    norm_sq_nu,
    nu_from_involution,
    parse_fixture,
    verify_table_row,
    _FORM_BOUND,
    _census_form,
    _census_zero_sets,
    _minimal_forms,
)
from e7dirac.norms import weight_gram2
from e7dirac.screening import NU_BOUND, hp_admissible, quadratic_points
from e7dirac.structure import RANK, build_root_datum, inner

from frozen_values import PHI_COEFF_ONE

IDENTITY = tuple(tuple(1 if i == j else 0 for j in range(RANK)) for i in range(RANK))
IDENTITY_TEXT = ";".join(",".join(str(v) for v in row) for row in IDENTITY)
MINUS_IDENTITY = tuple(tuple(-v for v in row) for row in IDENTITY)
RHO_COORDS = (1,) * RANK
MINIMAL_CHAR = (1, 1, 1, 0, 1, 1, 1)
CENSUS_CHAR = (1, 0, 1, 1, 1, 0, 8)


# ---------------------------------------------------------------------------
# parsing


def test_kgb_fixture_shape(kgb):
    assert len(kgb) == 1093, f"BUG: {len(kgb)} involution records"
    assert kgb[0].theta == IDENTITY, "BUG: record 0 should be the identity"
    assert kgb[0].support == frozenset()
    assert kgb[3016].support == FULL_SUPPORT
    fs = [r for r in kgb.values() if r.support == FULL_SUPPORT]
    assert len({r.theta for r in fs}) == 781, "BUG: distinct FS involution count"


def test_kgb_involution_and_isometry(kgb):
    # parse_fixture re-validates these; double-check on a sample directly
    from e7dirac.structure import inner, to_ambient

    for ident in (0, 3016, 2989, 2969, 1):
        theta = kgb[ident].theta
        for j in range(RANK):
            basis = tuple(1 if i == j else 0 for i in range(RANK))
            again = apply_theta(theta, apply_theta(theta, basis))
            assert again == basis, f"BUG: kgb {ident} squares wrong on e_{j}"
        cols = [to_ambient("zeta", tuple(theta[i][j] for i in range(RANK)))
                for j in range(RANK)]
        w = [to_ambient("zeta", tuple(1 if i == j else 0 for i in range(RANK)))
             for j in range(RANK)]
        for a in range(RANK):
            for b in range(RANK):
                assert inner(cols[a], cols[b]) == inner(w[a], w[b]), \
                    f"BUG: kgb {ident} is not an isometry"


def test_parse_kgb_errors():
    good = f"7 | empty | {IDENTITY_TEXT}"
    with pytest.raises(FixtureError, match="line 2.*matrix rows"):
        parse_fixture("kgb", f"# header\n1 | full | 1,0;0,1")
    with pytest.raises(FixtureError, match="duplicate id 7"):
        parse_fixture("kgb", f"{good}\n{good}")
    shear = [[1 if i == j else 0 for j in range(RANK)] for i in range(RANK)]
    shear[0][1] = 1
    text = ";".join(",".join(str(v) for v in row) for row in shear)
    with pytest.raises(FixtureError, match="not an involution"):
        parse_fixture("kgb", f"1 | full | {text}")
    swap = [[1 if i == j else 0 for j in range(RANK)] for i in range(RANK)]
    swap[0][0] = swap[1][1] = 0
    swap[0][1] = swap[1][0] = 1
    text = ";".join(",".join(str(v) for v in row) for row in swap)
    with pytest.raises(FixtureError, match="preserve the form"):
        parse_fixture("kgb", f"1 | full | {text}")
    # -1 is an involution preserving the form, with split part of dimension 7
    with pytest.raises(FixtureError, match="line 1: kgb 9999: .* real rank 3"):
        parse_fixture("kgb", f"9999 | full | {IDENTITY_TEXT.replace('1', '-1')}")
    # a malformed matrix field goes through the per-row path and its messages
    rows = IDENTITY_TEXT.split(";")
    for field, msg in (
            (";".join(["1,0,0,0,0,0"] + rows[1:]),
             "kgb 1 matrix row: expected 7 entries, got 6"),
            (";".join(["1.5,0,0,0,0,0,0"] + rows[1:]),
             "kgb 1 matrix row: non-integer entry in '1.5,0,0,0,0,0,0'"),
            (";".join(["1,,0,0,0,0,0"] + rows[1:]),
             "kgb 1 matrix row: non-integer entry in '1,,0,0,0,0,0'"),
            (";".join(rows[:1] + rows), "kgb 1: expected 7 matrix rows, got 8"),
            # 49 entries in 7 rows, but the first row holds 8 and the second 6
            (IDENTITY_TEXT.replace(";0,", ",0;", 1),
             "kgb 1 matrix row: expected 7 entries, got 8")):
        with pytest.raises(FixtureError, match=f"^{re.escape(f'line 1: {msg}')}$"):
            parse_fixture("kgb", f"1 | full | {field}")


def _plain_kgb_outcome(ident, support_text, support, theta):
    """The record, or the FixtureError text, that the kgb checks after the
    row shape give, from the definitions: theta theta = 1, then
    theta^T H theta = H, then the real rank, then the split support
    {i : (H - H theta)_ii != 0}, each as plain loops."""
    h = weight_gram2()
    n = range(RANK)
    square = [[sum(theta[i][k] * theta[k][j] for k in n) for j in n] for i in n]
    if square != [[int(i == j) for j in n] for i in n]:
        return f"line 1: kgb {ident}: matrix is not an involution"
    h_theta = [[sum(h[i][k] * theta[k][j] for k in n) for j in n] for i in n]
    pulled = [[sum(theta[k][i] * h_theta[k][j] for k in n) for j in n] for i in n]
    if pulled != [list(row) for row in h]:
        return f"line 1: kgb {ident}: matrix does not preserve the form"
    split = (RANK - sum(theta[i][i] for i in n)) // 2
    if split > REAL_RANK:
        return (f"line 1: kgb {ident}: split part of dimension {split} exceeds "
                f"the real rank {REAL_RANK}")
    split_support = {i for i in n if h[i][i] != h_theta[i][i]}
    if support != split_support:
        return (f"line 1: kgb {ident}: support field {support_text!r} is not the "
                f"split support {sorted(split_support)}")
    return KgbRecord(id=ident, support=support, theta=theta)


def _parse_outcome(ident, support_text, theta):
    body = ";".join(",".join(map(str, row)) for row in theta)
    try:
        return parse_fixture("kgb", f"{ident} | {support_text} | {body}")[ident]
    except FixtureError as e:
        return str(e)


def test_kgb_checks_match_plain_definitions(fixture_dir):
    lines = [line for line in (fixture_dir / "kgb.txt").read_text().splitlines()
             if not line.startswith("#")]
    shipped = parse_fixture("kgb", "\n".join(lines))
    supports = [line.split("|")[1].strip() for line in lines]
    records = [shipped[int(line.split("|", 1)[0])] for line in lines]
    assert len(shipped) == len(records) == 1093
    for text, rec in zip(supports, records):
        assert _plain_kgb_outcome(rec.id, text, rec.support, rec.theta) == rec

    # per record one seeded single-entry change (up to -10^30, far past the
    # B of the record it came from), then in turn the negated matrix, a
    # conjugate by an elementary matrix 1 + t E_ab (an involution whose
    # entries reach t^2), or the support field of the record before
    rng = random.Random(30)
    big = (10**12, -10**12, -10**30)
    cases = []
    for k, (text, rec) in enumerate(zip(supports, records)):
        theta = [list(row) for row in rec.theta]
        i, j = rng.randrange(RANK), rng.randrange(RANK)
        old = theta[i][j]
        theta[i][j] = rng.choice((old + 1, old - 1, -old - 1, 0, 2, -3) + big)
        cases.append((rec, text, rec.support, theta))
        if k % 3 == 0:
            cases.append((rec, text, rec.support, [[-v for v in row] for row in rec.theta]))
        elif k % 3 == 1:
            a, b = rng.sample(range(RANK), 2)
            t = rng.choice((1, -1, 2) + big)
            conj = [list(row) for row in rec.theta]
            for row in conj:  # theta (1 - t E_ab): column b -= t column a
                row[b] -= t * row[a]
            conj[a] = [x + t * y for x, y in zip(conj[a], conj[b])]  # then row a += t row b
            cases.append((rec, text, rec.support, conj))
        else:
            cases.append((rec, supports[k - 1], records[k - 1].support, rec.theta))
    # 1 + e_k (B e_0 - e_1)^T squares to 1 + 2 e_k (B e_0 - e_1)^T, which
    # vanishes on (1, B, ..., B^6): a check with that B fixed passes it
    for s in range(1, 101):
        crafted = [list(row) for row in IDENTITY]
        crafted[2 + s % 5][:2] = [1 << s, -1]
        cases.append((records[0], "empty", frozenset(), crafted))

    branches = {"not an involution", "does not preserve the form", "exceeds the real rank",
                "is not the split support"}
    reached, accepted = set(), 0
    for rec, text, support, theta in cases:
        theta = tuple(map(tuple, theta))
        want = _plain_kgb_outcome(rec.id, text, support, theta)
        assert _parse_outcome(rec.id, text, theta) == want, (rec.id, text, theta)
        reached.update(b for b in branches if b in str(want))
        accepted += isinstance(want, KgbRecord)
    assert reached == branches and accepted, "BUG: a branch of the kgb checks is not reached"


def test_parse_kgb_checks_the_support_field(fixture_dir):
    # the field must be the split support {i : (H - H theta)_ii != 0}
    lines = {int(line.split("|", 1)[0]): line
             for line in (fixture_dir / "kgb.txt").read_text().splitlines()
             if not line.startswith("#")}
    reflection = lines[1]
    assert parse_fixture("kgb", reflection)[1].support == frozenset({2, 3, 4, 5, 6})
    with pytest.raises(FixtureError, match=re.escape(
            "line 1: kgb 1: support field 'full' is not the split support [2, 3, 4, 5, 6]")):
        parse_fixture("kgb", reflection.replace("2,3,4,5,6", "full"))
    full = lines[3016]
    assert parse_fixture("kgb", full)[3016].support == FULL_SUPPORT
    with pytest.raises(FixtureError, match=re.escape(
            "line 2: kgb 3016: support field '0,1,2,3,4,5' is not the split support "
            "[0, 1, 2, 3, 4, 5, 6]")):
        parse_fixture("kgb", reflection + "\n" + full.replace("full", "0,1,2,3,4,5"))
    with pytest.raises(FixtureError, match=re.escape(
            "kgb 7: support field '0' is not the split support []")):
        parse_fixture("kgb", f"7 | 0 | {IDENTITY_TEXT}")


def test_real_rank_is_the_cascade_length():
    # Harish-Chandra's cascade: the highest root of p+, then the highest of
    # the p+ roots orthogonal to it, and so on; its length is the real rank
    d = build_root_datum()
    height = lambda r: inner(r, d.rho)
    roots, cascade = list(d.pplus_roots), []
    while roots:
        top = max(roots, key=height)
        assert [height(r) for r in roots].count(height(top)) == 1
        cascade.append(top)
        roots = [r for r in roots if inner(r, top) == 0]
    assert cascade[0] == d.highest_root
    assert len(cascade) == REAL_RANK == 3, f"BUG: cascade of {len(cascade)} roots"


def test_parse_params_errors():
    with pytest.raises(FixtureError, match="unknown flag 'spherical'"):
        parse_fixture("params", "4 | 1,1,1,1,1,1,1 | 0,0,0,0,0,0,0 | spherical")
    with pytest.raises(FixtureError, match="expected 7 entries"):
        parse_fixture("params", "4 | 1,1,1 | 0,0,0,0,0,0,0 | fs")
    with pytest.raises(FixtureError, match="bad rational"):
        parse_fixture("params", "4 | 1,1,1,1,1,1,1 | 0,0,0,0,0,0,x | fs")
    rows = parse_fixture("params", "4 | 1,1,1,1,1,1,1 | 1/2,0,0,0,0,0,0 |")
    assert rows[0].nu[0] == Fraction(1, 2)
    assert not rows[0].unitary and not rows[0].fully_supported


def test_parse_branching_errors():
    with pytest.raises(FixtureError, match="multiplicity 0"):
        parse_fixture("branching", "0 | 0,0,0,0,0,0,0 | 10")
    with pytest.raises(FixtureError, match="not a K-type"):
        parse_fixture("branching", "1 | 0,0,0,0,0,0,1 | 10")


def test_parse_table_errors():
    line = "1110111 | 2989 | 2988 | 3,2,2,-1,1,1,2 | 4,5/2,5/2,-5/2,0,0,5/2 | LKT:0,0,0,0,0,0,12 | 1"
    rows = parse_fixture("table", line)
    assert rows[0].x_prime == 2988 and rows[0].unipotent
    assert rows[0].lkt_flags == (True,)
    assert rows[0].inf_char == MINIMAL_CHAR
    assert rows[0].row_count() == 2
    with pytest.raises(FixtureError, match="unipotent flag"):
        parse_fixture("table", line[:-1] + "2")
    with pytest.raises(FixtureError, match="duplicate row"):
        parse_fixture("table", f"{line}\n{line}")
    for table_id in ("111011", "111011\u00b2"):  # str.isdigit() takes a superscript 2
        with pytest.raises(FixtureError, match="not 7 digits"):
            parse_fixture("table", f"{table_id} | " + line.split(" | ", 1)[1])


def test_parse_dirac_counts_errors(fixture_dir):
    with pytest.raises(FixtureError, match="proper subset"):
        parse_fixture("dirac_counts", "0,1,2,3,4,5,6 | 5")
    with pytest.raises(FixtureError, match="duplicate subset"):
        parse_fixture("dirac_counts", "0,1 | 5\n1,0 | 5")
    with pytest.raises(ValueError, match="unknown fixture kind"):
        parse_fixture("strings", "")
    # every proper subset needs a count
    lines = (fixture_dir / "dirac_counts.txt").read_text().splitlines()
    short = [ln for ln in lines if not ln.startswith("0,1 |")]
    assert len(short) == len(lines) - 1
    with pytest.raises(FixtureError, match=r"missing subset \[0, 1\]"):
        parse_fixture("dirac_counts", "\n".join(short))


# ---------------------------------------------------------------------------
# parameter arithmetic against the shipped records


def test_nu_norm_examples(kgb, fixture_dir):
    big = nu_from_involution(RHO_COORDS, kgb[3016])
    assert norm_sq_nu(big) == Fraction(371, 2), f"BUG: big-parameter norm {norm_sq_nu(big)}"
    small = nu_from_involution(MINIMAL_CHAR, kgb[2989])
    assert norm_sq_nu(small) == 97, f"BUG: smallest-parameter norm {norm_sq_nu(small)}"
    assert nu_from_involution(RHO_COORDS, kgb[0]) == (Fraction(0),) * RANK


def test_infinitesimal_char_examples(kgb, fixture_dir):
    rows = parse_fixture("params", (fixture_dir / "params_1111111.txt").read_text())
    assert len(rows) == 1 and rows[0].unitary
    assert infinitesimal_char(rows[0], kgb[rows[0].x]) == RHO_COORDS

    rows = parse_fixture("params", (fixture_dir / "params_1110111.txt").read_text())
    assert [r.x for r in rows] == [2989, 2988]
    for p in rows:
        assert p.unitary, f"BUG: x={p.x} should carry the unitary flag"
        assert infinitesimal_char(p, kgb[p.x]) == MINIMAL_CHAR
        assert norm_sq_nu(p.nu) == 97

    zero = AtlasParameter(x=0, lam=(0,) * RANK, nu=(Fraction(0),) * RANK,
                          unitary=False, fully_supported=False)
    assert infinitesimal_char(zero, kgb[0]) == (Fraction(0),) * RANK
    with pytest.raises(ValueError, match="x=0.*3016"):
        infinitesimal_char(zero, kgb[3016])


def test_nu_reproduction_all_params_files(kgb, fixture_dir, census_params):
    files = [census_params]
    for name in ("params_1111111", "params_1110111", "params_1011010"):
        files.append(parse_fixture("params", (fixture_dir / f"{name}.txt").read_text()))
    n_checked = 0
    for params in files:
        for p in params:
            rec = kgb[p.x]
            assert p.fully_supported == (rec.support == FULL_SUPPORT), \
                f"BUG: x={p.x} fs flag disagrees with kgb support"
            if not p.fully_supported:
                continue
            char = infinitesimal_char(p, rec)
            assert nu_from_involution(char, rec) == p.nu, \
                f"BUG: x={p.x} nu is not cut out by its involution"
            n_checked += 1
    assert n_checked == 254, f"BUG: {n_checked} fully supported parameters"


# ---------------------------------------------------------------------------
# the census


def test_phi_census_counts(phi_census):
    chars, partition = phi_census
    assert len(chars) == criteria.CHARACTER_CENSUS_SIZE, f"BUG: census size {len(chars)}"
    sizes = {k: len(v) for k, v in partition.items()}
    assert sizes == dict(enumerate(criteria.CENSUS_PARTITION_SIZES, start=1)), \
        f"BUG: partition {sizes}"
    assert set(partition[1]) == set(PHI_COEFF_ONE), "BUG: smallest census slice"
    assert CENSUS_CHAR in set(partition[8]), "BUG: example character missing"
    assert all(min(c) == 0 for c in chars), "BUG: census member with no zero"
    # the partition is the grouping by largest coordinate, each part in
    # lexicographic order
    assert all(max(c) == k for k, part in partition.items() for c in part)
    assert all(list(part) == sorted(part) for part in partition.values())
    assert sorted(c for part in partition.values() for c in part) == list(chars)


def _box_points(q, bound):
    """(c, c^T q c) for c^T q c <= bound, by brute force over the box
    c_i <= isqrt(bound // q_ii), in lexicographic order.  Each coordinate
    runs over its whole range; the one cut drops a prefix whose value is
    over the bound, since with nonnegative entries a completion only adds
    terms.  A prefix value grows by x (2 (q p)_i + q_ii x) when p gets x
    appended at i, and every value kept is checked from scratch."""
    level = [((), 0)]
    for i, row in enumerate(q):
        top = isqrt(bound // row[i])
        level = [(p + (x,), v + x * (2 * sum(map(mul, row, p)) + row[i] * x))
                 for p, v in level for x in range(top + 1)]
        level = [(p, v) for p, v in level if v <= bound]
    assert all(v == sum(a * sum(map(mul, row, c)) for a, row in zip(c, q))
               for c, v in level)
    return level


def test_census_form_is_twice_nu_norm(kgb):
    # Q against the by-definition |nu|^2 on every fully supported record:
    # the values at e_i and e_i + e_k determine a symmetric form
    units = [tuple(int(i == j) for j in range(RANK)) for i in range(RANK)]
    vectors = units + [tuple(map(sum, zip(a, b))) for a, b in combinations(units, 2)]
    assert len(vectors) == 28
    fs = [rec for rec in kgb.values() if rec.support == FULL_SUPPORT]
    assert len(fs) == 813
    for rec in fs:
        q = _census_form(rec)
        assert all(q[i][k] == q[k][i] >= 0 for i in range(RANK) for k in range(RANK)), \
            f"BUG: kgb {rec.id}: form not symmetric and nonnegative"
        for c in vectors:
            value = sum(a * sum(map(mul, row, c)) for a, row in zip(c, q))
            assert value == 2 * norm_sq_nu(nu_from_involution(c, rec)), \
                f"BUG: kgb {rec.id}: form disagrees with |nu|^2 at {c}"


def _reference_points(q, bound, keep):
    """The monotone scan before prefix pruning and the closed-form last
    coordinate: every c in N^n with c^T q c <= bound and keep(c), in
    lexicographic order, with keep called at each leaf."""
    n = len(q)
    out = []
    c = [0] * n

    def scan(i, acc):
        row = q[i]
        cross = 2 * sum(row[k] * c[k] for k in range(i))
        x, value = 0, acc
        while value <= bound:
            c[i] = x
            if i + 1 < n:
                scan(i + 1, value)
            elif keep(point := tuple(c)):
                out.append(point)
            x += 1
            value = acc + x * (cross + row[i] * x)
        c[i] = 0

    scan(0, 0)
    return out


def test_quadratic_points_match_box(phi_slice):
    # the pruned scan against brute force: the same points, in the same
    # order, for the omega window (lo > 0) and the census forms, with and
    # without the census zero patterns and with a window inside the census
    # bound; every coordinate of a census form's scan is at most
    # isqrt(_FORM_BOUND), the largest coordinate of the census
    assert isqrt(_FORM_BOUND) == len(criteria.CENSUS_PARTITION_SIZES) == 13
    zero_sets = _census_zero_sets()
    cases = [(weight_gram2(), [(216, 469, None), (0, 469, None), (216, 469, zero_sets)], None)]
    cases += [(_census_form(rec), [(0, _FORM_BOUND, None), (0, _FORM_BOUND, zero_sets),
                                   (40, 150, zero_sets)], 13) for rec in phi_slice]
    for q, windows, top in cases:
        box = _box_points(q, max(hi for _, hi, _ in windows))
        for lo, hi, patterns in windows:
            got, _ = quadratic_points((q,), lo, hi, patterns)
            want = [c for c, v in box if lo <= v <= hi
                    and (patterns is None or tuple(map(not_, c)) in patterns)]
            assert got == want, f"BUG: scan and box disagree on [{lo}, {hi}]"
            assert top is None or max(map(max, got)) <= top


def test_quadratic_points_pattern_edges(phi_slice):
    q = _census_form(phi_slice[0])
    assert quadratic_points((q,), 0, _FORM_BOUND, frozenset()) == ([], {})
    assert quadratic_points((q,), 5, 4) == ([], {}) == quadratic_points((q,), 0, -1)
    # one pattern: the points with exactly the zeros of (0, 2, 4), pruned to
    # that one path through the closure
    only = (True, False, True, False, True, False, False)
    got, _ = quadratic_points((q,), 0, _FORM_BOUND, {only})
    assert got and got == [c for c in quadratic_points((q,), 0, _FORM_BOUND)[0]
                           if tuple(map(not_, c)) == only]
    # a pattern of the wrong length leaves a live prefix without a live
    # child, or a prefix longer than the form
    with pytest.raises(AssertionError, match="shorter than the form"):
        quadratic_points((q,), 0, _FORM_BOUND, {only[:6]})
    with pytest.raises(AssertionError, match="longer than the form"):
        quadratic_points((q,), 0, _FORM_BOUND, {only + (True,)})


def test_minimal_forms_lose_no_census_point(phi_slice):
    # the subsumption lemma on the slice: the filtered union over all 20
    # forms is the census, and the points of each dropped form lie inside
    # the points of one kept form
    forms = [_census_form(rec) for rec in phi_slice]
    kept = _minimal_forms(forms)
    assert len(kept) == 2, f"BUG: {len(kept)} minimal forms on the slice"
    zero_sets = _census_zero_sets()  # equal to hp_admissible: test below
    union = {c for q in forms for c in quadratic_points((q,), 0, _FORM_BOUND, zero_sets)[0]}
    assert tuple(sorted(union)) == enumerate_phi({rec.id: rec for rec in phi_slice})[0]
    kept_points = [set(quadratic_points((p,), 0, _FORM_BOUND)[0]) for p in kept]
    for q in forms:
        if q not in kept:
            points, _ = quadratic_points((q,), 0, _FORM_BOUND)
            assert any(kp.issuperset(points) for kp in kept_points), \
                "BUG: a dropped form has a point no kept form has"


def test_phi_scan_against_reference_on_whole_census(kgb, phi_census):
    # every minimal form of the full kgb.txt: the pruned scan gives the
    # reference scan's points, filtered leaf by leaf, in the same order,
    # and their union is the 178192-point census, which is the joint scan
    # of all eight forms
    forms = _minimal_forms([_census_form(rec) for rec in kgb.values()
                            if rec.support == FULL_SUPPORT])
    assert len(forms) == 8, f"BUG: {len(forms)} minimal forms in kgb.txt"
    zero_sets = _census_zero_sets()
    union = set()
    for q in forms:
        want = _reference_points(q, _FORM_BOUND, lambda c: tuple(map(not_, c)) in zero_sets)
        assert quadratic_points((q,), 0, _FORM_BOUND, zero_sets)[0] == want, \
            "BUG: pruned scan and reference scan disagree"
        union.update(want)
    assert len(union) == criteria.CHARACTER_CENSUS_SIZE == 178192
    assert tuple(sorted(union)) == phi_census[0]
    joint, _ = quadratic_points(forms, 0, _FORM_BOUND, zero_sets)
    assert tuple(joint) == phi_census[0], "BUG: joint scan and census disagree"


def test_phi_census_errors(kgb):
    with pytest.raises(FixtureError, match="no fully supported"):
        enumerate_phi({0: kgb[0]})
    # the parser rejects -1 (real rank); built directly, its census is the
    # definition over the scan's box, with |nu|^2 < 94 as |2 nu|^2 < 4 * 94
    rec = KgbRecord(id=9999, support=FULL_SUPPORT, theta=MINUS_IDENTITY)
    h = weight_gram2()
    box = product(*(range(isqrt(_FORM_BOUND // h[i][i]) + 1) for i in range(RANK)))
    two_nu = lambda c: tuple(a - b for a, b in zip(c, apply_theta(rec.theta, c)))
    want = tuple(c for c in box if min(c) == 0
                 and norm_sq_nu(two_nu(c)) < 4 * NU_BOUND and hp_admissible(c))
    assert len(want) == 4
    assert enumerate_phi({rec.id: rec})[0] == want
    # the identity has an empty split part, which bounds no coordinate
    rec = KgbRecord(id=9998, support=FULL_SUPPORT, theta=IDENTITY)
    with pytest.raises(FixtureError, match="kgb 9998: coordinate 0 is unconstrained"):
        enumerate_phi({rec.id: rec})
    # its zero form lies below every form and would be the one minimal
    # form: the fixture error comes from the check on every record, before
    # the minimal forms are picked and scanned
    with pytest.raises(FixtureError, match="coordinate 0 is unconstrained"):
        enumerate_phi({3016: kgb[3016], rec.id: rec})


def test_census_zero_sets_match_admissibility():
    # the integer filter of the census against the Fraction-based definition
    for c in product(range(3), repeat=RANK):
        want = min(c) == 0 and hp_admissible(c)
        got = tuple(map(not_, c)) in _census_zero_sets()
        assert got == want, f"BUG: census filter disagrees at {c}"


# ---------------------------------------------------------------------------
# screening counts and table verification


def test_hj_filter_counts(census_params, kgb):
    assert hj_filter(census_params, kgb) == criteria.FUNNEL, \
        "BUG: screening funnel counts"
    assert hj_filter([], kgb) == (0, 0, 0, 0)
    # full support is read off the kgb record, not the parameter's fs flag;
    # a contradicting flag is a fixture error at load time (test_cli)
    assert kgb[0].support != FULL_SUPPORT
    fake = AtlasParameter(x=0, lam=(0,) * RANK, nu=(Fraction(0),) * RANK,
                          unitary=False, fully_supported=True)
    assert hj_filter([fake], kgb) == (1, 0, 0, 0)


def test_table_rows_all_verify(table_rows):
    assert len(table_rows) == 40, f"BUG: {len(table_rows)} table lines"
    assert sum(r.row_count() for r in table_rows) == 73, "BUG: table row total"
    for row in table_rows:
        report = verify_table_row(row)
        assert report.passed, \
            f"BUG: row {row.table_id}/{row.x} fails {report.checks}"


def test_table_spin_lkts_unique_within_row(table_rows):
    for row in table_rows:
        assert len(set(row.spin_lkts)) == len(row.spin_lkts), \
            f"BUG: repeated spin weight in row {row.table_id}/{row.x}"


def test_table_unipotent_marks(table_rows):
    marked = [(r.table_id, r.x) for r in table_rows if r.unipotent]
    assert len(marked) == 5, f"BUG: unipotent lines {marked}"
    assert sum(r.row_count() for r in table_rows if r.unipotent) == 9


def test_verify_catches_wrong_spin(table_rows):
    a, b = table_rows[0], table_rows[2]
    assert a.inf_char != b.inf_char
    forged = type(a)(table_id=a.table_id, x=a.x, x_prime=a.x_prime, lam=a.lam,
                     nu=a.nu, spin_lkts=b.spin_lkts, lkt_flags=b.lkt_flags,
                     unipotent=a.unipotent)
    report = verify_table_row(forged)
    assert not report.passed
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["spin-norm"], f"BUG: wrong checks tripped: {failed}"
    # the witness check's failing side: line 1001111's spin LKTs under the
    # admissible table id 2011010 of equal |Lambda|^2 attain the norm, but
    # no achieving PRV weight plus rho_c is conjugate to that character
    src = next(r for r in table_rows if r.table_id == "1001111")
    assert hp_admissible((2, 0, 1, 1, 0, 1, 0))
    assert norm_sq_nu((2, 0, 1, 1, 0, 1, 0)) == norm_sq_nu(src.inf_char)
    forged = type(src)(table_id="2011010", x=src.x, x_prime=src.x_prime, lam=src.lam,
                       nu=src.nu, spin_lkts=src.spin_lkts, lkt_flags=src.lkt_flags,
                       unipotent=src.unipotent)
    report = verify_table_row(forged)
    failed = [name for name, ok, _ in report.checks if not ok]
    assert failed == ["dominance-witness"], f"BUG: wrong checks tripped: {failed}"


# ---------------------------------------------------------------------------
# string counts


def test_count_strings(fixture_dir):
    counts = parse_fixture("dirac_counts", (fixture_dir / "dirac_counts.txt").read_text())
    assert len(counts) == 127, f"BUG: {len(counts)} subsets"
    _, by_size, total = count_strings(counts)
    assert by_size == criteria.STRING_SUMS, f"BUG: sums {by_size}"
    assert total == criteria.STRING_TOTAL, f"BUG: total {total}"
