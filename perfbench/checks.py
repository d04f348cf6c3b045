"""Output checks.  Each returns a list of problems; an empty list passes.

They compare against the paper's counts and against properties the method
must have (lattice conditions, bounds, symmetries, closure under the
dominance order), never against a saved copy of today's output, except
for the jobs2 digests, which pin the serial output the parallel path must
reproduce byte for byte.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import expected as ex


def _show(items, limit=3) -> str:
    items = sorted(items)
    more = f" and {len(items) - limit} more" if len(items) > limit else ""
    return ", ".join(str(x) for x in items[:limit]) + more


def is_ktype(mu) -> bool:
    """Nonnegative integral E6 part and the lattice congruence."""
    a, b, c, d, e, f, g = mu
    return (min(a, b, c, d, e, f) >= 0
            and (2 * a + 3 * b + 4 * c + 6 * d + 5 * e + 4 * f - g) % 3 == 0)


def contragredient(mu) -> tuple:
    a, b, c, d, e, f, g = mu
    return (f, b, e, d, c, a, -g)


# ---------------------------------------------------------------------------
# ktype-census


def check_census(census) -> list[str]:
    problems = []
    if len(census) != ex.CENSUS_SIZE:
        problems.append(f"census has {len(census)} K-types, the paper {ex.CENSUS_SIZE}")
    if not ex.CERTS_KTYPES <= census:
        problems.append("certificate K-types missing from the census: "
                        + _show(ex.CERTS_KTYPES - census))
    bad = [mu for mu in census if not is_ktype(mu) or contragredient(mu) not in census]
    if bad:
        problems.append(f"census entries that are not K-types or lack their dual: {_show(bad)}")
    return problems


def check_certs(entries, lambda_norm_sq_by_definition) -> list[str]:
    """``entries`` are the certificates found among a census sample that
    contains the paper's 71; exactly those 71 must come out."""
    problems = []
    found = {e.ktype for e in entries}
    if found != ex.CERTS_KTYPES:
        problems.append(
            f"certificate set differs from the paper's {len(ex.CERTS_KTYPES)}: "
            f"missing {_show(ex.CERTS_KTYPES - found)}; extra {_show(found - ex.CERTS_KTYPES)}")
    lo, hi = ex.CERT_LAMBDA_RANGE
    for e in entries:
        if e.gap < ex.CERT_MIN_GAP or not lo <= e.lambda_norm_sq <= hi:
            problems.append(f"certificate {e.ktype}: gap {e.gap}, lambda norm^2 {e.lambda_norm_sq}")
        elif lambda_norm_sq_by_definition(e.ktype) != e.lambda_norm_sq:
            problems.append(f"certificate {e.ktype}: lambda norm^2 {e.lambda_norm_sq} "
                            "differs from the projection over all allowable chambers")
    return problems


def check_omega(omega, norm_sq) -> list[str]:
    problems = []
    if len(omega) != ex.OMEGA_SIZE:
        problems.append(f"omega has {len(omega)} characters, the paper {ex.OMEGA_SIZE}")
    lo, hi = ex.OMEGA_NORM_RANGE
    bad = [c for c in omega if min(c) < 0 or not lo <= norm_sq(c) <= hi]
    if bad:
        problems.append(f"characters outside the norm window: {_show(bad)}")
    return problems


# ---------------------------------------------------------------------------
# character-census


def check_phi_slice(chars, partition, admissible) -> list[str]:
    """Shape of the census computed from a subset of the fully supported
    involutions: a subset of the paper's census, so every slice is at most
    the paper's slice and the size-1 slice lies inside the paper's 23."""
    problems = []
    flat = [c for key in partition for c in partition[key]]
    if sorted(flat) != sorted(chars) or any(max(c) != key for key in partition
                                           for c in partition[key]):
        problems.append("partition does not split the census by largest coordinate")
    bad = [c for c in chars if min(c) != 0 or not admissible(c)]
    if bad:
        problems.append(f"characters without a zero coordinate or not admissible: {_show(bad)}")
    for key, members in partition.items():
        if not 1 <= key <= len(ex.PHI_PARTITION_SIZES):
            problems.append(f"slice {key} lies outside the paper's 1..{len(ex.PHI_PARTITION_SIZES)}")
        elif len(members) > ex.PHI_PARTITION_SIZES[key - 1]:
            problems.append(f"slice {key} has {len(members)} characters, "
                            f"the paper's whole census {ex.PHI_PARTITION_SIZES[key - 1]}")
    stray = set(partition.get(1, ())) - ex.PHI_SIZE_ONE_SLICE
    if stray:
        problems.append(f"size-1 characters outside the paper's 23: {_show(stray)}")
    return problems


def check_phi_membership(chars, probes, admitted) -> list[str]:
    """``admitted(c)`` decides census membership by definition (admissible,
    and |nu|^2 < 94 for one of the involutions).  The probes are members
    (sound), their one-step-lower neighbours (the per-involution point sets
    are closed downward, since every split-part coroot pairs nonnegatively
    with the fundamental weights) and points of a small box."""
    problems = []
    members = set(chars)
    for c in probes:
        if (c in members) != admitted(c):
            problems.append(f"{c}: census says {c in members}, the definition {admitted(c)}")
    return problems


def check_funnel(funnel) -> list[str]:
    return [] if tuple(funnel) == ex.FUNNEL else [f"funnel {funnel}, the paper {ex.FUNNEL}"]


def check_branching(n_ktypes, min_spin, hd_nonzero) -> list[str]:
    got = (n_ktypes, min_spin, hd_nonzero)
    return [] if got == ex.BRANCHING else [f"branching (K-types, min spin, HD) = {got}, "
                                           f"the paper {ex.BRANCHING}"]


def check_table(table, reports) -> list[str]:
    problems = []
    n_rows = sum(row.row_count() for row in table)
    if (n_rows, len(table)) != (ex.TABLE_ROWS, ex.TABLE_LINES):
        problems.append(f"table has {n_rows} rows over {len(table)} lines, "
                        f"the paper {ex.TABLE_ROWS} over {ex.TABLE_LINES}")
    failing = [(r.table_id, r.x) for r in reports if not r.passed]
    if failing:
        problems.append(f"table lines failing verification: {_show(failing)}")
    return problems


def check_strings(by_size, total) -> list[str]:
    if tuple(by_size) == ex.STRING_SUMS and total == ex.STRING_TOTAL:
        return []
    return [f"string sums {by_size} total {total}, the paper {ex.STRING_SUMS} total {ex.STRING_TOTAL}"]


# ---------------------------------------------------------------------------
# height-scan


def check_height_scan(points, cap, recomputed) -> list[str]:
    """``points`` maps K-type -> height; ``recomputed`` maps a seeded
    sample of them to the height recomputed from the projection datum."""
    problems = []
    bad = [mu for mu, h in points.items() if not is_ktype(mu) or not 0 <= h <= cap]
    if bad:
        problems.append(f"points that are not K-types of height <= {cap}: {_show(bad)}")
    # the height is (lambda_a, 2 rho), invariant under passing to the dual
    unpaired = [mu for mu, h in points.items() if points.get(contragredient(mu)) != h]
    if unpaired:
        problems.append(f"points whose dual is missing or has another height: {_show(unpaired)}")
    wrong = [mu for mu, h in recomputed.items() if points.get(mu) != h]
    if wrong:
        problems.append(f"heights that differ from the projection datum: {_show(wrong)}")
    return problems


def check_usmall_split(points, usmall, steps) -> list[str]:
    """The u-small hull is symmetric under the dual and closed downward
    under the dominance order: a point one compact simple root below a
    u-small point is u-small."""
    problems = []
    if not usmall <= set(points):
        problems.append("u-small points outside the scan")
    asym = [mu for mu in usmall if contragredient(mu) not in usmall]
    if asym:
        problems.append(f"u-small points whose dual is u-large: {_show(asym)}")
    open_below = []
    for mu in points:
        if mu in usmall:
            continue
        for step in steps:
            parent = tuple(mu[k] + step[k] for k in range(6)) + (mu[6],)
            if min(parent[:6]) >= 0 and parent in usmall:
                open_below.append(mu)
                break
    if open_below:
        problems.append(f"u-large points below a u-small point: {_show(open_below)}")
    return problems


def check_ularge_gaps(gaps) -> list[str]:
    over = [mu for mu, gap in gaps.items() if gap > ex.ULARGE_MAX_GAP]
    if over:
        return [f"u-large points with gap above {ex.ULARGE_MAX_GAP}: "
                + _show(f"{mu} gap {gaps[mu]}" for mu in over)]
    return []


# ---------------------------------------------------------------------------
# jobs2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _footer_total(stdout: str):
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("# total\t"):
        return None
    return int(lines[-1].split("\t")[1])


def check_cli(name, exit_code, stdout, expected_digest, expected_total=None) -> list[str]:
    problems = []
    if exit_code != 0:
        problems.append(f"{name} exited {exit_code}")
    total = _footer_total(stdout)
    if total is None:
        problems.append(f"{name}: no total footer")
    elif expected_total is not None and total != expected_total:
        problems.append(f"{name}: footer total {total}, the paper {expected_total}")
    if name == "phi" and total is not None:
        rows = [line.split("\t") for line in stdout.splitlines()[1:-1]]
        sizes = {int(k): int(n) for k, n in rows}
        if sum(sizes.values()) != total:
            problems.append(f"phi: slice sizes sum to {sum(sizes.values())}, footer {total}")
        over = [k for k, n in sizes.items()
                if not 1 <= k <= len(ex.PHI_PARTITION_SIZES) or n > ex.PHI_PARTITION_SIZES[k - 1]]
        if over:
            problems.append(f"phi: slices beyond the paper's census: {_show(over)}")
    if digest(stdout) != expected_digest:
        problems.append(f"{name}: stdout differs from the --jobs 1 output (sha256 {digest(stdout)})")
    return problems
