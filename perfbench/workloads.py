"""The four workloads: set-up, one round of work, and the output checks.

A round is a fixed piece of the paper's enumerations; every round of a run
repeats it.  The pieces are smaller than the full enumerations because a
run has to stay near half a minute, so that a few dozen runs of each
workload fit in under an hour on two cores; README.md gives the make-up of
each round and what it leaves out.  The seed only picks the samples of the spot checks.

e7dirac is imported inside ``setup`` so that set-up time covers the
imports.
"""

from __future__ import annotations

import io
import random
from contextlib import nullcontext, redirect_stdout
from fractions import Fraction
from pathlib import Path

import checks
import expected as ex

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
WORK = Path(__file__).resolve().parent / "out"

CERT_STRIDE = 25     # every 25th census member goes through the certificate kernels
PHI_STRIDE = 40      # every 40th distinct fully supported involution
TABLE_STRIDE = 10    # every 10th line of the classification table
HEIGHT_CAP = 320     # 7682 K-types, 62 of them u-large
SPIN_LKT_CHAR = (1, 0, 1, 1, 0, 1, 0)


def _no_span(_name):
    return nullcontext()


def _fixture_kind(path: Path) -> str:
    stem = path.stem
    for kind in ("kgb", "params", "branching", "table", "dirac_counts"):
        if stem == kind or stem.startswith(kind + "_"):
            return kind
    raise ValueError(f"unknown fixture file {path.name}")


def phi_subset_ids(kgb) -> list[int]:
    """Ids of every PHI_STRIDE-th distinct fully supported involution, in id
    order: the involutions the census slice is computed from."""
    from e7dirac.atlas_ingest import FULL_SUPPORT

    seen, ids = set(), []
    for ident in sorted(kgb):
        rec = kgb[ident]
        if rec.support == FULL_SUPPORT and rec.theta not in seen:
            seen.add(rec.theta)
            ids.append(ident)
    return ids[::PHI_STRIDE]


def write_phi_fixture(kgb, directory: Path) -> Path:
    """A fixture directory whose kgb.txt holds the original lines of the
    selected involutions, for running `e7dirac phi` on the slice."""
    keep = set(phi_subset_ids(kgb))
    lines = []
    for raw in (FIXTURES / "kgb.txt").read_text().splitlines():
        body = raw.split("#", 1)[0].strip()
        if body and int(body.split("|", 1)[0]) in keep:
            lines.append(raw)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "kgb.txt").write_text("\n".join(lines) + "\n")
    return directory


class Workload:
    name = ""
    ops: tuple[str, ...] = ()
    fixtures = False

    def setup(self, span=_no_span) -> dict:
        """Imports, the root datum, the chambers, the norms integer tables,
        and the fixtures when the workload reads them."""
        from e7dirac import atlas_ingest, norms, structure, weyl

        with span("structure.build_root_datum"):
            structure.build_root_datum()
        with span("weyl.enumerate_chambers"):
            weyl.enumerate_chambers()
        with span("norms.tables"):
            tables = getattr(norms, "_tables", None)
            if tables is not None:
                tables()
        state = {}
        if self.fixtures:
            state["fixtures"] = {
                path.name: atlas_ingest.parse_fixture(_fixture_kind(path), path.read_text())
                for path in sorted(FIXTURES.glob("*.txt"))
            }
        return state

    def prepare(self, state) -> dict:
        """Inputs the benchmark itself derives, made after set-up is timed."""
        return state

    def run_round(self, state) -> dict:
        raise NotImplementedError

    def check(self, state, out, rng: random.Random) -> dict[str, list[str]]:
        raise NotImplementedError


class KtypeCensus(Workload):
    name = "ktype-census"
    ops = ("census", "certs", "omega")

    def run_round(self, state):
        from e7dirac import screening

        census = screening.enumerate_usmall_ktypes()
        sample = set(sorted(census)[::CERT_STRIDE]) | ex.CERTS_KTYPES
        return {
            "census": census,
            "certs": screening.compute_certs(sample),
            "omega": screening.enumerate_omega(),
        }

    def check(self, state, out, rng):
        from e7dirac import norms, structure

        weights = structure.build_root_datum().fundamental_weights
        gram = [[structure.inner(a, b) for b in weights] for a in weights]

        def norm_sq(c):
            return sum(c[i] * c[j] * gram[i][j] for i in range(7) for j in range(7) if c[i] and c[j])

        return {
            "census": checks.check_census(out["census"]),
            "certs": checks.check_certs(
                out["certs"], lambda mu: norms.lambda_datum(mu).lambda_norm_sq),
            "omega": checks.check_omega(out["omega"], norm_sq),
        }


class CharacterCensus(Workload):
    name = "character-census"
    ops = ("phi", "funnel", "spin-lkt", "table", "strings")
    fixtures = True

    def setup(self, span=_no_span):
        state = super().setup(span)
        fx = state["fixtures"]
        kgb = fx["kgb.txt"]
        state["phi_kgb"] = {i: kgb[i] for i in phi_subset_ids(kgb)}
        state["table_lines"] = fx["table.txt"][::TABLE_STRIDE]
        return state

    def run_round(self, state):
        from e7dirac import atlas_ingest, screening

        fx = state["fixtures"]
        branch = fx["branching_2969.txt"]
        min_spin, _achievers, hd = screening.spin_lkts(
            [(b.ktype, b.mult) for b in branch], SPIN_LKT_CHAR)
        _, by_size, total = atlas_ingest.count_strings(fx["dirac_counts.txt"])
        return {
            "phi": atlas_ingest.enumerate_phi(state["phi_kgb"]),
            "funnel": atlas_ingest.hj_filter(fx["params_1011108.txt"], fx["kgb.txt"]),
            "spin-lkt": (len(branch), min_spin, hd),
            "table": [atlas_ingest.verify_table_row(row) for row in state["table_lines"]],
            "strings": (by_size, total),
        }

    def check(self, state, out, rng):
        from e7dirac import atlas_ingest, screening

        chars, partition = out["phi"]
        records = list(state["phi_kgb"].values())

        def admitted(c):
            return (min(c) == 0 and screening.hp_admissible(c) and any(
                atlas_ingest.norm_sq_nu(atlas_ingest.nu_from_involution(c, r)) < ex.PHI_NU_BOUND
                for r in records))

        members = rng.sample(chars, min(40, len(chars)))
        below = [c[:i] + (c[i] - 1,) + c[i + 1:] for c in members for i in range(7) if c[i]]
        box = []
        while len(box) < 60:
            c = [rng.randint(0, 3) for _ in range(7)]
            c[rng.randrange(7)] = 0
            box.append(tuple(c))
        return {
            "phi": checks.check_phi_slice(chars, partition, screening.hp_admissible)
            + checks.check_phi_membership(chars, members + below + box, admitted),
            "funnel": checks.check_funnel(out["funnel"]),
            "spin-lkt": checks.check_branching(*out["spin-lkt"]),
            "table": checks.check_table(state["fixtures"]["table.txt"], out["table"]),
            "strings": checks.check_strings(*out["strings"]),
        }


class HeightScan(Workload):
    name = "height-scan"
    ops = ("scan", "usmall", "ularge-gap")

    def __init__(self, cap: int = HEIGHT_CAP):
        self.cap = cap

    def run_round(self, state):
        from e7dirac import norms

        points = norms.enumerate_by_height(self.cap)
        usmall = {mu for mu in points if norms.is_usmall(mu)}
        gaps = {mu: Fraction(norms.spin_sq12(mu), 12) - norms.lambda_norm_sq_fast(mu)
                for mu in points if mu not in usmall}
        return {"scan": points, "usmall": usmall, "ularge-gap": gaps}

    def check(self, state, out, rng):
        from e7dirac import norms, structure, weyl

        d = structure.build_root_datum()
        chambers = weyl.enumerate_chambers()
        points = out["scan"]
        recomputed = {}
        for mu in rng.sample(sorted(points), min(30, len(points))):
            datum = norms.lambda_datum(mu)
            two_rho = structure.scale(2, chambers[datum.witness_chamber].rho_j)
            recomputed[mu] = structure.inner(datum.lambda_a, two_rho)
        steps = [tuple(int(structure.pair_coroot(a, b)) for b in d.compact_simple)
                 for a in d.compact_simple]
        ularge = set(points) - out["usmall"]
        return {
            "scan": checks.check_height_scan(points, self.cap, recomputed),
            "usmall": checks.check_usmall_split(points, out["usmall"], steps),
            "ularge-gap": checks.check_ularge_gaps(out["ularge-gap"])
            + ([] if set(out["ularge-gap"]) == ularge else ["gaps not computed for every u-large point"]),
        }


class Jobs2(Workload):
    name = "jobs2"
    ops = ("usmall", "omega", "phi")

    def prepare(self, state):
        from e7dirac import atlas_ingest

        kgb = atlas_ingest.parse_fixture("kgb", (FIXTURES / "kgb.txt").read_text())
        state["phi_dir"] = write_phi_fixture(kgb, WORK / "jobs2-fixtures")
        return state

    def argv(self, state, op: str, jobs: int) -> list[str]:
        extra = ["--fixtures", str(state["phi_dir"])] if op == "phi" else []
        return [op, *extra, "--jobs", str(jobs)]

    def run_cli(self, argv):
        from e7dirac import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def run_round(self, state):
        return {op: self.run_cli(self.argv(state, op, 2)) for op in self.ops}

    def check(self, state, out, rng):
        totals = {"usmall": ex.CENSUS_SIZE, "omega": ex.OMEGA_SIZE, "phi": None}
        return {op: checks.check_cli(op, *out[op], ex.JOBS1_DIGESTS[op], totals[op])
                for op in self.ops}


WORKLOADS = {w.name: w for w in (KtypeCensus(), CharacterCensus(), HeightScan(), Jobs2())}
