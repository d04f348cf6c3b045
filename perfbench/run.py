"""Benchmark of the e7dirac screening pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (ktype-census, character-census, height-scan, jobs2) in
this process, or with ``--workload all`` each of them in a fresh process.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end:

    setup_s      median, over 4 fresh processes, of process start to ready
    wall_s       median wall time of one round of the workload's work
    cpu_s        median user+system CPU time of one round, pool workers included
    peak_rss_mb  peak resident memory of this process and its children

With ``--trace 1`` the metrics are per layer, taken from spans recorded
around the package's functions (see spans.py); half the run is untraced
and half traced, and the difference of their round medians is reported
as the tracing overhead.  Rounds repeat until ``--seconds`` have passed
(at least one).  Output checks run after the timed rounds; a failed check
fails its operation in every round and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # before the rounds, and as many again after them
REQUIRED = ("src/e7dirac/__init__.py", "fixtures/kgb.txt", "tests/frozen_values.py")

PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.WORKLOADS[sys.argv[3]].setup(); print('ready', flush=True)")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


def probe_setup(name: str) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(ROOT / "src"), str(HERE), name],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed with exit code {proc.returncode}")
    return ready - start


def fingerprint(value) -> str:
    if isinstance(value, (set, frozenset)):
        text = "\n".join(sorted(map(repr, value)))
    elif isinstance(value, dict):
        text = "\n".join(sorted(f"{k!r}: {v!r}" for k, v in value.items()))
    else:
        text = repr(value)
    return hashlib.sha256(text.encode()).hexdigest()


def run_rounds(workload, state, seconds: float, seed: int | None) -> list:
    """(wall, cpu, fingerprints, problems) per round, until the rounds have
    taken ``seconds``.  Unless ``seed`` is None the first round's output is
    checked, outside the timed part; then it is dropped like the others:
    output kept alive would slow later rounds through the garbage
    collector's full passes."""
    rounds: list = []
    while True:
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        out = workload.run_round(state)
        t1, cpu1 = time.perf_counter(), cpu_seconds()
        prints = {op: fingerprint(out[op]) for op in workload.ops}
        problems = None
        if seed is not None and not rounds:
            problems = workload.check(state, out, random.Random(seed))
        del out
        rounds.append((t1 - t0, cpu1 - cpu0, prints, problems))
        if sum(r[0] for r in rounds) >= seconds:
            return rounds


def tally(workload, rounds) -> tuple[int, int]:
    """(attempted, failed): each round attempts every operation; one fails
    when its check fails or its output differs from the first round's."""
    first_prints, problems = rounds[0][2], rounds[0][3]
    failed = 0
    for op in workload.ops:
        for msg in problems[op]:
            print(f"{workload.name}: {op}: {msg}", file=sys.stderr)
        for _wall, _cpu, prints, _problems in rounds:
            if problems[op] or prints[op] != first_prints[op]:
                failed += 1
    return len(rounds) * len(workload.ops), failed


# ---------------------------------------------------------------------------
# per-layer metrics


def install(tracer) -> None:
    """Wrap the package functions behind the per-layer metrics."""
    from e7dirac import atlas_ingest, cli, norms, screening, simplex, structure, weyl

    modules = (structure, weyl, simplex, norms, screening, atlas_ingest, cli)
    counts, active = tracer.counts, tracer.active

    def count(key, measure):
        def on_result(result, args, kwargs):
            counts[key] += measure(result, args, kwargs)
        return on_result

    def usmall_lp(result, args, kwargs):
        if active["screening.enumerate_usmall_ktypes"]:
            counts["usmall.lp_calls"] += 1
            counts["usmall.lp_members"] += bool(result)

    def usmall_members(result, args, kwargs):
        jobs = args[0] if args else kwargs.get("jobs", 1)
        if jobs <= 1:  # a pool's LPs run in workers the tracer cannot see
            counts["usmall.members"] += len(result)

    targets = [
        ("simplex.lp_feasible", simplex, "lp_feasible",
         count("lp_feasible.feasible", lambda r, a, k: bool(r))),
        ("norms.is_usmall", norms, "is_usmall", usmall_lp),
        ("norms.spin_sq12", norms, "spin_sq12", None),
        ("norms.lambda_norm_sq_fast", norms, "lambda_norm_sq_fast", None),
        ("norms.cone_project", norms, "cone_project", None),
        ("norms.atlas_height", norms, "atlas_height", None),
        ("norms.enumerate_by_height", norms, "enumerate_by_height",
         count("height.points", lambda r, a, k: len(r))),
        ("norms.spin_datum", norms, "spin_datum", None),
        ("weyl.dominant_rep", weyl, "dominant_rep", None),
        ("screening.enumerate_usmall_ktypes", screening, "enumerate_usmall_ktypes",
         usmall_members),
        ("screening.compute_certs", screening, "compute_certs", None),
        ("screening.enumerate_omega", screening, "enumerate_omega", None),
        ("screening.spin_lkts", screening, "spin_lkts", None),
        ("atlas_ingest.enumerate_phi", atlas_ingest, "enumerate_phi",
         count("phi.chars", lambda r, a, k: len(r[0]))),
        ("atlas_ingest.enum_involution", atlas_ingest, "_enum_involution",
         count("phi.raw_points", lambda r, a, k: len(r))),
        ("atlas_ingest.verify_table_row", atlas_ingest, "verify_table_row", None),
        ("atlas_ingest.parse_fixture", atlas_ingest, "parse_fixture", None),
        ("cli.usmall", cli, "run_usmall", None),
        ("cli.omega", cli, "run_omega", None),
        ("cli.phi", cli, "run_phi", None),
        ("cli.emit", cli, "emit", count("cli.emit.rows", lambda r, a, k: len(a[2]))),
    ]
    for name, home, attr, on_result in targets:
        tracer.patch(name, home, attr, modules, on_result)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup_tracer, round_tracer, n_rounds: int) -> dict[str, tuple[float, str]]:
    """Each value is the set-up's share plus the average over the traced
    rounds, so calls and seconds read per round of work."""
    setup, rounds = setup_tracer.summary(), round_tracer.summary()

    def span(name, key):
        return (setup.get(name, {}).get(key, 0)
                + rounds.get(name, {}).get(key, 0) / n_rounds)

    def counter(key):
        return round_tracer.counts[key] / n_rounds

    lp_calls = counter("usmall.lp_calls")
    inherited = counter("usmall.members") - counter("usmall.lp_members")
    out = {
        "structure.build_root_datum.s": (span("structure.build_root_datum", "s"), "s"),
        "weyl.enumerate_chambers.s": (span("weyl.enumerate_chambers", "s"), "s"),
        "norms.tables.s": (span("norms.tables", "s"), "s"),
        "atlas_ingest.parse_fixture.s": (span("atlas_ingest.parse_fixture", "s"), "s"),
        "simplex.lp_feasible.feasible": (counter("lp_feasible.feasible"), "count"),
        "screening.usmall.candidates": (lp_calls + inherited, "count"),
        "screening.usmall.lp_calls": (lp_calls, "count"),
        "screening.usmall.inherited": (inherited, "count"),
        "screening.usmall.lp_per_candidate": (_ratio(lp_calls, lp_calls + inherited), "ratio"),
        "norms.enumerate_by_height.points": (counter("height.points"), "count"),
        "atlas_ingest.phi.involutions": (span("atlas_ingest.enum_involution", "calls"), "count"),
        "atlas_ingest.phi.raw_points": (counter("phi.raw_points"), "count"),
        "atlas_ingest.phi.unique_per_raw": (
            _ratio(counter("phi.chars"), counter("phi.raw_points")), "ratio"),
        "atlas_ingest.enum_involution.ms_per_call": (
            1e3 * _ratio(span("atlas_ingest.enum_involution", "s"),
                         span("atlas_ingest.enum_involution", "calls")), "ms"),
        "cli.emit.rows": (counter("cli.emit.rows"), "count"),
    }
    for name, fields in LAYER_SPANS.items():
        for field in fields:
            key = f"{name}.{field}"
            if field == "us_per_call":
                out[key] = (1e6 * _ratio(span(name, "s"), span(name, "calls")), "us")
            else:
                out[key] = (span(name, field), "count" if field == "calls" else "s")
    return out


# span name -> the fields reported for it
LAYER_SPANS = {
    "simplex.lp_feasible": ("calls", "s", "us_per_call"),
    "norms.is_usmall": ("calls", "s"),
    "norms.spin_sq12": ("calls", "s", "us_per_call"),
    "norms.lambda_norm_sq_fast": ("calls", "s", "self_s"),
    "norms.cone_project": ("calls", "s", "us_per_call"),
    "norms.atlas_height": ("calls", "s"),
    "norms.enumerate_by_height": ("s", "self_s"),
    "norms.spin_datum": ("calls", "s"),
    "weyl.dominant_rep": ("calls", "s"),
    "screening.enumerate_usmall_ktypes": ("s", "self_s"),
    "screening.compute_certs": ("s", "self_s"),
    "screening.enumerate_omega": ("s",),
    "screening.spin_lkts": ("s",),
    "atlas_ingest.enumerate_phi": ("s", "self_s"),
    "atlas_ingest.verify_table_row": ("calls", "s"),
    "cli.usmall": ("s",),
    "cli.omega": ("s",),
    "cli.phi": ("s",),
    "cli.emit": ("s",),
}


# ---------------------------------------------------------------------------
# runs


def untraced_run(workload, seed: int, seconds: float) -> dict:
    # The host's speed drifts over seconds; probing at both ends of the run
    # keeps one slow or fast stretch from setting the median.
    setups = [probe_setup(workload.name) for _ in range(SETUP_PROBES)]
    state = workload.prepare(workload.setup())
    rounds = run_rounds(workload, state, seconds, seed)
    setups += [probe_setup(workload.name) for _ in range(SETUP_PROBES)]
    attempted, failed = tally(workload, rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r[0] for r in rounds), "s"),
        "cpu_s": (statistics.median(r[1] for r in rounds), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced_run(workload, seed: int, seconds: float) -> dict:
    from spans import Tracer

    setup_tracer = Tracer()
    install(setup_tracer)
    state = workload.setup(setup_tracer.span)
    setup_tracer.unpatch()
    state = workload.prepare(state)
    plain = run_rounds(workload, state, seconds / 2, seed)
    tracer = Tracer()
    install(tracer)
    try:
        traced = run_rounds(workload, state, seconds / 2, None)
    finally:
        tracer.unpatch()
    tracer.write_json(HERE / "out" / f"trace-{workload.name}-seed{seed}.json")
    attempted, failed = tally(workload, plain + traced)
    metrics = layer_metrics(setup_tracer, tracer, len(traced))
    plain_wall = statistics.median(r[0] for r in plain)
    overhead = statistics.median(r[0] for r in traced) - plain_wall
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / plain_wall, "ratio")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a fresh process; their result lines, tab-prefixed."""
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}\t{lines[-1] if lines else '(no result)'}", flush=True)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of the repository, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    result = run(workload, args.seed, args.seconds)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
