"""Print the sha256 of each jobs2 subcommand's stdout when run with --jobs 1.

    python3 perfbench/digests.py

The jobs2 workload runs the same subcommands with --jobs 2 and requires
these digests (kept in expected.JOBS1_DIGESTS): parallel runs must print
exactly what a serial run prints.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    jobs2 = workloads.WORKLOADS["jobs2"]
    state = jobs2.prepare(jobs2.setup())
    for op in jobs2.ops:
        code, stdout = jobs2.run_cli(jobs2.argv(state, op, 1))
        if code != 0:
            sys.exit(f"{op} exited {code}")
        print(f'"{op}": "{checks.digest(stdout)}",')
