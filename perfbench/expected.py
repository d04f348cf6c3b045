"""The paper's counts and the method's bounds that the output checks use.

They are written here, not imported from the package, so that a change to
the program cannot move its own yardstick.  The 71 certificate K-types and
the 23 characters of the size-1 census slice are read from
``tests/frozen_values.py``, which fixed them ahead of the implementation.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _frozen_values():
    spec = importlib.util.spec_from_file_location(
        "perfbench_frozen_values", ROOT / "tests" / "frozen_values.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FROZEN = _frozen_values()

CENSUS_SIZE = 21294
CERTS_KTYPES = _FROZEN.CERTS_KTYPES  # 71
CERT_MIN_GAP = 94
CERT_LAMBDA_RANGE = (Fraction(14), Fraction(49))

OMEGA_SIZE = 4676
OMEGA_NORM_RANGE = (Fraction(108), Fraction(469, 2))

# the character census: 178192 characters, by largest coordinate 1..13
PHI_PARTITION_SIZES = (23, 921, 7817, 27246, 42088, 39685, 28107, 17649,
                       9042, 4022, 1359, 220, 13)
PHI_SIZE_ONE_SLICE = _FROZEN.PHI_COEFF_ONE  # 23
PHI_NU_BOUND = 94  # strict bound on |nu|^2

FUNNEL = (525, 246, 218, 29)
BRANCHING = (157, Fraction(159, 2), False)  # K-types, min spin norm^2, HD nonzero
TABLE_ROWS, TABLE_LINES = 73, 40
STRING_SUMS = (56, 84, 102, 133, 164, 181, 158)
STRING_TOTAL = 878

# the sharpened Helgason-Johnson bound: spin minus lambda norm^2 of a
# u-large K-type never exceeds it
ULARGE_MAX_GAP = 79

# sha256 of the stdout of each jobs2 subcommand when run with --jobs 1;
# regenerate with `python3 perfbench/digests.py` (see README.md)
JOBS1_DIGESTS = {
    "usmall": "d1aa1ed67c1fe590b35ed0fec9a6e4c0efcb468ac08e451d9baa92bd3ea9e9c2",
    "omega": "4dd3adf312faf1aae6adc2f4747ffbe3ec8889e65a0b7c86b10775442430d01c",
    "phi": "7101164110fbe309eb207d7f0580aee8d35ad3a6afc86aeb6932b82664141e2b",
}
