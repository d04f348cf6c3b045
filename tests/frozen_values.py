"""Frozen expected values shared across the suite.

Everything here was fixed ahead of the implementation; the families are
written out as comprehensions only to avoid 71 literal lines.
"""


def _certs_ktypes():
    out = {(0, 0, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0, 0)}
    for m in range(-3, 4):
        out.add((0, 1, 0, 0, 0, 0, 3 * m))
    for m in range(-1, 2):
        out.add((0, 0, 0, 1, 0, 0, 3 * m))
    for m in range(-2, 3):
        out.add((1, 0, 0, 0, 0, 1, 3 * m))
    for m in range(1, 5):
        out.add((0, 0, 0, 0, 0, 0, 3 * m))
        out.add((0, 0, 0, 0, 0, 0, -3 * m))
    for m in range(2, 4):
        out.add((0, 0, 0, 0, 0, 3, 3 * m))
        out.add((3, 0, 0, 0, 0, 0, -3 * m))
    for m in range(-4, 3):
        out.add((0, 0, 0, 0, 0, 1, 3 * m + 1))
        out.add((1, 0, 0, 0, 0, 0, -3 * m - 1))
    for m in range(-2, 4):
        out.add((0, 0, 0, 0, 0, 2, 3 * m - 1))
        out.add((2, 0, 0, 0, 0, 0, -3 * m + 1))
    for m in range(-2, 3):
        out.add((0, 0, 0, 0, 1, 0, 3 * m - 1))
        out.add((0, 0, 1, 0, 0, 0, -3 * m + 1))
    for m in range(-1, 2):
        out.add((0, 1, 0, 0, 0, 1, 3 * m + 1))
        out.add((1, 1, 0, 0, 0, 0, -3 * m - 1))
    return frozenset(out)


# the 71 high-gap u-small K-types (spin norm beats lambda norm by >= 94)
CERTS_KTYPES = _certs_ktypes()

# window characters with every coordinate 0 or 1 that pass the
# admissibility screen and carry a fully supported involution
PHI_COEFF_ONE = frozenset([
    (0, 0, 1, 1, 1, 1, 1), (0, 1, 1, 0, 1, 1, 1), (0, 1, 1, 1, 0, 1, 1),
    (0, 1, 1, 1, 1, 0, 1), (0, 1, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 1, 1),
    (1, 0, 0, 1, 1, 1, 1), (1, 0, 1, 1, 0, 1, 0), (1, 0, 1, 1, 0, 1, 1),
    (1, 0, 1, 1, 1, 0, 1), (1, 0, 1, 1, 1, 1, 0), (1, 0, 1, 1, 1, 1, 1),
    (1, 1, 0, 1, 0, 1, 1), (1, 1, 0, 1, 1, 0, 1), (1, 1, 0, 1, 1, 1, 0),
    (1, 1, 0, 1, 1, 1, 1), (1, 1, 1, 0, 1, 0, 1), (1, 1, 1, 0, 1, 1, 0),
    (1, 1, 1, 0, 1, 1, 1), (1, 1, 1, 1, 0, 1, 0), (1, 1, 1, 1, 0, 1, 1),
    (1, 1, 1, 1, 1, 0, 1), (1, 1, 1, 1, 1, 1, 0),
])

# the twelve Dirac-cohomology weights of the smaller scalar-type module
# at the window character [1,1,1,0,1,1,1]
HD_TWELVE = frozenset([
    (1, 0, 0, 0, 0, 0, 11), (0, 0, 0, 0, 0, 1, -11),
    (2, 0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 2, -1),
    (0, 0, 0, 0, 1, 0, 5), (0, 0, 1, 0, 0, 0, -5),
    (0, 0, 0, 0, 0, 0, 15), (0, 0, 0, 0, 0, 0, -15),
    (0, 1, 0, 0, 0, 0, 9), (0, 1, 0, 0, 0, 0, -9),
    (1, 0, 0, 0, 0, 1, 3), (1, 0, 0, 0, 0, 1, -3),
])

# sha256 of each subcommand's stdout over the shipped fixtures (exit code 0)
STDOUT_SHA256 = {
    "chambers":
        "6c7332dffcd0f14e092d0ee0c9df54629e6653209252006602cc31458f251dfb",
    "chambers --format pretty":
        "a6fe5d54e529ead6f63bbcdf6262560662821cade78885ca455e632b36ff8aba",
    "usmall":
        "d1aa1ed67c1fe590b35ed0fec9a6e4c0efcb468ac08e451d9baa92bd3ea9e9c2",
    "certs":
        "e813bd275b1bca5b4b7361608d90a4e83fd00fad3a2c7ca3c9d5f040f6f36fb7",
    "omega":
        "4dd3adf312faf1aae6adc2f4747ffbe3ec8889e65a0b7c86b10775442430d01c",
    "phi":
        "86042d2627d0f637f164adbb3806aa47b32cd98a190ae6e2f0538198a745691d",
    "hj-example":
        "216b6fd2fa49381eac0e217ad5086646af72fc1b2eefd3da07a8f787af638b7a",
    "hj-example --format pretty":
        "61a277653c16a356cd35b4841b5aad709135f32362e181410f3b50ec70d9ac31",
    "spin-lkt":
        "896bc191a0853c725635755459f0fb9856e34dc346433e86df96f1133f6428eb",
    "dirac-candidates":
        "b82cbc91c3235907c5f40d0f5c5df61d00427c2c8da3f23829caa24c416db92a",
    "dirac-candidates --inf-char 1,1,1,0,1,0,1":
        "2cafc4c899d0f137f980faca510437a24078593d5f46c948f52f6c7628f8808f",
    "strings":
        "24f3a3f502bc4f1cfbd4a0e0d86b6de523a8e8b64a1985d9dc6b830c04f3391a",
    "verify":
        "39636d489e9975a495939bc1bcd253a04c57ebc8cfe0f5faed58928df0353c55",
}
