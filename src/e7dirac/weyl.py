"""Weyl-group algorithms: dominant representatives, the 56 chambers, and
the dimension formula for K-types.

Weyl words are tuples of simple-reflection indices (1..7 for the full
group, 1..6 for K).  A word (l1, ..., lk) acts by applying the reflection
at alpha_l1 first: it sends v to s_lk(... s_l1(v) ...).  Inverting a word
is reversing it.

The 56 chambers are the positive systems of g containing the fixed
positive system of k.  They are found by a breadth-first search that
crosses only noncompact simple walls; crossing a compact wall would leave
the K-dominant world.

Vectors are the scaled Vecs of structure: on the weight lattice every walk
here compares and adds ints.

The pipeline walks W(G) on zeta-coordinates (norms.dominant_zeta), so
dominant_rep is the tests' reference for that walk, and the W(K) walk of
the spin tables' check in norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .structure import (
    RANK,
    Vec,
    add,
    build_root_datum,
    dot,
    from_ambient,
    is_k_type,
    reflect,
    sub,
    to_ambient,
)

WeylWord = tuple[int, ...]


def dominant_rep(v: Vec, group: str) -> tuple[Vec, WeylWord]:
    """Dominant representative of v under W(g) ("G") or W(k) ("K").

    Repeatedly reflects at the lowest-index simple root pairing negatively;
    the returned word applied to v (first letter first) gives the dominant
    vector.  For "K" only the six compact simple roots are used, so the
    zeta-component is untouched.
    """
    d = build_root_datum()
    if group == "G":
        simples = d.simple_roots
    elif group == "K":
        simples = d.compact_simple
    else:
        raise ValueError(f"unknown group {group!r}")
    word: list[int] = []
    while True:
        for i, a in enumerate(simples):
            pairing = dot(v, a)
            if pairing < 0:
                v = reflect(v, a, pairing)
                word.append(i + 1)
                break
        else:
            return v, tuple(word)


@dataclass(frozen=True)
class Chamber:
    index: int
    word: WeylWord  # w with w(rho) = rho_j
    rho_j: Vec
    rho_n_j: Vec
    simples: tuple[Vec, ...]  # w(alpha_1..alpha_7), the simple roots of the system
    weights: tuple[Vec, ...]  # w(zeta_1..zeta_7), its fundamental weights


@lru_cache(maxsize=1)
def enumerate_chambers() -> tuple[Chamber, ...]:
    d = build_root_datum()
    chambers: list[Chamber] = []
    seen: dict[Vec, int] = {}

    def push(word: WeylWord, rho_j: Vec, simples: tuple[Vec, ...], weights: tuple[Vec, ...]):
        seen[rho_j] = len(chambers)
        chambers.append(
            Chamber(
                index=len(chambers),
                word=word,
                rho_j=rho_j,
                rho_n_j=sub(rho_j, d.rho_c),
                simples=simples,
                weights=weights,
            )
        )

    push((), d.rho, d.simple_roots, d.fundamental_weights)
    cursor = 0
    while cursor < len(chambers):
        ch = chambers[cursor]
        cursor += 1
        for i in range(1, RANK + 1):
            wall = ch.simples[i - 1]
            if dot(wall, d.zeta) == 0:
                continue  # compact wall: crossing would break the k-positive system
            # Crossing the wall w(alpha_i) realizes w' = w s_i, and
            # w'(rho) = w(rho - alpha_i) = rho_j - wall.
            rho_new = sub(ch.rho_j, wall)
            if rho_new in seen:
                continue
            word_new = (i,) + ch.word
            simples_new = tuple(reflect(u, wall) for u in ch.simples)
            weights_new = tuple(reflect(u, wall) for u in ch.weights)
            push(word_new, rho_new, simples_new, weights_new)
    if len(chambers) != 56:
        raise RuntimeError(f"chamber search found {len(chambers)} positive systems, wanted 56")
    # every reflection above divided exactly: the chambers stay on the lattice
    assert all(type(x) is int for ch in chambers
               for v in (ch.rho_j, ch.rho_n_j, *ch.simples, *ch.weights) for x in v), \
        "BUG: a chamber vector left the lattice"
    return tuple(chambers)


def weyl_dim_k(coords) -> int:
    """Dimension of the K-type [a..f, g] by the Weyl dimension formula.

    The central coordinate g only twists the character, so the dimension is
    a product over the 36 compact positive roots for the e6 part.
    """
    d = build_root_datum()
    mu = to_ambient("varpi", tuple(coords[:6]) + (0,))
    shifted = add(mu, d.rho_c)
    # dot is 36 times the form; the factor cancels in the ratio
    num = den = 1
    for a in d.compact_positive:
        num *= dot(shifted, a)
        den *= dot(d.rho_c, a)
    dim, rem = divmod(num, den)
    assert rem == 0 and dim > 0, f"BUG: non-integral dimension {num}/{den} for {coords}"
    return dim


def spin_module_dimension_check() -> bool:
    """Sum of dim E_{rho_n^(j)} over the 56 chambers against 2^27 = dim of
    the spinor module for the 54-dimensional space p."""
    total = 0
    reps = set()
    for ch in enumerate_chambers():
        coords = from_ambient("varpi", ch.rho_n_j)
        int_coords = tuple(int(c) for c in coords)
        if int_coords != coords or not is_k_type(int_coords):
            raise RuntimeError(f"rho_n^({ch.index}) is not a K-type: {coords}")
        reps.add(int_coords)
        total += weyl_dim_k(int_coords)
    # The decomposition is stated multiplicity-free; coinciding summands
    # would silently break that, so detect rather than assume.
    if len(reps) != 56:
        raise RuntimeError(f"only {len(reps)} distinct rho_n^(j) among the 56 chambers")
    return total == 2**27
