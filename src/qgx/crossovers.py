"""Geometric crossovers on the base genotype spaces.

Mask crossover is geometric under Hamming distance, line crossover under
Euclidean distance, and cycle crossover under both Hamming and swap
distance. The quotient constructions reuse these operators after
normalizing the second parent.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InputError, ParameterError
from .genotypes import FIRST, Mask, Permutation, RealVector
from .metrics import require_same_length


def random_mask(n: int, rng: np.random.Generator) -> Mask:
    """Fair coin per position."""
    return tuple(rng.integers(0, 2, size=n).tolist())


def mask_crossover(p1, p2, m: Mask) -> tuple:
    """Positionwise selection: parent 1 where the mask bit is FIRST."""
    if not len(p1) == len(p2) == len(m):
        raise DimensionError(
            f"length mismatch: parents {len(p1)}/{len(p2)}, mask {len(m)}"
        )
    return tuple(a if bit == FIRST else b for a, b, bit in zip(p1, p2, m))


def uniform_crossover(p1, p2, rng: np.random.Generator) -> tuple:
    return mask_crossover(p1, p2, random_mask(len(p1), rng))


def line_crossover(p1: RealVector, p2: RealVector, lam: float) -> RealVector:
    """Convex combination lam*p1 + (1-lam)*p2."""
    require_same_length(p1, p2)
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"blend weight must be in [0,1], got {lam}")
    return tuple(lam * a + (1.0 - lam) * b for a, b in zip(p1, p2))


_NOT_PERMUTATIONS = "parents are not permutations of the same values"


def pair_cycles(p1: Permutation, p2: Permutation) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition of the parent pair over positions (0-based).

    Starting at an unvisited position, repeatedly jump to the position
    where p1 holds the value p2 currently points at; each closed walk is
    one cycle. The value sets of p1 and p2 agree on every cycle, so
    inheriting whole cycles keeps offspring bijective. Cycles come in
    order of their smallest position, each listed from that position.

    Raises DimensionError for parents of different lengths and
    InputError when they are not permutations of the same values.
    """
    if len(p1) != len(p2):
        raise DimensionError(f"size mismatch: {len(p1)} vs {len(p2)}")
    pos_in_p1 = {v: i for i, v in enumerate(p1)}
    if len(pos_in_p1) != len(p1):
        raise InputError(_NOT_PERMUTATIONS)
    seen = [False] * len(p1)
    cycles = []
    for start in range(len(p1)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            try:
                i = pos_in_p1[p2[i]]
            except KeyError:
                raise InputError(_NOT_PERMUTATIONS) from None
        # With p2's values all in p1, the jumps permute the positions
        # unless p2 repeats a value; then some position is no jump's
        # target, and the walk from it stops short of its start.
        if i != start:
            raise InputError(_NOT_PERMUTATIONS)
        cycles.append(tuple(cycle))
    return tuple(cycles)


def cycle_crossover(
    p1: Permutation, p2: Permutation, rng: np.random.Generator
) -> Permutation:
    """Inherit each position-cycle wholly from one parent, by a fair coin.

    Draw rule: one sized draw `rng.integers(0, 2, size=c)` for the c
    cycles of `pair_cycles(p1, p2)`; coin i goes to the i-th cycle in
    that order (by smallest position), and a 1 takes p2's values on the
    cycle. Empty parents have no cycles and draw nothing. On a numpy
    `Generator` the sized draw yields the same coins and leaves the same
    state as c scalar draws, one per cycle.
    """
    cycles = pair_cycles(p1, p2)
    child = list(p1)
    for coin, cycle in zip(rng.integers(0, 2, size=len(cycles)).tolist(), cycles):
        if coin:
            for i in cycle:
                child[i] = p2[i]
    return tuple(child)
