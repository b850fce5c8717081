"""Geometric crossovers on the base genotype spaces.

Mask crossover is geometric under Hamming distance, line crossover under
Euclidean distance, and cycle crossover under both Hamming and swap
distance. The quotient constructions reuse these operators after
normalizing the second parent.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ParameterError
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


def pair_cycles(p1: Permutation, p2: Permutation) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition of the parent pair over positions (0-based).

    Starting at an unvisited position, repeatedly jump to the position
    where p1 holds the value p2 currently points at; each closed walk is
    one cycle. The value sets of p1 and p2 agree on every cycle, so
    inheriting whole cycles keeps offspring bijective.
    """
    if len(p1) != len(p2):
        raise DimensionError(f"size mismatch: {len(p1)} vs {len(p2)}")
    pos_in_p1 = {v: i for i, v in enumerate(p1)}
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
            i = pos_in_p1[p2[i]]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def cycle_crossover(
    p1: Permutation, p2: Permutation, rng: np.random.Generator
) -> Permutation:
    """Inherit each position-cycle wholly from one parent (fair coin per cycle)."""
    child = list(p1)
    for cycle in pair_cycles(p1, p2):
        if rng.integers(0, 2) == 1:
            for i in cycle:
                child[i] = p2[i]
    return tuple(child)
