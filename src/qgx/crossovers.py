"""Geometric crossovers on the base genotype spaces.

Mask crossover is geometric under Hamming distance, line crossover under
Euclidean distance, and cycle crossover under both Hamming and swap
distance. The quotient constructions reuse these operators after
normalizing the second parent.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionError, ParameterError
from .genotypes import Mask, Permutation, RealVector
from .metrics import pair_cycles, require_same_length


def random_mask(n: int, rng: np.random.Generator) -> Mask:
    """Fair coin per position: coin i is the int `u_i >= 0.5` of one
    `rng.random(n, dtype=np.float32)`. On numpy's `Generator` that equals
    `rng.integers(0, 2, size=n)`, state included: both spend one 32-bit
    word per value, and the coin is its top bit."""
    return tuple((rng.random(n, dtype=np.float32) >= 0.5).astype(np.int8).tolist())


def mask_crossover(p1, p2, m: Mask) -> tuple:
    """Positionwise selection: mask bit 0 copies from p1, bit 1 from p2."""
    if not len(p1) == len(p2) == len(m):
        raise DimensionError(
            f"length mismatch: parents {len(p1)}/{len(p2)}, mask {len(m)}"
        )
    return tuple(map(operator.getitem, zip(p1, p2), m))


def uniform_crossover(p1, p2, rng: np.random.Generator) -> tuple:
    return mask_crossover(p1, p2, random_mask(len(p1), rng))


def line_crossover(p1: RealVector, p2: RealVector, lam: float) -> RealVector:
    """Convex combination lam*p1 + (1-lam)*p2."""
    require_same_length(p1, p2)
    if not 0.0 <= lam <= 1.0:
        raise ParameterError(f"blend weight must be in [0,1], got {lam}")
    mu = 1.0 - lam
    return tuple([lam * a + mu * b for a, b in zip(p1, p2)])


def cycle_crossover(
    p1: Permutation, p2: Permutation, rng: np.random.Generator
) -> Permutation:
    """Inherit each position-cycle wholly from one parent, by a fair coin.

    Draw rule: one `random_mask(count, rng)` for the count cycles of
    `pair_cycles(p1, p2)`; coin c goes to cycle c (cycles are numbered by
    smallest position), and a 1 takes p2's values on the cycle. Empty
    parents have no cycles and draw nothing. On a numpy `Generator` this
    yields the same coins and leaves the same state as count scalar
    `integers(0, 2)` draws, one per cycle.
    """
    label, count = pair_cycles(p1, p2)
    flips = random_mask(count, rng)
    return tuple([b if flips[c] else a for a, b, c in zip(p1, p2, label)])
