"""Base metrics and metric line segments.

A point z lies on the segment between x and y exactly when the triangle
inequality is tight: d(x,z) + d(z,y) = d(x,y). Geometric crossovers are
recombinations whose offspring never leave that segment.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import DimensionError
from .genotypes import Permutation, invert_permutation

Metric = Callable[[object, object], float]


def require_same_length(a: Sequence, b: Sequence) -> None:
    """Raise `DimensionError` unless a and b have the same length."""
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")


def hamming_distance(a: Sequence, b: Sequence) -> int:
    """Number of positions where a and b differ."""
    require_same_length(a, b)
    return sum(x != y for x, y in zip(a, b))


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    require_same_length(a, b)
    return math.dist(a, b)


def swap_distance(p: Permutation, q: Permutation) -> int:
    """Minimum number of transpositions turning p into q.

    Equals n minus the number of cycles of the composition q . p^-1.
    """
    require_same_length(p, q)
    n = len(p)
    inv_p = invert_permutation(p)
    seen = [False] * n
    cycles = 0
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        cycles += 1
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = q[inv_p[i - 1] - 1]
    return n - cycles


def in_segment(x, z, y, metric: Metric, tol: float = 0.0) -> bool:
    """True iff z lies on the metric segment between x and y (within tol)."""
    return abs(metric(x, z) + metric(z, y) - metric(x, y)) <= tol
