"""Base metrics and metric line segments.

A point z lies on the segment between x and y exactly when the triangle
inequality is tight: d(x,z) + d(z,y) = d(x,y). Geometric crossovers are
recombinations whose offspring never leave that segment.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Sequence

from .errors import DimensionError, InputError
from .genotypes import Permutation

Metric = Callable[[object, object], float]


def require_same_length(a: Sequence, b: Sequence) -> None:
    """Raise `DimensionError` unless a and b have the same length."""
    if len(a) != len(b):
        raise DimensionError(f"length mismatch: {len(a)} vs {len(b)}")


def hamming_distance(a: Sequence, b: Sequence) -> int:
    """Number of positions where a and b differ."""
    require_same_length(a, b)
    return sum(map(operator.ne, a, b))


def euclidean_distance(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):  # the verify sweep's hottest call: no frame on the common path
        require_same_length(a, b)
    return math.dist(a, b)


_NOT_PERMUTATIONS = "parents are not permutations of the same values"


def pair_cycles(p1: Permutation, p2: Permutation) -> tuple[list[int], int]:
    """Cycle decomposition of the pair over positions: (label, count).

    Starting at an unlabelled position, repeatedly jump to the position
    where p1 holds the value p2 currently points at; each closed walk is
    one cycle. `label[i]` is the cycle of position i, and cycles are
    numbered 0..count-1 in order of their smallest position. The value
    sets of p1 and p2 agree on every cycle, so inheriting whole cycles
    keeps offspring bijective.

    Raises DimensionError for parents of different lengths and
    InputError when they are not permutations of the same values.
    """
    if len(p1) != len(p2):
        raise DimensionError(f"size mismatch: {len(p1)} vs {len(p2)}")
    pos_in_p1 = {v: i for i, v in enumerate(p1)}
    if len(pos_in_p1) != len(p1):
        raise InputError(_NOT_PERMUTATIONS)
    label = [-1] * len(p1)
    count = 0
    for start in range(len(p1)):
        if label[start] >= 0:
            continue
        i = start
        while label[i] < 0:
            label[i] = count
            try:
                i = pos_in_p1[p2[i]]
            except KeyError:
                raise InputError(_NOT_PERMUTATIONS) from None
        # With p2's values all in p1, the jumps permute the positions
        # unless p2 repeats a value; then some position is no jump's
        # target, and the walk from it stops short of its start.
        if i != start:
            raise InputError(_NOT_PERMUTATIONS)
        count += 1
    return label, count


def swap_distance(p: Permutation, q: Permutation) -> int:
    """Minimum number of transpositions turning p into q: n minus the
    number of cycles of the pair (`pair_cycles`), with its errors."""
    return len(p) - pair_cycles(p, q)[1]


def in_segment(x, z, y, metric: Metric, tol: float = 0.0) -> bool:
    """True iff z lies on the metric segment between x and y (within tol)."""
    return abs(metric(x, z) + metric(z, y) - metric(x, y)) <= tol
