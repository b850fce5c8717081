"""Vectors under coordinate permutation, for symmetric fitness functions.

When fitness is unchanged by any permutation of the variables, the n!
coordinate shuffles form an isometry group of both Euclidean and Hamming
distance, and genotypes that are rearrangements of each other encode the
same solution. Normalization rearranges the second parent to sit closest
to the first: for reals by sort-matching (i-th smallest to i-th smallest,
one stable sort per vector, floats out; a GA generation's pairs in one numpy
batch, `normalize_real_pairs`), for discrete vectors by a positionwise
assignment problem of at most `ASSIGNMENT_CAP` positions. The discrete quotient
distance, n minus the shared symbols with multiplicity, takes any length.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .assignment import hungarian
from .errors import DimensionError, SizeCapError
from .genotypes import Permutation, RealVector, SymbolVector, compose_permutations, stack_pairs
from .metrics import euclidean_distance, require_same_length
from .quotient import GroupAction, permutation_group

ASSIGNMENT_CAP = 1000  # `normalize_discrete` solves an n x n assignment in O(n^3)


def permute_coords(x, sigma: Permutation):
    """Rearranged copy of x whose i-th entry is x at position sigma(i)."""
    if len(x) != len(sigma):
        raise DimensionError(f"size mismatch: vector {len(x)}, permutation {len(sigma)}")
    return tuple(x[sigma[i] - 1] for i in range(len(x)))


def coordinate_action(n: int) -> GroupAction:
    """All n! coordinate shuffles by `permute_coords`; compose reversed (`permutation_group`)."""
    return permutation_group(
        f"coordinate(n={n})",
        n,
        lambda g, x: permute_coords(x, g),
        lambda g, h: compose_permutations(h, g),
    )


def normalize_real(x: RealVector, y: RealVector) -> tuple[RealVector, float]:
    """Sort-matching: i-th smallest of y moves to the slot of i-th smallest of x.

    By the rearrangement inequality this minimizes the sum of squared
    differences, hence the Euclidean distance, over all rearrangements
    of y. Ties: the slots of equal x values are filled in ascending
    index order, and equal y values are taken in ascending index order
    (stable sorts; only a signed zero, -0.0 against 0.0, shows the
    second rule). y* holds floats, as the batch's do.
    """
    require_same_length(x, y)
    out = [0.0] * len(y)
    for i, v in zip(sorted(range(len(x)), key=x.__getitem__), sorted(map(float, y))):
        out[i] = v  # the r-th smallest of y to the slot of the r-th smallest of x
    return tuple(out), euclidean_distance(x, out)


def normalize_real_pairs(pairs: list) -> list[tuple[RealVector, RealVector]]:
    """[(normalize_real(x, y)[0], normalize_real(y, x)[0]) for each pair (x, y)] from one
    stable argsort, which keeps `normalize_real`'s tie rule (-0.0 equals 0.0) and the floats' signs."""
    xy = stack_pairs(pairs, require_same_length, np.float64)
    ranks = xy.argsort(axis=2, kind="stable")
    moved = np.empty_like(xy)  # the r-th smallest of each row to the other row's r-th slot
    np.put_along_axis(moved, ranks, np.take_along_axis(xy, ranks, axis=2)[:, ::-1], axis=2)
    return [(tuple(y_star), tuple(x_star)) for y_star, x_star in moved.tolist()]


def normalize_discrete(x: SymbolVector, y: SymbolVector) -> tuple[SymbolVector, int]:
    """Rearrangement of y minimizing Hamming distance to x, by assignment on
    the 0/1 table with x's positions as rows and y's as columns. Among equally
    close ones `hungarian`'s wins: rows are inserted in ascending order and
    column ties go to the lowest index. Above `ASSIGNMENT_CAP` positions it
    raises before the table is built; at the cap one call took 18 s on
    labels 1..10 and 41-42 s on 2 or 1000 labels (one core of a 2-CPU machine)."""
    require_same_length(x, y)
    if len(x) > ASSIGNMENT_CAP:
        raise SizeCapError(f"assignment capped at n={ASSIGNMENT_CAP}, got n={len(x)}")
    cost = [[0 if xi == yj else 1 for yj in y] for xi in x]
    assign, total = hungarian(cost)
    y_star = tuple(y[assign[i] - 1] for i in range(len(x)))
    return y_star, int(total)


def quotient_euclidean(x: RealVector, y: RealVector) -> float:
    return normalize_real(x, y)[1]


def quotient_hamming(x: SymbolVector, y: SymbolVector) -> int:
    """Smallest Hamming distance from x to a rearrangement of y, by counting.

    A rearrangement can match each symbol s at most min(count_x(s),
    count_y(s)) times and some rearrangement matches them all, so this is
    `normalize_discrete`'s total without the assignment problem.
    """
    require_same_length(x, y)
    return len(x) - sum((Counter(x) & Counter(y)).values())


# Reductions run over sorted values so invariance under coordinate
# shuffles is exact, not merely up to float reassociation, and add left
# to right in `+=` loops, not `sum()` (see `circular.tour_length`).

def _sum_of_squares(x) -> float:
    total = 0.0
    for v in sorted(x):
        total += v * v
    return float(total)


def _product(x) -> float:
    out = 1.0
    for v in sorted(x):
        out *= v
    return float(out)


def _value_range(x) -> float:
    return float(max(x) - min(x))


def _sorted_poly(x) -> float:
    total = 0.0
    for i, v in enumerate(sorted(x), 1):
        total += i * v
    return float(total)


# Canonical symmetric test functions: invariant under any coordinate shuffle.
SYMMETRIC_FUNCTIONS = {
    "sum_of_squares": _sum_of_squares,
    "product": _product,
    "range": _value_range,
    "sorted_poly": _sorted_poly,
}
