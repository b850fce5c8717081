"""Minimum-cost perfect matching (Hungarian algorithm).

Augmenting-path variant with row/column potentials, O(n^3), in plain
loops: grouping solves k x k (k = 3-4 in configs, goldens, ga-partition),
symmetric-discrete n x n (n = 5 in suites, 8 in the golden GA, 200 in the
acceptance floor). Rows go in ascending order, `minv` improves only on a
strictly smaller value and column ties go to the lowest index, so
equal-cost optima are reproducible - normalizers downstream rely on that.
"""

from __future__ import annotations

from math import inf, isfinite

from .errors import InputError
from .genotypes import Permutation


def hungarian(cost) -> tuple[Permutation, float]:
    """Solve min-cost assignment; returns (rows->columns 1-based, total cost).

    Entries may be negative (agreement maximization negates its matrix).
    """
    try:
        a = [[float(c) for c in row] for row in cost]
        square = len(a) > 0 and all(len(row) == len(a) for row in a)
    except TypeError:
        square = False
    if not square:
        raise InputError("cost matrix must be a square, non-empty table of numbers")
    if not all(isfinite(c) for row in a for c in row):
        raise InputError("cost matrix entries must be finite")
    n = len(a)

    u, v = [0.0] * (n + 1), [0.0] * (n + 1)
    match_row = [0] * (n + 1)  # row currently matched to column j
    way = [0] * (n + 1)        # predecessor column on the alternating path
    for i in range(1, n + 1):
        match_row[0], j0 = i, 0
        minv, used = [inf] * (n + 1), [False] * (n + 1)
        while match_row[j0]:  # until the path reaches a free column
            used[j0] = True
            i0 = match_row[j0]
            row, ui = a[i0 - 1], u[i0]
            delta, j1 = inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            if j1 == 0:  # every reduced cost overflowed to inf or nan
                raise InputError("cost matrix entries too large to solve in floating point")
            for j in range(n + 1):
                if used[j]:
                    u[match_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:  # flip the alternating path back to column 0
            match_row[j0], j0 = match_row[way[j0]], way[j0]

    assignment = tuple(sorted(range(1, n + 1), key=match_row.__getitem__))
    total = 0.0
    for i, j in enumerate(assignment):
        total += a[i][j - 1]
    return assignment, total
