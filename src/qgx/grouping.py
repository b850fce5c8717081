"""Group-label encodings under alphabet relabeling.

A k-ary vector assigns one of k interchangeable labels per item, so k!
encodings describe the same grouping. Relabeling by any permutation of
the alphabet is a Hamming isometry, and the induced quotient distance is
the labeling-independent distance: the smallest Hamming distance over
all relabelings of the second vector. Finding the optimal relabeling is
an assignment problem on the k x k label co-occurrence matrix, solved in
O(k^3) instead of enumerating k! candidates.

`li_normalize_both` serves both orders of a GA pair from one table and
runs Hungarian only when a cheap certificate fails: if every b-label row
of the table has a strict maximum and those columns are distinct, that
relabeling is the unique optimum. Any exact solver returns a unique
optimum, so skipping Hungarian keeps its tie rule, which decides only
among tied optima. A unique optimum for (a, b) inverts to the unique
optimum for (b, a); without a certificate on the table or its
transpose, each order runs Hungarian on its own table. The single-order
`li_normalize` and `li_distance` always run Hungarian: at the verify
suites' size (n=6, k=4) about one random table in 120 certifies, so
there the check would mostly be extra work.
"""

from __future__ import annotations

from .assignment import hungarian
from .errors import InputError
from .genotypes import Permutation, SymbolVector, check_symbols, compose_permutations, invert_permutation
from .metrics import require_same_length
from .quotient import GroupAction, permutation_group

MAX_K = 100  # each pair builds a k x k table, and Hungarian on it is O(k^3)


def relabel(a: SymbolVector, sigma: Permutation) -> SymbolVector:
    """Send every symbol through the alphabet permutation sigma."""
    check_symbols(a, len(sigma))
    return tuple(sigma[x - 1] for x in a)


def relabeling_action(k: int) -> GroupAction:
    """All k! alphabet relabelings by `relabel`; functional compose (`permutation_group`)."""
    return permutation_group(f"relabel(k={k})", k, lambda g, a: relabel(a, g), compose_permutations)


def _check_pair(a: SymbolVector, b: SymbolVector, k: int) -> None:
    if k > MAX_K:
        raise InputError(f"alphabet size k must be at most {MAX_K}, got {k}")
    require_same_length(a, b)
    check_symbols(a, k)
    check_symbols(b, k)


def _cost_table(a: SymbolVector, b: SymbolVector, k: int) -> list[list[int]]:
    """cost[j][i]: minus the positions where b holds label j+1 and a holds i+1,
    so the relabeling of b that agrees most with a is a min-cost assignment."""
    cost = [[0] * k for _ in range(k)]
    for ai, bi in zip(a, b):
        cost[bi - 1][ai - 1] -= 1
    return cost


def _certified(cost: list[list[int]]) -> Permutation | None:
    """The assignment taking each row to its strict minimum, when those
    columns are all distinct, else None. No assignment costs less than the
    sum of the row minima and only this one reaches it, so it is the
    unique optimum, the one Hungarian or any exact solver returns."""
    sigma = []
    for row in cost:
        low = min(row)
        if row.count(low) > 1:
            return None
        sigma.append(row.index(low) + 1)
    return tuple(sigma) if len(set(sigma)) == len(sigma) else None


def li_distance(a: SymbolVector, b: SymbolVector, k: int) -> int:
    """Labeling-independent distance: min Hamming over relabelings of b."""
    _check_pair(a, b, k)
    return len(a) + int(hungarian(_cost_table(a, b, k))[1])


def li_normalize(a: SymbolVector, b: SymbolVector, k: int) -> SymbolVector:
    """Relabel b to agree with a as much as possible."""
    _check_pair(a, b, k)
    sigma = hungarian(_cost_table(a, b, k))[0]
    # b's symbols were range-checked by _check_pair, so skip relabel's check
    return tuple([sigma[x - 1] for x in b])


def li_normalize_both(a: SymbolVector, b: SymbolVector, k: int) -> tuple[SymbolVector, SymbolVector]:
    """(li_normalize(a, b, k), li_normalize(b, a, k)) from one cost table,
    whose transpose is the table of (b, a).

    A certificate on either table serves both orders. Without one, each
    order runs Hungarian on its own table: with ties, its choice on the
    transpose need not invert its choice on the table.
    """
    _check_pair(a, b, k)
    cost = _cost_table(a, b, k)
    sigma = _certified(cost)
    if sigma:  # k = 0 gives (); Hungarian rejects its empty table, as in li_normalize
        tau = invert_permutation(sigma)
    else:
        transpose = list(zip(*cost))
        tau = _certified(transpose)
        if tau:
            sigma = invert_permutation(tau)
        else:
            sigma, tau = hungarian(cost)[0], hungarian(transpose)[0]
    return tuple([sigma[x - 1] for x in b]), tuple([tau[x - 1] for x in a])
