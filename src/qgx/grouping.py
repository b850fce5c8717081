"""Group-label encodings under alphabet relabeling.

A k-ary vector assigns one of k interchangeable labels per item, so k!
encodings describe the same grouping. Relabeling by any permutation of
the alphabet is a Hamming isometry, and the induced quotient distance is
the labeling-independent distance: the smallest Hamming distance over
all relabelings of the second vector. Finding the optimal relabeling is
an assignment problem on the k x k label co-occurrence table, which
`li_normalize` and `li_distance` solve by Hungarian in O(k^3).

`li_normalize_both` serves both orders of a GA pair from one table. Up
to `SCAN_K` labels it scores all k! relabelings on that table. A strict
minimum is the unique optimum, the one Hungarian or any exact solver
returns, and its inverse is the unique optimum of the transpose, the
table of (b, a). On a tie, and always above `SCAN_K`, each order runs
Hungarian on its own table: its tie rule on the transpose need not
invert its choice on the table. The single-order calls skip the scan: at
the verify suites' size (n=6, k=4) only about a third of the tables have
a unique optimum.
"""

from __future__ import annotations

import functools

import numpy as np

from .assignment import hungarian
from .errors import InputError
from .genotypes import Permutation, SymbolVector, check_symbols, compose_permutations, invert_permutation
from .metrics import require_same_length
from .quotient import GroupAction, permutation_group, permutation_table

MAX_K = 100  # each pair builds a k x k table, and Hungarian on it is O(k^3)
# Scoring the k! relabelings (timeit, 2 CPUs): 10 us at k=4 against 17-22 us for
# one Hungarian, 23 against 28-37 us at k=5, 104 against 38 us at k=6.
SCAN_K = 4  # the largest k of the configs and the bench, where GA pairs gained


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


@functools.cache
def _scan_table(k: int) -> tuple[np.ndarray, tuple[Permutation, ...]]:
    """S_k: each relabeling's k cells in the flattened k x k table, and the relabelings, 1-based."""
    p = permutation_table(k)
    return p + np.arange(0, k * k, k), tuple(map(tuple, (p + 1).tolist()))


def _unique_optimum(cost: list[list[int]]) -> Permutation | None:
    """The relabeling of least total cost when no other one ties it, else None."""
    cells, relabelings = _scan_table(len(cost))
    scores = np.ravel(cost)[cells].sum(axis=1).tolist()
    low = min(scores)
    return relabelings[scores.index(low)] if scores.count(low) == 1 else None


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
    """(li_normalize(a, b, k), li_normalize(b, a, k)) from one cost table
    by the module's rule; k = 0 reaches Hungarian, which rejects it."""
    _check_pair(a, b, k)
    cost = _cost_table(a, b, k)
    sigma = _unique_optimum(cost) if 0 < k <= SCAN_K else None
    if sigma is None:
        sigma, tau = hungarian(cost)[0], hungarian(list(zip(*cost)))[0]
    else:
        tau = invert_permutation(sigma)
    return tuple([sigma[x - 1] for x in b]), tuple([tau[x - 1] for x in a])
