"""Group-label encodings under alphabet relabeling.

A k-ary vector assigns one of k interchangeable labels per item, so k!
encodings describe the same grouping. Relabeling by any permutation of
the alphabet is a Hamming isometry, and the induced quotient distance is
the labeling-independent distance: the smallest Hamming distance over
all relabelings of the second vector. Finding the optimal relabeling is
an assignment problem on the k x k label co-occurrence table, which
`li_normalize` and `li_distance` solve by Hungarian in O(k^3).

`li_normalize_pairs` serves both orders of a generation's GA pairs from
one count that builds every pair's table, and up to `SCAN_K` labels one
scan of all k! relabelings of every table. A strict minimum is the unique
optimum, the one any exact solver returns, and its inverse that of the
transpose, the table of (b, a). A tie, or k above `SCAN_K`, runs Hungarian
on each order's table: its tie rule on the transpose need not invert its
choice. The single-order calls skip the scan: at the verify suites' size
(n=6, k=4) only about a third of the tables have a unique optimum.
"""

from __future__ import annotations

import functools

import numpy as np

from .assignment import hungarian
from .errors import InputError
from .genotypes import Permutation, SymbolVector, check_symbols, compose_permutations, stack_pairs
from .metrics import require_same_length
from .quotient import GroupAction, permutation_group, permutation_table

MAX_K = 100  # each pair builds a k x k table, and Hungarian on it is O(k^3)
# Scoring the k! relabelings of a 15-pair batch (timeit, 2 CPUs): 1.1 us a table at k=4,
# 4.0 at k=5 and 24 at k=6, against 17, 39 and 46 us for one Hungarian on one table.
SCAN_K = 4  # the largest k of the configs and the bench, where GA pairs gained


def relabel(a: SymbolVector, sigma: Permutation) -> SymbolVector:
    """Send every symbol through the alphabet permutation sigma."""
    check_symbols(a, len(sigma))
    return tuple(sigma[x - 1] for x in a)


def relabeling_action(k: int) -> GroupAction:
    """All k! alphabet relabelings by `relabel`; functional compose (`permutation_group`)."""
    return permutation_group(f"relabel(k={k})", k, lambda g, a: relabel(a, g), compose_permutations)


def _check_pair(a: SymbolVector, b: SymbolVector, k: int) -> None:
    if not isinstance(k, (int, np.integer)):
        raise InputError(f"alphabet size k must be an integer, got {k!r}")
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
def _scan_table(k: int) -> tuple[np.ndarray, np.ndarray]:
    """S_k: each relabeling's k cells in the flattened k x k table, and the relabelings, 1-based."""
    p = permutation_table(k)
    return p + np.arange(0, k * k, k), p + 1


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


def li_normalize_pairs(pairs: list, k: int) -> list[tuple[SymbolVector, SymbolVector]]:
    """(li_normalize(a, b, k), li_normalize(b, a, k)) for each pair (a, b)
    of one length, by the module's rule. A bad pair raises what
    `_check_pair` raises; k = 0 reaches Hungarian, which rejects it."""
    _check_pair((), (), k)  # k alone, before any k x k table
    ab = stack_pairs(pairs, require_same_length)
    if ab.size and (ab.min() < 1 or ab.max() > k):
        check_symbols(ab.ravel().tolist(), k)  # names the first bad symbol, in pair order
    count, k = len(pairs), max(k, 0)
    codes = (ab[:, 1] - 1) * k + ab[:, 0] - 1 + (np.arange(count) * k * k)[:, None]
    agree = np.bincount(codes.ravel(), minlength=count * k * k).reshape(count, k, k)
    sigma, tied = np.zeros((count, k), np.intp), range(count)
    if 0 < k <= SCAN_K:
        cells, relabelings = _scan_table(k)
        scores = agree.reshape(count, k * k)[:, cells].sum(axis=2)
        sigma = relabelings[scores.argmax(axis=1)]
        tied = ((scores == scores.max(axis=1, keepdims=True)).sum(axis=1) > 1).nonzero()[0].tolist()
    tau = sigma.argsort(axis=1) + 1
    for p in tied:
        sigma[p], tau[p] = hungarian((-agree[p]).tolist())[0], hungarian((-agree[p].T).tolist())[0]
    moved = np.take_along_axis(np.stack([sigma, tau], axis=1), ab[:, ::-1] - 1, axis=2)  # sigma(b), tau(a)
    return [(tuple(b_star), tuple(a_star)) for b_star, a_star in moved.tolist()]
