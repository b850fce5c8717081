"""Group-label encodings under alphabet relabeling.

A k-ary vector assigns one of k interchangeable labels per item, so k!
encodings describe the same grouping. Relabeling by any permutation of
the alphabet is a Hamming isometry, and the induced quotient distance is
the labeling-independent distance: the smallest Hamming distance over
all relabelings of the second vector. Finding the optimal relabeling is
an assignment problem on the k x k label co-occurrence matrix, solved in
O(k^3) instead of enumerating k! candidates.
"""

from __future__ import annotations

from .assignment import hungarian
from .genotypes import Permutation, SymbolVector, check_symbols, compose_permutations
from .metrics import require_same_length
from .quotient import GroupAction, permutation_group


def relabel(a: SymbolVector, sigma: Permutation) -> SymbolVector:
    """Send every symbol through the alphabet permutation sigma."""
    check_symbols(a, len(sigma))
    return tuple(sigma[x - 1] for x in a)


def relabeling_action(k: int) -> GroupAction:
    """All k! alphabet relabelings by `relabel`; functional compose (`permutation_group`)."""
    return permutation_group(f"relabel(k={k})", k, lambda g, a: relabel(a, g), compose_permutations)


def _check_pair(a: SymbolVector, b: SymbolVector, k: int) -> None:
    require_same_length(a, b)
    check_symbols(a, k)
    check_symbols(b, k)


def _best_relabeling(a: SymbolVector, b: SymbolVector, k: int) -> tuple[Permutation, int]:
    """Relabeling of b maximizing positionwise agreement with a.

    Assigning b-label j to a-label i earns one agreement per position
    where b holds j and a holds i; neg[j][i] is minus that count, so the
    max-agreement relabeling is a min-cost assignment on neg.
    """
    neg = [[0] * k for _ in range(k)]
    for ai, bi in zip(a, b):
        neg[bi - 1][ai - 1] -= 1
    sigma, neg_agree = hungarian(neg)
    return sigma, len(a) + int(neg_agree)


def li_distance(a: SymbolVector, b: SymbolVector, k: int) -> int:
    """Labeling-independent distance: min Hamming over relabelings of b."""
    _check_pair(a, b, k)
    _, dist = _best_relabeling(a, b, k)
    return dist


def li_normalize(a: SymbolVector, b: SymbolVector, k: int) -> SymbolVector:
    """Relabel b to agree with a as much as possible."""
    _check_pair(a, b, k)
    sigma, _ = _best_relabeling(a, b, k)
    # b's symbols were range-checked by _check_pair, so skip relabel's check
    return tuple([sigma[x - 1] for x in b])
