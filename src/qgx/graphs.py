"""Labeled graphs as adjacency matrices under node relabeling.

The same unlabeled graph has up to n! adjacency matrices, one per node
labeling; relabeling is conjugation by a permutation matrix and is an
isometry of the cellwise Hamming distance (all n^2 cells counted, so a
symmetric edge difference contributes twice). The quotient distance is
graph matching: the relabeling of the second graph closest to the first.
One numpy scorer, `_mismatches`, counts each labeling's mismatched cells:
over all n! labelings of a cached table up to `EXACT_MATCH_CAP` nodes, and
beyond it, up to `HEURISTIC_MATCH_CAP`, over the swap neighbours of each
step of a restarted hill climber, whose upper bound must not be trusted
for segment guarantees.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, NamedTuple

import numpy as np

from . import crossovers
from .errors import DimensionError, InputError, SizeCapError, check_count
from .genotypes import (
    Permutation,
    compose_permutations,
    identity_permutation,
    random_permutation,
)
from .quotient import GroupAction, permutation_group, permutation_table

AdjacencyMatrix = tuple[tuple[int, ...], ...]

EXACT_MATCH_CAP = 8
HEURISTIC_MATCH_CAP = 64  # a descent step scores n(n-1)/2 x n^2 int8 cells, 8 MB at 64
MAX_NODES = 2000  # graphs and problem instances hold n x n tables; 1000 TSP cities take 32 MB
MAX_RESTARTS = 1000  # cap on outside input; the default is 20


@functools.cache
def node_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The node pairs (u, v), u < v, 1-based, row by row: every edge walk's order."""
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


def adjacency_from_edges(n: int, edges) -> AdjacencyMatrix:
    """The simple graph on nodes 1..n with these edges; the one n x n grid build."""
    if n < 1:
        raise InputError(f"a graph needs at least one node, got n={n}")
    if n > MAX_NODES:
        raise InputError(f"a graph may have at most {MAX_NODES} nodes, got n={n}")
    grid = [[0] * n for _ in range(n)]
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise InputError(f"bad edge ({u},{v}) for n={n}")
        if grid[u - 1][v - 1]:
            raise InputError(f"repeated edge ({u},{v})")
        grid[u - 1][v - 1] = grid[v - 1][u - 1] = 1
    return tuple(tuple(row) for row in grid)


def edges_of(a: AdjacencyMatrix) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u, v in node_pairs(len(a)) if a[u - 1][v - 1])


def parse_edge_list(text: str) -> AdjacencyMatrix:
    """Parse the edge-list format: "n m" header, then exactly m lines "u v" (1-based)."""
    lines = [(i, ln) for i, ln in enumerate((s.strip() for s in text.splitlines()), 1) if ln]
    if not lines:
        raise InputError("empty edge list")
    pairs = []
    for i, line in lines:
        try:
            u, v = (int(x) for x in line.split())
        except ValueError as exc:
            what = 'edge "u v"' if pairs else 'header "n m"'
            raise InputError(f"edge list line {i}: {what} is not two integers: {line!r}") from exc
        pairs.append((u, v))
    (n, m), edges = pairs[0], pairs[1:]
    if len(edges) != m:
        raise InputError(f"edge list announces {m} edges, found {len(edges)}")
    return adjacency_from_edges(n, edges)


def format_edge_list(a: AdjacencyMatrix) -> str:
    edges = edges_of(a)
    lines = [f"{len(a)} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines)


def matrix_hamming(a: AdjacencyMatrix, b: AdjacencyMatrix) -> int:
    """Cellwise Hamming distance over all n^2 cells. Every `AdjacencyMatrix` is n x n
    (`adjacency_from_edges` builds it), so equal row counts flatten alike."""
    if len(a) != len(b):
        raise DimensionError(f"size mismatch: {len(a)} vs {len(b)}")
    return sum(map(operator.ne, itertools.chain.from_iterable(a), itertools.chain.from_iterable(b)))


def conjugate(a: AdjacencyMatrix, p: Permutation) -> AdjacencyMatrix:
    """Relabel nodes: cell (i,j) of the result reads a at (p(i), p(j))."""
    if len(a) != len(p):
        raise DimensionError(f"size mismatch: matrix {len(a)}, permutation {len(p)}")
    return tuple(
        tuple(a[p[i] - 1][p[j] - 1] for j in range(len(a))) for i in range(len(a))
    )


def conjugation_action(n: int) -> GroupAction:
    """All n! node relabelings by `conjugate`; compose reversed (`permutation_group`)."""
    return permutation_group(
        f"conjugation(n={n})",
        n,
        lambda g, a: conjugate(a, g),
        lambda g, h: compose_permutations(h, g),
    )


class MatchResult(NamedTuple):
    dist: int
    permutation: Permutation


def _mismatches(a_cells: np.ndarray, b_cells: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """The cellwise Hamming distance of a against b relabeled by each
    0-based row of perms: the one score of exact and heuristic matching."""
    return (b_cells[perms[:, :, None], perms[:, None, :]] != a_cells).sum(axis=(1, 2))


def _cells(a: AdjacencyMatrix, b: AdjacencyMatrix, cap: int, kind: str) -> np.ndarray:
    """a and b stacked as 2 x n x n int8 cells, once they share one size n <= cap."""
    if len(a) != len(b):
        raise DimensionError(f"size mismatch: {len(a)} vs {len(b)}")
    if len(a) > cap:
        raise SizeCapError(f"{kind} matching capped at n={cap}, got n={len(a)}")
    return np.array((a, b), dtype=np.int8).reshape(2, len(a), len(a))


def quotient_distance_exact(a: AdjacencyMatrix, b: AdjacencyMatrix) -> MatchResult:
    """Exhaustive minimum of H(a, relabeled b) over all n! labelings;
    first optimum in lexicographic permutation order wins ties."""
    a_cells, b_cells = _cells(a, b, EXACT_MATCH_CAP, "exact")
    p = permutation_table(len(a))
    dists = _mismatches(a_cells, b_cells, p)
    best = int(dists.argmin())  # argmin keeps the first minimum
    return MatchResult(int(dists[best]), tuple(int(v) + 1 for v in p[best]))


def _descend(a_cells: np.ndarray, b_cells: np.ndarray, cur: np.ndarray) -> tuple[int, Permutation]:
    """Steepest descent from the 0-based labeling cur, returned 1-based: each
    step scores the n(n-1)/2 image swaps (i, j), i < j, row by row, and moves to
    the first at the smallest count while that count is below the current one."""
    i, j = np.triu_indices(len(cur), 1)
    swaps = np.tile(np.arange(len(cur)), (len(i), 1))  # row r: the transposition of i[r] and j[r]
    swaps[np.arange(len(i)), i], swaps[np.arange(len(i)), j] = j, i
    cur_d = int(_mismatches(a_cells, b_cells, cur[None])[0])
    while len(swaps):
        dists = _mismatches(a_cells, b_cells, cur[swaps])
        best = int(dists.argmin())
        if dists[best] >= cur_d:
            break
        cur, cur_d = cur[swaps[best]], int(dists[best])
    return cur_d, tuple((cur + 1).tolist())


def match_heuristic(
    a: AdjacencyMatrix,
    b: AdjacencyMatrix,
    restarts: int,
    rng: np.random.Generator,
) -> MatchResult:
    """Hill climbing from random labelings; upper-bounds the true distance.

    The identity labeling is scored first; a restart's result replaces the
    best at a strictly lower distance, or at an equal one when its
    permutation is lexicographically smaller. For a fixed rng seed, extra
    restarts only extend the start sequence, so the best never worsens.
    Restarts outside [1, `MAX_RESTARTS`] or n > `HEURISTIC_MATCH_CAP` raise before any draw.
    """
    check_count("restarts", restarts, 1, MAX_RESTARTS)
    a_cells, b_cells = _cells(a, b, HEURISTIC_MATCH_CAP, "heuristic")
    best_d, best_p = matrix_hamming(a, b), identity_permutation(len(a))
    for _ in range(restarts):
        d, p = _descend(a_cells, b_cells, np.array(random_permutation(len(a), rng)) - 1)
        if d < best_d or (d == best_d and p < best_p):
            best_d, best_p = d, p
        if best_d == 0:
            break
    return MatchResult(best_d, best_p)


def uniform_edge_crossover(
    a: AdjacencyMatrix, b: AdjacencyMatrix, rng: np.random.Generator
) -> AdjacencyMatrix:
    """Mask crossover on the parents' edge bits at `node_pairs`, with one
    `crossovers.random_mask` draw: a fair coin per node pair.

    Recombines the matrices as given: raw mode passes the parents
    unmatched, quotient mode passes the second parent matched to the
    first.
    """
    if len(a) != len(b):
        raise DimensionError(f"size mismatch: {len(a)} vs {len(b)}")
    pairs = node_pairs(len(a))
    bits_a, bits_b = ([g[u - 1][v - 1] for u, v in pairs] for g in (a, b))
    bits = crossovers.mask_crossover(bits_a, bits_b, crossovers.random_mask(len(pairs), rng))
    return adjacency_from_edges(len(a), itertools.compress(pairs, bits))


def random_adjacency(n: int, edge_prob: float, rng: np.random.Generator) -> AdjacencyMatrix:
    """One `rng.random` draw per node pair, an edge where it is < edge_prob; n < 1 raises."""
    pairs = node_pairs(n)
    return adjacency_from_edges(n, itertools.compress(pairs, rng.random(len(pairs)) < edge_prob))


def make_quotient_hamming() -> Callable[[AdjacencyMatrix, AdjacencyMatrix], int]:
    """The exact quotient distance as a plain metric on two matrices."""
    return lambda a, b: quotient_distance_exact(a, b).dist
