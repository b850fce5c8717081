"""Independent reference implementations used as test oracles.

Everything here takes the dumb route (breadth-first search, exhaustive
enumeration, plain quadratic DP, matrix products) and shares no code
with the library paths it checks. The exceptions are
`normalize_real_assignment`, which checks sort-matching of real
vectors through the library's Hungarian solver instead of a sort, and
`trivial_action`, which builds the library's `GroupAction` record so
the orbit-enumeration oracles below can take any group action. And
`vectorized_hungarian` is no dumb route but the library's former
assignment solver, which pins the tie rule of the present one.
`adjacency` is no oracle but a validator: it checks that a matrix is a
simple undirected graph. `loop_random_adjacency`,
`loop_uniform_edge_crossover` and `loop_mutate_edges` are the former
per-cell library loops, kept to pin the rng draws of the node-pair forms
that replaced them. `loop_descend` and `loop_match_heuristic` are the
former heuristic graph matcher, which scored each swap neighbour with
its own `conjugate` and `matrix_hamming`; they pin the results and the
draws of the numpy scorer that replaced it. `generator_random_mask` is
the former per-scalar mask draw, kept the same way; it pins the coins,
the int type and the draws of the float32 draw that replaced it.
`generator_mask_crossover` is the former mask crossover, a generator
that compared each bit with the former mask constant `FIRST`, and
`numpy_index_mutate_symbols` is the former symbol mutation, which walked
numpy indices of the hit positions; they pin the children of the `map`
form and the draws of the Python-int index form that replaced them.
`comprehension_mutate_reals` and
`generator_line_crossover` are the former real-vector mutation, which
tested every coordinate, and the former line crossover, a generator that
recomputed 1 - lam per coordinate; they pin the draws and the bits,
signed zeros included, of the forms that replaced them.
`normalize_real_both` is the former per-pair sort-matching of a GA pair,
one stable Python sort of each vector's indices, the r-th smallest of
each vector moved to the slot of the r-th smallest of the other; it pins
the values, the tie rule and the signed zeros of the one stable numpy
argsort per generation that replaced it.
`two_call_crossover_operator` is the GA's former crossover loop, which
drew each pair's coin and then ran the single-offspring operator once per
order, normalizing each time; it pins the rng draws and the results of
the generation step that replaced it, which normalizes a generation's
pairs in one batch before the first coin. `per_cycle_coin_cycle_crossover` is the former cycle
crossover, one scalar coin draw per cycle, kept to pin the draws of the
sized draw that replaced it, and `coordinate_tour_length` is the former
tour length from coordinates, kept to pin the leg-table sum bit for bit.
`generator_hamming` and `cellwise_matrix_hamming` are the former Hamming
distances, a generator over zipped positions and one over the n^2 cells
by index. The former genotype samplers, which converted each drawn
element on its own, are `random_perm` and `random_symbols` (the test
data helpers, with the library's draws in their own argument order),
`generator_random_real_vector` and `generator_random_sequence`. They pin
the values, the element types and the draws of the C-level forms that
replaced them.
`scalar_tournament` is the GA's former selection, one scalar draw per
entrant, kept to pin the parents and the draws of the one sized draw per
generation that replaced it. `run_ga_scoring_every_offspring` is no
copy of the GA loop but `run_ga` itself with its evaluate phase swapped
for the former scoring, one fitness call per offspring; it pins the
results of the phase that gives an offspring equal to a parent of its
pair that parent's score, and it counts those offspring.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np
import pytest

from qgx import ga
from qgx.assignment import hungarian
from qgx.errors import DimensionError, InputError
from qgx.families import FAMILIES, MUTATION_SIGMA, Options
from qgx.ga import RunResult
from qgx.genotypes import RealVector, identity_permutation, random_permutation
from qgx.graphs import AdjacencyMatrix, conjugate, matrix_hamming
from qgx.quotient import GroupAction

FIRST = 0  # the former mask bit that copies a position from the first parent


def bfs_swap_distance(p: tuple, q: tuple) -> int:
    """Shortest path from p to q in the transposition graph."""
    if p == q:
        return 0
    n = len(p)
    moves = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = {p}
    frontier = deque([(p, 0)])
    while frontier:
        cur, dist = frontier.popleft()
        for i, j in moves:
            nxt = list(cur)
            nxt[i], nxt[j] = nxt[j], nxt[i]
            nxt = tuple(nxt)
            if nxt == q:
                return dist + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, dist + 1))
    raise AssertionError("transpositions connect all permutations")


def all_swap_distances_from(p: tuple) -> dict[tuple, int]:
    """BFS layering of the whole transposition graph from one start."""
    n = len(p)
    moves = [(i, j) for i in range(n) for j in range(i + 1, n)]
    dist = {p: 0}
    frontier = deque([p])
    while frontier:
        cur = frontier.popleft()
        for i, j in moves:
            nxt = list(cur)
            nxt[i], nxt[j] = nxt[j], nxt[i]
            nxt = tuple(nxt)
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                frontier.append(nxt)
    return dist


def trivial_action() -> GroupAction:
    """The one-element group; quotient concepts collapse to the base ones."""
    return GroupAction(
        name="trivial",
        elements=("e",),
        identity="e",
        apply=lambda g, x: x,
        compose=lambda g, h: "e",
        inverse=lambda g: "e",
    )


def normalize_by_enumeration(x, y, action: GroupAction, metric) -> tuple:
    """Closest point to x in the orbit of y, with its distance.

    Ties break to the lexicographically smallest candidate (tuples
    compare elementwise, nested tuples included), so the result does not
    depend on element enumeration order.
    """
    best = None
    best_d = None
    for g in action.elements:
        cand = action.apply(g, y)
        d = metric(x, cand)
        if best_d is None or d < best_d or (d == best_d and cand < best):
            best, best_d = cand, d
    return best, best_d


def quotient_distance(x, y, action: GroupAction, metric) -> float:
    """min over the orbit of y of metric(x, .) - the quotient metric."""
    return min(metric(x, action.apply(g, y)) for g in action.elements)


def scan_rotation(x: tuple, y: tuple, metric) -> tuple[int, float]:
    """(k, dist) over all n right rotations of y, each rebuilt by slicing.

    Only a strictly smaller distance replaces the best, so the smallest
    step wins ties.
    """
    n = len(x)
    best_k, best_d = 0, metric(x, tuple(y))
    for k in range(1, n):
        d = metric(x, tuple(y[n - k:]) + tuple(y[:n - k]))
        if d < best_d:
            best_k, best_d = k, d
    return best_k, best_d


def _hamming(a, b) -> int:
    return sum(x != y for x, y in zip(a, b))


def _euclidean(a, b) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5


def exhaustive_li_distance(a: tuple, b: tuple, k: int) -> int:
    """min over all k! relabelings sigma of Hamming(a, sigma applied to b)."""
    best = None
    for sigma in itertools.permutations(range(1, k + 1)):
        d = _hamming(a, tuple(sigma[v - 1] for v in b))
        best = d if best is None or d < best else best
    return best


def exhaustive_symmetric_real(x: tuple, y: tuple) -> float:
    """min Euclidean distance over all orderings of y."""
    return min(_euclidean(x, perm) for perm in itertools.permutations(y))


def exhaustive_symmetric_discrete(x: tuple, y: tuple) -> int:
    """min Hamming distance over all orderings of y."""
    return min(_hamming(x, perm) for perm in itertools.permutations(y))


def adjacency(rows) -> AdjacencyMatrix:
    """Validate and freeze a simple undirected adjacency matrix."""
    a = tuple(tuple(int(x) for x in row) for row in rows)
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise InputError("adjacency matrix must be square and non-empty")
    for i in range(n):
        if a[i][i] != 0:
            raise InputError(f"diagonal entry ({i + 1},{i + 1}) must be 0")
        for j in range(n):
            if a[i][j] not in (0, 1):
                raise InputError(f"entry ({i + 1},{j + 1}) must be 0 or 1")
            if a[i][j] != a[j][i]:
                raise InputError(f"matrix not symmetric at ({i + 1},{j + 1})")
    return a


def brute_graph_distance(a: tuple, b: tuple) -> int:
    """min over all relabelings via explicit permutation-matrix products."""
    mat_a = np.array(a)
    mat_b = np.array(b)
    n = len(a)
    best = None
    for sigma in itertools.permutations(range(n)):
        p = np.zeros((n, n), dtype=int)
        for i, s in enumerate(sigma):
            p[i, s] = 1
        d = int((p @ mat_b @ p.T != mat_a).sum())
        best = d if best is None or d < best else best
    return best


def loop_graph_match(a: tuple, b: tuple) -> tuple[int, tuple]:
    """The n!-loop graph matcher: (distance, 1-based relabeling of b).

    Permutations run in lexicographic order and only a strictly smaller
    distance replaces the best, so the first optimum wins ties.
    """
    n = len(a)
    best_d = None
    best_p = None
    for p in itertools.permutations(range(1, n + 1)):
        relabeled = tuple(tuple(b[p[i] - 1][p[j] - 1] for j in range(n)) for i in range(n))
        d = sum(_hamming(ra, rb) for ra, rb in zip(a, relabeled))
        if best_d is None or d < best_d:
            best_d, best_p = d, p
            if d == 0:
                break
    return best_d, best_p


def loop_descend(a: AdjacencyMatrix, b: AdjacencyMatrix, p: tuple) -> tuple[int, tuple]:
    """The former steepest descent over image transpositions of p, one
    `conjugate` and `matrix_hamming` per neighbour, swaps row by row."""
    n = len(a)
    cur = list(p)
    cur_d = matrix_hamming(a, conjugate(b, tuple(cur)))
    while True:
        best_d, best_swap = cur_d, None
        for i in range(n):
            for j in range(i + 1, n):
                cur[i], cur[j] = cur[j], cur[i]
                d = matrix_hamming(a, conjugate(b, tuple(cur)))
                cur[i], cur[j] = cur[j], cur[i]
                if d < best_d:
                    best_d, best_swap = d, (i, j)
        if best_swap is None:
            return cur_d, tuple(cur)
        i, j = best_swap
        cur[i], cur[j] = cur[j], cur[i]
        cur_d = best_d


def loop_match_heuristic(a: AdjacencyMatrix, b: AdjacencyMatrix, restarts: int, rng) -> tuple[int, tuple]:
    """The former heuristic matcher over `loop_descend`: identity first, one
    `random_permutation` per restart, lexicographic ties, stop at 0."""
    best_d, best_p = matrix_hamming(a, b), identity_permutation(len(a))
    for _ in range(max(restarts, 0)):
        d, p = loop_descend(a, b, random_permutation(len(a), rng))
        if d < best_d or (d == best_d and p < best_p):
            best_d, best_p = d, p
        if best_d == 0:
            break
    return best_d, best_p


def loop_random_adjacency(n: int, edge_prob: float, rng: np.random.Generator) -> AdjacencyMatrix:
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                grid[i][j] = grid[j][i] = 1
    return tuple(tuple(row) for row in grid)


def loop_uniform_edge_crossover(
    a: AdjacencyMatrix, b: AdjacencyMatrix, rng: np.random.Generator
) -> AdjacencyMatrix:
    """Uniform crossover per upper-triangle cell, mirrored for symmetry."""
    if len(a) != len(b):
        raise DimensionError(f"size mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    child = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bit = a[i][j] if rng.integers(0, 2) == FIRST else b[i][j]
            child[i][j] = child[j][i] = bit
    return tuple(tuple(row) for row in child)


def loop_mutate_edges(g, rate, rng, k, alphabet):
    """The graph family's edge-flip mutation, one draw per upper-triangle cell."""
    n = len(g)
    hits = rng.random(n * (n - 1) // 2) < rate
    out = [list(row) for row in g]
    cell = 0
    for i in range(n):
        for j in range(i + 1, n):
            if hits[cell]:
                out[i][j] = out[j][i] = 1 - out[i][j]
            cell += 1
    return tuple(tuple(row) for row in out)


def generator_random_mask(n: int, rng: np.random.Generator) -> tuple:
    return tuple(int(b) for b in rng.integers(0, 2, size=n))


def generator_mask_crossover(p1, p2, m) -> tuple:
    """The former mask crossover: p1's item where the bit is FIRST, else p2's."""
    return tuple(a if bit == FIRST else b for a, b, bit in zip(p1, p2, m))


def numpy_index_mutate_symbols(g, rate, rng, k, alphabet):
    """The former symbol mutation, over numpy indices of the hit positions."""
    if k is None or k < 2:
        return g
    hits = rng.random(len(g)) < rate
    out = list(g)
    for i in np.nonzero(hits)[0]:
        v = int(rng.integers(1, k))
        out[i] = v if v < out[i] else v + 1
    return tuple(out)


def comprehension_mutate_reals(g, rate, rng, k, alphabet):
    """The real family's former mutation, one test per coordinate."""
    hits = rng.random(len(g)) < rate
    steps = rng.normal(0.0, MUTATION_SIGMA, size=len(g))
    return tuple(v + float(steps[i]) if hits[i] else v for i, v in enumerate(g))


def generator_line_crossover(p1: tuple, p2: tuple, lam: float) -> tuple:
    """The former line crossover, 1 - lam computed per coordinate."""
    return tuple(lam * a + (1.0 - lam) * b for a, b in zip(p1, p2))


def normalize_real_both(x: RealVector, y: RealVector) -> tuple[RealVector, RealVector]:
    """(normalize_real(x, y)[0], normalize_real(y, x)[0]) from one sort of each vector."""
    y_star, x_star = [0.0] * len(y), [0.0] * len(x)
    for i, j in zip(sorted(range(len(x)), key=x.__getitem__), sorted(range(len(y)), key=y.__getitem__)):
        y_star[i], x_star[j] = y[j], x[i]
    return tuple(y_star), tuple(x_star)


def two_call_crossover_operator(problem, mode: str):
    """(parents, rate, rng) -> the offspring: per pair (p1, p2) in order,
    one coin `rng.random() < rate`, then xover(p1, p2) and xover(p2, p1)
    when crossed, with xover the family's raw crossover or its
    single-offspring quotient crossover; p1 and p2 when not."""
    family = FAMILIES[problem.family]
    xover = family.crossover
    if mode == "quotient":
        xover = family.quotient_crossover(Options(k=problem.k))

    def loop(parents, rate, rng):
        offspring = []
        for p1, p2 in zip(parents[::2], parents[1::2]):
            crossed = rng.random() < rate
            offspring.extend((xover(p1, p2, rng), xover(p2, p1, rng)) if crossed else (p1, p2))
        return offspring

    return loop


def scalar_tournament(fitness: list[float], size: int, rng: np.random.Generator) -> int:
    """Index of the first of `size` entrants, drawn one at a time, with
    the strictly smallest fitness."""
    best = None
    for _ in range(size):
        i = int(rng.integers(0, len(fitness)))
        if best is None or fitness[i] < fitness[best]:
            best = i
    return best


def run_ga_scoring_every_offspring(problem, config) -> tuple[RunResult, int]:
    """`run_ga` with its evaluate phase swapped for one fitness call per
    offspring, and the number of offspring equal to a parent of their own pair."""
    repeats = 0

    def score_every(offspring, parents, known, fitness):
        nonlocal repeats
        repeats += sum(c == parents[q] or c == parents[q ^ 1] for q, c in enumerate(offspring))
        return [fitness(c) for c in offspring]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ga, "evaluate", score_every)
        return ga.run_ga(problem, config), repeats


def normalize_real_assignment(x: tuple, y: tuple) -> tuple[tuple, float]:
    """Rearrangement of y closest to x through the assignment route.

    Cost of putting y_j at slot i is (x_i - y_j)^2; minimizing the sum of
    squares minimizes the Euclidean distance.
    """
    cost = [[(xi - yj) ** 2 for yj in y] for xi in x]
    assign, _ = hungarian(cost)
    y_star = tuple(y[assign[i] - 1] for i in range(len(x)))
    return y_star, _euclidean(x, y_star)


def brute_assignment(cost) -> float:
    """Exhaustive minimum assignment cost."""
    n = len(cost)
    return min(
        sum(cost[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def minimum_assignments(cost) -> list[tuple]:
    """Every assignment (rows -> columns, 1-based) of exhaustively minimum cost."""
    n = len(cost)
    totals = {
        tuple(j + 1 for j in perm): sum(cost[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    }
    low = min(totals.values())
    return [perm for perm, total in totals.items() if total == low]


def vectorized_hungarian(cost) -> tuple[tuple, float]:
    """The numpy-vectorized Hungarian solver the library used before its
    plain-loop one, kept as the reference for the tie rule: rows go in
    ascending order, `minv` improves only on a strict `<`, and `delta`
    takes the first minimum over the free columns. Input is not
    validated."""
    a = np.asarray(cost, dtype=float)
    n = a.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_row = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    cols = np.arange(1, n + 1)
    for i in range(1, n + 1):
        match_row[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            free = ~used[1:]
            cur = a[i0 - 1, :] - u[i0] - v[1:]
            improved = np.nonzero(free & (cur < minv[1:]))[0]
            minv[improved + 1] = cur[improved]
            way[improved + 1] = j0
            free_j = cols[free]
            j1 = int(free_j[np.argmin(minv[free_j])])
            delta = minv[j1]
            used_j = np.nonzero(used)[0]
            u[match_row[used_j]] += delta
            v[used_j] -= delta
            minv[free_j] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            match_row[j0] = match_row[j1]
            j0 = j1
    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[match_row[j] - 1] = j
    total = float(sum(a[i, assignment[i] - 1] for i in range(n)))
    return tuple(assignment), total


def dp_edit_table(s: str, t: str) -> list[list[int]]:
    """Plain quadratic edit table, no vectorization: dp[i][j] is the
    distance between s[:i] and t[:j]."""
    m, n = len(s), len(t)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dp[i][0] = i
    for j in range(n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        row, above = dp[i], dp[i - 1]
        si = s[i - 1]
        for j in range(1, n + 1):
            row[j] = min(
                above[j - 1] + (si != t[j - 1]),
                above[j] + 1,
                row[j - 1] + 1,
            )
    return dp


def dp_edit_distance(s: str, t: str) -> int:
    return dp_edit_table(s, t)[len(s)][len(t)]


def dp_optimal_align(s: str, t: str) -> tuple[str, str]:
    """Backtrace over the full table; ties resolve match > substitute >
    delete > insert, scanning from the end."""
    dp = dp_edit_table(s, t)
    left: list[str] = []
    right: list[str] = []
    i, j = len(s), len(t)
    while i > 0 or j > 0:
        here = dp[i][j]
        if i > 0 and j > 0 and s[i - 1] == t[j - 1] and dp[i - 1][j - 1] == here:
            i, j = i - 1, j - 1
            left.append(s[i])
            right.append(t[j])
        elif i > 0 and j > 0 and dp[i - 1][j - 1] + 1 == here:
            i, j = i - 1, j - 1
            left.append(s[i])
            right.append(t[j])
        elif i > 0 and dp[i - 1][j] + 1 == here:
            i -= 1
            left.append(s[i])
            right.append("-")
        else:
            j -= 1
            left.append("-")
            right.append(t[j])
    return "".join(reversed(left)), "".join(reversed(right))


def position_cycles(p1: tuple, p2: tuple) -> list[list[int]]:
    """The cycles of positions i -> (where p1 holds p2[i]), by smallest start."""
    n = len(p1)
    where_p1 = {v: i for i, v in enumerate(p1)}
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = where_p1[p2[i]]
        cycles.append(cycle)
    return cycles


def enumerate_cycle_offspring(p1: tuple, p2: tuple) -> set[tuple]:
    """All cycle-crossover offspring over every per-cycle coin outcome."""
    cycles = position_cycles(p1, p2)
    offspring = set()
    for coins in itertools.product((0, 1), repeat=len(cycles)):
        child = list(p1)
        for coin, cycle in zip(coins, cycles):
            if coin:
                for i in cycle:
                    child[i] = p2[i]
        offspring.add(tuple(child))
    return offspring


def per_cycle_coin_cycle_crossover(p1: tuple, p2: tuple, rng: np.random.Generator) -> tuple:
    """Cycle crossover with one scalar coin draw per cycle, in cycle order."""
    child = list(p1)
    for cycle in position_cycles(p1, p2):
        if rng.integers(0, 2) == 1:
            for i in cycle:
                child[i] = p2[i]
    return tuple(child)


def coordinate_tour_length(tour: tuple, cities) -> float:
    """Cyclic Euclidean tour length computed leg by leg from the coordinates."""
    total = 0.0
    for i in range(len(tour)):
        ax, ay = cities[tour[i] - 1]
        bx, by = cities[tour[(i + 1) % len(tour)] - 1]
        total += ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5
    return total


def random_symbols(rng: np.random.Generator, n: int, k: int) -> tuple:
    return tuple(int(v) for v in rng.integers(1, k + 1, size=n))


def random_perm(rng: np.random.Generator, n: int) -> tuple:
    return tuple(int(v) + 1 for v in rng.permutation(n))


def random_string(rng: np.random.Generator, max_len: int, alphabet: str = "acgt") -> str:
    n = int(rng.integers(0, max_len + 1))
    return "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=n))


def generator_hamming(a, b) -> int:
    """Positions where a and b differ, one generator step per position (lengths checked by the caller)."""
    return sum(x != y for x, y in zip(a, b))


def cellwise_matrix_hamming(a: AdjacencyMatrix, b: AdjacencyMatrix) -> int:
    """Cells where two n x n matrices differ, read cell by cell by index."""
    return sum(ra[j] != rb[j] for ra, rb in zip(a, b) for j in range(len(a)))


def generator_random_real_vector(
    n: int, rng: np.random.Generator, low: float = -5.0, high: float = 5.0
) -> tuple:
    return tuple(float(v) for v in rng.uniform(low, high, size=n))


def generator_random_sequence(max_len: int, alphabet: str, rng: np.random.Generator) -> str:
    n = int(rng.integers(1, max_len + 1))
    return "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=n))
