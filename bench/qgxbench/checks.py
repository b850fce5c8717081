"""Independent checks of qgx outputs.

Every reference here is computed from the inputs with code of the
benchmark's own (numpy or plain loops), never by calling back into the
function under test. Each `check_*` function returns a list of error
messages; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np

GAP = "-"
REAL_TOL = 1e-9

_REPORT_LINE = re.compile(
    r"^(?P<suite>.+): (?P<status>ok|FAIL) \((?P<checks>\d+) checks, (?P<violations>\d+) violations\)$"
)


# ---------------------------------------------------------------- instances

def partition_edges(nodes: int, edge_prob: float, instance_seed: int) -> np.ndarray:
    """Edge list (0-based pairs) of the partitioning instance.

    The instance draws one uniform number per upper-triangle cell in
    row-major order and keeps the cell when the draw is below edge_prob.
    """
    draws = np.random.default_rng(instance_seed).random(nodes * (nodes - 1) // 2)
    rows, cols = np.triu_indices(nodes, 1)
    keep = draws < edge_prob
    return np.stack([rows[keep], cols[keep]], axis=1)


def partition_cost(labels, edges: np.ndarray, groups: int) -> float:
    """Cut size plus quadratic imbalance against nodes/groups per group."""
    g = np.asarray(labels, dtype=np.int64)
    cut = int(np.count_nonzero(g[edges[:, 0]] != g[edges[:, 1]]))
    counts = np.bincount(g - 1, minlength=groups)
    return cut + float(np.sum((counts - len(g) / groups) ** 2))


def tsp_coords(cities: int, instance_seed: int) -> np.ndarray:
    return np.random.default_rng(instance_seed).random((cities, 2))


def tour_length(tour, coords: np.ndarray) -> float:
    pts = coords[np.asarray(tour, dtype=np.int64) - 1]
    return float(np.sum(np.hypot(*(pts - np.roll(pts, -1, axis=0)).T)))


def levenshtein(s: str, t: str) -> int:
    """Plain Wagner-Fischer dynamic program."""
    prev = list(range(len(t) + 1))
    for i, a in enumerate(s, 1):
        cur = [i]
        for j, b in enumerate(t, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a != b)))
        prev = cur
    return prev[-1]


# ---------------------------------------------------------------- genotypes

def valid_labels(g, n: int, k: int) -> bool:
    return len(g) == n and all(isinstance(v, int) and 1 <= v <= k for v in g)


def valid_tour(g, n: int) -> bool:
    return sorted(g) == list(range(1, n + 1))


def valid_string(g, alphabet: str) -> bool:
    return isinstance(g, str) and set(g) <= set(alphabet)


def valid_reals(g, n: int) -> bool:
    return len(g) == n and all(isinstance(v, float) and math.isfinite(v) for v in g)


# ---------------------------------------------------------------- GA runs

def check_ga_result(result, population: int, generations: int, valid, reference) -> list[str]:
    """Properties every GA run must have, plus an independent re-score.

    `valid(genotype)` tells whether the best genotype is a well-formed
    member of its family; `reference(genotype)` recomputes its fitness.
    """
    errors = []
    best = result.best_genotype
    if not valid(best):
        errors.append(f"best genotype is not valid: {best!r}")
    series = [s.best for s in result.stats]
    if len(series) != generations:
        errors.append(f"{len(series)} generations reported, expected {generations}")
    if any(b > a for a, b in zip(series, series[1:])):
        errors.append(f"best-so-far series rises: {series}")
    expected_evals = population * (generations + 1)
    if result.evaluations != expected_evals or (
        result.stats and result.stats[-1].evaluations != expected_evals
    ):
        errors.append(f"evaluations {result.evaluations}, expected {expected_evals}")
    if series and series[-1] != result.best_fitness:
        errors.append(f"last best {series[-1]} differs from best fitness {result.best_fitness}")
    if not errors:
        expected = reference(best)
        if not math.isclose(expected, result.best_fitness, rel_tol=REAL_TOL, abs_tol=REAL_TOL):
            errors.append(f"best fitness {result.best_fitness}, recomputed {expected}")
    return errors


def check_same_run(first, again) -> list[str]:
    """`first` and `again` are (stats, best genotype) of two runs of one seed."""
    return [] if first == again else ["repeating the GA seed changed the run"]


def check_csv_replay(first: bytes, again: bytes, generations: int) -> list[str]:
    errors = []
    if first != again:
        errors.append("two `qgx ga` runs of one config wrote different CSV bytes")
    rows = first.decode().splitlines()
    if len(rows) != generations + 1 or not rows or not rows[0].startswith("generation,"):
        errors.append(f"CSV has {len(rows)} lines, expected a header and {generations} rows")
    return errors


# ---------------------------------------------------------------- verify

def check_verify_output(code: int, text: str) -> tuple[int, list[str]]:
    """Checks reported by one `qgx verify` call, and what is wrong with it."""
    errors = [] if code == 0 else [f"exit code {code}"]
    checks = 0
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        errors.append("no report line")
    for line in lines:
        m = _REPORT_LINE.match(line)
        if m is None:
            errors.append(f"unexpected report line: {line!r}")
        elif m["status"] != "ok" or int(m["violations"]) != 0 or int(m["checks"]) == 0:
            errors.append(f"report not ok: {line!r}")
        else:
            checks += int(m["checks"])
    return checks, errors


# ---------------------------------------------------------------- normalizers

def hamming(a, b) -> int:
    return sum(x != y for x, y in zip(a, b))


def euclidean(a, b) -> float:
    return math.dist(a, b)


def cell_hamming(a, b) -> int:
    return int(np.count_nonzero(np.asarray(a) != np.asarray(b)))


def relabelings(y, k: int) -> set:
    """All k! alphabet relabelings of a label vector."""
    return {tuple(sigma[v - 1] for v in y) for sigma in itertools.permutations(range(1, k + 1))}


def rotations(y) -> set:
    return {tuple(y[i:]) + tuple(y[:i]) for i in range(len(y))}


def shuffles(y) -> set:
    """All n! coordinate rearrangements."""
    return set(itertools.permutations(y))


def node_relabelings(adj) -> set:
    """All n! node relabelings of an adjacency matrix."""
    a = np.asarray(adj)
    return {
        tuple(map(tuple, a[np.ix_(p, p)].tolist()))
        for p in itertools.permutations(range(len(a)))
    }


def check_normalized(x, y, y_star, orbit: set, distance, reported=None) -> list[str]:
    """y_star lies in the orbit of y and is as close to x as any member.

    `orbit` is the brute-force orbit of y over the whole group. When the
    normalizer also reports a distance, it must equal the minimum.
    """
    errors = []
    if tuple(y_star) not in orbit:
        errors.append(f"normalized parent {y_star!r} is not in the orbit of {y!r}")
    best = min(distance(x, member) for member in orbit)
    got = distance(x, y_star)
    if not math.isclose(got, best, rel_tol=REAL_TOL, abs_tol=REAL_TOL):
        errors.append(f"normalized distance {got}, brute-force minimum {best}")
    if reported is not None and not math.isclose(reported, best, rel_tol=REAL_TOL, abs_tol=REAL_TOL):
        errors.append(f"reported distance {reported}, brute-force minimum {best}")
    return errors


def check_alignment(s: str, t: str, left: str, right: str) -> list[str]:
    errors = []
    if len(left) != len(right):
        errors.append(f"aligned rows differ in length: {len(left)} vs {len(right)}")
    if left.replace(GAP, "") != s or right.replace(GAP, "") != t:
        errors.append(f"stripping gaps from {left!r}/{right!r} does not give back {s!r}/{t!r}")
    mismatches = sum(a != b for a, b in zip(left, right))
    expected = levenshtein(s, t)
    if mismatches != expected:
        errors.append(f"alignment has {mismatches} mismatches, edit distance is {expected}")
    return errors
