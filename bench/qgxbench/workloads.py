"""The four workloads: their inputs, GA budgets, verify sweeps and the
normalizations sampled for checking.

Every workload runs the same round: one raw and one quotient `run_ga`
on its problem, then a `qgx verify` sweep over the (suite, family)
pairs of its families. The GA workloads sweep their own family; the
`verify` workload sweeps all six and runs its GA on the symmetric-real
problem, the one GA family no other workload covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qgx import circular, graphs, grouping, sequences, symmetric
from qgx.problems import build_problem

from . import checks

ALPHABET = "acgt"

# Suites that `qgx verify` supports per family: sequences are stretched,
# not acted on by a group, so they have no group or quotient suite.
SUITES = ("metric", "group", "quotient", "segment")
FAMILY_SUITES = {
    "grouping": SUITES,
    "graph": SUITES,
    "symmetric-real": SUITES,
    "symmetric-discrete": SUITES,
    "circular": SUITES,
    "sequence": ("metric", "segment"),
}
ALL_FAMILIES = tuple(FAMILY_SUITES)


@dataclass(frozen=True)
class Size:
    """Input sizes; `FULL` is the benchmark, `QUICK` the self-test."""

    partition_nodes: int
    partition_groups: int
    partition_edge_prob: float
    tsp_cities: int
    target_length: int
    symmetric_length: int
    ga_budget: dict  # workload -> (population, generations)
    csv_generations: int
    trials: dict  # family -> verify trials per suite
    pairs: int  # sampled normalizations per family
    setup_reps: int
    min_rounds: int


FULL = Size(
    partition_nodes=60,
    partition_groups=4,
    partition_edge_prob=0.08,
    tsp_cities=100,
    target_length=100,
    symmetric_length=40,
    ga_budget={"ga-partition": (30, 30), "ga-tsp": (30, 30), "ga-sequence": (20, 20), "verify": (60, 100)},
    csv_generations=5,
    # Per-family trials keep every family under about a third of the sweep;
    # the symmetric-real quotient suite has a fixed cost of its own (its
    # pair checks enumerate both orbits regardless of the trial count).
    trials={
        "grouping": 200,
        "graph": 80,
        "symmetric-real": 200,
        "symmetric-discrete": 150,
        "circular": 1000,
        "sequence": 500,
    },
    pairs=10,
    setup_reps=7,
    min_rounds=3,
)

QUICK = Size(
    partition_nodes=12,
    partition_groups=3,
    partition_edge_prob=0.3,
    tsp_cities=10,
    target_length=12,
    symmetric_length=4,
    ga_budget={"ga-partition": (6, 3), "ga-tsp": (6, 3), "ga-sequence": (6, 3), "verify": (6, 3)},
    csv_generations=2,
    trials=dict.fromkeys(ALL_FAMILIES, 2),
    pairs=2,
    setup_reps=1,
    min_rounds=2,
)

# Sizes pinned in qgx.suites, used for the verify workload's sampled pairs
# (grouping is (length, alphabet); sequences are about this long).
SUITE_SIZES = {
    "grouping": (6, 4),
    "graph": 5,
    "symmetric-real": 5,
    "symmetric-discrete": 5,
    "circular": 7,
    "sequence": 12,
}
SYMMETRIC_K = 3


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program, made from the seed alone."""

    problem_doc: dict  # the `problem` section of a `qgx ga` config
    problem: Any
    population: int
    generations: int
    valid: Callable[[Any], bool]
    reference: Callable[[Any], float]  # independent fitness of a genotype
    families: tuple[str, ...]  # swept by `qgx verify`
    pairs: tuple  # (family, x, y, k) normalizations to check


# ---------------------------------------------------------------- samplers

def _labels(rng, n, k):
    return tuple(int(v) for v in rng.integers(1, k + 1, size=n))


def _perm(rng, n):
    return tuple(int(v) + 1 for v in rng.permutation(n))


def _string(rng, low, high):
    n = int(rng.integers(low, high + 1))
    return "".join(ALPHABET[int(i)] for i in rng.integers(0, len(ALPHABET), size=n))


def _graph(rng, n):
    upper = np.triu((rng.random((n, n)) < 0.5).astype(int), 1)
    return tuple(map(tuple, (upper + upper.T).tolist()))


def _sample_pairs(family: str, rng, count: int, size) -> list:
    if family == "grouping":
        n, k = size
        make = lambda: _labels(rng, n, k)
    elif family == "circular":
        make = lambda: _perm(rng, size)
    elif family == "sequence":
        make = lambda: _string(rng, max(1, size * 4 // 5), size * 6 // 5)
    elif family == "symmetric-real":
        make = lambda: tuple(float(v) for v in rng.uniform(-5.0, 5.0, size=size))
    elif family == "symmetric-discrete":
        make = lambda: _labels(rng, size, SYMMETRIC_K)
    elif family == "graph":
        make = lambda: _graph(rng, size)
    else:
        raise ValueError(f"no sampler for family {family!r}")
    k = size[1] if family == "grouping" else None
    return [(family, make(), make(), k) for _ in range(count)]


# ---------------------------------------------------------------- workloads

def _partition(seed: int, size: Size, rng) -> Inputs:
    n, k, p = size.partition_nodes, size.partition_groups, size.partition_edge_prob
    doc = {"name": "partitioning", "nodes": n, "groups": k, "edge_prob": p, "instance_seed": seed}
    edges = checks.partition_edges(n, p, seed)
    pop, gens = size.ga_budget["ga-partition"]
    return Inputs(
        problem_doc=doc,
        problem=build_problem(doc),
        population=pop,
        generations=gens,
        valid=lambda g: checks.valid_labels(g, n, k),
        reference=lambda g: checks.partition_cost(g, edges, k),
        families=("grouping",),
        pairs=tuple(_sample_pairs("grouping", rng, size.pairs, (n, k))),
    )


def _tsp(seed: int, size: Size, rng) -> Inputs:
    n = size.tsp_cities
    doc = {"name": "tsp", "cities": n, "instance_seed": seed}
    coords = checks.tsp_coords(n, seed)
    pop, gens = size.ga_budget["ga-tsp"]
    return Inputs(
        problem_doc=doc,
        problem=build_problem(doc),
        population=pop,
        generations=gens,
        valid=lambda g: checks.valid_tour(g, n),
        reference=lambda g: checks.tour_length(g, coords),
        families=("circular",),
        pairs=tuple(_sample_pairs("circular", rng, size.pairs, n)),
    )


def _sequence(seed: int, size: Size, rng) -> Inputs:
    target = "".join(ALPHABET[int(i)] for i in rng.integers(0, len(ALPHABET), size=size.target_length))
    doc = {"name": "sequence", "target": target, "alphabet": ALPHABET}
    pop, gens = size.ga_budget["ga-sequence"]
    return Inputs(
        problem_doc=doc,
        problem=build_problem(doc),
        population=pop,
        generations=gens,
        valid=lambda g: checks.valid_string(g, ALPHABET),
        reference=lambda g: float(checks.levenshtein(g, target)),
        families=("sequence",),
        pairs=tuple(_sample_pairs("sequence", rng, size.pairs, size.target_length)),
    )


def _verify(seed: int, size: Size, rng) -> Inputs:
    n = size.symmetric_length
    doc = {"name": "symmetric", "function": "sum_of_squares", "length": n}
    pop, gens = size.ga_budget["verify"]
    pairs = [p for family in ALL_FAMILIES for p in _sample_pairs(family, rng, size.pairs, SUITE_SIZES[family])]
    return Inputs(
        problem_doc=doc,
        problem=build_problem(doc),
        population=pop,
        generations=gens,
        valid=lambda g: checks.valid_reals(g, n),
        reference=lambda g: float(np.sum(np.square(g))),
        families=ALL_FAMILIES,
        pairs=tuple(pairs),
    )


WORKLOADS = {
    "ga-partition": _partition,
    "ga-tsp": _tsp,
    "ga-sequence": _sequence,
    "verify": _verify,
}


def build_inputs(workload: str, seed: int, size: Size) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    return WORKLOADS[workload](seed, size, rng)


# ---------------------------------------------------------------- normalizations

def check_pair(family: str, x, y, k: int | None = None) -> list[str]:
    """Run the family's normalizer on (x, y) and check it by brute force;
    `k` is the alphabet size of the grouping family."""
    if family == "grouping":
        return checks.check_normalized(x, y, grouping.li_normalize(x, y, k), checks.relabelings(y, k), checks.hamming)
    if family == "circular":
        return checks.check_normalized(x, y, circular.normalize(x, y), checks.rotations(y), checks.hamming)
    if family == "symmetric-real":
        y_star, dist = symmetric.normalize_real(x, y)
        return checks.check_normalized(x, y, y_star, checks.shuffles(y), checks.euclidean, dist)
    if family == "symmetric-discrete":
        y_star, dist = symmetric.normalize_discrete(x, y)
        return checks.check_normalized(x, y, y_star, checks.shuffles(y), checks.hamming, dist)
    if family == "graph":
        match = graphs.quotient_distance_exact(x, y)
        y_star = graphs.conjugate(y, match.permutation)
        return checks.check_normalized(
            x, y, y_star, checks.node_relabelings(y), checks.cell_hamming, match.dist
        )
    if family == "sequence":
        alignment = sequences.optimal_align(x, y)
        return checks.check_alignment(x, y, alignment.left, alignment.right)
    raise ValueError(f"no normalization check for family {family!r}")


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and a path of keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])
