"""Desk-scale benchmark problems, one per representation family.

Each problem bundles a fitness function (always minimized), a seeded
random initializer, and the metadata the GA needs to pick matching
variation operators. Instances are generated from their own seed so a
run is reproducible from the config alone; the two labeling problems,
partitioning and coloring, share one random-graph instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .circular import leg_lengths, tour_length
from .errors import InputError, ParameterError, check_choice, check_count, check_finite, check_rate
from .families import FAMILIES, SEQUENCE_ALPHABET
from .genotypes import (
    random_permutation,
    random_real_vector,
    random_symbol_vector,
)
from .graphs import MAX_NODES, edges_of, random_adjacency
from .grouping import MAX_K
from .sequences import GAP, check_sequence, edit_distance_to, edit_distances_to, random_sequence
from .symmetric import SYMMETRIC_FUNCTIONS


@dataclass(frozen=True)
class Problem:
    """A minimized fitness, a seeded initializer and the family metadata.

    `fitness` must be a function of the genotype's value: genotypes equal
    by `==` score equal, because the GA gives an offspring equal to a
    parent that parent's score. For float coordinates `==` conflates only
    0.0 with -0.0 (NaN equals nothing, so its score is never reused). A
    float sum is -0.0 only when both terms are -0.0, so neither the real
    initializer (numpy's low + (high - low) * u) nor mutation (v + step on
    a hit v, with numpy's step = 0.0 + sigma * z) makes a -0.0;
    `line_crossover` (lam * a + mu * b, with mu = 1 - lam) makes one only
    when both products underflow, from subnormal parent coordinates. The
    bundled symmetric functions tell 0.0 from -0.0 at most in the sign of
    a zero fitness, which compares equal.

    The batch entry `scores(fitness, genotypes)` returns exactly
    `[fitness(g) for g in genotypes]`, from one `fitness.batch` call if the
    fitness has one (the sequence problem's packed edit distance). It is
    read off `fitness`, so replacing `fitness` replaces it.

    `k` (labels 1..k) is read by grouping and symmetric-discrete mutation
    and by grouping's normalizer, so those two families need it; `alphabet`
    only by sequence mutation, which inserts and substitutes its letters.
    """

    name: str
    family: str
    fitness: Callable[[Any], float]
    initializer: Callable[[np.random.Generator], Any]
    k: int | None = None
    alphabet: str = SEQUENCE_ALPHABET

    def __post_init__(self):
        check_choice("family", self.family, FAMILIES)
        if self.family in ("grouping", "symmetric-discrete"):
            check_count("k", self.k, 1)
        if not isinstance(self.alphabet, str):
            raise InputError(f"alphabet must be a string, got {self.alphabet!r}")
        if not self.alphabet or GAP in self.alphabet:
            raise InputError(f"alphabet must be non-empty without the gap {GAP!r}, got {self.alphabet!r}")


def scores(fitness: Callable[[Any], float], genotypes: list) -> list[float]:
    """`Problem`'s batch entry: exactly `[fitness(g) for g in genotypes]`."""
    batch = getattr(fitness, "batch", None)
    return batch(genotypes) if batch else [fitness(g) for g in genotypes]


def _labeling_edges(label: str, nodes, k, edge_prob, instance_seed, **finite) -> list:
    """Check a labeling problem's fields (shared ones first), then draw its 0-based edges."""
    check_count("nodes", nodes, 1, MAX_NODES)
    check_count(label, k, 1, MAX_K)
    check_rate("edge_prob", edge_prob)
    check_count("instance_seed", instance_seed, 0)
    for field, value in finite.items():
        check_finite(field, value)
    graph = random_adjacency(nodes, edge_prob, np.random.default_rng(instance_seed))
    return [(u - 1, v - 1) for u, v in edges_of(graph)]


def _labeling_problem(kind: str, nodes: int, k: int, fitness: Callable) -> Problem:
    return Problem(
        name=f"{kind}(n={nodes},k={k})",
        family="grouping",
        fitness=fitness,
        initializer=lambda rng: random_symbol_vector(nodes, k, rng),
        k=k,
    )


def partitioning_problem(
    nodes: int = 60,
    groups: int = 4,
    edge_prob: float = 0.08,
    instance_seed: int = 0,
    balance_weight: float = 1.0,
) -> Problem:
    """Balanced k-way partitioning: cut size plus quadratic imbalance."""
    edges = _labeling_edges(
        "groups", nodes, groups, edge_prob, instance_seed, balance_weight=balance_weight
    )
    target = nodes / groups

    def fitness(g) -> float:
        cut = 0
        for u, v in edges:
            if g[u] != g[v]:
                cut += 1
        counts = [0] * groups
        for label in g:
            counts[label - 1] += 1
        imbalance = 0.0  # left to right, not `sum()` (see `circular.tour_length`)
        for c in counts:
            imbalance += (c - target) ** 2
        return cut + balance_weight * imbalance

    return _labeling_problem("partitioning", nodes, groups, fitness)


def coloring_problem(
    nodes: int = 40,
    colors: int = 3,
    edge_prob: float = 0.1,
    instance_seed: int = 0,
) -> Problem:
    """Graph coloring: count of monochromatic edges."""
    edges = _labeling_edges("colors", nodes, colors, edge_prob, instance_seed)
    return _labeling_problem(
        "coloring", nodes, colors, lambda g: float(sum(g[u] == g[v] for u, v in edges))
    )


def random_tsp_problem(cities: int = 20, instance_seed: int = 0) -> Problem:
    """Euclidean TSP on cities drawn uniformly from the unit square.

    The instance holds a cities x cities leg table, so `cities` is capped
    at `MAX_NODES` (about 4M table floats); a larger count raises
    ParameterError before the table is built.
    """
    check_count("cities", cities, 3, MAX_NODES)
    check_count("instance_seed", instance_seed, 0)
    rng = np.random.default_rng(instance_seed)
    legs = leg_lengths(tuple((float(x), float(y)) for x, y in rng.random((cities, 2))))
    return Problem(
        name=f"tsp(n={cities})",
        family="circular",
        fitness=lambda tour: tour_length(tour, legs),
        initializer=lambda rng: random_permutation(cities, rng),
    )


def symmetric_problem(
    function: str = "sum_of_squares",
    length: int = 8,
    low: float = -5.0,
    high: float = 5.0,
) -> Problem:
    check_choice("symmetric function", function, SYMMETRIC_FUNCTIONS)
    check_count("length", length, 1, MAX_NODES)  # the genotype cap of every other problem
    check_finite("low", low)
    check_finite("high", high)
    # finite bounds can still be too far apart for a float
    if not low <= high or not math.isfinite(high - low):
        raise ParameterError(f"need finite low <= high, got low={low!r}, high={high!r}")
    return Problem(
        name=f"symmetric:{function}(n={length})",
        family="symmetric-real",
        fitness=SYMMETRIC_FUNCTIONS[function],
        initializer=lambda rng: random_real_vector(length, rng, low, high),
    )


class _TargetDistance:
    """Float edit distance to the target; `batch` scores a list in packed passes.
    A wrapper, `functools.wraps` included, copies no `batch`."""

    def __init__(self, target: str):
        self.one, self.many = edit_distance_to(target), edit_distances_to(target)

    def __call__(self, s: str) -> float:
        return float(self.one(s))

    def batch(self, strs: list[str]) -> list[float]:
        return [float(d) for d in self.many(strs)]


def sequence_problem(target: str, alphabet: str = SEQUENCE_ALPHABET) -> Problem:
    """Toy string matching: edit distance to a fixed target; `Problem` checks the alphabet."""
    if not isinstance(target, str):
        raise InputError(f"target must be a string, got {target!r}")
    check_sequence(target)
    if not target:
        raise InputError("target must be non-empty")
    if len(target) > MAX_NODES:  # aligning two individuals fills a quadratic table
        raise InputError(f"target must be at most {MAX_NODES} letters, got {len(target)}")
    return Problem(
        name=f"sequence-match(len={len(target)})",
        family="sequence",
        fitness=_TargetDistance(target),
        initializer=lambda rng: random_sequence(2 * len(target), alphabet, rng),
        alphabet=alphabet,
    )


_BUILDERS = {
    "partitioning": partitioning_problem,
    "coloring": coloring_problem,
    "tsp": random_tsp_problem,
    "symmetric": symmetric_problem,
    "sequence": sequence_problem,
}


def build_problem(doc: dict) -> Problem:
    """Instantiate a bundled problem from a config mapping."""
    if not isinstance(doc, dict) or "name" not in doc:
        raise InputError("problem section must be a mapping with a 'name'")
    params = dict(doc)
    name = params.pop("name")
    check_choice("problem", name, _BUILDERS)
    try:
        return _BUILDERS[name](**params)
    except TypeError as exc:
        raise InputError(f"bad parameters for problem {name!r}: {exc}") from exc
