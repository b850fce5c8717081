"""Generational GA harness with pluggable raw or quotient crossover.

Tournament selection, one elite carried per generation, per-operator
random streams derived from a single master seed; fitness evaluation
consumes no randomness, so runs are bit-reproducible from (problem,
config). Raw and quotient modes consume identical evaluation budgets,
which keeps paired comparisons fair: every offspring counts as one
evaluation, also one that takes a parent's score instead of a fitness call.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable

import numpy as np

from .errors import InputError, ParameterError, check_choice, check_count, check_rate
from .families import FAMILIES, SEQUENCE_ALPHABET, Options
from .problems import Problem, scores

MODES = ("raw", "quotient")
MAX_TOURNAMENT = 1024
MAX_ENTRANTS = 2**20  # a generation draws population x tournament entrants at once


@dataclass(frozen=True)
class GAConfig:
    population: int
    generations: int
    crossover_rate: float = 0.9
    mutation_rate: float = 0.05
    tournament: int = 2
    mode: str = "quotient"
    seed: int = 0

    def __post_init__(self):
        check_count("population", self.population, 2)
        if self.population % 2:
            raise ParameterError(f"population must be even, got {self.population}")
        check_count("generations", self.generations, 1)
        check_rate("crossover_rate", self.crossover_rate)
        check_rate("mutation_rate", self.mutation_rate)
        check_count("tournament", self.tournament, 1, MAX_TOURNAMENT)
        if self.population * self.tournament > MAX_ENTRANTS:
            raise ParameterError(
                f"population x tournament must be at most {MAX_ENTRANTS}, "
                f"got {self.population} x {self.tournament}"
            )
        check_choice("mode", self.mode, MODES)
        check_count("seed", self.seed, 0, 2**64 - 1)


def config_from_dict(doc: dict) -> GAConfig:
    if not isinstance(doc, dict):
        raise InputError("ga section must be a mapping")
    unknown = set(doc) - {f.name for f in fields(GAConfig)}
    if unknown:
        raise InputError(f"unknown ga config keys: {sorted(unknown)}")
    missing = {f.name for f in fields(GAConfig) if f.default is MISSING} - set(doc)
    if missing:
        raise InputError(f"missing ga config keys: {sorted(missing)}")
    return GAConfig(**doc)


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best: float       # best-so-far fitness (elite included)
    mean: float       # mean fitness of the current population
    evaluations: int  # cumulative evaluations


@dataclass(frozen=True)
class RunResult:
    stats: tuple[GenerationStats, ...]
    best_genotype: Any
    best_fitness: float
    evaluations: int


def select(fitness: list, tournament: int, rng: np.random.Generator) -> list[int]:
    """Phase 1, on `rng_sel`: one draw of population x tournament entrants.
    Row q's winner, parent q, is its first entrant of least fitness."""
    entrants = rng.integers(0, len(fitness), size=(len(fitness), tournament)).tolist()
    return [min(row, key=fitness.__getitem__) for row in entrants]


def normalize(pairs: list, batch: Callable | None, opts: Options) -> list:
    """Phase 2, no draw: per pair (x, y), its moved pairs of both orders. `batch`
    (`Family.normalize_pairs`) moves the unequal pairs in one call before any coin,
    so uncrossed pairs are moved too; equal pairs, and all pairs when `batch` is
    None (raw mode, graph, symmetric-discrete), stay ((x, y), (y, x))."""
    moved = iter(batch([p for p in pairs if p[0] != p[1]], opts) if batch else ())
    return [next(moved) if batch and x != y else ((x, y), (y, x)) for x, y in pairs]


def recombine(pairs: list, moved: list, cross: Callable, rate: float, rng: np.random.Generator) -> list:
    """Phase 3, on `rng_cx`: per pair in order, the coin `rng.random() < rate`,
    then `cross` on both moved orders, or else the unmoved parents."""
    offspring = []
    for (x, y), ((x1, y1), (y2, x2)) in zip(pairs, moved):
        offspring += (cross(x1, y1, rng), cross(y2, x2, rng)) if rng.random() < rate else (x, y)
    return offspring


def crossover_operator(problem: Problem, mode: str) -> Callable:
    """The crossover step, (parents, rate, rng) -> offspring: `normalize` pairs
    2i, 2i + 1, then `recombine` them by the base crossover, or in quotient mode without
    `Family.normalize_pairs` (graph, symmetric-discrete) by `Family.quotient_crossover`."""
    check_choice("mode", mode, MODES)
    family = FAMILIES[problem.family]
    opts = Options(k=problem.k)
    batch = family.normalize_pairs if mode == "quotient" else None
    cross = family.quotient_crossover(opts) if mode == "quotient" and batch is None else family.crossover

    def step(parents, rate, rng):
        pairs = list(zip(parents[::2], parents[1::2]))
        return recombine(pairs, normalize(pairs, batch, opts), cross, rate, rng)

    return step


def mutate(
    genotype,
    family: str,
    rate: float,
    rng: np.random.Generator,
    *,
    k: int | None = None,
    alphabet: str = SEQUENCE_ALPHABET,
):
    """Phase 4, on `rng_mut`: family-preserving mutation of one offspring;
    rate 0 leaves the genotype unchanged."""
    check_rate("mutation rate", rate)
    check_choice("family", family, FAMILIES)
    return FAMILIES[family].mutate(genotype, rate, rng, k, alphabet)


def evaluate(offspring: list, parents: list, known: list, fitness: Callable) -> list:
    """Phase 5, no draw: an offspring equal to a parent of its own pair (its
    own parent checked first) takes that parent's `known` score, the others
    one `scores` call. `Problem` states why equal genotypes score equal."""
    source = [q if c == parents[q] else q ^ 1 if c == parents[q ^ 1] else -1 for q, c in enumerate(offspring)]
    fresh = iter(scores(fitness, [c for c, q in zip(offspring, source) if q < 0]))
    return [known[q] if q >= 0 else next(fresh) for q in source]


def run_ga(problem: Problem, config: GAConfig) -> RunResult:
    """Run the GA; deterministic for a fixed (problem, config) pair.

    A generation runs `select`, one `crossover_operator` step (`normalize`,
    `recombine`), `mutate` per offspring and `evaluate`, each looked up on this
    module so that a test or tracer can swap one. A reused parent score still
    counts as an evaluation: both modes spend population x (generations + 1)."""
    xover = crossover_operator(problem, config.mode)

    streams = np.random.SeedSequence(config.seed).spawn(4)
    rng_init, rng_sel, rng_cx, rng_mut = (np.random.default_rng(s) for s in streams)

    size = config.population
    population = [problem.initializer(rng_init) for _ in range(size)]
    fitness = scores(problem.fitness, population)
    evaluations = size
    elite_i = min(range(size), key=fitness.__getitem__)
    elite, elite_fit = population[elite_i], fitness[elite_i]

    stats = []
    for gen in range(1, config.generations + 1):
        winners = select(fitness, config.tournament, rng_sel)
        parents = [population[i] for i in winners]
        offspring = [
            mutate(c, problem.family, config.mutation_rate, rng_mut, k=problem.k, alphabet=problem.alphabet)
            for c in xover(parents, config.crossover_rate, rng_cx)
        ]
        fits = evaluate(offspring, parents, [fitness[i] for i in winners], problem.fitness)
        evaluations += size

        best_i = min(range(size), key=fits.__getitem__)
        if fits[best_i] <= elite_fit:
            elite, elite_fit = offspring[best_i], fits[best_i]
        else:
            worst_i = max(range(size), key=fits.__getitem__)
            offspring[worst_i], fits[worst_i] = elite, elite_fit
        population, fitness = offspring, fits
        total = 0.0  # left to right, not `sum()` (see `circular.tour_length`)
        for f in fits:
            total += f
        stats.append(GenerationStats(gen, elite_fit, total / size, evaluations))

    return RunResult(tuple(stats), best_genotype=elite, best_fitness=elite_fit, evaluations=evaluations)
