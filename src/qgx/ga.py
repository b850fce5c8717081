"""Generational GA harness with pluggable raw or quotient crossover.

Tournament selection, one elite carried per generation, per-operator
random streams derived from a single master seed; fitness evaluation
consumes no randomness, so runs are bit-reproducible from (problem,
config). Raw and quotient modes consume identical evaluation budgets,
which keeps paired comparisons fair: every offspring counts as one
evaluation, also one that takes a parent's score instead of a fitness call.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable

import numpy as np

from .errors import InputError, ParameterError
from .families import FAMILIES, SEQUENCE_ALPHABET, Options
from .problems import Problem

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
        for name in ("population", "generations", "tournament"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.population < 2 or self.population % 2 != 0:
            raise ParameterError(f"population must be even and >= 2, got {self.population}")
        if self.generations < 1:
            raise ParameterError(f"generations must be >= 1, got {self.generations}")
        for rate_name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, rate_name)
            if not isinstance(rate, (int, float)) or isinstance(rate, bool):
                raise ParameterError(f"{rate_name} must be a number, got {rate!r}")
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(f"{rate_name} must be in [0,1], got {rate}")
        if not 1 <= self.tournament <= MAX_TOURNAMENT:
            raise ParameterError(f"tournament must be 1..{MAX_TOURNAMENT}, got {self.tournament}")
        if self.population * self.tournament > MAX_ENTRANTS:
            raise ParameterError(
                f"population x tournament must be at most {MAX_ENTRANTS}, "
                f"got {self.population} x {self.tournament}"
            )
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


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
    wall_time: float


def crossover_operator(problem: Problem, mode: str) -> Callable:
    """The crossover step of one generation: (parents, rate, rng) -> the
    offspring. Each pair (parents 2i, 2i + 1) in turn draws its coin
    `rng.random() < rate` and, when crossed, yields the children of both
    orders by the base crossover (raw) or `Family.quotient_crossover`, else
    itself. A family with `Family.normalize_pairs` moves all unequal pairs
    in one call first; its exact normalizers draw nothing and leave equal
    parents unmoved, so every draw stays that of coin, normalize, cross,
    normalize, cross. Uncrossed pairs are moved too: wasted work, at full
    price only for sequence, the one per-pair entry, but no draw moves.
    """
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    family = FAMILIES[problem.family]
    opts = Options(k=problem.k, size=problem.size)
    batch = family.normalize_pairs if mode == "quotient" else None
    cross = family.quotient_crossover(opts) if mode == "quotient" and batch is None else family.crossover

    def step(parents, rate, rng):
        pairs = list(zip(parents[::2], parents[1::2]))
        moved = iter(batch([p for p in pairs if p[0] != p[1]], opts) if batch else ())
        offspring = []
        for x, y in pairs:
            (x1, y1), (y2, x2) = next(moved) if batch and x != y else ((x, y), (y, x))
            offspring += (cross(x1, y1, rng), cross(y2, x2, rng)) if rng.random() < rate else (x, y)
        return offspring

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
    """Family-preserving mutation; rate 0 leaves the genotype unchanged."""
    if not 0.0 <= rate <= 1.0:
        raise ParameterError(f"mutation rate must be in [0,1], got {rate}")
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    return FAMILIES[family].mutate(genotype, rate, rng, k, alphabet)


def run_ga(problem: Problem, config: GAConfig) -> RunResult:
    """Run the GA; deterministic for a fixed (problem, config) pair.

    Selection draws a generation's population x tournament entrants at once;
    rows 2i, 2i + 1 serve pair i, each won by its first entrant of least
    fitness, and one `crossover_operator` step per generation crosses the pairs.
    An offspring equal to a parent of its own pair (its own parent is
    checked first) takes that parent's score without a fitness call;
    `Problem` states why equal genotypes score equal. It still counts as
    an evaluation, so both modes spend population x (generations + 1)."""
    xover = crossover_operator(problem, config.mode)
    alphabet = SEQUENCE_ALPHABET if problem.alphabet is None else problem.alphabet

    streams = np.random.SeedSequence(config.seed).spawn(4)
    rng_init, rng_sel, rng_cx, rng_mut = (np.random.default_rng(s) for s in streams)

    start = time.perf_counter()
    size = config.population
    population = [problem.initializer(rng_init) for _ in range(size)]
    fitness = [problem.fitness(g) for g in population]
    evaluations = size
    elite_i = min(range(size), key=fitness.__getitem__)
    elite, elite_fit = population[elite_i], fitness[elite_i]

    stats = []
    for gen in range(1, config.generations + 1):
        entrants = rng_sel.integers(0, size, size=(size, config.tournament)).tolist()
        winners = [min(row, key=fitness.__getitem__) for row in entrants]
        parents = [population[i] for i in winners]
        offspring = [
            mutate(c, problem.family, config.mutation_rate, rng_mut, k=problem.k, alphabet=alphabet)
            for c in xover(parents, config.crossover_rate, rng_cx)
        ]
        known = [fitness[i] for i in winners]
        fits = [known[q] if c == parents[q] else known[q ^ 1] if c == parents[q ^ 1] else problem.fitness(c)
                for q, c in enumerate(offspring)]
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

    return RunResult(
        stats=tuple(stats),
        best_genotype=elite,
        best_fitness=elite_fit,
        evaluations=evaluations,
        wall_time=time.perf_counter() - start,
    )
