"""Genotype representations and constructors.

Every genotype is a plain immutable tuple: hashable (orbits are sets),
orderable (deterministic tie-breaks), and trivially copied. Symbol and
permutation entries are 1-based throughout.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .errors import DimensionError, InputError

SymbolVector = tuple[int, ...]
RealVector = tuple[float, ...]
Permutation = tuple[int, ...]
Mask = tuple[int, ...]


def symbol_vector(values: Iterable[int], k: int) -> SymbolVector:
    """Validate and freeze a vector over the alphabet {1..k}."""
    v = tuple(int(x) for x in values)
    if k < 1:
        raise InputError(f"alphabet size must be >= 1, got {k}")
    if not v:
        raise InputError("symbol vector must be non-empty")
    check_symbols(v, k)
    return v


def check_symbols(v: Iterable[int], k: int) -> None:
    """Raise `InputError` naming the first symbol of v outside the alphabet {1..k}."""
    for x in v:
        if not 1 <= x <= k:
            raise InputError(f"symbol {x} outside alphabet 1..{k}")


def real_vector(values: Iterable[float]) -> RealVector:
    """Validate and freeze a vector of finite reals."""
    v = tuple(float(x) for x in values)
    if not v:
        raise InputError("real vector must be non-empty")
    for x in v:
        if not math.isfinite(x):
            raise InputError(f"non-finite coordinate {x!r}")
    return v


def permutation(values: Iterable[int]) -> Permutation:
    """Validate and freeze a permutation of {1..n}."""
    p = tuple(int(x) for x in values)
    if not p:
        raise InputError("permutation must be non-empty")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise InputError(f"not a permutation of 1..{len(p)}: {p}")
    return p


def stack_pairs(pairs: list, check: Callable, dtype=np.intp) -> np.ndarray:
    """The pairs' genotypes as one (pairs, 2, n) array of `dtype`, n the first one's length;
    a pair of another length meets `check(x, y)`, which raises on unequal lengths."""
    n = len(pairs[0][0]) if pairs else 0
    for x, y in pairs:
        if len(x) != n or len(y) != n:
            check(x, y)
            raise DimensionError(f"length mismatch across pairs: {n} vs {len(x)}")
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(pairs)), dtype, 2 * n * len(pairs))
    return flat.reshape(len(pairs), 2, n)


def identity_permutation(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def invert_permutation(p: Permutation) -> Permutation:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def compose_permutations(p: Permutation, q: Permutation) -> Permutation:
    """Functional composition p after q: i -> p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return tuple([v + 1 for v in rng.permutation(n).tolist()])


def random_symbol_vector(n: int, k: int, rng: np.random.Generator) -> SymbolVector:
    return tuple(rng.integers(1, k + 1, size=n).tolist())


def random_real_vector(
    n: int, rng: np.random.Generator, low: float = -5.0, high: float = 5.0
) -> RealVector:
    return tuple(rng.uniform(low, high, size=n).tolist())
