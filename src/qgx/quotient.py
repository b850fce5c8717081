"""Isometry-group quotients of genotype spaces.

A finite group of isometries partitions a space into orbits; the
quotient distance between two points is the smallest base distance
between their orbits. Because the group acts by isometries, minimizing
over one orbit already gives the two-sided minimum, so normalization
(move the second parent to its in-orbit point closest to the first)
realizes the quotient distance. A base geometric crossover applied
after normalization stays inside the quotient segment (`metrics.in_segment`
under the quotient distance) - that is the induced quotient crossover,
`families.Family.quotient_crossover`; `ga.normalize` says which
families the GA normalizes a generation at a time. Sequences, which have
no group, normalize a pair by aligning it, stretching both parents.

Equivalence classes are never materialized except by `orbit`: a class
is carried as any representative plus the action.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import InputError, OrbitTooLargeError
from .genotypes import Permutation, identity_permutation, invert_permutation

DEFAULT_ORBIT_CAP = 10**6

Point = Any


@dataclass(frozen=True)
class GroupAction:
    """A finite transformation group acting on a genotype space.

    `elements` contains `identity` and is closed under `compose` and
    `inverse`; `apply(g, x)` evaluates a transformation. The action law
    is apply(compose(g, h), x) == apply(g, apply(h, x)). Instances are
    immutable and safe to share.
    """

    name: str
    elements: tuple
    identity: Any
    apply: Callable[[Any, Point], Point]
    compose: Callable[[Any, Any], Any]
    inverse: Callable[[Any], Any]

    @property
    def order(self) -> int:
        return len(self.elements)


def permutation_group(
    name: str,
    n: int,
    apply: Callable[[Permutation, Point], Point],
    compose: Callable[[Permutation, Permutation], Permutation],
) -> GroupAction:
    """All n! permutations of 1..n, in `itertools.permutations` order.

    Raises InputError when n! is over `DEFAULT_ORBIT_CAP`. An action
    that reads x through the permutation (entry i is x at sigma(i))
    turns apply(g, apply(h, x)) into a read through h . g, so its
    `compose` is reversed, compose(g, h) = h . g; a relabeling action
    (each value v goes to sigma(v)) composes in functional order.
    """
    if math.factorial(n) > DEFAULT_ORBIT_CAP:
        raise InputError(f"{name} has {math.factorial(n)} elements, over cap {DEFAULT_ORBIT_CAP}")
    return GroupAction(
        name=name,
        elements=tuple(itertools.permutations(range(1, n + 1))),
        identity=identity_permutation(n),
        apply=apply,
        compose=compose,
        inverse=invert_permutation,
    )


@functools.cache
def permutation_table(n: int) -> np.ndarray:
    """All n! permutations as 0-based index rows, in `itertools.permutations` order."""
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp)  # n = 0: one empty row
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def orbit(x: Point, action: GroupAction) -> frozenset:
    """All distinct images of x under the action (contains x)."""
    if action.order > DEFAULT_ORBIT_CAP:
        raise OrbitTooLargeError(
            f"group {action.name} has {action.order} elements, cap is {DEFAULT_ORBIT_CAP}; "
            "use a representation-specific normalizer"
        )
    return frozenset(action.apply(g, x) for g in action.elements)

