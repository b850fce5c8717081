"""Isometry-group quotients of genotype spaces.

A finite group of isometries partitions a space into orbits; the
quotient distance between two points is the smallest base distance
between their orbits. Because the group acts by isometries, minimizing
over one orbit already gives the two-sided minimum, so normalization
(move the second parent to its in-orbit point closest to the first)
realizes the quotient distance. A base geometric crossover applied
after normalization stays inside the quotient segment (`metrics.in_segment`
under the quotient distance) - that is the induced quotient crossover,
the one quotient mode every family with a group runs (see `families`).

Equivalence classes are never materialized except by `orbit`: a class
is carried as any representative plus the action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import OrbitTooLargeError
from .metrics import Metric

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


def _check_cap(action: GroupAction, cap: int) -> None:
    if action.order > cap:
        raise OrbitTooLargeError(
            f"group {action.name} has {action.order} elements, cap is {cap}; "
            "use a representation-specific normalizer"
        )


def orbit(x: Point, action: GroupAction, cap: int = DEFAULT_ORBIT_CAP) -> frozenset:
    """All distinct images of x under the action (contains x)."""
    _check_cap(action, cap)
    return frozenset(action.apply(g, x) for g in action.elements)


def normalize_by_enumeration(
    x: Point,
    y: Point,
    action: GroupAction,
    metric: Metric,
    cap: int = DEFAULT_ORBIT_CAP,
) -> tuple[Point, float]:
    """Closest point to x in the orbit of y, with its distance.

    Ties break to the lexicographically smallest candidate (tuples
    compare elementwise, nested tuples included), so the result does not
    depend on element enumeration order.
    """
    _check_cap(action, cap)
    best = None
    best_d = None
    for g in action.elements:
        cand = action.apply(g, y)
        d = metric(x, cand)
        if best_d is None or d < best_d or (d == best_d and cand < best):
            best, best_d = cand, d
    return best, best_d


def quotient_distance(
    x: Point,
    y: Point,
    action: GroupAction,
    metric: Metric,
    cap: int = DEFAULT_ORBIT_CAP,
) -> float:
    """min over the orbit of y of metric(x, .) - the quotient metric."""
    _check_cap(action, cap)
    return min(metric(x, action.apply(g, y)) for g in action.elements)


def induced_quotient_crossover(
    normalize: Callable[[Point, Point, np.random.Generator], tuple],
    crossover: Callable[[Point, Point, np.random.Generator], Point],
    exact: bool = True,
) -> Callable[[Point, Point, np.random.Generator], Point]:
    """The quotient crossover induced by a base crossover.

    The returned operator normalizes the second parent, then runs the
    base geometric crossover on (x, y*). `normalize(x, y, rng)` returns
    (y*, distance, exact) with y* in the class of y. When the normalizer
    is exact, y* realizes the quotient distance and the offspring stays
    in the quotient segment; a heuristic normalizer only upper-bounds it.

    An exact normalizer draws no randomness and returns y itself when
    y == x, so equal parents skip it. A heuristic one may draw from rng
    and always runs, which keeps the stream's draws independent of
    whether the parents happen to be equal.
    """

    def offspring(x: Point, y: Point, rng: np.random.Generator) -> Point:
        if not (exact and x == y):
            y = normalize(x, y, rng)[0]
        return crossover(x, y, rng)

    return offspring
