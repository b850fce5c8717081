"""Circular permutations: tours quotiented by rotation.

Gluing head to tail makes the n rotations of a permutation encode the
same cycle, and the rotation group is an isometry of both Hamming and
swap distance. Normalization picks the rotation of the second parent
closest to the first; cycle crossover applied afterwards is the
position-independent cycle crossover.

Every normalizer reads one list with an entry per rotation: entry k is
the base distance from x to y rotated right by k, and the quotient
distance is its minimum. Under Hamming the list is one vote pass
counting down from n: rotating y right by k puts y[(i - k) mod n] at
slot i, so every pair with x[i] == y[j] takes one off step
k = (i - j) mod n, which is O(n) for a permutation. Swap distance has no
such count, so its list is the scan of all n rotations. The normalizing
step is the smallest step that reaches the minimum. The empty tour has
one rotation, itself, at distance 0.

`normalize_pairs` serves the GA, which reads tours under Hamming only: one
count of every city's (pos_x - pos_y) mod n builds each pair's list for both orders.

Reversal distance is not offered: recombination along reversal
geodesics is out of reach (sorting by reversals is NP-hard).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .errors import DimensionError, check_choice
from .genotypes import Permutation, permutation, stack_pairs
from .metrics import hamming_distance, swap_distance
from .quotient import GroupAction

BaseMetric = Literal["hamming", "swap"]

BASE_METRICS = {"hamming": hamming_distance, "swap": swap_distance}

def shift(p: Permutation, k: int) -> Permutation:
    """Rotate right by k steps: the last k entries move to the front."""
    n = len(p)
    if n == 0:
        return ()
    k %= n
    return tuple(p[-k:]) + tuple(p[:-k])


def shift_action(n: int) -> GroupAction:
    """The cyclic group of the n rotations, elements stored as step counts."""
    return GroupAction(
        name=f"shift(n={n})",
        elements=tuple(range(n)),
        identity=0,
        apply=lambda k, p: shift(p, k),
        compose=lambda a, b: (a + b) % n,
        inverse=lambda a: (n - a) % n,
    )


def _distances(x: Permutation, y: Permutation, base: str) -> list[int]:
    """Entry k: the base distance from x to y rotated right by k; [0] for
    the empty tour."""
    if len(x) != len(y):
        raise DimensionError(f"size mismatch: {len(x)} vs {len(y)}")
    check_choice("base metric", base, BASE_METRICS)
    n = len(x)
    if base == "swap":
        d = BASE_METRICS[base]
        return [d(x, shift(y, k)) for k in range(n)] or [0]
    where = {}
    for i, v in enumerate(x):
        where.setdefault(v, []).append(i)
    dists = [n] * n or [0]
    for j, v in enumerate(y):
        for i in where.get(v, ()):
            dists[i - j] -= 1  # -n < i - j < n, so this is dists[(i - j) % n]
    return dists


def quotient_distance(x: Permutation, y: Permutation, base: BaseMetric = "hamming") -> int:
    """Smallest base distance from x to any rotation of y."""
    return min(_distances(x, y, base))


def normalize(x: Permutation, y: Permutation, base: BaseMetric = "hamming") -> Permutation:
    """Rotation of y closest to x; smallest step count wins ties."""
    dists = _distances(x, y, base)
    return shift(y, dists.index(min(dists)))


def normalize_pairs(pairs: list) -> list[tuple[Permutation, Permutation]]:
    """(normalize(x, y), normalize(y, x)) under Hamming for each pair of tours of one
    size n. Rotation is an isometry, so d(y, shift(x, k)) = d(x, shift(y, -k)): the
    reverse order's smallest step at the minimum is 0 if step 0 is at it, else n minus
    the largest such step. A bad pair raises as `_distances` does, a tour that is no
    permutation of 1..n as `permutation` does."""
    tours = stack_pairs(pairs, lambda x, y: _distances(x, y, "hamming"))
    count, n, steps = len(pairs), tours.shape[2], max(tours.shape[2], 1)  # the empty tour has one step
    pos = tours.argsort(axis=2)  # pos[p, s, c]: the slot of city c + 1, when tours are permutations
    if not (np.take_along_axis(tours, pos, 2) == np.arange(1, n + 1)).all():
        for x, y in pairs:
            permutation(x), permutation(y)
    votes = (pos[:, 0] - pos[:, 1]) % steps + (np.arange(count) * steps)[:, None]
    dists = n - np.bincount(votes.ravel(), minlength=count * steps).reshape(count, steps)
    low = dists == dists.min(axis=1, keepdims=True)
    back = np.where(low[:, 0], 0, low[:, ::-1].argmax(axis=1) + 1).tolist()
    return [(shift(y, k), shift(x, j)) for (x, y), k, j in zip(pairs, low.argmax(axis=1).tolist(), back)]


def leg_lengths(cities: tuple[tuple[float, float], ...]) -> tuple[tuple[float, ...], ...]:
    """Table of Euclidean leg lengths: entry [a-1][b-1] is city a to city b.

    Each entry is `((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5`, so a tour
    summed from the table gets the same float as one summed from the
    coordinates leg by leg.
    """
    return tuple(
        tuple(((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5 for bx, by in cities)
        for ax, ay in cities
    )


def tour_length(tour: Permutation, legs: tuple[tuple[float, ...], ...]) -> float:
    """Cyclic length of the tour over a `leg_lengths` table.

    The legs are added left to right, (tour[0], tour[1]) first and the
    closing leg (tour[-1], tour[0]) last, in an explicit `+=` loop:
    `sum()` of floats is compensated from Python 3.12 on, which would
    change the last bits and with them the GA's replay bytes.
    """
    if len(tour) != len(legs):
        raise DimensionError(f"tour over {len(tour)} cities, instance has {len(legs)}")
    total = 0.0
    for a, b in zip(tour, tour[1:] + tour[:1]):
        total += legs[a - 1][b - 1]
    return total
