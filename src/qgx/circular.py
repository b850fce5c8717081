"""Circular permutations: tours quotiented by rotation.

Gluing head to tail makes the n rotations of a permutation encode the
same cycle, and the rotation group is an isometry of both Hamming and
swap distance. Normalization picks the rotation of the second parent
closest to the first; cycle crossover applied afterwards is the
position-independent cycle crossover.

Under Hamming distance the rotation is found by voting in one pass.
Rotating y right by k puts y[(i - k) mod n] at slot i, so every pair
with x[i] == y[j] votes for the step k = (i - j) mod n, and the Hamming
distance from x to that rotation is n minus its votes. The normalizing
step is the one with the most votes, the smallest step winning ties;
for a permutation this is O(n). Swap distance has no such count, so it
keeps the scan of all n rotations, with the same tie rule. The empty
tour has one rotation, itself, at distance 0.

`normalize_both` serves both orders of a GA pair from one vote pass:
the reverse pair (y, x) votes at (n - k) mod n wherever (x, y) votes at
k, so its normalizing step is the smallest (n - k) mod n among the
top-voted k, which is not in general the inverse of the forward step.
Under swap distance it scans both orders.

Reversal distance is not offered: recombination along reversal
geodesics is out of reach (sorting by reversals is NP-hard).
"""

from __future__ import annotations

from typing import Literal

from .errors import DimensionError, ParameterError
from .genotypes import Permutation
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
    if k == 0:
        return tuple(p)
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


def _base_metric(base: str):
    try:
        return BASE_METRICS[base]
    except KeyError:
        raise ParameterError(f"base metric must be one of {sorted(BASE_METRICS)}, got {base!r}")


def _votes(x: Permutation, y: Permutation) -> list[int]:
    """votes[k]: the slots where rotating y right by k matches x (n >= 1)."""
    where = {}
    for i, v in enumerate(x):
        where.setdefault(v, []).append(i)
    votes = [0] * len(x)
    for j, v in enumerate(y):
        for i in where.get(v, ()):
            votes[i - j] += 1  # -n < i - j < n, so this is votes[(i - j) % n]
    return votes


def _best_shift(x: Permutation, y: Permutation, base: str) -> tuple[int, int]:
    """(k, dist): the smallest step k whose rotation of y is closest to x."""
    if len(x) != len(y):
        raise DimensionError(f"size mismatch: {len(x)} vs {len(y)}")
    d = _base_metric(base)
    n = len(x)
    if n == 0:
        return 0, 0
    if base == "hamming":
        votes = _votes(x, y)
        top = max(votes)
        return votes.index(top), n - top
    best_k, best_d = 0, d(x, y)
    for k in range(1, n):
        dist = d(x, shift(y, k))
        if dist < best_d:
            best_k, best_d = k, dist
    return best_k, best_d


def quotient_distance(x: Permutation, y: Permutation, base: BaseMetric = "hamming") -> int:
    """Smallest base distance from x to any rotation of y."""
    return _best_shift(x, y, base)[1]


def normalize(x: Permutation, y: Permutation, base: BaseMetric = "hamming") -> Permutation:
    """Rotation of y closest to x; smallest step count wins ties."""
    return shift(y, _best_shift(x, y, base)[0])


def normalize_both(
    x: Permutation, y: Permutation, base: BaseMetric = "hamming"
) -> tuple[Permutation, Permutation]:
    """(normalize(x, y, base), normalize(y, x, base)); under Hamming, from
    one vote pass: the smallest top-voted step of (y, x) is 0 when step 0
    is top-voted for (x, y), else n minus the largest top-voted step."""
    if base != "hamming" or not x or len(x) != len(y):
        # normalize raises on a bad pair
        return normalize(x, y, base), normalize(y, x, base)
    votes = _votes(x, y)
    top = max(votes)
    back = 0 if votes[0] == top else votes[::-1].index(top) + 1
    return shift(y, votes.index(top)), shift(x, back)


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
