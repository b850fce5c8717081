"""Coordinate-permutation quotients: sort-matching, assignment route,
discrete normalization, and induced crossovers."""

import math

import numpy as np
import pytest

from qgx.crossovers import line_crossover
from qgx.errors import DimensionError
from qgx.families import FAMILIES, Options
from qgx.genotypes import random_real_vector
from qgx.metrics import euclidean_distance, hamming_distance, in_segment
from qgx.symmetric import (
    SYMMETRIC_FUNCTIONS,
    coordinate_action,
    normalize_discrete,
    normalize_real,
    normalize_real_pairs,
    permute_coords,
    quotient_euclidean,
    quotient_hamming,
)

from oracles import (
    exhaustive_symmetric_discrete,
    exhaustive_symmetric_real,
    minimum_assignments,
    normalize_real_assignment,
    normalize_real_both,
    random_perm,
    random_symbols,
    vectorized_hungarian,
)
from test_families import TIED_PAIRS

FIG5_X, FIG5_Y = (1.0, 4.0, 5.0), (3.0, 0.0, 6.0)


def iq_crossover_real(x, y, rng):
    """Sort-match y to x, then blend at a random weight."""
    return FAMILIES["symmetric-real"].quotient_crossover(Options())(x, y, rng)


def iq_crossover_discrete(x, y, rng):
    """Rearrange y toward x by assignment, then uniform crossover."""
    return FAMILIES["symmetric-discrete"].quotient_crossover(Options())(x, y, rng)


class TestPermuteCoords:
    def test_four_coordinate_example(self):
        x = ("x1", "x2", "x3", "x4")
        assert permute_coords(x, (2, 4, 3, 1)) == ("x2", "x4", "x3", "x1")

    def test_identity(self):
        assert permute_coords((5.0, 6.0), (1, 2)) == (5.0, 6.0)

    def test_worked_row(self):
        assert permute_coords((3.0, 0.0, 6.0), (2, 1, 3)) == (0.0, 3.0, 6.0)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            permute_coords((1.0, 2.0), (1, 2, 3))


class TestNormalizeReal:
    def test_worked_example(self):
        y_star, dist = normalize_real(FIG5_X, FIG5_Y)
        assert y_star == (0.0, 3.0, 6.0)
        assert dist == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_rearranged_x_gives_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = random_real_vector(6, rng)
            y = permute_coords(x, random_perm(rng, 6))
            _, dist = normalize_real(x, y)
            assert dist == pytest.approx(0.0, abs=1e-12)

    def test_three_routes_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            x = random_real_vector(n, rng)
            y = random_real_vector(n, rng)
            _, by_sort = normalize_real(x, y)
            _, by_assignment = normalize_real_assignment(x, y)
            by_enum = exhaustive_symmetric_real(x, y)
            assert by_sort == pytest.approx(by_enum, abs=1e-9)
            assert by_assignment == pytest.approx(by_enum, abs=1e-9)

    def test_result_is_rearrangement(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = random_real_vector(5, rng)
            y = random_real_vector(5, rng)
            y_star, _ = normalize_real(x, y)
            assert sorted(y_star) == sorted(y)

    def test_permutation_invariance_of_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = random_real_vector(5, rng)
            y = random_real_vector(5, rng)
            d = quotient_euclidean(x, y)
            xs = permute_coords(x, random_perm(rng, 5))
            ys = permute_coords(y, random_perm(rng, 5))
            assert quotient_euclidean(xs, ys) == pytest.approx(d, abs=1e-9)

    def test_tie_rule(self):
        # equal x values fill their slots in ascending index order, and equal
        # y values go out in ascending index order: the y value at index 0
        # goes to the slot of x's 0.0, the one at index 1 to the first 1.0 slot
        assert repr(normalize_real((1.0, 1.0, 0.0), (0.0, -0.0, 5.0))[0]) == "(-0.0, 5.0, 0.0)"
        assert repr(normalize_real((1.0, 1.0, 0.0), (-0.0, 0.0, 5.0))[0]) == "(0.0, 5.0, -0.0)"


# signed zeros, repeated small integers, gaussians: ties in x and in y
REAL_DRAWS = (
    lambda rng: float(rng.choice([0.0, -0.0, 1.0, -1.0, 2.0])),
    lambda rng: float(rng.integers(-3, 4)),
    lambda rng: float(rng.normal()),
)


def _tied_real_pairs(rng, count):
    """Fixed signed-zero pairs, then random pairs of n = 0..12 and n = 40."""
    pairs = [((0.0, -0.0, 1.0), (-0.0, 0.0, 1.0)), ((-0.0, 0.0, 0.0), (0.0, 0.0, -0.0)), ((), ())]
    for i in range(count):
        n, draw = 40 if i % 10 == 0 else i % 13, REAL_DRAWS[i % 3]
        pairs.append((tuple(draw(rng) for _ in range(n)), tuple(draw(rng) for _ in range(n))))
    return pairs


# every draw ties with another value or with a signed zero of the other sign
TIE_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5)


def _by_length(pairs):
    batches = {}
    for x, y in pairs:
        batches.setdefault(len(x), []).append((x, y))
    return batches


class TestNormalizeRealPairs:
    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_equals_former_per_pair_sort_by_repr(self, n):
        # repr, not ==, since -0.0 == 0.0 would hide a signed zero in the wrong slot
        rng = np.random.default_rng(n)
        pairs = [(tuple(rng.choice(TIE_VALUES, n).tolist()), tuple(rng.choice(TIE_VALUES, n).tolist()))
                 for _ in range(60)]
        pairs += [(x, x) for x, _ in pairs[:5]]
        for batch in ([], pairs[:1], pairs, pairs[::-1]):
            assert repr(normalize_real_pairs(batch)) == repr([normalize_real_both(x, y) for x, y in batch])

    def test_equals_two_normalize_real_calls_by_repr(self):
        for batch in _by_length(_tied_real_pairs(np.random.default_rng(11), 600)).values():
            expected = [(normalize_real(x, y)[0], normalize_real(y, x)[0]) for x, y in batch]
            assert repr(normalize_real_pairs(batch)) == repr(expected)
            family = FAMILIES["symmetric-real"]
            assert repr(family.normalize_pairs(batch, Options())) == repr(
                [(family.normalize(x, y, Options(), None), family.normalize(y, x, Options(), None)) for x, y in batch])

    def test_moved_parents_are_closest_by_enumeration(self):
        for n, batch in _by_length(_tied_real_pairs(np.random.default_rng(12), 300)).items():
            if n > 6:
                continue
            for (x, y), (y_star, x_star) in zip(batch, normalize_real_pairs(batch)):
                assert euclidean_distance(x, y_star) == pytest.approx(exhaustive_symmetric_real(x, y), abs=1e-9)
                assert euclidean_distance(y, x_star) == pytest.approx(exhaustive_symmetric_real(y, x), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError, match="^length mismatch: 2 vs 1$"):
            normalize_real_pairs([((1.0, 2.0), (1.0,))])
        with pytest.raises(DimensionError, match="^length mismatch across pairs: 1 vs 2$"):
            normalize_real_pairs([((1.0,), (2.0,)), ((1.0, 2.0), (2.0, 1.0))])


class TestNormalizeDiscrete:
    def test_rearrangement_gives_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            x = random_symbols(rng, 6, 3)
            y = permute_coords(x, random_perm(rng, 6))
            _, dist = normalize_discrete(x, y)
            assert dist == 0

    def test_small_worked_case(self):
        y_star, dist = normalize_discrete((1, 1, 2), (2, 2, 1))
        assert dist == 1
        assert y_star == (1, 2, 2)  # of the two closest rearrangements, the tie rule's
        assert hamming_distance((1, 1, 2), y_star) == 1

    def test_tie_rule_is_the_reference_hungarians(self):
        # low k leaves many closest rearrangements; the documented one is the
        # reference solver's on the same 0/1 table, rows x and columns y
        rng = np.random.default_rng(15)
        pairs = list(TIED_PAIRS["symmetric-discrete"])
        for _ in range(200):
            n, k = int(rng.integers(1, 7)), int(rng.integers(1, 3))
            pairs.append((random_symbols(rng, n, k), random_symbols(rng, n, k)))
        for x, y in pairs:
            cost = [[0 if xi == yj else 1 for yj in y] for xi in x]
            assign, total = vectorized_hungarian(cost)
            assert assign in minimum_assignments(cost)
            assert normalize_discrete(x, y) == (tuple(y[j - 1] for j in assign), total)

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(2, 5))
            x = random_symbols(rng, n, k)
            y = random_symbols(rng, n, k)
            _, dist = normalize_discrete(x, y)
            assert dist == exhaustive_symmetric_discrete(x, y)
            assert dist == quotient_hamming(x, y)


class TestQuotientHamming:
    def test_matches_assignment_total(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            n = int(rng.integers(1, 41))
            k = int(rng.integers(1, 7))
            x = random_symbols(rng, n, k)
            y = random_symbols(rng, n, k)
            assert quotient_hamming(x, y) == normalize_discrete(x, y)[1]

    def test_disjoint_symbols(self):
        assert quotient_hamming((1, 1, 2), (3, 4, 3)) == 3

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            quotient_hamming((1, 2), (1, 2, 2))


class TestIqCrossovers:
    def test_real_midpoint_of_worked_pair(self):
        y_star, _ = normalize_real(FIG5_X, FIG5_Y)
        assert line_crossover(FIG5_X, y_star, 0.5) == (0.5, 3.5, 5.5)

    def test_real_segment_containment(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            x = random_real_vector(5, rng)
            y = random_real_vector(5, rng)
            z = iq_crossover_real(x, y, rng)
            y_star, _ = normalize_real(x, y)
            assert in_segment(x, z, y_star, euclidean_distance, tol=1e-9)

    def test_real_quotient_segment_containment(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = random_real_vector(4, rng)
            y = random_real_vector(4, rng)
            z = iq_crossover_real(x, y, rng)
            lhs = exhaustive_symmetric_real(x, z) + exhaustive_symmetric_real(z, y)
            assert lhs == pytest.approx(exhaustive_symmetric_real(x, y), abs=1e-9)

    def test_discrete_rearranged_parents_reproduce_first(self):
        rng = np.random.default_rng(8)
        x = (1, 2, 2, 3)
        y = permute_coords(x, (3, 1, 4, 2))
        for _ in range(10):
            assert iq_crossover_discrete(x, y, rng) == x

    def test_discrete_quotient_segment_containment(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            x = random_symbols(rng, 6, 3)
            y = random_symbols(rng, 6, 3)
            z = iq_crossover_discrete(x, y, rng)
            lhs = exhaustive_symmetric_discrete(x, z) + exhaustive_symmetric_discrete(z, y)
            assert lhs == exhaustive_symmetric_discrete(x, y)


class TestSymmetricFunctions:
    @pytest.mark.parametrize("name", sorted(SYMMETRIC_FUNCTIONS))
    def test_exact_permutation_invariance(self, name):
        fn = SYMMETRIC_FUNCTIONS[name]
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = random_real_vector(6, rng)
            sigma = random_perm(rng, 6)
            assert fn(permute_coords(x, sigma)) == fn(x)

    def test_action_isometries(self):
        rng = np.random.default_rng(11)
        action = coordinate_action(5)
        for _ in range(50):
            x = random_real_vector(5, rng)
            y = random_real_vector(5, rng)
            g = action.elements[int(rng.integers(0, len(action.elements)))]
            assert action.apply(g, x) == permute_coords(x, g)
            assert euclidean_distance(
                action.apply(g, x), action.apply(g, y)
            ) == pytest.approx(euclidean_distance(x, y), abs=1e-9)
