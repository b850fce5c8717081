"""Rotation quotients of permutations, the position-independent cycle
crossover, and tour length."""

import dataclasses
import re

import numpy as np
import pytest

from qgx.circular import (
    BASE_METRICS,
    leg_lengths,
    normalize,
    normalize_pairs,
    quotient_distance,
    shift,
    shift_action,
    tour_length,
)
from qgx.errors import DimensionError, InputError, ParameterError
from qgx.families import FAMILIES, Options
from qgx.ga import GAConfig, run_ga
from qgx.metrics import hamming_distance, swap_distance
from qgx.problems import random_tsp_problem
from qgx.verify import verify_equivalence, verify_isometry

from oracles import (
    bfs_swap_distance,
    coordinate_tour_length,
    enumerate_cycle_offspring,
    random_perm,
    random_symbols,
    scan_rotation,
)

FIG6_X, FIG6_Y = (2, 4, 5, 1, 6, 3), (4, 6, 1, 5, 3, 2)


def pi_cycle_crossover(x, y, rng):
    """The circular family's quotient crossover: rotate y toward x, then cycle crossover."""
    return FAMILIES["circular"].quotient_crossover(Options())(x, y, rng)


class TestShift:
    def test_two_step(self):
        assert shift((1, 2, 3), 2) == (2, 3, 1)

    def test_zero_step(self):
        p = (4, 1, 3, 2)
        assert shift(p, 0) == p

    def test_worked_row(self):
        assert shift((4, 6, 1, 5, 3, 2), 1) == (2, 4, 6, 1, 5, 3)

    def test_out_of_range_normalized(self):
        p = (1, 2, 3)
        assert shift(p, 5) == shift(p, 2)
        assert shift(p, -1) == shift(p, 2)

    def test_composition_law(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_perm(rng, 6)
            a, b = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            assert shift(shift(p, a), b) == shift(p, (a + b) % 6)


class TestQuotientDistance:
    def test_worked_example(self):
        assert quotient_distance(FIG6_X, FIG6_Y, "hamming") == 2

    def test_worked_row_values(self):
        rows = [hamming_distance(FIG6_X, shift(FIG6_Y, k)) for k in range(6)]
        assert rows == [6, 2, 6, 5, 6, 5]

    def test_rotation_of_self_is_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = random_perm(rng, 7)
            k = int(rng.integers(0, 7))
            assert quotient_distance(x, shift(x, k)) == 0

    def test_swap_base_matches_bfs_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            x, y = random_perm(rng, n), random_perm(rng, n)
            expected = min(bfs_swap_distance(x, shift(y, k)) for k in range(n))
            assert quotient_distance(x, y, "swap") == expected

    def test_never_exceeds_base(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = random_perm(rng, 6), random_perm(rng, 6)
            assert quotient_distance(x, y) <= hamming_distance(x, y)
            assert quotient_distance(x, y, "swap") <= swap_distance(x, y)

    def test_bad_base_metric(self):
        with pytest.raises(ParameterError):
            quotient_distance((1, 2), (2, 1), "euclidean")

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            quotient_distance((1, 2), (1, 2, 3))


class TestNormalize:
    def test_worked_example(self):
        assert normalize(FIG6_X, FIG6_Y) == (2, 4, 6, 1, 5, 3)

    def test_identity_case(self):
        x = (3, 1, 2)
        assert normalize(x, x) == x

    def test_tie_prefers_smallest_shift(self):
        # distances over shifts of (1,2) against itself: k=0 gives 0, k=1 gives 2
        assert normalize((1, 2), (1, 2)) == (1, 2)

    def test_achieves_quotient_distance(self):
        rng = np.random.default_rng(4)
        for base in ("hamming", "swap"):
            metric = hamming_distance if base == "hamming" else swap_distance
            for _ in range(40):
                x, y = random_perm(rng, 7), random_perm(rng, 7)
                y_star = normalize(x, y, base)
                assert metric(x, y_star) == quotient_distance(x, y, base)

    def test_normalizer_wrapper(self):
        family = FAMILIES["circular"]
        opts = Options(metric="hamming")
        x_star, y_star = family.normalize(FIG6_X, FIG6_Y, opts, None)
        assert (x_star, y_star) == (FIG6_X, (2, 4, 6, 1, 5, 3))
        assert hamming_distance(x_star, y_star) == quotient_distance(FIG6_X, FIG6_Y) == 2


class TestAgainstRotationScan:
    """The rotation vote (Hamming) and the scan (swap) against `scan_rotation`."""

    @staticmethod
    def _agree(x, y, base):
        k, dist = scan_rotation(x, y, BASE_METRICS[base])
        assert normalize(x, y, base) == shift(y, k)
        assert quotient_distance(x, y, base) == dist

    @pytest.mark.parametrize("base", sorted(BASE_METRICS))
    def test_random_permutations(self, base):
        rng = np.random.default_rng(10)
        for _ in range(600):
            n = int(rng.integers(1, 41))
            x = random_perm(rng, n)
            y = shift(x, int(rng.integers(0, n))) if rng.random() < 0.3 else random_perm(rng, n)
            self._agree(x, y, base)

    @pytest.mark.parametrize("base", sorted(BASE_METRICS))
    def test_tied_steps_smallest_wins(self, base):
        # steps 1 and 3 both reach distance 2 (Hamming) and 1 (swap)
        assert normalize((1, 2, 3, 4), (2, 1, 4, 3), base) == (3, 2, 1, 4)
        rng = np.random.default_rng(11)
        tied = 0
        for _ in range(400):
            n = int(rng.integers(2, 7))
            x, y = random_perm(rng, n), random_perm(rng, n)
            rows = [BASE_METRICS[base](x, shift(y, k)) for k in range(n)]
            tied += rows.count(min(rows)) > 1
            self._agree(x, y, base)
        assert tied > 100

    def test_repeated_values(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 21))
            x = random_symbols(rng, n, int(rng.integers(1, 4)))
            y = random_symbols(rng, n, int(rng.integers(1, 5)))
            self._agree(x, y, "hamming")
        # no common value: every step has zero votes, and step 0 wins
        assert normalize((1, 1, 1), (2, 3, 2)) == (2, 3, 2)
        assert quotient_distance((1, 1, 1), (2, 3, 2)) == 3


def _both(x, y):
    """`normalize_pairs` on the one pair (x, y)."""
    [moved] = normalize_pairs([(x, y)])
    return moved


class TestNormalizePairs:
    """Both orders from each pair's one Hamming distance list: one vote count
    over the whole batch."""

    @staticmethod
    def _pairs(rng, n, count):
        for i in range(count):
            x = random_perm(rng, n)
            y = shift(x, int(rng.integers(0, n))) if i % 3 == 0 and n else random_perm(rng, n)
            yield x, y

    def test_equals_two_normalize_calls(self):
        rng = np.random.default_rng(13)
        for n in list(range(12)) + [100]:
            pairs = list(self._pairs(rng, n, 30))
            expected = [(normalize(x, y), normalize(y, x)) for x, y in pairs]
            assert normalize_pairs(pairs) == expected
            assert [_both(x, y) for x, y in pairs] == expected

    def test_rejects_repeated_values(self):
        # the vote count reads each city's one slot; `normalize` takes repeated
        # values, and its vote pass counts every match (TestRotationQuotient)
        rng = np.random.default_rng(14)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            x, y = random_symbols(rng, n, 3), random_symbols(rng, n, 3)
            if sorted(x) == sorted(y) == list(range(1, n + 1)):
                assert _both(x, y) == (normalize(x, y), normalize(y, x))
                continue
            bad = x if sorted(x) != list(range(1, n + 1)) else y
            with pytest.raises(InputError, match=re.escape(f"not a permutation of 1..{n}: {bad}")):
                _both(x, y)

    def test_reverse_tie_rule(self):
        # steps 1 and 3 tie for (x, y); (y, x) ties at steps 3 and 1, and
        # takes 1, not the inverse 3 of the forward step
        x, y = (1, 2, 3, 4), (2, 1, 4, 3)
        assert _both(x, y) == ((3, 2, 1, 4), (4, 1, 2, 3))
        # a reversed tour of even length ties at every odd step, in both orders
        x = (1, 2, 3, 4, 5, 6)
        y = x[::-1]
        assert _both(x, y) == (shift(y, 1), shift(x, 1))

    def test_size_mismatch(self):
        for x, y in [((1, 2), (1, 2, 3)), ((), (1,)), ((1,), ())]:
            with pytest.raises(DimensionError):
                normalize(x, y)
            with pytest.raises(DimensionError):
                _both(x, y)

    @pytest.mark.parametrize("metric", ["swap", "edit"])
    def test_family_batch_refuses_a_metric_other_than_hamming(self, metric):
        # under swap, `normalize` keeps y here, while the Hamming batch would rotate it
        x, y = (1, 2, 3, 4, 5), (2, 1, 4, 3, 5)
        assert normalize(x, y, "swap") == y
        assert _both(x, y)[0] == (5, 2, 1, 4, 3)
        family = FAMILIES["circular"]
        with pytest.raises(ParameterError, match=f"^the circular batch serves metric 'hamming' only, got '{metric}'$"):
            family.normalize_pairs([(x, y)], Options(metric=metric))
        assert family.normalize_pairs([(x, y)], Options(metric="hamming")) == [((x, (5, 2, 1, 4, 3)), (y, _both(x, y)[1]))]


class TestEmptyTour:
    def test_shift(self):
        assert shift((), 1) == ()

    @pytest.mark.parametrize("base", sorted(BASE_METRICS))
    def test_normalize(self, base):
        assert normalize((), (), base) == ()

    @pytest.mark.parametrize("base", sorted(BASE_METRICS))
    def test_quotient_distance(self, base):
        assert quotient_distance((), (), base) == 0


class TestPiCycleCrossover:
    def test_rotated_parent_reproduces_first(self):
        rng = np.random.default_rng(5)
        x = (5, 3, 1, 2, 4)
        y = shift(x, 3)
        for _ in range(10):
            assert pi_cycle_crossover(x, y, rng) == x

    def test_worked_pair_offspring_within_cycle_enumeration(self):
        rng = np.random.default_rng(6)
        y_star = normalize(FIG6_X, FIG6_Y)
        expected = enumerate_cycle_offspring(FIG6_X, y_star)
        for _ in range(50):
            assert pi_cycle_crossover(FIG6_X, FIG6_Y, rng) in expected

    def test_offspring_validity_and_base_segment(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x, y = random_perm(rng, 8), random_perm(rng, 8)
            y_star = normalize(x, y)
            z = pi_cycle_crossover(x, y, rng)
            assert sorted(z) == list(range(1, 9))
            assert (
                hamming_distance(x, z) + hamming_distance(z, y_star)
                == hamming_distance(x, y_star)
            )

    def test_quotient_segment_containment(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            x, y = random_perm(rng, 8), random_perm(rng, 8)
            z = pi_cycle_crossover(x, y, rng)
            assert quotient_distance(x, z) + quotient_distance(z, y) == quotient_distance(x, y)


class TestShiftGroupStructure:
    def test_equivalence_and_isometries(self):
        rng = np.random.default_rng(9)
        action = shift_action(7)
        sampler = lambda r: random_perm(r, 7)
        assert verify_equivalence(action, sampler, rng, 300).ok
        assert verify_isometry(action, hamming_distance, sampler, rng, 300).ok
        assert verify_isometry(action, swap_distance, sampler, rng, 300).ok


class TestTourLength:
    UNIT_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

    def test_unit_square_length(self):
        assert tour_length((1, 2, 3, 4), leg_lengths(self.UNIT_SQUARE)) == pytest.approx(
            4.0, abs=1e-12
        )

    def test_rotation_invariant_fitness(self):
        tour, legs = (1, 2, 3, 4), leg_lengths(self.UNIT_SQUARE)
        for k in range(4):
            assert tour_length(shift(tour, k), legs) == pytest.approx(
                tour_length(tour, legs), abs=1e-12
            )

    def test_size_mismatch_message(self):
        with pytest.raises(DimensionError, match=r"^tour over 3 cities, instance has 4$"):
            tour_length((1, 2, 3), leg_lengths(self.UNIT_SQUARE))

    def test_table_sum_equals_coordinate_sum_exactly(self):
        rng = np.random.default_rng(5)
        for n in range(3, 201):
            cities = tuple((float(x), float(y)) for x, y in rng.random((n, 2)))
            legs = leg_lengths(cities)
            for _ in range(3):
                tour = random_perm(rng, n)
                assert tour_length(tour, legs) == coordinate_tour_length(tour, cities)

    @pytest.mark.parametrize("mode", ["raw", "quotient"])
    def test_every_ga_tsp_tour_equals_coordinate_sum_exactly(self, mode):
        """The fitness of every tour a seeded TSP GA evaluates is the
        coordinate sum bit for bit, so replays keep their bytes."""
        cities, instance_seed = 100, 1
        problem = random_tsp_problem(cities, instance_seed)
        coords = tuple(
            (float(x), float(y))
            for x, y in np.random.default_rng(instance_seed).random((cities, 2))
        )
        evaluated = []

        def fitness(tour):
            evaluated.append(tour)
            return problem.fitness(tour)

        run_ga(
            dataclasses.replace(problem, fitness=fitness),
            GAConfig(population=30, generations=30, mode=mode, seed=1),
        )
        # an offspring equal to a parent of its pair takes the parent's
        # score, so about a third of the 900 offspring reach the fitness
        assert len(evaluated) > 30 * 8
        for tour in evaluated:
            assert problem.fitness(tour) == coordinate_tour_length(tour, coords)
