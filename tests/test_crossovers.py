"""Base crossovers: worked values and geometricity under their metrics."""

import numpy as np
import pytest

from qgx.crossovers import (
    cycle_crossover,
    line_crossover,
    mask_crossover,
    random_mask,
    uniform_crossover,
)
from qgx.errors import DimensionError, InputError, ParameterError
from qgx.metrics import euclidean_distance, hamming_distance, in_segment, pair_cycles, swap_distance

from oracles import (
    enumerate_cycle_offspring,
    generator_line_crossover,
    generator_mask_crossover,
    generator_random_mask,
    per_cycle_coin_cycle_crossover,
    position_cycles,
    random_perm,
    random_symbols,
)


GENERATORS = [
    np.random.default_rng,
    lambda seed: np.random.Generator(np.random.MT19937(seed)),
    lambda seed: np.random.Generator(np.random.Philox(seed)),
    lambda seed: np.random.Generator(np.random.SFC64(seed)),
]


def _state(rng):
    """The bit generator's state with its arrays as lists, so states compare with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


class TestMaskCrossover:
    def test_all_first(self):
        p1, p2 = (1, 2, 3), (4, 5, 6)
        assert mask_crossover(p1, p2, (0, 0, 0)) == p1

    def test_equal_parents(self):
        p = (2, 2, 1)
        for m in [(0, 0, 0), (1, 1, 1), (0, 1, 0)]:
            assert mask_crossover(p, p, m) == p

    def test_positionwise(self):
        assert mask_crossover((1, 2, 3, 1), (3, 2, 3, 1), (0, 0, 1, 1)) == (1, 2, 3, 1)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            mask_crossover((1, 2), (1, 2, 3), (0, 0, 0))

    def test_geometric_under_hamming(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p1 = random_symbols(rng, 8, 4)
            p2 = random_symbols(rng, 8, 4)
            z = mask_crossover(p1, p2, random_mask(8, rng))
            assert hamming_distance(p1, z) + hamming_distance(z, p2) == hamming_distance(p1, p2)

    def test_uniform_crossover_is_masked(self):
        rng = np.random.default_rng(3)
        p1, p2 = (1, 1, 1, 1), (2, 2, 2, 2)
        z = uniform_crossover(p1, p2, rng)
        assert all(c in (1, 2) for c in z)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**40 + 3])
    def test_random_mask_draw_matches_the_per_scalar_form(self, seed):
        """The float32 coins equal `integers(0, 2, size=n)` on four bit
        generators. Between calls each stream takes a `random()` and an
        odd number of scalar `integers` draws, so calls also start on a
        half-used 64-bit word."""
        for make in GENERATORS:
            rng_a, rng_b = make(seed), make(seed)
            for n in range(201):
                mask = random_mask(n, rng_a)
                assert mask == generator_random_mask(n, rng_b)
                assert all(type(bit) is int for bit in mask)
                assert _state(rng_a) == _state(rng_b), (make, n)
                for rng in (rng_a, rng_b):
                    rng.random()
                    for _ in range(1 + 2 * (n % 3)):
                        rng.integers(0, 7)

    def test_matches_the_generator_form(self):
        rng = np.random.default_rng(8)
        for n in range(101):
            m = random_mask(n, rng)
            p1, p2 = random_symbols(rng, n, 4), random_symbols(rng, n, 4)
            s1, s2 = "".join(map(str, p1)), "".join(map(str, p2))
            for a, b in ((p1, p2), (s1, s2), (list(p1), list(p2))):
                got = mask_crossover(a, b, m)
                assert type(got) is tuple
                assert got == generator_mask_crossover(a, b, m), (n, a, b, m)


class TestLineCrossover:
    def test_endpoints(self):
        p1, p2 = (1.0, 2.0), (3.0, -1.0)
        assert line_crossover(p1, p2, 1.0) == p1
        assert line_crossover(p1, p2, 0.0) == p2

    def test_midpoint(self):
        assert line_crossover((0.0, 0.0), (2.0, 4.0), 0.5) == (1.0, 2.0)

    def test_lambda_out_of_range(self):
        with pytest.raises(ParameterError):
            line_crossover((0.0,), (1.0,), 1.5)

    def test_segment_containment(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p1 = tuple(rng.uniform(-10, 10, size=5))
            p2 = tuple(rng.uniform(-10, 10, size=5))
            z = line_crossover(p1, p2, float(rng.random()))
            assert in_segment(p1, z, p2, euclidean_distance, tol=1e-9)

    def test_matches_the_generator_form_bit_for_bit(self):
        rng = np.random.default_rng(3)
        # signed zeros and subnormals: both products can underflow to -0.0
        coords = [0.0, -0.0, 5e-324, -5e-324, -1e-320, 2.5, -7.25]
        lams = [0.0, 1.0, 0.5] + rng.random(20).tolist()
        for n in (0, 1, 5, 40):
            for lam in lams:
                p1 = tuple(rng.choice(coords, size=n).tolist())
                p2 = tuple(rng.choice(coords, size=n).tolist())
                got = line_crossover(p1, p2, lam)
                assert repr(got) == repr(generator_line_crossover(p1, p2, lam))
        assert repr(line_crossover((-5e-324, -0.0), (-5e-324, -5e-324), 0.5)) == "(-0.0, -0.0)"


NON_PERMUTATION_PAIRS = [
    ((1, 2, 3), (1, 2, 4)),  # a value of p2 missing from p1
    ((1, 1, 2), (1, 2, 2)),  # repeated values
    ((1, 2, 3), (1, 1, 2)),  # repeats in p2 only
    ((1, 1, 3), (1, 2, 3)),  # repeats in p1 only
]
NOT_PERMUTATIONS = "^parents are not permutations of the same values$"


class TestPairCycles:
    @staticmethod
    def expected(p1, p2):
        """Labels and count from the oracle's cycles, each cycle labelled by its index."""
        cycles = position_cycles(p1, p2)
        label = [0] * len(p1)
        for c, cycle in enumerate(cycles):
            for i in cycle:
                label[i] = c
        return label, len(cycles)

    def test_labels_match_oracle_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for n in range(13):
            for _ in range(40):
                p1, p2 = random_perm(rng, n), random_perm(rng, n)
                assert pair_cycles(p1, p2) == self.expected(p1, p2), (p1, p2)

    def test_labels_match_oracle_on_close_pairs(self):
        """A few swaps apart at n = 100, so there are many short cycles."""
        rng = np.random.default_rng(32)
        for swaps in (0, 1, 3, 6):
            p1 = random_perm(rng, 100)
            p2 = list(p1)
            for _ in range(swaps):
                i, j = rng.choice(100, size=2, replace=False).tolist()
                p2[i], p2[j] = p2[j], p2[i]
            p2 = tuple(p2)
            label, count = pair_cycles(p1, p2)
            assert (label, count) == self.expected(p1, p2)
            assert count >= 100 - swaps

    @pytest.mark.parametrize("p1, p2", NON_PERMUTATION_PAIRS)
    def test_swap_distance_rejects_non_permutations(self, p1, p2):
        with pytest.raises(InputError, match=NOT_PERMUTATIONS):
            swap_distance(p1, p2)


class TestCycleCrossover:
    def test_equal_parents(self):
        rng = np.random.default_rng(0)
        p = (3, 1, 4, 2)
        assert cycle_crossover(p, p, rng) == p

    def test_single_cycle_gives_a_parent(self):
        rng = np.random.default_rng(0)
        p1, p2 = (1, 2, 3, 4), (2, 3, 4, 1)
        assert pair_cycles(p1, p2)[1] == 1
        for _ in range(20):
            assert cycle_crossover(p1, p2, rng) in (p1, p2)

    def test_two_cycle_enumeration(self):
        p1, p2 = (1, 2, 3, 4), (2, 1, 4, 3)
        expected = {(1, 2, 3, 4), (2, 1, 4, 3), (1, 2, 4, 3), (2, 1, 3, 4)}
        assert enumerate_cycle_offspring(p1, p2) == expected
        rng = np.random.default_rng(7)
        seen = {cycle_crossover(p1, p2, rng) for _ in range(100)}
        assert seen == expected

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            cycle_crossover((1, 2), (1, 2, 3), np.random.default_rng(0))

    @pytest.mark.parametrize("p1, p2", NON_PERMUTATION_PAIRS)
    def test_non_permutation_parents(self, p1, p2):
        with pytest.raises(InputError, match=NOT_PERMUTATIONS):
            pair_cycles(p1, p2)
        with pytest.raises(InputError, match=NOT_PERMUTATIONS):
            cycle_crossover(p1, p2, np.random.default_rng(0))

    def test_rejects_exactly_the_non_permutation_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            n = int(rng.integers(0, 6))
            p1, p2 = random_symbols(rng, n, n + 1), random_symbols(rng, n, n + 1)
            valid = len(set(p1)) == n and sorted(p1) == sorted(p2)
            try:
                pair_cycles(p1, p2)
            except InputError:
                assert not valid, (p1, p2)
            else:
                assert valid, (p1, p2)

    @pytest.mark.parametrize("kind", ["equal", "single cycle", "random", "near equal"])
    def test_sized_draw_matches_per_cycle_coins(self, kind):
        """One sized coin draw gives the child and the Generator state of
        one scalar draw per cycle. Each seed's two streams run on through
        n = 0..120, so calls also start with a half-used 64-bit word."""
        for seed in range(6):
            pick = np.random.default_rng(100 + seed)
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in range(121):
                p1 = random_perm(pick, n)
                if kind == "equal":
                    p2 = p1
                elif kind == "single cycle":
                    p2 = p1[1:] + p1[:1]
                elif kind == "random":
                    p2 = random_perm(pick, n)
                else:
                    p2 = list(p1)
                    if n >= 2:
                        i, j = pick.choice(n, size=2, replace=False).tolist()
                        p2[i], p2[j] = p2[j], p2[i]
                    p2 = tuple(p2)
                assert cycle_crossover(p1, p2, rng) == per_cycle_coin_cycle_crossover(p1, p2, ref)
                assert rng.bit_generator.state == ref.bit_generator.state, (kind, seed, n)

    def test_offspring_valid_and_in_both_segments(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p1, p2 = random_perm(rng, n), random_perm(rng, n)
            z = cycle_crossover(p1, p2, rng)
            assert sorted(z) == list(range(1, n + 1))
            assert in_segment(p1, z, p2, hamming_distance)
            assert in_segment(p1, z, p2, swap_distance)

    def test_offspring_within_enumerated_set(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            p1, p2 = random_perm(rng, n), random_perm(rng, n)
            assert cycle_crossover(p1, p2, rng) in enumerate_cycle_offspring(p1, p2)
