"""Labeling-independent distance, normalization, and crossover."""

import numpy as np
import pytest

from qgx.errors import DimensionError, InputError
from qgx.families import FAMILIES, Options
from qgx.grouping import li_distance, li_normalize, relabel
from qgx.metrics import hamming_distance

from oracles import exhaustive_li_distance, random_symbols

FIG3_X, FIG3_Y, FIG3_K = (1, 2, 3, 1), (2, 1, 2, 3), 3


def li_crossover(a, b, k, rng):
    """The grouping family's quotient crossover: relabel b toward a, then uniform crossover."""
    return FAMILIES["grouping"].quotient_crossover(Options(k=k))(a, b, rng)


class TestRelabel:
    def test_four_ary_example(self):
        a = (1, 2, 3, 3, 2, 4, 1, 4)
        assert relabel(a, (2, 4, 3, 1)) == (2, 4, 3, 3, 4, 1, 2, 1)

    def test_identity(self):
        a = (1, 3, 2, 2)
        assert relabel(a, (1, 2, 3)) == a

    def test_worked_row(self):
        assert relabel((2, 1, 2, 3), (2, 3, 1)) == (3, 2, 3, 1)

    def test_symbol_out_of_alphabet(self):
        with pytest.raises(InputError):
            relabel((1, 4), (2, 1, 3))


class TestLiDistance:
    def test_worked_example(self):
        assert li_distance(FIG3_X, FIG3_Y, FIG3_K) == 1

    def test_same_class_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = random_symbols(rng, 7, 4)
            sigma = tuple(int(v) + 1 for v in rng.permutation(4))
            assert li_distance(relabel(b, sigma), b, 4) == 0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(150):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 9))
            a, b = random_symbols(rng, n, k), random_symbols(rng, n, k)
            assert li_distance(a, b, k) == exhaustive_li_distance(a, b, k)

    def test_label_invariance_both_sides(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            a, b = random_symbols(rng, 6, 4), random_symbols(rng, 6, 4)
            sigma = tuple(int(v) + 1 for v in rng.permutation(4))
            tau = tuple(int(v) + 1 for v in rng.permutation(4))
            assert li_distance(relabel(a, sigma), relabel(b, tau), 4) == li_distance(a, b, 4)

    def test_never_exceeds_hamming(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_symbols(rng, 6, 3), random_symbols(rng, 6, 3)
            assert li_distance(a, b, 3) <= hamming_distance(a, b)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            li_distance((1, 2), (1, 2, 3), 3)

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            li_distance((1, 5), (1, 2), 3)


class TestLiNormalize:
    def test_worked_example(self):
        assert li_normalize(FIG3_X, FIG3_Y, FIG3_K) == (3, 2, 3, 1)

    def test_equal_parents(self):
        a = (2, 2, 1, 3)
        assert li_normalize(a, a, 3) == a

    def test_achieves_exhaustive_minimum(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 9))
            a, b = random_symbols(rng, n, k), random_symbols(rng, n, k)
            b_star = li_normalize(a, b, k)
            assert hamming_distance(a, b_star) == exhaustive_li_distance(a, b, k)

    def test_result_is_in_class_of_b(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_symbols(rng, 6, 4), random_symbols(rng, 6, 4)
            assert li_distance(li_normalize(a, b, 4), b, 4) == 0

    @pytest.mark.parametrize("b", [(1, 4, 2), (0, 1, 2), (1, 2, -1)])
    def test_label_of_b_out_of_range(self, b):
        with pytest.raises(InputError, match="outside alphabet 1..3"):
            li_normalize((1, 2, 3), b, 3)

    def test_normalizer_reports_quotient_distance(self):
        family = FAMILIES["grouping"]
        assert family.exact(Options(k=4))
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = random_symbols(rng, 6, 4), random_symbols(rng, 6, 4)
            a_star, b_star = family.normalize(a, b, Options(k=4), rng)
            assert a_star == a
            assert hamming_distance(a_star, b_star) == li_distance(a, b, 4)


class TestLiCrossover:
    def test_same_class_parents_reproduce_first(self):
        rng = np.random.default_rng(7)
        a = (1, 2, 3, 1, 2)
        b = relabel(a, (3, 1, 2))
        for _ in range(10):
            child = li_crossover(a, b, 3, rng)
            assert child == a  # normalization maps b exactly onto a

    def test_worked_example_offspring_set(self):
        rng = np.random.default_rng(8)
        seen = {li_crossover(FIG3_X, FIG3_Y, FIG3_K, rng) for _ in range(60)}
        assert seen == {(1, 2, 3, 1), (3, 2, 3, 1)}

    def test_base_geometricity_after_normalization(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a, b = random_symbols(rng, 6, 4), random_symbols(rng, 6, 4)
            b_star = li_normalize(a, b, 4)
            z = li_crossover(a, b, 4, rng)
            assert (
                hamming_distance(a, z) + hamming_distance(z, b_star)
                == hamming_distance(a, b_star)
            )

    def test_quotient_segment_containment(self):
        rng = np.random.default_rng(10)
        for _ in range(500):
            a, b = random_symbols(rng, 6, 4), random_symbols(rng, 6, 4)
            z = li_crossover(a, b, 4, rng)
            dxz = exhaustive_li_distance(a, z, 4)
            dzy = exhaustive_li_distance(z, b, 4)
            dxy = exhaustive_li_distance(a, b, 4)
            assert dxz + dzy == dxy
