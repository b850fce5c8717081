"""Labeling-independent distance, normalization, and crossover."""

import re
from collections import Counter

import numpy as np
import pytest

from qgx import grouping
from qgx.assignment import hungarian
from qgx.errors import DimensionError, InputError, ParameterError
from qgx.families import FAMILIES, Options
from qgx.genotypes import invert_permutation
from qgx.grouping import li_distance, li_normalize, li_normalize_pairs, relabel
from qgx.metrics import hamming_distance
from qgx.problems import Problem

from oracles import exhaustive_li_distance, minimum_assignments, random_symbols

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

    @pytest.mark.parametrize("entry", [li_distance, li_normalize, lambda a, b, k: li_normalize_pairs([(a, b)], k)])
    def test_alphabet_cap(self, entry):
        # the k x k table is built only after the check
        with pytest.raises(InputError, match=r"^alphabet size k must be at most 100, got 101$"):
            entry((1, 2), (2, 1), grouping.MAX_K + 1)


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


def _ga_like_pair(rng, n=60, k=4):
    """A parent and a relabeling of it with up to half its labels redrawn,
    as parents of one GA population are."""
    a = random_symbols(rng, n, k)
    b = list(relabel(a, tuple(int(v) + 1 for v in rng.permutation(k))))
    for i in rng.integers(0, n, size=int(rng.integers(0, n // 2 + 1))):
        b[i] = int(rng.integers(1, k + 1))
    return a, tuple(b)


def _unused_labels_pair(rng, n=8, k=5):
    """Both parents drawn from fewer labels than the alphabet holds."""
    return random_symbols(rng, n, k - 2), random_symbols(rng, n, k - 1)


def _both(a, b, k):
    """`li_normalize_pairs` on the one pair (a, b)."""
    [moved] = li_normalize_pairs([(a, b)], k)
    return moved


def _pair_of_table(agree):
    """A pair (a, b) whose agreement table is `agree`: agree[j][i]
    positions hold b-label j + 1 against a-label i + 1."""
    cells = [(i + 1, j + 1) for j, row in enumerate(agree) for i, c in enumerate(row) for _ in range(c)]
    return tuple(a for a, _ in cells), tuple(b for _, b in cells)


def _counting_hungarian(monkeypatch):
    calls = []

    def counted(cost):
        calls.append(cost)
        return hungarian(cost)

    monkeypatch.setattr(grouping, "hungarian", counted)
    return calls


class TestLiNormalizePairs:
    def _branch(self, a, b, k):
        if k > grouping.SCAN_K:
            return "above SCAN_K"
        return "tied" if len(minimum_assignments(grouping._cost_table(a, b, k))) > 1 else "unique"

    def test_equals_two_single_calls_on_every_branch(self):
        rng = np.random.default_rng(20)
        makers = [
            (4, _ga_like_pair),
            (4, lambda r: (random_symbols(r, 6, 4), random_symbols(r, 6, 4))),
            (4, lambda r: (random_symbols(r, 60, 4), random_symbols(r, 60, 4))),
            (5, _unused_labels_pair),
            (3, lambda r: _ga_like_pair(r, n=5, k=3)),
        ]
        branches = Counter()
        for k, make in makers:
            pairs = [make(rng) for _ in range(150)]
            expected = [(li_normalize(a, b, k), li_normalize(b, a, k)) for a, b in pairs]
            assert li_normalize_pairs(pairs, k) == expected
            assert [_both(a, b, k) for a, b in pairs] == expected
            branches.update(self._branch(a, b, k) for a, b in pairs)
        assert set(branches) == {"unique", "tied", "above SCAN_K"}
        assert min(branches.values()) >= 10

    def test_tied_and_equal_pairs(self):
        pairs = [((1, 1, 2, 2, 3, 4), (1, 2, 1, 2, 4, 3)), ((1, 1, 1, 1, 1, 1), (1, 2, 3, 4, 1, 2)),
                 ((2, 2, 1, 3), (2, 2, 1, 3)), ((1,), (1,))]
        for a, b in pairs:
            assert _both(a, b, 4) == (li_normalize(a, b, 4), li_normalize(b, a, 4))

    def test_hungarian_only_on_ties(self, monkeypatch):
        # b-label 1 meets a-labels 1 and 2 twice each, and both a-labels meet
        # b-label 1 most, so no row-minimum rule settles the table or its
        # transpose; yet the swap agrees on 3 positions, the identity on 2
        unique = ((1, 1, 2, 2, 1), (1, 1, 1, 1, 2))
        tied = ((1, 1), (1, 2))
        expected = {pair: (li_normalize(*pair, 2), li_normalize(*pair[::-1], 2)) for pair in (unique, tied)}
        calls = _counting_hungarian(monkeypatch)
        for pair, expected_calls in ((unique, 0), (tied, 2)):
            calls.clear()
            assert _both(*pair, 2) == expected[pair]
            assert len(calls) == expected_calls
        assert _both(*unique, 2) == ((2, 2, 2, 2, 1), (2, 2, 1, 1, 2))
        # in one batch, Hungarian runs on the tied pair's table and its transpose only
        swapped = ((1, 2), (2, 1))
        calls.clear()
        assert li_normalize_pairs([swapped, tied, swapped], 2) == [swapped, expected[tied], swapped]
        assert calls == [[[-1, 0], [-1, 0]], [[-1, -1], [0, 0]]]

    def test_checks_the_pair(self):
        with pytest.raises(DimensionError):
            _both((1, 2), (1, 2, 3), 3)
        with pytest.raises(InputError, match="outside alphabet 1..3"):
            _both((1, 2, 3), (1, 4, 2), 3)
        with pytest.raises(InputError, match="non-empty"):
            _both((), (), 0)


class TestScanOptimum:
    """The scan takes the unique optimum, the one Hungarian returns, and
    leaves the table to Hungarian, in both orders, exactly on a tie."""

    @staticmethod
    def _pin(agree, monkeypatch):
        cost = [[-c for c in row] for row in agree]
        optima = minimum_assignments(cost)
        sigma = optima[0] if len(optima) == 1 else None
        if sigma is not None:
            assert hungarian(cost)[0] == sigma
        a, b = _pair_of_table(agree)
        calls = _counting_hungarian(monkeypatch)
        [(b_star, _)] = li_normalize_pairs([(a, b)], len(agree))
        assert b_star == relabel(b, sigma or hungarian(cost)[0])
        assert len(calls) == (0 if sigma else 2)
        return sigma

    @pytest.mark.parametrize("high,seed", [(12, 21), (3, 22)])  # few values make ties
    def test_random_tables(self, high, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        found = Counter()
        for _ in range(400):
            k = int(rng.integers(1, grouping.SCAN_K + 1))
            agree = [[int(c) for c in row] for row in rng.integers(0, high, size=(k, k))]
            found[self._pin(agree, monkeypatch) is None] += 1
        assert min(found[True], found[False]) >= 10

    def test_small_tables(self, monkeypatch):
        assert self._pin([[7]], monkeypatch) == (1,)
        assert self._pin([[2, 2], [1, 0]], monkeypatch) == (2, 1)  # tied rows, unique optimum
        assert self._pin([[1, 0], [1, 0]], monkeypatch) is None
        assert self._pin([[0, 0], [0, 0]], monkeypatch) is None

    def test_ga_tables_and_their_transposes(self, monkeypatch):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = _ga_like_pair(rng)
            agree = [[-c for c in row] for row in grouping._cost_table(a, b, 4)]
            sigma = self._pin(agree, monkeypatch)
            assert self._pin([list(col) for col in zip(*agree)], monkeypatch) == (sigma and invert_permutation(sigma))


class TestMissingK:
    """Mutation draws labels from 1..k in both modes, so a grouping or
    symmetric-discrete problem without a usable k is rejected when built,
    before any run; the single-pair entries name k themselves."""

    @pytest.mark.parametrize("family", ["grouping", "symmetric-discrete"])
    @pytest.mark.parametrize("k,message", [
        (None, "k must be an integer, got None"),
        (2.0, "k must be an integer, got 2.0"),
        (0, "k must be >= 1, got 0"),
    ])
    def test_problem_without_k_is_rejected(self, family, k, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            Problem(name="no-k", family=family, fitness=lambda g: g.count(1),
                    initializer=lambda rng: random_symbols(rng, 8, 3), k=k)

    @pytest.mark.parametrize("k", [None, 2.0, "3"])
    def test_single_pair_entries_name_k(self, k):
        for entry in (li_distance, li_normalize):
            with pytest.raises(InputError, match=f"^alphabet size k must be an integer, got {k!r}$"):
                entry((1, 2), (2, 1), k)
