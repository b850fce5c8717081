"""Base metrics: worked values, metric axioms, BFS cross-check for swap."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qgx.crossovers import line_crossover
from qgx.errors import DimensionError, InputError, QgxError
from qgx.genotypes import symbol_vector
from qgx.grouping import li_distance, li_normalize, relabel
from qgx.metrics import euclidean_distance, hamming_distance, in_segment, swap_distance
from qgx.symmetric import normalize_discrete, normalize_real, quotient_hamming

from oracles import all_swap_distances_from, bfs_swap_distance, generator_hamming


class TestHamming:
    def test_single_difference(self):
        assert hamming_distance((1, 2, 3, 1), (3, 2, 3, 1)) == 1

    def test_identity(self):
        assert hamming_distance((1, 2, 3), (1, 2, 3)) == 0

    def test_all_differ(self):
        assert hamming_distance((1, 1, 1), (2, 2, 2)) == 3

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance((1, 2), (1, 2, 3))

    def test_matches_the_generator_form(self):
        rng = np.random.default_rng(0)
        entries = (0, 1, 2, 0.0, -0.0, 1.0, 2.5)
        for n in range(101):
            a = tuple(entries[i] for i in rng.integers(0, len(entries), size=n).tolist())
            b = tuple(entries[i] for i in rng.integers(0, len(entries), size=n).tolist())
            s = "".join("ab"[i] for i in rng.integers(0, 2, size=n).tolist())
            t = "".join("ab"[i] for i in rng.integers(0, 2, size=n).tolist())
            for x, y in ((a, b), (a, a), (s, t), (s, s)):
                d = hamming_distance(x, y)
                assert d == generator_hamming(x, y)
                assert type(d) is int


class TestEuclidean:
    def test_worked_example(self):
        assert euclidean_distance((1, 4, 5), (0, 3, 6)) == pytest.approx(
            math.sqrt(3), abs=1e-12
        )

    def test_identity(self):
        assert euclidean_distance((1.5, -2.0), (1.5, -2.0)) == 0.0

    def test_three_four_five(self):
        assert euclidean_distance((0, 0), (3, 4)) == pytest.approx(5.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            euclidean_distance((1.0,), (1.0, 2.0))


class TestSwap:
    def test_identity(self):
        assert swap_distance((3, 1, 2), (3, 1, 2)) == 0

    def test_one_transposition(self):
        assert swap_distance((1, 2, 3), (2, 1, 3)) == 1

    def test_four_cycle(self):
        p, q = (1, 2, 3, 4), (2, 3, 4, 1)
        assert bfs_swap_distance(p, q) == 3
        assert swap_distance(p, q) == 3

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            swap_distance((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_equals_bfs(self, n):
        perms = list(itertools.permutations(range(1, n + 1)))
        for p in perms:
            layered = all_swap_distances_from(p)
            for q in perms:
                assert swap_distance(p, q) == layered[q]

    def test_symmetry_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = tuple(int(v) + 1 for v in rng.permutation(6))
            q = tuple(int(v) + 1 for v in rng.permutation(6))
            assert swap_distance(p, q) == swap_distance(q, p)


class TestSegment:
    def test_endpoint(self):
        assert in_segment((1, 2), (1, 2), (3, 4), hamming_distance)

    def test_collinear_euclidean(self):
        assert in_segment((0, 0), (1, 1), (2, 2), euclidean_distance, tol=1e-9)

    def test_off_segment_hamming(self):
        assert not in_segment((1, 1), (2, 2), (1, 2), hamming_distance)


symbol_vectors = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        *([st.integers(1, 4)] * n),
    )
)


@given(st.data())
def test_hamming_axioms(data):
    n = data.draw(st.integers(1, 8))
    vec = st.tuples(*([st.integers(1, 4)] * n))
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    assert hamming_distance(x, x) == 0
    assert hamming_distance(x, y) == hamming_distance(y, x)
    assert (hamming_distance(x, y) == 0) == (x == y)
    assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


@given(st.data())
def test_euclidean_axioms(data):
    n = data.draw(st.integers(1, 6))
    coord = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    vec = st.tuples(*([coord] * n))
    x, y, z = data.draw(vec), data.draw(vec), data.draw(vec)
    assert euclidean_distance(x, x) == 0.0
    assert euclidean_distance(x, y) == pytest.approx(euclidean_distance(y, x), abs=1e-9)
    assert euclidean_distance(x, z) <= (
        euclidean_distance(x, y) + euclidean_distance(y, z) + 1e-9
    )


@given(st.data())
def test_swap_axioms(data):
    n = data.draw(st.integers(1, 5))
    perm = st.permutations(list(range(1, n + 1)))
    x = tuple(data.draw(perm))
    y = tuple(data.draw(perm))
    z = tuple(data.draw(perm))
    assert swap_distance(x, x) == 0
    assert swap_distance(x, y) == swap_distance(y, x)
    assert swap_distance(x, z) <= swap_distance(x, y) + swap_distance(y, z)


# Each entry point that runs the shared alphabet check
# (`genotypes.check_symbols`) or length check (`metrics.require_same_length`)
# raises the class and the exact text it raised when each held its own copy.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: symbol_vector([1, 4], 3), InputError, "symbol 4 outside alphabet 1..3"),
        (lambda: relabel((2, 0), (2, 1, 3)), InputError, "symbol 0 outside alphabet 1..3"),
        (lambda: li_distance((1, 2), (4, 1), 3), InputError, "symbol 4 outside alphabet 1..3"),
        (lambda: li_normalize((5, 1), (1, 7), 4), InputError, "symbol 5 outside alphabet 1..4"),
        (lambda: li_distance((1, 2), (1, 2, 3), 3), DimensionError, "length mismatch: 2 vs 3"),
        (lambda: li_distance((9,), (1, 2), 3), DimensionError, "length mismatch: 1 vs 2"),
        (lambda: normalize_real((1.0,), (1.0, 2.0)), DimensionError, "length mismatch: 1 vs 2"),
        (lambda: normalize_discrete((1, 2, 3), (1, 2)), DimensionError, "length mismatch: 3 vs 2"),
        (lambda: quotient_hamming((1,), ()), DimensionError, "length mismatch: 1 vs 0"),
        (lambda: line_crossover((1.0, 2.0), (1.0,), 0.5), DimensionError, "length mismatch: 2 vs 1"),
        (lambda: hamming_distance((1, 2), (1, 2, 3)), DimensionError, "length mismatch: 2 vs 3"),
        (lambda: hamming_distance("abc", ""), DimensionError, "length mismatch: 3 vs 0"),
        (lambda: euclidean_distance((1.0,), (1.0, 2.0)), DimensionError, "length mismatch: 1 vs 2"),
        (lambda: euclidean_distance((), (0.0,)), DimensionError, "length mismatch: 0 vs 1"),
    ],
)
def test_shared_checks_keep_every_message(call, error, message):
    with pytest.raises(QgxError) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
