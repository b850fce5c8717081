"""Hungarian solver against the exhaustive oracle and its reduction laws."""

import numpy as np
import pytest

from qgx.assignment import hungarian
from qgx.errors import InputError

from oracles import brute_assignment, vectorized_hungarian


def test_identity_favoring_matrix():
    cost = [[0 if i == j else 1 for j in range(5)] for i in range(5)]
    assignment, total = hungarian(cost)
    assert assignment == (1, 2, 3, 4, 5)
    assert total == 0


def test_single_cell():
    assert hungarian([[7]]) == ((1,), 7.0)


def test_non_square_rejected():
    with pytest.raises(InputError):
        hungarian([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(InputError):
        hungarian([1, 2, 3])


def test_non_finite_rejected():
    with pytest.raises(InputError):
        hungarian([[1.0, float("inf")], [2.0, 3.0]])


def test_overflowing_entries_rejected():
    # finite entries whose reduced costs overflow leave no column to pick;
    # without the check the phase would loop forever
    with pytest.raises(InputError, match="too large"):
        hungarian([[-1.7e308, 1.7e308], [-1e308, 1e308]])


def test_assignment_is_permutation_and_total_consistent():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        cost = rng.integers(-20, 50, size=(n, n))
        assignment, total = hungarian(cost)
        assert sorted(assignment) == list(range(1, n + 1))
        assert total == sum(cost[i][assignment[i] - 1] for i in range(n))


def test_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(1, 8))
        cost = rng.integers(-10, 30, size=(n, n)).tolist()
        _, total = hungarian(cost)
        assert total == brute_assignment(cost), f"trial {trial}, cost {cost}"


def test_matches_brute_force_real_costs():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        cost = rng.normal(size=(n, n)).tolist()
        _, total = hungarian(cost)
        assert total == pytest.approx(brute_assignment(cost), abs=1e-9)


def test_row_and_column_shift_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        cost = rng.integers(0, 40, size=(n, n)).astype(float)
        assignment, total = hungarian(cost)

        shifted = cost.copy()
        row, col = int(rng.integers(0, n)), int(rng.integers(0, n))
        row_c, col_c = float(rng.integers(-9, 10)), float(rng.integers(-9, 10))
        shifted[row, :] += row_c
        shifted[:, col] += col_c
        shifted_assignment, shifted_total = hungarian(shifted)
        # every perfect matching picks one cell per row and per column
        assert shifted_total == pytest.approx(total + row_c + col_c, abs=1e-9)
        assert sorted(shifted_assignment) == list(range(1, n + 1))


def test_deterministic_on_ties():
    cost = [[0, 0], [0, 0]]
    first = hungarian(cost)
    for _ in range(5):
        assert hungarian(cost) == first


def test_medium_instance_fast():
    rng = np.random.default_rng(123)
    cost = rng.integers(0, 1000, size=(200, 200))
    assignment, total = hungarian(cost)
    assert sorted(assignment) == list(range(1, 201))
    assert total <= cost.trace()


def test_matches_vectorized_solver():
    """Same assignment and same total, bit for bit, as the former solver,
    on the shapes the program builds (0/1 entries from symmetric-discrete,
    negated counts from grouping) and on integer and real costs; ties are
    common in all but the reals, so this pins the tie rule."""
    rng = np.random.default_rng(17)
    shapes = (
        lambda n: rng.integers(0, 2, size=(n, n)),
        lambda n: -rng.integers(0, 6, size=(n, n)),
        lambda n: rng.integers(-20, 50, size=(n, n)),
        lambda n: rng.normal(size=(n, n)),
    )
    cases = [make(n).tolist() for n in range(1, 9) for make in shapes for _ in range(100)]
    cases += [rng.integers(0, 2, size=(n, n)).tolist() for n in range(20, 61, 5)]
    for cost in cases:
        assert hungarian(cost) == vectorized_hungarian(cost), cost
