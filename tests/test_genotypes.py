"""Genotype samplers: the same values, element types and draws as their former forms;
and `stack_pairs`, the batch normalizers' one array of a generation's pairs."""

import numpy as np
import pytest

from qgx.errors import DimensionError
from qgx.genotypes import random_permutation, random_real_vector, random_symbol_vector, stack_pairs
from qgx.metrics import require_same_length
from qgx.sequences import random_sequence

from oracles import (
    generator_random_real_vector,
    generator_random_sequence,
    random_perm,
    random_symbols,
)

SAMPLERS = {
    "permutation": (lambda n, r: random_permutation(n, r),
                    lambda n, r: random_perm(r, n)),
    "symbols": (lambda n, r: random_symbol_vector(n, 4, r),
                lambda n, r: random_symbols(r, n, 4)),
    "reals": (lambda n, r: random_real_vector(n, r),
              lambda n, r: generator_random_real_vector(n, r)),
    "reals-signed-zero": (lambda n, r: random_real_vector(n, r, -0.0, 0.0),
                          lambda n, r: generator_random_real_vector(n, r, -0.0, 0.0)),
    "sequence": (lambda n, r: random_sequence(n, "acgt", r),
                 lambda n, r: generator_random_sequence(n, "acgt", r)),
}


@pytest.mark.parametrize("name", SAMPLERS)
@pytest.mark.parametrize("n", [0, 1, 5, 100])
def test_sampler_matches_its_generator_form(name, n):
    new_form, old_form = SAMPLERS[name]
    for seed in range(5):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            if name == "sequence" and n == 0:  # the length is drawn from the empty range 1..0
                with pytest.raises(ValueError) as got_error:
                    new_form(n, new)
                with pytest.raises(ValueError) as want_error:
                    old_form(n, old)
                assert str(got_error.value) == str(want_error.value)
                assert new.bit_generator.state == old.bit_generator.state
                continue
            got, want = new_form(n, new), old_form(n, old)
            assert repr(got) == repr(want)
            assert type(got) is type(want)
            assert [type(v) for v in got] == [type(v) for v in want]
            assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("dtype,pairs", [
    (np.intp, [((1, 2, 3), (3, 1, 2)), ((2, 2, 1), (1, 3, 3))]),
    (np.float64, [((0.0, -0.0, 2.5), (-1.0, 0.0, -0.0)), ((1.0, 1.0, 1.0), (-0.0, 2.5, 0.0))]),
])
def test_stack_pairs_keeps_every_value_and_checks_lengths_for_each_dtype(dtype, pairs):
    stacked = stack_pairs(pairs, require_same_length, dtype)
    assert stacked.dtype == dtype and stacked.shape == (2, 2, 3)
    if dtype is np.intp:
        assert stack_pairs(pairs, require_same_length).dtype == np.intp  # the default
    assert repr(stacked.tolist()) == repr([list(map(list, pair)) for pair in pairs])
    assert stack_pairs([], require_same_length, dtype).shape == (0, 2, 0)
    with pytest.raises(DimensionError, match="^length mismatch: 3 vs 2$"):
        stack_pairs([pairs[0], (pairs[1][0], pairs[1][1][:2])], require_same_length, dtype)
    with pytest.raises(DimensionError, match="^length mismatch across pairs: 3 vs 2$"):
        stack_pairs([pairs[0], (pairs[1][0][:2], pairs[1][1][:2])], require_same_length, dtype)
