"""Edit distance, optimal alignment, and homologous crossover."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgx import sequences
from qgx.errors import InputError
from qgx.families import FAMILIES, Options
from qgx.metrics import hamming_distance
from qgx.sequences import (
    GAP,
    check_sequence,
    edit_distance,
    edit_distance_to,
    edit_distances_to,
    optimal_align,
    optimal_align_both,
    tail_padded_crossover,
    unstretch,
)

from oracles import dp_edit_distance, dp_edit_table, dp_optimal_align, random_string

WORKED_S, WORKED_T = "agcacaca", "acacacta"

# the sequence family's quotient crossover: align, mask-recombine the rows, strip gaps
homologous_crossover = FAMILIES["sequence"].quotient_crossover(Options())

@st.composite
def text_pairs(draw):
    """Two strings over one alphabet, lengths 0-150 so that the bit-vector
    columns span several machine words; one alphabet is non-ASCII."""
    alphabet = draw(st.sampled_from(["acgt", "ab", "aé€漢🧬"]))
    return tuple(
        draw(st.text(alphabet=alphabet, min_size=n, max_size=n))
        for n in (draw(st.integers(0, 150)), draw(st.integers(0, 150)))
    )


@st.composite
def close_pairs(draw):
    """A string of length 0-150 and a copy of it after 0-20 random edits,
    the shape of the GA's parent pairs. One alphabet has a single letter,
    and half the first strings are a few long runs of one letter."""
    alphabet = draw(st.sampled_from(["acgt", "ab", "a", "αβγ"]))
    letter = st.sampled_from(alphabet)
    if draw(st.booleans()):
        runs = draw(st.lists(st.tuples(letter, st.integers(1, 40)), max_size=6))
        s = "".join(ch * size for ch, size in runs)[:150]
    else:
        s = draw(st.text(alphabet=alphabet, max_size=150))
    t = list(s)
    for _ in range(draw(st.integers(0, 20))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            t.insert(draw(st.integers(0, len(t))), draw(letter))
        elif t:
            pos = draw(st.integers(0, len(t) - 1))
            if op == "delete":
                del t[pos]
            else:
                t[pos] = draw(letter)
    return s, "".join(t)


def _assert_valid_moved_pairs(s, t):
    """`Alignment` checks nothing, so check here that every alignment from
    `optimal_align` and from both halves of `optimal_align_both` has
    equal-length rows and no double-gap column, unstretches back to its
    inputs, and unpacks as (left, right), the sequence family's moved pair."""
    normalize = FAMILIES["sequence"].normalize
    forward, reverse = optimal_align_both(s, t)
    for (a, b), alignment in (((s, t), optimal_align(s, t)), ((s, t), forward), ((t, s), reverse)):
        left, right = alignment
        assert (left, right) == (alignment.left, alignment.right)
        assert len(left) == len(right)
        assert (GAP, GAP) not in zip(left, right)
        assert (unstretch(left), unstretch(right)) == (a, b)
        assert (left, right) == normalize(a, b, Options(), None)


def _assert_columns_contract(s, t):
    """Every column `_columns` keeps holds the deltas of the full table in
    the bits its docstring names, and every word is non-negative."""
    dp = dp_edit_table(s, t)
    cols = sequences._columns(s, t)
    assert len(cols) == len(t) + 1
    for j, (pv, mv, ph, mh) in enumerate(cols):
        assert min(pv, mv, ph, mh) >= 0
        assert not pv & mv
        for r in range(len(s)):
            assert (pv >> r & 1) - (mv >> r & 1) == dp[r + 1][j] - dp[r][j]
        if j:
            for r in range(len(s) + 1):
                assert not ph >> r & mh >> r & 1
                assert (ph >> r & 1) - (mh >> r & 1) == dp[r][j] - dp[r][j - 1]


def _sibling_pairs(seed, count):
    """Pairs shaped like the GA's parent pairs: two copies of one random
    50-letter ancestor over "acgt", each after 0-40 random edits."""
    rng = np.random.default_rng(seed)

    def edited(s):
        t = list(s)
        for _ in range(int(rng.integers(0, 41))):
            pos = int(rng.integers(0, len(t) + 1))
            letter = "acgt"[int(rng.integers(0, 4))]
            op = int(rng.integers(0, 3))
            if op == 0 or pos == len(t):
                t.insert(pos, letter)
            elif op == 1:
                del t[pos]
            else:
                t[pos] = letter
        return "".join(t)

    pairs = []
    for _ in range(count):
        ancestor = "".join("acgt"[int(i)] for i in rng.integers(0, 4, size=50))
        pairs.append((edited(ancestor), edited(ancestor)))
    return pairs


class _AllFirstRng:
    """Stand-in generator whose mask bits always pick the first parent."""

    def random(self, size=None, dtype=np.float64):
        return np.zeros(size, dtype=dtype)


class TestUnstretch:
    def test_interleaved(self):
        assert unstretch("a-b-c") == "abc"

    def test_no_gaps(self):
        assert unstretch("abc") == "abc"

    def test_worked_stretching(self):
        assert unstretch("agcacac-a") == "agcacaca"

    def test_gap_rejected_in_input_sequences(self):
        with pytest.raises(InputError):
            check_sequence("ab-c")


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("acgt", "acgt") == 0

    def test_pure_insertions(self):
        assert edit_distance("", "abc") == 3

    def test_worked_pair(self):
        assert edit_distance(WORKED_S, WORKED_T) == 2

    @given(text_pairs())
    def test_matches_plain_dp(self, pair):
        assert edit_distance(*pair) == dp_edit_distance(*pair)

    @pytest.mark.parametrize("alphabet,target_alphabet", [
        ("acgt", "acgt"),
        # candidate letters absent from the target, and the reverse
        ("acgtαβ", "acgt"),
        ("acgt", "acgtαβ"),
    ])
    def test_target_masks_match_both_orders_and_plain_dp(self, alphabet, target_alphabet):
        """edit_distance_to(t) runs over t's masks, so it relies on the
        distance being symmetric; checked at every target length 0..200."""
        rng = np.random.default_rng(19)
        for n in range(201):
            t = "".join(target_alphabet[int(i)] for i in rng.integers(0, len(target_alphabet), size=n))
            distance = edit_distance_to(t)
            assert distance(t) == edit_distance(t, t) == 0
            for s in (random_string(rng, 200, alphabet), t[: n // 2] + "α" + t[n // 2 :]):
                expected = dp_edit_distance(s, t)
                assert distance(s) == edit_distance(s, t) == edit_distance(t, s) == expected

    @given(st.text(alphabet="acgt", max_size=15),
           st.text(alphabet="acgt", max_size=15),
           st.text(alphabet="acgt", max_size=15))
    def test_metric_axioms(self, x, y, z):
        assert edit_distance(x, x) == 0
        assert (edit_distance(x, y) == 0) == (x == y)
        assert edit_distance(x, y) == edit_distance(y, x)
        assert edit_distance(x, z) <= edit_distance(x, y) + edit_distance(y, z)


@st.composite
def packed_batches(draw):
    """A target, a batch to score against it and a chunk size: strings of
    63-65 letters (a lane across a 64-bit boundary), empty strings and the
    target itself. α occurs only in the target and β only in the strings;
    both may hold the gap, the letter that joins the lanes."""
    target = draw(st.text(alphabet="acgt-α", max_size=80))
    length = st.one_of(st.sampled_from([0, 63, 64, 65]), st.integers(0, 80))
    batch = draw(st.lists(st.one_of(
        st.just(target),
        length.flatmap(lambda n: st.text(alphabet="acgt-β", min_size=n, max_size=n)),
    ), max_size=10))
    return target, batch, draw(st.sampled_from([1, 3, sequences.LANES]))


class TestPackedEditDistance:
    @settings(deadline=None)
    @given(packed_batches())
    def test_matches_edit_distance_per_string(self, case):
        target, batch, lanes = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sequences, "LANES", lanes)
            assert edit_distances_to(target)(batch) == [edit_distance(s, target) for s in batch]

    def test_batches_longer_than_one_chunk(self):
        rng = np.random.default_rng(23)
        for n in (0, 1, 63, 64, 65, 100):
            target = "".join("acgt"[i] for i in rng.integers(0, 4, size=n))
            batch = [random_string(rng, 130, "acgtβ") for _ in range(2 * sequences.LANES)]
            batch += ["", target, "a" * 63, "c" * 64, "g" * 65]
            assert edit_distances_to(target)(batch) == [dp_edit_distance(s, target) for s in batch]

    def test_empty_batch_and_empty_target(self):
        assert edit_distances_to("acgt")([]) == []
        assert edit_distances_to("")(["", "a", "acgt"]) == [0, 1, 4]
        assert edit_distances_to("acgt")(["", "acgt", "tgca", "agt"]) == [4, 0, 4, 1]


class TestOptimalAlign:
    def test_worked_pair(self):
        alignment = optimal_align(WORKED_S, WORKED_T)
        assert (alignment.left, alignment.right) == ("agcacac-a", "a-cacacta")
        assert hamming_distance(alignment.left, alignment.right) == 2

    def test_self_alignment(self):
        alignment = optimal_align("acgt", "acgt")
        assert (alignment.left, alignment.right) == ("acgt", "acgt")

    def test_pure_insertion(self):
        alignment = optimal_align("", "ab")
        assert (alignment.left, alignment.right) == ("--", "ab")

    @given(text_pairs())
    def test_matches_full_table_backtrace(self, pair):
        alignment = optimal_align(*pair)
        assert (alignment.left, alignment.right) == dp_optimal_align(*pair)

    @given(close_pairs())
    def test_close_pairs_match_full_table_backtrace(self, pair):
        s, t = pair
        for x, y in ((s, t), (t, s)):
            alignment = optimal_align(x, y)
            assert (alignment.left, alignment.right) == dp_optimal_align(x, y)

    @given(close_pairs())
    def test_match_lemma(self, pair):
        # unit costs: wherever the letters match, the diagonal predecessor
        # has the same distance, which lets the backtrace skip match steps
        s, t = pair
        dp = dp_edit_table(s, t)
        for i in range(1, len(s) + 1):
            for j in range(1, len(t) + 1):
                if s[i - 1] == t[j - 1]:
                    assert dp[i][j] == dp[i - 1][j - 1]

    @given(text_pairs())
    def test_columns_hold_the_table_deltas(self, pair):
        _assert_columns_contract(*pair)

    @given(close_pairs())
    def test_columns_of_close_pairs_hold_the_table_deltas(self, pair):
        _assert_columns_contract(*pair)

    def test_long_close_pair(self):
        rng = np.random.default_rng(9)
        s = "".join("acgt"[c] for c in rng.integers(0, 4, size=400))
        edited = list(s)
        for pos in sorted(rng.choice(400, size=60, replace=False), reverse=True):
            op = rng.integers(0, 3)
            if op == 0:
                edited.insert(pos, "acgt"[rng.integers(0, 4)])
            elif op == 1:
                del edited[pos]
            else:
                edited[pos] = "acgt"[rng.integers(0, 4)]
        t = "".join(edited)
        alignment = optimal_align(s, t)
        assert (alignment.left, alignment.right) == dp_optimal_align(s, t)
        assert hamming_distance(alignment.left, alignment.right) == dp_edit_distance(s, t)

    @given(text_pairs())
    def test_both_orders_from_one_pass(self, pair):
        s, t = pair
        forward, reverse = optimal_align_both(s, t)
        assert (forward.left, forward.right) == dp_optimal_align(s, t)
        assert (reverse.left, reverse.right) == dp_optimal_align(t, s)

    @given(close_pairs())
    def test_both_orders_of_close_pairs(self, pair):
        s, t = pair
        assert optimal_align_both(s, t) == (optimal_align(s, t), optimal_align(t, s))

    @pytest.mark.parametrize("alphabet", ["acgt", "ab", "a"])
    def test_both_orders_match_full_table_backtraces(self, alphabet):
        # lengths 0-120, every other pair a copy of the first string after
        # up to 20 random edits, plus the empty string on either side
        rng = np.random.default_rng(len(alphabet))
        pairs = [("", ""), ("", alphabet * 3), (alphabet * 3, "")]
        for i in range(24):
            s = random_string(rng, 120, alphabet)
            if i % 2:
                t = list(s)
                for _ in range(int(rng.integers(0, 21))):
                    pos = int(rng.integers(0, len(t) + 1))
                    letter = alphabet[int(rng.integers(0, len(alphabet)))]
                    if pos < len(t) and rng.random() < 0.5:
                        del t[pos]
                    else:
                        t.insert(pos, letter)
                t = "".join(t)
            else:
                t = random_string(rng, 120, alphabet)
            pairs.append((s, t))
        for s, t in pairs:
            forward, reverse = optimal_align_both(s, t)
            assert (forward.left, forward.right) == dp_optimal_align(s, t)
            assert (reverse.left, reverse.right) == dp_optimal_align(t, s)
            assert reverse == optimal_align(t, s)

    def test_both_orders_of_every_short_binary_pair(self):
        # every pair over "ab" of lengths 0-5, so every small tie pattern of
        # either backtrace order
        strings = ["".join(p) for n in range(6) for p in itertools.product("ab", repeat=n)]
        for s, t in itertools.product(strings, repeat=2):
            forward, reverse = optimal_align_both(s, t)
            assert (forward.left, forward.right) == dp_optimal_align(s, t)
            assert (reverse.left, reverse.right) == dp_optimal_align(t, s)

    def test_one_walk_until_the_first_tie(self, monkeypatch):
        # the orders' walks differ only from the first delete/insert tie on:
        # a pair whose two alignments are one path takes one walk, any
        # other pair a second, full (t, s)-order walk from the end
        walks = []
        backtrace = sequences._backtrace
        monkeypatch.setattr(sequences, "_backtrace", lambda *args: walks.append(args) or backtrace(*args))
        seen = {1: 0, 2: 0}
        for s, t in _sibling_pairs(23, 120):
            walks.clear()
            forward, reverse = optimal_align_both(s, t)
            forward_dp, reverse_dp = dp_optimal_align(s, t), dp_optimal_align(t, s)
            assert (forward.left, forward.right) == forward_dp
            assert (reverse.left, reverse.right) == reverse_dp
            assert len(walks) == (1 if reverse_dp[::-1] == forward_dp else 2)
            cols = sequences._columns(s, t)
            assert walks == [(s, t, cols), (s, t, cols, True)][:len(walks)]
            seen[len(walks)] += 1
            assert (forward, reverse) == (optimal_align(s, t), optimal_align(t, s))
        assert min(seen.values()) >= 10

    def test_both_orders_check_their_inputs(self):
        with pytest.raises(InputError):
            optimal_align_both("ab", "a-b")

    def test_mismatches_equal_edit_distance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = random_string(rng, 12)
            t = random_string(rng, 12)
            alignment = optimal_align(s, t)
            assert unstretch(alignment.left) == s
            assert unstretch(alignment.right) == t
            assert hamming_distance(alignment.left, alignment.right) == edit_distance(s, t)

    def test_arbitrary_stretching_is_lower_bounded(self):
        # pad with gaps at random spots: Hamming of the stretched pair can
        # never beat the optimal alignment
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = random_string(rng, 8)
            t = random_string(rng, 8)
            width = max(len(s), len(t)) + int(rng.integers(0, 3))
            stretched = []
            for seq in (s, t):
                gaps = sorted(rng.choice(width, size=width - len(seq), replace=False))
                out, gi = [], 0
                chars = iter(seq)
                for pos in range(width):
                    if gi < len(gaps) and gaps[gi] == pos:
                        out.append("-")
                        gi += 1
                    else:
                        out.append(next(chars))
                stretched.append("".join(out))
            assert hamming_distance(stretched[0], stretched[1]) >= edit_distance(s, t)

    @given(text_pairs())
    def test_alignments_are_valid_moved_pairs(self, pair):
        _assert_valid_moved_pairs(*pair)

    @given(close_pairs())
    def test_alignments_of_close_pairs_are_valid_moved_pairs(self, pair):
        _assert_valid_moved_pairs(*pair)


class TestHomologousCrossover:
    def test_equal_parents(self):
        rng = np.random.default_rng(2)
        assert homologous_crossover("acgt", "acgt", rng) == "acgt"

    def test_all_first_mask_returns_first_parent(self):
        child = homologous_crossover(WORKED_S, WORKED_T, _AllFirstRng())
        assert child == WORKED_S

    def test_segment_equality(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            s = random_string(rng, 12)
            t = random_string(rng, 12)
            child = homologous_crossover(s, t, rng)
            assert edit_distance(s, child) + edit_distance(child, t) == edit_distance(s, t)

    def test_offspring_has_no_gap_and_bounded_length(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            s = random_string(rng, 10)
            t = random_string(rng, 10)
            alignment = optimal_align(s, t)
            child = homologous_crossover(s, t, rng)
            assert "-" not in child
            assert len(child) <= len(alignment.left)

    def test_tail_padded_variant_is_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = random_string(rng, 10)
            t = random_string(rng, 10)
            child = tail_padded_crossover(s, t, rng)
            assert "-" not in child
            assert len(child) <= max(len(s), len(t))

    def test_is_tail_padded_crossover_on_aligned_rows(self):
        rng = np.random.default_rng(6)
        for i in range(300):
            s = random_string(rng, 15)
            t = s if i % 7 == 0 else random_string(rng, 15)
            seed = int(rng.integers(0, 2**32))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            alignment = optimal_align(s, t)
            expected = tail_padded_crossover(alignment.left, alignment.right, rng_b)
            assert homologous_crossover(s, t, rng_a) == expected
            assert rng_a.random() == rng_b.random()
