"""Variable-length sequences, optimal alignment, homologous crossover.

Interleaving gap symbols stretches a sequence without changing what it
spells; all stretchings of the same sequence form one equivalence class.
The relation does not come from an isometry group, yet quotient mode is
the same normalize-then-crossover path as for every other family:
`optimal_align` normalizes the pair by stretching both parents, and
`tail_padded_crossover` runs mask crossover on the two aligned rows and
strips the gaps. Aligning two sequences with minimal mismatching columns
realizes their edit distance, and mask crossover on an optimal
alignment (homologous crossover) keeps offspring on tight edit-distance
triangles between the parents.

A GA crosses each parent pair in both orders, so `optimal_align_both`
returns both alignments from one forward pass and, on most pairs, one
backtrace walk. A GA scores a generation against one target, so
`edit_distances_to` packs its strings into the lanes of one int, each
under a guard bit that stops carries and shifts, and scores them in one
walk over the target.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np

from . import crossovers
from .errors import InputError

GAP = "-"
LANES = 64  # strings per packed int in `edit_distances_to`; reading a score shifts the whole int


def check_sequence(s: str) -> str:
    if GAP in s:
        raise InputError(f"sequence may not contain the gap symbol {GAP!r}: {s!r}")
    return s


def unstretch(s: str) -> str:
    """Remove every gap symbol, preserving order."""
    return s.replace(GAP, "")


def random_sequence(max_len: int, alphabet: str, rng: np.random.Generator) -> str:
    """A length uniform over 1..max_len, then that many letters uniform over alphabet."""
    n = int(rng.integers(1, max_len + 1))
    return "".join([alphabet[i] for i in rng.integers(0, len(alphabet), size=n).tolist()])


def _char_masks(s: str) -> dict[str, int]:
    """peq[c] has bit i set where s[i] == c."""
    peq: dict[str, int] = {}
    for i, ch in enumerate(s):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    return peq


def _distance(peq: dict[str, int], full: int, t: str, cols: list | None = None) -> int:
    """Edit distance of s and t from peq = `_char_masks(s)`, full = 2**len(s) - 1.

    Bit-parallel (Myers 1999, JACM 46(3); Hyyrö 2001) over Python ints:
    a column of the edit table is two len(s)-bit words of vertical
    deltas, +1 (Pv) and -1 (Mv), and each character of t advances it
    with a fixed number of word operations, O(|t| * ceil(|s|/w)) word
    operations in all for word width w. The score is read from the final
    column: D[m][n] = n + popcount(Pv) - popcount(Mv), where m = len(s)
    and n = len(t). This is the one forward pass: given a list, it
    appends each column j = 1..n as (Pv, Mv, Ph, Mh), the table
    `optimal_align` walks (see `_columns`).

    Bit r of Pv_j (Mv_j) is set where D[r+1][j] - D[r][j] is +1 (-1); Ph_j,
    Mh_j are shifted so that bit r marks D[r][j] - D[r][j-1] the same way,
    for rows r = 0..len(s). Complements are XORs with full, not `~`, so
    every word stays non-negative (CPython's faster int path); bits
    0..m-1 are the same, and no step or read uses the others.
    """
    pv, mv = full, 0
    for ch in t:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # row 0 holds D[0][j] = j, so its horizontal delta is always +1
        ph = ((mv | ((xh | pv) ^ full)) << 1) | 1
        mh = (pv & xh) << 1
        pv = (mh | ((xv | ph) ^ full)) & full
        mv = ph & xv
        if cols is not None:
            cols.append((pv, mv, ph, mh))
    return len(t) + pv.bit_count() - mv.bit_count()


def edit_distance(s: str, t: str) -> int:
    """Unit-cost Levenshtein distance (insert, delete, replace); see `_distance`."""
    return 0 if s == t else _distance(_char_masks(s), (1 << len(s)) - 1, t)


def edit_distance_to(target: str) -> Callable[[str], int]:
    """s -> edit_distance(s, target) over the target's masks (the distance is symmetric)."""
    return functools.partial(_distance, _char_masks(target), (1 << len(target)) - 1)


def edit_distances_to(target: str) -> Callable[[list[str]], list[int]]:
    """strs -> [edit_distance(s, target) for s in strs], one walk over the target per LANES strings.

    `_distance` on the strings packed into one int (Hyyrö, Fredriksson and
    Navarro 2005, ACM JEA 10), each in len(s) bits under a guard bit, with
    row 0's `| 1` as `| low`, the lowest bit of every lane. Only a carry and
    the two shifts move a bit up. `& full` keeps Pv's guard bits 0, so a
    carry stops at its lane's guard and Mh shifts a 0 into the next lane,
    and `| low` overwrites what Ph shifts in: no lane bit reads a guard bit."""
    n, letters = len(target), set(target)

    def chunk(strs: list[str]) -> list[int]:
        bits = GAP.join(strs)[::-1]  # lane 0 in the low bits
        zeros = dict.fromkeys(map(ord, set(bits)), "0")  # one translate per eq mask
        peq = {c: int(bits.translate({**zeros, ord(c): "1"}), 2) for c in letters if ord(c) in zeros}
        full = int("0" + "0".join(["1" * len(s) for s in reversed(strs)]), 2)
        low = full & ~(full << 1)
        pv, mv = full, 0
        for ch in target:
            eq = peq.get(ch, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = ((mv | ((xh | pv) ^ full)) << 1) | low
            mh = (pv & xh) << 1
            pv = (mh | ((xv | ph) ^ full)) & full
            mv = ph & xv
        out, off = [], 0
        for s in strs:
            lane = (1 << len(s)) - 1
            out.append(n + (pv >> off & lane).bit_count() - (mv >> off & lane).bit_count())
            off += len(s) + 1
        return out

    return lambda strs: [d for i in range(0, len(strs), LANES) for d in chunk(strs[i : i + LANES])]


class Alignment(NamedTuple):
    """Two equal-length stretchings with no double-gap column: the pair
    (x*, y*) that the sequence family's normalizer moves its parents to.

    Alignments are built only from `_backtrace`'s rows, which hold both
    properties by construction, so nothing re-checks them.
    """

    left: str
    right: str


def _columns(s: str, t: str) -> list[tuple[int, int, int, int]]:
    """Columns 0..len(t) of the table of s against t, as `_distance`'s
    (Pv, Mv, Ph, Mh) delta words; column 0 holds Pv = all ones and Ph = Mh = 0."""
    check_sequence(s)
    check_sequence(t)
    full = (1 << len(s)) - 1
    cols = [(full, 0, 0, 0)]
    _distance(_char_masks(s), full, t, cols)
    return cols


def _backtrace(s: str, t: str, cols: list, t_first: bool = False) -> tuple[tuple[str, str], bool]:
    """The two rows of an optimal alignment of s and t, walked back from
    D[m][n] (m = len(s), n = len(t)) over the columns `_columns(s, t)`
    kept, and whether the walk broke a delete/insert tie towards delete.

    Where s[i-1] == t[j-1], unit costs force D[i][j] == D[i-1][j-1] (the
    match lemma), so a match step reads no bits at all. A mismatch cell
    is 1 + the least of its three predecessors, and the step reads bits
    of column j to find one at D[i][j] - 1: D[i-1][j] is bit i-1 of its
    Pv/Mv, D[i-1][j-1] bit i-1 of its Ph/Mh, and D[i][j-1] is D[i][j] - 1
    where bit i of its Ph is set. Only D[m][n] takes popcounts. Ties
    resolve match > substitute > drop a letter of s (delete) > drop a
    letter of t (insert), the order of `optimal_align(s, t)`; t_first
    swaps delete and insert, the order of `optimal_align(t, s)`. A
    delete/insert tie is a mismatch cell whose up and left predecessors
    are at D[i][j] - 1 and whose diagonal is not. The rows are spliced
    from slices of s and t around the recorded gaps.
    """
    m, n = len(s), len(t)
    pv, mv, _, _ = cols[n]
    here = n + pv.bit_count() - mv.bit_count()
    # row pieces in reverse order; s[:left_end] and t[:right_end] are not
    # yet placed
    left: list[str] = []
    right: list[str] = []
    i, j, left_end, right_end = m, n, m, n
    tied = 0
    while i and j:
        r = i - 1
        if s[r] == t[j - 1]:
            i, j = r, j - 1
            continue
        pv, mv, ph, mh = cols[j]
        here -= 1
        up = here + 1 - (pv >> r & 1) + (mv >> r & 1)
        if up - (ph >> r & 1) + (mh >> r & 1) == here:
            i, j = r, j - 1
        elif up == here and not (t_first and ph >> i & 1):
            tied |= ph >> i & 1
            right += (t[j:right_end], GAP)
            i, right_end = r, j
        else:
            j -= 1
            left += (s[i:left_end], GAP)
            left_end = i
    # one of i, j is 0: the rest is all deletes or all inserts
    left += (s[:left_end], GAP * j)
    right += (t[:right_end], GAP * i)
    return ("".join(reversed(left)), "".join(reversed(right))), bool(tied)


def optimal_align(s: str, t: str) -> Alignment:
    """Minimal-mismatch stretching of s and t to a common length.

    The mismatch count of the result equals the edit distance. Backtrace
    ties resolve match > substitute > delete > insert, scanning from the
    end, which pins one canonical alignment per input pair.

    The forward pass (`_columns`) is `edit_distance`'s own `_distance`,
    keeping every column j as four delta words, and the backtrace
    (`_backtrace`) walks that table by single bits. Memory is n + 1
    columns of four ints of about m bits (m = len(s), n = len(t)), where
    a full table takes (m + 1)(n + 1) Python ints.
    """
    return Alignment(*_backtrace(s, t, _columns(s, t))[0])


def optimal_align_both(s: str, t: str) -> tuple[Alignment, Alignment]:
    """(optimal_align(s, t), optimal_align(t, s)) from one forward pass
    and, on most pairs, one backtrace walk.

    The columns kept for s against t serve both orders (the table of t
    against s is their transpose). Walked in s against t's frame, the
    two orders differ only in how they break a delete/insert tie, so a
    pair whose first walk broke none gets that walk's rows for both
    orders, and any other pair takes a second, t_first walk from the
    end. Its rows come out as (s, t) and are swapped.
    """
    cols = _columns(s, t)
    rows, tied = _backtrace(s, t, cols)
    s_row, t_row = _backtrace(s, t, cols, True)[0] if tied else rows
    return Alignment(*rows), Alignment(t_row, s_row)


def tail_padded_crossover(s: str, t: str, rng: np.random.Generator) -> str:
    """Mask crossover on the two parents padded with trailing gaps to a
    common width, with the gaps stripped from the offspring.

    On two raw sequences this is the raw baseline, which does not align.
    On the two rows of `optimal_align` (equal length, so nothing is
    padded) it is the homologous crossover, the sequence family's
    quotient mode: stretched parents are valid inputs, because the
    offspring is projected back by `unstretch`.
    """
    width = max(len(s), len(t))
    a = s.ljust(width, GAP)
    b = t.ljust(width, GAP)
    return unstretch("".join(crossovers.mask_crossover(a, b, crossovers.random_mask(width, rng))))
