"""Braid-word families used by the trivialization constructions.

The central objects are the staircase blocks

    mu(p, i) = sigma_1 ... sigma_{p-i} sigma_{p-i+1}^-1 ... sigma_{p-1}^-1
    nu(p, i) = its sign mirror

whose products mu_1 mu_2 ... mu_p and nu_1 nu_2 ... nu_p are trivial
p-braids.  The three-block word, generator runs and the eight-block word
close to trivial links; the CLI's ``word`` command builds them all, and
the three-block word ends some schedule targets.  The closure-equivalence
lemmas' (lhs, rhs) pairs (eta/kappa ladders, the width-4 cancel pair, the
three-block and run pairs) are built only by the tests that check them,
in ``tests/_words.py``.
"""

from __future__ import annotations

import operator
from functools import reduce

from .braid import BraidWord, toric_braid


def mu(p: int, i: int) -> BraidWord:
    """sigma_1 .. sigma_{p-i} then sigma_{p-i+1}^-1 .. sigma_{p-1}^-1."""
    if not 1 <= i <= p:
        raise ValueError(f"need 1 <= i <= p, got i={i}, p={p}")
    letters = tuple(range(1, p - i + 1)) + tuple(-j for j in range(p - i + 1, p))
    return BraidWord(p, letters)


def nu(p: int, i: int) -> BraidWord:
    return mu(p, i).mirror()


def _product(words) -> BraidWord:
    return reduce(operator.mul, words)


def staircase_word(p: int) -> BraidWord:
    """mu_1 mu_2 ... mu_p; a trivial p-braid."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return _product(mu(p, i) for i in range(1, p + 1))


def mirror_staircase_word(p: int) -> BraidWord:
    """nu_1 nu_2 ... nu_p; a trivial p-braid (mirror of the staircase)."""
    return staircase_word(p).mirror()


def staircase_segment(p: int, lo: int, hi: int) -> BraidWord:
    """mu_lo mu_{lo+1} ... mu_hi."""
    if not 1 <= lo <= hi <= p:
        raise ValueError(f"bad segment [{lo}, {hi}] for p={p}")
    return _product(mu(p, i) for i in range(lo, hi + 1))


def mirror_staircase_segment(p: int, lo: int, hi: int) -> BraidWord:
    return staircase_segment(p, lo, hi).mirror()


def three_block_word(p: int) -> BraidWord:
    """Three full rows on p strands whose closure is a trivial link, for
    p >= 4 with p = 0 or +-2 (mod 6).

    Row 1 is all negative; rows 2 and 3 are positive except at indices
    congruent to p-2, p-3 (row 2) and p-3, p-4 (row 3) modulo 6.
    """
    if p < 4 or p % 6 not in (0, 2, 4):
        raise ValueError(f"need p >= 4 with p = 0 or +-2 (mod 6), got {p}")
    neg2 = {j for j in range(1, p - 1) if (p - 2 - j) % 6 == 0 or (p - 3 - j) % 6 == 0}
    neg3 = {j for j in range(1, p - 1) if (p - 3 - j) % 6 == 0 or (p - 4 - j) % 6 == 0}
    letters = [-j for j in range(1, p)]
    letters += [-j if j in neg2 else j for j in range(1, p)]
    letters += [-j if j in neg3 else j for j in range(1, p)]
    return BraidWord(p, tuple(letters))


def generator_run_word(i: int, j: int, strands: int | None = None) -> BraidWord:
    """sigma_i .. sigma_j followed by the same run with all signs flipped;
    the run ascends when i <= j and descends when i >= j.  The closure is a
    trivial link."""
    if min(i, j) < 1:
        raise ValueError("generator indices must be >= 1")
    if strands is None:
        strands = max(i, j) + 1
    step = 1 if i <= j else -1
    run = list(range(i, j + step, step))
    return BraidWord(strands, tuple(run) + tuple(-k for k in run))


def eight_block_word(p: int, i: int) -> BraidWord:
    """Eight descending width-4 runs centred at index i; the closure is a
    trivial link.  Needs 4 <= i <= p - 8."""
    if not 4 <= i <= p - 8:
        raise ValueError(f"need 4 <= i <= p - 8, got i={i}, p={p}")
    blocks = [
        [-(i), -(i - 1), -(i - 2), -(i - 3)],
        [-(i + 1), -(i), -(i - 1), -(i - 2)],
        [i + 2, i + 1, i, i - 1],
        [-(i + 3), -(i + 2), i + 1, i],
        [-(i + 4), -(i + 3), i + 2, i + 1],
        [-(i + 5), -(i + 4), i + 3, i + 2],
        [-(i + 6), -(i + 5), i + 4, i + 3],
        [i + 7, i + 6, i + 5, i + 4],
    ]
    return BraidWord(p, tuple(x for block in blocks for x in block))


# Named word families for the CLI: each maps (p, i, j) to its letter count,
# in closed form so that a huge word is refused unbuilt, and to the word.
WORD_FAMILIES = {
    "mu": (lambda p, i, j: p - 1, lambda p, i, j: mu(p, i)),
    "nu": (lambda p, i, j: p - 1, lambda p, i, j: nu(p, i)),
    "staircase": (lambda p, i, j: p * (p - 1), lambda p, i, j: staircase_word(p)),
    "mirror_staircase": (lambda p, i, j: p * (p - 1), lambda p, i, j: mirror_staircase_word(p)),
    "three_block": (lambda p, i, j: 3 * (p - 1), lambda p, i, j: three_block_word(p)),
    "generator_run": (lambda p, i, j: 2 * abs(i - j) + 2, lambda p, i, j: generator_run_word(i, j)),
    "eight_block": (lambda p, i, j: 32, lambda p, i, j: eight_block_word(p, i)),
    "toric": (lambda p, i, j: (p - 1) * i, lambda p, i, j: toric_braid(p, i)),
}
