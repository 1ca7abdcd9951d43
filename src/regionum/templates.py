"""Braid-word families used by the trivialization constructions.

The central objects are the staircase blocks

    mu(p, i) = sigma_1 ... sigma_{p-i} sigma_{p-i+1}^-1 ... sigma_{p-1}^-1
    nu(p, i) = its sign mirror

whose products mu_1 mu_2 ... mu_p and nu_1 nu_2 ... nu_p are trivial
p-braids.  The remaining families (eta/kappa ladders, the width-4 cancel
pair, the three-block word, generator runs, the eight-block word) are the
building blocks of the closure-equivalence lemmas; each constructor of a
lemma returns an (lhs, rhs) pair whose closures are the same link, which
the test suite checks through the Jones polynomial and component counts.
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


def _signed(index: int, sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign exponents must be +-1, got {sign}")
    return index * sign


def eta_ladder_words(
    p: int, a: int, g: list[list[int]]
) -> tuple[BraidWord, BraidWord]:
    """Ladder of a blocks on p strands versus its collapsed form.

    Block i is eta_i kappa_{p-i} sigma_{p-i+1}^-1 ... sigma_{p-1}^-1 with
    eta_i = sigma_1^{g[i][1]} ... sigma_{p-a}^{g[i][p-a]} and kappa_j the
    positive run sigma_{p-a+1} ... sigma_j.  The closure equals that of
    eta_1' ... eta_a' (the eta blocks without their last letter) on p-a
    strands.
    """
    if not 1 <= a < p:
        raise ValueError(f"need p > a >= 1, got p={p}, a={a}")
    if len(g) != a or any(len(row) != p - a for row in g):
        raise ValueError(f"need an {a} x {p - a} sign table")
    lhs: list[int] = []
    rhs: list[int] = []
    for i in range(1, a + 1):
        row = g[i - 1]
        lhs.extend(_signed(j, row[j - 1]) for j in range(1, p - a + 1))
        lhs.extend(range(p - a + 1, p - i + 1))  # kappa_{p-i}
        lhs.extend(-j for j in range(p - i + 1, p))
        rhs.extend(_signed(j, row[j - 1]) for j in range(1, p - a))
    return BraidWord(p, tuple(lhs)), BraidWord(max(p - a, 1), tuple(rhs))


def even_ladder_words(
    p: int, q: int, g: list[list[int]]
) -> tuple[BraidWord, BraidWord]:
    """Even-parameter ladder: eta_1 kappa_1 ... eta_q kappa_q on p strands
    versus eta_1' ... eta_q' on p-q strands, for p > q both even.

    Here kappa_i = sigma_{p-q+1}^-1 ... sigma_{p-i}^-1 sigma_{p-i+1} ...
    sigma_{p-1}.
    """
    if not (p > q >= 2 and p % 2 == 0 and q % 2 == 0):
        raise ValueError(f"need even p > even q >= 2, got p={p}, q={q}")
    if len(g) != q or any(len(row) != p - q for row in g):
        raise ValueError(f"need a {q} x {p - q} sign table")
    lhs: list[int] = []
    rhs: list[int] = []
    for i in range(1, q + 1):
        row = g[i - 1]
        lhs.extend(_signed(j, row[j - 1]) for j in range(1, p - q + 1))
        lhs.extend(-j for j in range(p - q + 1, p - i + 1))
        lhs.extend(range(p - i + 1, p))
        rhs.extend(_signed(j, row[j - 1]) for j in range(1, p - q))
    return BraidWord(p, tuple(lhs)), BraidWord(p - q, tuple(rhs))


def width4_cancel_words(
    p: int,
    beta1: list[int],
    beta2: list[int],
    g1: int = 1,
    g2: int = 1,
) -> tuple[BraidWord, BraidWord]:
    """Two width-4 wedges around free-sign prefixes beta_1, beta_2 cancel:

        beta_1 s_{p-4}^{g1} s_{p-3} s_{p-2} s_{p-1}^-1
        beta_2 s_{p-4}^{g2} s_{p-3} s_{p-2}^-1 s_{p-1}^-1

    closes to the same link as beta_1 beta_2 on p-4 strands.  beta_j is
    given as its sign list over sigma_1..sigma_{p-5}.
    """
    if p < 6:
        raise ValueError(f"need p >= 6, got {p}")
    if len(beta1) != p - 5 or len(beta2) != p - 5:
        raise ValueError(f"beta sign lists must have length {p - 5}")
    lhs: list[int] = []
    for beta, g, mid_sign in ((beta1, g1, 1), (beta2, g2, -1)):
        lhs.extend(_signed(j, beta[j - 1]) for j in range(1, p - 4))
        lhs.extend([_signed(p - 4, g), p - 3, _signed(p - 2, mid_sign), -(p - 1)])
    rhs = tuple(_signed(j, s) for beta in (beta1, beta2) for j, s in enumerate(beta, 1))
    return BraidWord(p, tuple(lhs)), BraidWord(p - 4, rhs)


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


def three_block_words(p: int) -> tuple[BraidWord, BraidWord]:
    """The three-block word paired with its fully reduced representative
    (the three-block word at the smallest strand count in its class)."""
    lhs = three_block_word(p)
    rhs = three_block_word({0: 6, 2: 8, 4: 4}[p % 6])
    return lhs, rhs


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


def run_pair_words(n: int) -> tuple[BraidWord, BraidWord]:
    """The two full-run words on n+1 strands whose closures are trivial
    links: the ascending run times its inverse-sign run, in both orders."""
    run = tuple(range(1, n + 1))
    anti = tuple(-k for k in run)
    return BraidWord(n + 1, run + anti), BraidWord(n + 1, anti + run)


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
