"""Independent slow oracles used to cross-check the fast implementations.

The bracket oracle enumerates all 2^c crossing smoothings explicitly and
counts loops with a union-find, sharing nothing with the transfer-matrix
sweep except the smoothing weights (A^-1 identity / A cap-cup at a
positive crossing, mirrored at a negative one).

``dict_bracket`` is the Temperley-Lieb sweep the package used before its
packed-integer one: matchings as tuples, coefficients as ``LaurentPoly``
dicts.  It is slow but direct, and reaches words the 2^c state sum
cannot.

``handle_reduce``, ``markov_simplify`` and their helpers below
(``cyclic_shift`` and ``conjugate`` among them) are the reduction engine
as it was before it moved onto letter tuples: it rebuilds a
``BraidWord`` and free-reduces the whole word after every move.  The
package's engine must give the same words and raise ``BudgetExceeded``
on the same inputs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from regionum.braid import (
    HANDLE_BUDGET,
    MARKOV_MAX_ROUNDS,
    BraidWord,
    BudgetExceeded,
    _free_reduce_list,
    free_reduce,
)
from regionum.laurent import LOOP, LaurentPoly


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def make(self, x: int) -> None:
        self.parent.setdefault(x, x)

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)

    def classes(self) -> int:
        return len({self.find(x) for x in self.parent})


def naive_bracket(w: BraidWord) -> LaurentPoly:
    """Kauffman bracket by the full 2^c state sum, one loop normalized
    to coefficient 1."""
    p = w.strands
    c = len(w.letters)
    total = LaurentPoly.zero()
    for state in range(1 << c):
        uf = _UnionFind()
        wire = list(range(p))  # current wire id per column
        for col in range(p):
            uf.make(col)
        fresh = p
        exponent = 0
        for k, x in enumerate(w.letters):
            i = abs(x) - 1
            capcup = (state >> k) & 1
            exponent += (1 if capcup else -1) * (1 if x > 0 else -1)
            if capcup:
                uf.make(fresh)
                uf.union(wire[i], wire[i + 1])
                wire[i] = wire[i + 1] = fresh
                fresh += 1
        for col in range(p):  # braid closure
            uf.union(wire[col], col)
        loops = uf.classes()
        total = total + LaurentPoly.monomial(exponent) * (LOOP ** (loops - 1))
    return total


Matching = tuple[int, ...]  # fixed-point-free involution of 0..2p-1


@lru_cache(maxsize=None)
def identity_matching(p: int) -> Matching:
    pairing = list(range(2 * p))
    for i in range(p):
        pairing[i] = p + i
        pairing[p + i] = i
    return tuple(pairing)


def _apply_capcup(m: Matching, p: int, i: int) -> tuple[Matching, int]:
    """Compose the cup-cap element at strands i, i+1 (0-based) onto the top
    of matching ``m``; returns the new matching and closed-loop count."""
    a = m[p + i]
    b = m[p + i + 1]
    if a == p + i + 1:
        return m, 1
    new = list(m)
    new[p + i] = p + i + 1
    new[p + i + 1] = p + i
    new[a] = b
    new[b] = a
    return tuple(new), 0


def dict_bracket(w: BraidWord) -> LaurentPoly:
    """Kauffman bracket of the trace closure, unknot normalized to 1."""
    p = w.strands
    state: dict[Matching, LaurentPoly] = {identity_matching(p): LaurentPoly.one()}
    a_pos = LaurentPoly.monomial(1)
    a_neg = LaurentPoly.monomial(-1)
    for x in w.letters:
        i = abs(x) - 1
        ident_weight, cap_weight = (a_neg, a_pos) if x > 0 else (a_pos, a_neg)
        new_state: dict[Matching, LaurentPoly] = {}

        def add(m: Matching, poly: LaurentPoly) -> None:
            cur = new_state.get(m)
            new_state[m] = poly if cur is None else cur + poly

        for m, coeff in state.items():
            add(m, coeff * ident_weight)
            m2, loops = _apply_capcup(m, p, i)
            term = coeff * cap_weight
            if loops:
                term = term * LOOP
            add(m2, term)
        state = {m: c for m, c in new_state.items() if c}
    total = LaurentPoly.zero()
    for m, coeff in state.items():
        total = total + coeff * LOOP ** (_closure_loops(m, p) - 1)
    return total


def _closure_loops(m: Matching, p: int) -> int:
    seen = [False] * (2 * p)
    loops = 0
    for start in range(2 * p):
        if seen[start]:
            continue
        loops += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = m[j]
            seen[j] = True
            j = j + p if j < p else j - p  # trace closure arc
    return loops


def cyclic_shift(w: BraidWord, k: int = 1) -> BraidWord:
    if not w.letters:
        return w
    k %= len(w.letters)
    return BraidWord(w.strands, w.letters[k:] + w.letters[:k])


def conjugate(w: BraidWord, letter: int) -> BraidWord:
    """sigma^{-1} w sigma for the given letter (closure-preserving)."""
    return free_reduce(BraidWord(w.strands, (-letter,) + w.letters + (letter,)))


def _find_handle(letters: Sequence[int]) -> tuple[int, int] | None:
    """Leftmost-closing handle (s, t): letters[s] = -letters[t] and every
    letter strictly between has index > |letters[t]|.

    Scanning for the smallest closing position makes the found handle
    innermost, so the rewrite below is always permitted.
    """
    for t, x in enumerate(letters):
        i = abs(x)
        for s in range(t - 1, -1, -1):
            j = abs(letters[s])
            if j < i:
                break
            if j == i:
                if letters[s] == -x:
                    return s, t
                break
    return None


def handle_reduce(w: BraidWord, budget: int = HANDLE_BUDGET) -> BraidWord:
    """Dehornoy handle reduction.

    Returns a handle-free word representing the same braid-group element;
    the result is empty iff ``w`` is the identity braid.  Raises
    :class:`BudgetExceeded` when the step budget runs out (never a wrong
    answer).
    """
    letters = _free_reduce_list(w.letters)
    steps = 0
    while True:
        found = _find_handle(letters)
        if found is None:
            return BraidWord(w.strands, tuple(letters))
        steps += 1
        if steps > budget:
            raise BudgetExceeded(
                f"handle reduction exceeded {budget} steps on a word of "
                f"length {len(w)}"
            )
        s, t = found
        e = 1 if letters[s] > 0 else -1
        i = abs(letters[s])
        replacement: list[int] = []
        for x in letters[s + 1 : t]:
            if abs(x) == i + 1:
                replacement.extend([-e * (i + 1), (i if x > 0 else -i), e * (i + 1)])
            else:
                replacement.append(x)
        letters = _free_reduce_list(letters[:s] + replacement + letters[t + 1 :])


def _try_destabilize(w: BraidWord) -> BraidWord | None:
    """Remove a top or bottom generator that occurs exactly once in the
    cyclic word (Markov destabilization, up to conjugation).

    The top generator is tried first, then sigma_1, whose removal shifts
    the remaining letters down by one.  The result is the rest of the word
    read cyclically from just after the removed letter, so it is the same
    for every rotation of ``w``.
    """
    if w.strands < 2 or not w.letters:
        return None
    for gen, shift in ((w.strands - 1, 0), (1, 1)):
        occurrences = [k for k, x in enumerate(w.letters) if abs(x) == gen]
        if len(occurrences) == 1:
            k = occurrences[0]
            rest = w.letters[k + 1 :] + w.letters[:k]
            return BraidWord(
                w.strands - 1, tuple(x - shift if x > 0 else x + shift for x in rest)
            )
    return None


def markov_simplify(w: BraidWord, conjugator_length: int = 2) -> BraidWord:
    """Greedy closure-preserving simplification.

    Starting from the free reduction of ``w``, each round applies the first
    move that fits: a Markov destabilization, a cyclic shift that cancels a
    letter against the last one, or a conjugation by at most
    ``conjugator_length`` letters that shortens the word or makes it
    destabilizable.  It stops when no move fits, or after
    ``MARKOV_MAX_ROUNDS`` rounds.  The closure link type is preserved
    throughout and the result is deterministic.
    """
    best = free_reduce(w)
    for _ in range(MARKOV_MAX_ROUNDS):
        smaller = _try_destabilize(best)
        if smaller is not None:
            best = free_reduce(smaller)
            continue
        # Cyclic shift enabling free cancellation across the seam.
        if best.letters and best.letters[0] == -best.letters[-1]:
            best = free_reduce(cyclic_shift(best, 1))
            continue
        # Bounded conjugation search for a strictly shorter representative
        # or one that admits a destabilization.
        found = _conjugation_improvement(best, conjugator_length)
        if found is not None:
            best = found
            continue
        break
    return best


def _conjugation_improvement(w: BraidWord, max_len: int) -> BraidWord | None:
    gens = list(range(1, w.strands))
    singles = gens + [-g for g in gens]
    candidates: list[tuple[int, ...]] = [(s,) for s in singles]
    if max_len >= 2:
        candidates += [(s, t) for s in singles for t in singles]
    for conj in candidates:
        v = w
        for letter in conj:
            v = conjugate(v, letter)
        if len(v) < len(w):
            return v
        if len(v) <= len(w) and _try_destabilize(v) is not None:
            return v
    return None
