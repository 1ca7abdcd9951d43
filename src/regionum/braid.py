"""Braid words on a fixed strand count: Artin generators, free and handle
reduction, Markov moves, and closure metadata.

A braid word is a sequence of nonzero integers.  The letter ``k`` with
``0 < |k| < strands`` denotes the Artin generator ``sigma_|k|`` raised to
``sign(k)``.  Words compose left to right.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Sequence

HANDLE_BUDGET = 10**6  # handle-reduction steps before BudgetExceeded
MARKOV_MAX_ROUNDS = 10_000  # rounds of markov_simplify before it stops


class BudgetExceeded(Exception):
    """A reduction ran out of its step budget.

    This is an honest "don't know", never a verdict about the braid.
    """


@dataclasses.dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        p = self.strands
        if letters and (0 in letters or max(letters) >= p or min(letters) <= -p):
            x = next(x for x in letters if x == 0 or abs(x) >= p)
            raise ValueError(f"letter {x} out of range for {p} strands")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if other.strands != self.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))

    def mirror(self) -> "BraidWord":
        """Flip the sign of every letter (mirror image of the closure)."""
        return BraidWord(self.strands, tuple(-x for x in self.letters))

    @property
    def writhe(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.letters)

    def permutation(self) -> tuple[int, ...]:
        """Permutation of strand positions 0..p-1 induced bottom to top.

        ``perm[i]`` is the final position of the strand that starts at
        position ``i``.
        """
        pos = list(range(self.strands))
        for x in self.letters:
            i = abs(x) - 1
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        out = [0] * self.strands
        for final, start in enumerate(pos):
            out[start] = final
        return tuple(out)

    def is_identity_permutation(self) -> bool:
        return self.permutation() == tuple(range(self.strands))


def parse_word(text: str, strands: int | None = None) -> BraidWord:
    """Parse the whitespace-separated signed-integer word format.

    If ``strands`` is omitted it is inferred as ``max|letter| + 1``.
    """
    try:
        letters = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"a braid word is signed integers, got {text!r}") from None
    if strands is None:
        strands = max((abs(x) for x in letters), default=1) + 1
    return BraidWord(strands, letters)


def format_word(w: BraidWord) -> str:
    return " ".join(str(x) for x in w.letters)


def toric_braid(p: int, q: int) -> BraidWord:
    """The p-strand braid (sigma_1 sigma_2 ... sigma_{p-1})^q."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if q < 1:
        raise ValueError(f"need q >= 1, got {q}")
    return BraidWord(p, tuple(range(1, p)) * q)


def free_reduce(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple(_free_reduce_list(w.letters)))


def _free_reduce_list(letters: Iterable[int]) -> list[int]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def _find_handle(letters: Sequence[int], start: int = 0) -> tuple[int, int] | None:
    """Leftmost-closing handle (s, t) with t >= start: letters[s] =
    -letters[t] and every letter strictly between has index > |letters[t]|.

    Scanning for the smallest closing position makes the found handle
    innermost, so the rewrite below is always permitted.  The caller
    passes a ``start`` before which no handle closes.
    """
    for t in range(start, len(letters)):
        x = letters[t]
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

    The word is kept freely reduced.  After a rewrite at (s, t), only the
    new letters from s on are pushed onto a stack that holds the prefix
    letters[:s].  Below the lowest height that stack reaches, the word is
    unchanged, and no handle closes there (the old word's leftmost handle
    closed at t), so the next scan starts at that height.
    """
    letters = _free_reduce_list(w.letters)
    start = 0
    steps = 0
    while True:
        found = _find_handle(letters, start)
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
        suffix = letters[t + 1 :]
        del letters[s:]
        start = s
        for x in replacement:
            if letters and letters[-1] == -x:
                letters.pop()
                start = min(start, len(letters))
            else:
                letters.append(x)
        # The suffix is freely reduced: once a letter of it stays, so do
        # all that follow.
        k = 0
        while k < len(suffix) and letters and letters[-1] == -suffix[k]:
            letters.pop()
            k += 1
        start = min(start, len(letters))
        letters += suffix[k:]


def is_trivial_braid(w: BraidWord) -> bool:
    """Word-problem solution: does ``w`` represent the identity braid?"""
    if not w.is_identity_permutation() or w.writhe != 0:
        return False
    return len(handle_reduce(w)) == 0


def closure_components(w: BraidWord) -> int:
    """Number of components of the closure: cycles of the induced permutation."""
    perm = w.permutation()
    seen = [False] * w.strands
    cycles = 0
    for start in range(w.strands):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def _try_destabilize(w: BraidWord) -> BraidWord | None:
    """Remove a top or bottom generator that occurs exactly once in the
    cyclic word (Markov destabilization, up to conjugation).

    The top generator is tried first, then sigma_1, whose removal shifts
    the remaining letters down by one.  The result is the rest of the word
    read cyclically from just after the removed letter, so it is the same
    for every rotation of ``w``.
    """
    smaller = _destabilize(w.strands, w.letters)
    return None if smaller is None else BraidWord(*smaller)


def _destabilize(
    strands: int, letters: tuple[int, ...]
) -> tuple[int, tuple[int, ...]] | None:
    """Letter-level core of :func:`_try_destabilize`."""
    for gen in (strands - 1, 1):
        if letters.count(gen) + letters.count(-gen) == 1:
            k = letters.index(gen) if gen in letters else letters.index(-gen)
            rest = letters[k + 1 :] + letters[:k]
            if gen != strands - 1:  # sigma_1 goes: shift the rest down
                rest = tuple(x - 1 if x > 0 else x + 1 for x in rest)
            return strands - 1, rest
    return None


def split_unused(w: BraidWord) -> list[BraidWord]:
    """Split at unused generators: if sigma_j never occurs, the closure is a
    split union of the closures of the two halves."""
    used = {abs(x) for x in w.letters}
    gaps = [j for j in range(1, w.strands) if j not in used]
    if not gaps:
        return [w]
    pieces: list[BraidWord] = []
    lo = 0  # generator-range start: current piece uses strands lo..gap-1
    for gap in gaps + [w.strands]:
        count = gap - lo
        letters = tuple(
            (abs(x) - lo) * (1 if x > 0 else -1)
            for x in w.letters
            if lo < abs(x) < gap
        )
        pieces.append(BraidWord(max(count, 1), letters))
        lo = gap
    return pieces


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
    strands = w.strands
    v = tuple(_free_reduce_list(w.letters))
    for _ in range(MARKOV_MAX_ROUNDS):
        smaller = _destabilize(strands, v)
        if smaller is not None:
            strands, rest = smaller
            v = tuple(_free_reduce_list(rest))
            continue
        # Cyclic shift enabling free cancellation across the seam: moving
        # v[0] to the end cancels it against v[-1].
        if v and v[0] == -v[-1]:
            v = v[1:-1]
            continue
        # Bounded conjugation search for a strictly shorter representative
        # or one that admits a destabilization.
        found = _conjugation_improvement(strands, v, conjugator_length)
        if found is not None:
            v = found
            continue
        break
    return BraidWord(strands, v)


def _conjugate_reduced(v: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Free reduction of a^-1 v a for a freely reduced ``v``: only the two
    new letters can cancel, each against its end of ``v``."""
    if not v:
        return ()
    if v[0] == a:
        return v[1:-1] if v[-1] == -a else v[1:] + (a,)
    return (-a,) + v[:-1] if v[-1] == -a else (-a,) + v + (a,)


def _conjugation_improvement(
    strands: int, w: tuple[int, ...], max_len: int
) -> tuple[int, ...] | None:
    """First conjugate of the freely reduced, non-destabilizable ``w`` by
    one letter, then by two, that is shorter than ``w`` or no longer and
    destabilizable.  Pairs (s, -s) are skipped: they give back ``w``."""
    gens = range(1, strands)
    singles = [*gens, *(-g for g in gens)]
    once = [_conjugate_reduced(w, s) for s in singles]
    pairs = zip(singles, once) if max_len >= 2 else ()
    twice = (_conjugate_reduced(v, t) for s, v in pairs for t in singles if t != -s)
    n = len(w)
    for v in itertools.chain(once, twice):
        if len(v) < n or (len(v) == n and _destabilize(strands, v) is not None):
            return v
    return None
