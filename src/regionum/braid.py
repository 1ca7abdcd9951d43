"""Braid words on a fixed strand count: Artin generators, free and handle
reduction, Markov moves, and closure metadata.

A braid word is a sequence of nonzero integers.  The letter ``k`` with
``0 < |k| < strands`` denotes the Artin generator ``sigma_|k|`` raised to
``sign(k)``.  Words compose left to right.
"""

from __future__ import annotations

import dataclasses
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
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        for x in self.letters:
            if x == 0 or abs(x) >= self.strands:
                raise ValueError(
                    f"letter {x} out of range for {self.strands} strands"
                )

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


def cyclic_shift(w: BraidWord, k: int = 1) -> BraidWord:
    if not w.letters:
        return w
    k %= len(w.letters)
    return BraidWord(w.strands, w.letters[k:] + w.letters[:k])


def conjugate(w: BraidWord, letter: int) -> BraidWord:
    """sigma^{-1} w sigma for the given letter (closure-preserving)."""
    return free_reduce(BraidWord(w.strands, (-letter,) + w.letters + (letter,)))


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
