"""Braid words on a fixed strand count: Artin generators, free and handle
reduction, Markov moves and the unlink reduction on them, closure metadata.

A braid word is a sequence of nonzero integers.  The letter ``k`` with
``0 < |k| < strands`` denotes the Artin generator ``sigma_|k|`` raised to
``sign(k)``.  Words compose left to right.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import re
from typing import Iterable, Sequence

from .limits import HANDLE_BUDGET, REDUCE_MAX_ROUNDS, SEARCH_MAX_NODES
from .limits import SEARCH_SLACK, SEARCH_STEP_BUDGET

_LETTER = re.compile("[+-]?[0-9]+")  # ASCII only, unlike int()


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
    tokens = text.split()
    if not all(_LETTER.fullmatch(tok) for tok in tokens):
        raise ValueError(f"a braid word is signed integers, got {text!r}")
    letters = tuple(int(tok) for tok in tokens)
    if strands is None:
        strands = max((abs(x) for x in letters), default=0) + 1
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


def _free_reduce_list(letters: Iterable[int]) -> list[int]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return stack


def handle_reduce(w: BraidWord, budget: int = HANDLE_BUDGET) -> BraidWord:
    """Dehornoy handle reduction.

    Returns a handle-free word representing the same braid-group element;
    the result is empty iff ``w`` is the identity braid.  Raises
    :class:`BudgetExceeded` when the step budget runs out (never a wrong
    answer).  The work is done by :func:`_handle_core` on the free
    reduction of ``w``.
    """
    return BraidWord(w.strands, _handle_core(_free_reduce_list(w.letters), budget))


def _handle_core(word: Sequence[int], budget: int = HANDLE_BUDGET) -> tuple[int, ...]:
    """Handle reduction of the freely reduced letter sequence ``word``; the
    result is freely reduced too.

    A handle is ``out[s] ... x`` with ``out[s] == -x`` and every letter
    between of index above ``|x|``.  The word is ``out`` followed by
    ``todo`` reversed, and ``out`` holds no handle: each letter taken off
    ``todo`` is checked only for a handle closing at it, by a backward
    scan to the nearest letter of index at most ``|x|``.  So the handle
    rewritten is always the leftmost-closing one, which is innermost, and
    the rewrite is permitted.  A rewrite replaces the handle by its middle
    with each sigma_{i+1}^d turned into sigma_{i+1}^-e sigma_i^d
    sigma_{i+1}^e, free-reduces that against ``out`` and the head of
    ``todo`` against the result, then moves ``out`` above the lowest
    height it reached back onto ``todo``.  Below that height the word is
    unchanged and held no handle, so the next handle found is again the
    leftmost-closing one of the whole word after the same free
    reductions: the handles, their order and the step count are those of
    a scan that restarts from the left after every rewrite, and a rewrite
    costs the length of its handle, not of the word.
    """
    out: list[int] = []
    todo = list(reversed(word))
    steps = 0
    while todo:
        x = todo.pop()
        i = abs(x)
        s = len(out) - 1
        while s >= 0 and abs(out[s]) > i:
            s -= 1
        if s < 0 or out[s] != -x:
            out.append(x)
            continue
        steps += 1
        if steps > budget:
            raise BudgetExceeded(
                f"handle reduction exceeded {budget} steps on a freely "
                f"reduced word of length {len(word)}"
            )
        e = -1 if x > 0 else 1  # the sign of out[s]
        replacement: list[int] = []
        for y in out[s + 1 :]:
            if abs(y) == i + 1:
                replacement += (-e * (i + 1), i if y > 0 else -i, e * (i + 1))
            else:
                replacement.append(y)
        del out[s:]
        low = s
        for z in replacement:
            if out and out[-1] == -z:
                out.pop()
                low = min(low, len(out))
            else:
                out.append(z)
        # todo is freely reduced: once its head stays, so does the rest.
        while todo and out and out[-1] == -todo[-1]:
            out.pop()
            todo.pop()
        low = min(low, len(out))
        todo += reversed(out[low:])
        del out[low:]
    return tuple(out)


def is_trivial_braid(w: BraidWord) -> bool:
    """Word-problem solution: does ``w`` represent the identity braid?"""
    if not w.is_identity_permutation() or w.writhe != 0:
        return False
    return len(handle_reduce(w)) == 0


def component_labels(w: BraidWord) -> tuple[int, ...]:
    """Closure component of the strand starting at each position: the
    cycles of the induced permutation, numbered from 0 in order of their
    least position."""
    perm = w.permutation()
    labels = [-1] * w.strands
    count = 0
    for start in range(w.strands):
        if labels[start] >= 0:
            continue
        j = start
        while labels[j] < 0:
            labels[j] = count
            j = perm[j]
        count += 1
    return tuple(labels)


def closure_components(w: BraidWord) -> int:
    """Number of components of the closure."""
    return max(component_labels(w)) + 1


def _destabilize(
    strands: int, letters: tuple[int, ...]
) -> tuple[int, tuple[int, ...]] | None:
    """Markov destabilization, up to conjugation: remove the top generator,
    else sigma_1 (shifting the rest down), if it occurs exactly once.  The
    result is the new strand count and the rest of the word read cyclically
    from just after it, so it is the same for every rotation of ``letters``."""
    for gen in (strands - 1, 1):
        if letters.count(gen) + letters.count(-gen) == 1:
            k = letters.index(gen) if gen in letters else letters.index(-gen)
            rest = letters[k + 1 :] + letters[:k]
            if gen != strands - 1:  # sigma_1 goes: shift the rest down
                rest = tuple(x - 1 if x > 0 else x + 1 for x in rest)
            return strands - 1, rest
    return None


def _split_core(strands: int, letters: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Split at unused generators, as pieces ``(strands, letters)``: if
    sigma_j never occurs, the closure is a split union of the closures of
    the two halves.  A word that uses every generator is its own only
    piece.  Pieces of a split word need not be freely reduced: dropping
    the other pieces' letters can make two inverse letters adjacent."""
    used = {abs(x) for x in letters}
    if len(used) == strands - 1:
        return [(strands, letters)]
    pieces: list[tuple[int, tuple[int, ...]]] = []
    lo = 0  # generator-range start: current piece uses strands lo..gap-1
    for gap in [j for j in range(1, strands) if j not in used] + [strands]:
        piece = tuple(x - lo if x > 0 else x + lo for x in letters if lo < abs(x) < gap)
        pieces.append((gap - lo, piece))
        lo = gap
    return pieces


def markov_simplify(w: BraidWord) -> BraidWord:
    """Greedy closure-preserving simplification of the free reduction ``v``
    of ``w``: destabilize (:func:`_destabilize`), else cancel ``v[0]``
    against ``v[-1] == -v[0]``, until neither fits.  Each move removes a
    letter, so at most ``len(w)`` moves apply.  The work is done by
    :func:`_markov_core`.

    Conjugation by one or two letters could never do more.  When both moves
    fail, ``v`` is freely reduced with ``v[0] != -v[-1]``, so every rotation
    is freely reduced too, and none destabilizes (that test counts letters).
    Conjugating by a letter ``a`` then cancels at one end, which gives a
    rotation, or at neither, which adds two letters; both ends would need
    ``v[0] == a == -v[-1]``.  A second letter ``t`` acts the same way on a
    rotation, and on ``(-s, ..., s)`` it adds two more unless ``t == -s``,
    which gives back ``v``.
    """
    return BraidWord(*_markov_core(w.strands, tuple(_free_reduce_list(w.letters))))


def _markov_core(strands: int, v: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """:func:`markov_simplify` of the freely reduced ``v`` on ``strands``
    strands, as ``(strands, letters)``.  The result is freely and
    cyclically reduced (its first letter is not the inverse of its last)."""
    while True:
        smaller = _destabilize(strands, v)
        if smaller is not None:
            strands, rest = smaller
            v = tuple(_free_reduce_list(rest))
        elif v and v[0] == -v[-1]:
            v = v[1:-1]
        else:
            return strands, v


def _conjugate_reduced(v: tuple[int, ...], a: int) -> tuple[int, ...]:
    """Free reduction of a^-1 v a for a freely reduced ``v``: only the two
    new letters can cancel, each against its end of ``v``."""
    if not v:
        return ()
    if v[0] == a:
        return v[1:-1] if v[-1] == -a else v[1:] + (a,)
    return (-a,) + v[:-1] if v[-1] == -a else (-a,) + v + (a,)


def reduce_to_unlink(w: BraidWord) -> tuple[BraidWord, ...]:
    """Try to reduce the closure to a disjoint union of trivial circles by
    alternating handle reduction with Markov simplification, falling back
    to a bounded best-first search over Markov moves per stuck piece.
    Pieces are ``(strands, letters)`` pairs, each freely reduced; returns
    those the search left, empty iff the closure dissolved."""
    pieces = [(w.strands, tuple(_free_reduce_list(w.letters)))]
    for _ in range(REDUCE_MAX_ROUNDS):
        progressed = False
        next_pieces: list[tuple[int, tuple[int, ...]]] = []
        for piece in pieces:
            parts = _split_core(*piece)
            for strands, part in parts:
                free = part if len(parts) == 1 else tuple(_free_reduce_list(part))
                try:
                    reduced = _handle_core(free)
                except BudgetExceeded:
                    reduced = free
                simplified = _markov_core(strands, reduced)
                if len(simplified[1]) < len(part) or simplified[0] < strands:
                    progressed = True
                next_pieces.append(simplified)
        pieces = [p for p in next_pieces if p[1]]
        if not pieces or not progressed:
            break
    return tuple(BraidWord(*p) for p in pieces if not _search_dissolves(*p))


def _search_dissolves(
    strands: int, letters: tuple[int, ...], max_nodes: int = SEARCH_MAX_NODES
) -> bool:
    """Best-first search over closure-preserving moves (cyclic shifts,
    single-letter conjugations, each followed by handle reduction and
    greedy simplification), fewest strands and letters first.  True iff
    some state reaches the empty word; False is only "not found within
    the budget".  ``letters`` need not be freely reduced.

    States are ``(strands, letters)`` pairs, freely and cyclically reduced
    by :func:`_markov_core`, so every rotation and every
    :func:`_conjugate_reduced` neighbour is freely reduced, and the cores
    take it as it is.  A neighbour met a second time is skipped: its
    reduction, split search and push would all repeat the first time's,
    and pushing a state twice only adds a stale heap entry."""
    start = _markov_core(strands, tuple(_free_reduce_list(letters)))
    if not start[1]:
        return True
    longest = len(start[1]) + SEARCH_SLACK
    seen: set[tuple[int, tuple[int, ...]]] = set()
    tried: set[tuple[int, tuple[int, ...]]] = set()
    tick = itertools.count()
    heap = [(start[0], len(start[1]), next(tick), start)]
    nodes = 0
    while heap and nodes < max_nodes:
        key = heapq.heappop(heap)[-1]
        if key in seen:
            continue
        seen.add(key)
        nodes += 1
        p, letters = key
        neighbours = [letters[k:] + letters[:k] for k in range(1, len(letters))]
        for g in range(1, p):
            neighbours.append(_conjugate_reduced(letters, g))
            neighbours.append(_conjugate_reduced(letters, -g))
        for raw in neighbours:
            if (p, raw) in tried:
                continue
            tried.add((p, raw))
            try:
                reduced = _handle_core(raw, SEARCH_STEP_BUDGET)
            except BudgetExceeded:
                reduced = raw
            cand = _markov_core(p, reduced)
            if not cand[1]:
                return True
            parts = _split_core(*cand)
            if len(parts) > 1:
                if all(_search_dissolves(q, part, max_nodes // 2) for q, part in parts):
                    return True
                continue
            if cand not in seen and len(cand[1]) <= longest:
                heapq.heappush(heap, (cand[0], len(cand[1]), next(tick), cand))
    return False
