"""Closure-level triviality oracle: Kauffman bracket by sweeping a braid
word through the Temperley-Lieb algebra, Jones polynomial, and an unlink
certificate combining the polynomial with word reduction.

Conventions (fixed once, documented here):

* the closure is the trace closure (top joined to bottom);
* a positive letter contributes A^-1 * identity + A * cup-cap when its
  crossing is smoothed, a negative letter the A <-> A^-1 swap (this makes
  the closure of sigma_1^3 evaluate to -t^-4 + t^-3 + t^-1);
* the bracket of the unknot is 1 and every extra loop multiplies by
  -A^2 - A^-2;
* jones(w) = (-A^3)^(-writhe) * bracket(w), with t = A^-4 applied only at
  display time.

Chirality of the positive crossing is a convention; every trivial-link
verification in this package is chirality-independent (the unlink
polynomial is palindromic).
"""

from __future__ import annotations

import dataclasses
import enum
from functools import lru_cache

from .braid import (
    BraidWord,
    BudgetExceeded,
    closure_components,
    free_reduce,
    handle_reduce,
    markov_simplify,
    split_unused,
)
from .laurent import LOOP, LaurentPoly

MAX_STRANDS = 12  # Catalan(12) = 208012 planar matchings


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


def kauffman_bracket(w: BraidWord) -> LaurentPoly:
    """Kauffman bracket of the trace closure, unknot normalized to 1."""
    p = w.strands
    if p > MAX_STRANDS:
        raise ValueError(
            f"strand count {p} exceeds the transfer-matrix guard {MAX_STRANDS}"
        )
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


def jones(w: BraidWord) -> LaurentPoly:
    """Writhe-normalized bracket: invariant of the closure as an
    (unoriented-diagram-computed) link polynomial in A; use
    :meth:`LaurentPoly.format_t` for the t^(1/2) rendering."""
    bracket = kauffman_bracket(w)
    wr = w.writhe
    # (-A^-3)^(-wr), matching the crossing convention above
    factor = LaurentPoly.monomial(3 * wr, (-1) ** (wr % 2))
    return factor * bracket


def unlink_jones(components: int) -> LaurentPoly:
    """Jones polynomial of the trivial link with the given component count:
    (-A^2 - A^-2)^(d-1), i.e. (-t^(1/2) - t^(-1/2))^(d-1)."""
    if components < 1:
        raise ValueError("component count must be >= 1")
    return LOOP ** (components - 1)


class Verdict(enum.Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


@dataclasses.dataclass(frozen=True)
class UnlinkCertificate:
    verdict: Verdict
    components: int
    jones_matches_unlink: bool | None  # None when the polynomial was skipped
    reduced: tuple[BraidWord, ...]  # final state of the reduction engine


def _reduce_to_unlink(w: BraidWord, budget: int | None) -> tuple[bool, tuple[BraidWord, ...]]:
    """Try to reduce the closure to a disjoint union of trivial circles by
    alternating handle reduction with Markov simplification, falling back
    to a bounded best-first search over Markov moves per stuck piece."""
    pieces = [free_reduce(w)]
    for _ in range(200):
        progressed = False
        next_pieces: list[BraidWord] = []
        for piece in pieces:
            for part in split_unused(piece):
                if not part.letters:
                    continue
                try:
                    reduced = handle_reduce(part, budget=budget)
                except BudgetExceeded:
                    reduced = part
                simplified = markov_simplify(reduced)
                if len(simplified) < len(part) or simplified.strands < part.strands:
                    progressed = True
                next_pieces.append(simplified)
        pieces = [p for p in next_pieces if p.letters]
        if not pieces:
            return True, ()
        if not progressed:
            break
    residue = [p for p in pieces if not _search_dissolves(p, budget)]
    if not residue:
        return True, ()
    return False, tuple(residue)


SEARCH_MAX_NODES = 3000
SEARCH_SLACK = 4  # letters a candidate may grow beyond the start word


def _search_dissolves(w: BraidWord, budget: int | None, max_nodes: int = SEARCH_MAX_NODES) -> bool:
    """Best-first search over closure-preserving moves (cyclic shifts,
    single-letter conjugations, each followed by handle reduction and
    greedy simplification), fewest strands and letters first.  True iff
    some state reaches the empty word; False is only "not found within
    the budget"."""
    import heapq
    import itertools

    from .braid import cyclic_shift, conjugate

    start = markov_simplify(w)
    if not start.letters:
        return True
    step_budget = 500 if budget is None else min(budget, 500)
    seen: set[tuple[int, tuple[int, ...]]] = set()
    tick = itertools.count()
    heap = [((start.strands, len(start.letters)), next(tick), start)]
    nodes = 0
    while heap and nodes < max_nodes:
        _, _, cur = heapq.heappop(heap)
        key = (cur.strands, cur.letters)
        if key in seen:
            continue
        seen.add(key)
        nodes += 1
        neighbours = [cyclic_shift(cur, k) for k in range(1, len(cur.letters))]
        for g in range(1, cur.strands):
            neighbours.append(conjugate(cur, g))
            neighbours.append(conjugate(cur, -g))
        for cand in neighbours:
            try:
                cand = handle_reduce(cand, budget=step_budget)
            except BudgetExceeded:
                pass
            cand = markov_simplify(cand, conjugator_length=1)
            if not cand.letters:
                return True
            parts = split_unused(cand)
            if len(parts) > 1:
                if all(
                    not part.letters or _search_dissolves(part, budget, max_nodes // 2)
                    for part in parts
                ):
                    return True
                continue
            if (
                (cand.strands, cand.letters) not in seen
                and len(cand.letters) <= len(start.letters) + SEARCH_SLACK
            ):
                heapq.heappush(
                    heap, ((cand.strands, len(cand.letters)), next(tick), cand)
                )
    return False


def certify_unlink(w: BraidWord, budget: int | None = None) -> UnlinkCertificate:
    """Three-way unlink check for the closure of ``w``.

    Refuted when the Jones polynomial differs from the trivial-link value
    (necessary condition); Certified when the reduction engine dissolves
    the whole word into trivial circles (sufficient); Inconclusive
    otherwise, with the reduction residue attached.
    """
    d = closure_components(w)
    jones_ok: bool | None
    if w.strands <= MAX_STRANDS:
        jones_ok = jones(w) == unlink_jones(d)
        if not jones_ok:
            return UnlinkCertificate(Verdict.REFUTED, d, False, (w,))
    else:
        jones_ok = None
    done, residue = _reduce_to_unlink(w, budget)
    if done:
        return UnlinkCertificate(Verdict.CERTIFIED, d, jones_ok, ())
    return UnlinkCertificate(Verdict.INCONCLUSIVE, d, jones_ok, residue)
