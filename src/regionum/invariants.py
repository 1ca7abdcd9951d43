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
import heapq
import itertools
from array import array
from functools import lru_cache

from .braid import (
    BraidWord,
    BudgetExceeded,
    _conjugate_reduced,
    closure_components,
    free_reduce,
    handle_reduce,
    markov_simplify,
    split_unused,
)
from .laurent import LOOP, LaurentPoly

MAX_STRANDS = 12  # Catalan(12) = 208012 planar matchings

# Extra bits of slot width over the measured L1 norm when a state vector is
# repacked.  The norm bound doubles per letter, so this many letters pass
# between two repacks.
_HEADROOM_BITS = 16


class _Matchings:
    """Temperley-Lieb matchings on ``p`` strands, interned as integer ids
    when the sweep first reaches them.

    A matching is a fixed-point-free involution of 0..2p-1 (bottom points
    0..p-1, top points p..2p-1) stored as ``bytes``; id 0 is the identity.
    ``moves[i][sid]`` caches the cup-cap at strands i, i+1 composed onto
    the top of ``sid`` as ``tid << 1 | loop`` (-1: not built yet), and
    ``loops[sid]`` caches the loop count of the trace closure (-1: not
    built yet).
    """

    __slots__ = ("p", "ids", "matchings", "moves", "loops")

    def __init__(self, p: int) -> None:
        self.p = p
        self.ids: dict[bytes, int] = {}
        self.matchings: list[bytes] = []
        self.moves = [array("i") for _ in range(p - 1)]
        self.loops = array("b")
        self._intern(bytes([*range(p, 2 * p), *range(p)]))

    def _intern(self, m: bytes) -> int:
        sid = self.ids.get(m)
        if sid is None:
            sid = len(self.matchings)
            self.ids[m] = sid
            self.matchings.append(m)
            for row in self.moves:
                row.append(-1)
            self.loops.append(-1)
        return sid

    def move(self, sid: int, i: int) -> int:
        """Build and cache ``moves[i][sid]``."""
        p = self.p
        m = self.matchings[sid]
        a = m[p + i]
        if a == p + i + 1:
            t = sid << 1 | 1
        else:
            b = m[p + i + 1]
            new = bytearray(m)
            new[p + i] = p + i + 1
            new[p + i + 1] = p + i
            new[a] = b
            new[b] = a
            t = self._intern(bytes(new)) << 1
        self.moves[i][sid] = t
        return t

    def closure_loops(self, sid: int) -> int:
        k = self.loops[sid]
        if k < 0:
            p = self.p
            m = self.matchings[sid]
            seen = [False] * (2 * p)
            k = 0
            for start in range(2 * p):
                if seen[start]:
                    continue
                k += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = m[j]
                    seen[j] = True
                    j = j + p if j < p else j - p  # trace closure arc
            self.loops[sid] = k
        return k


@lru_cache(maxsize=None)
def _matchings(p: int) -> _Matchings:
    return _Matchings(p)


def _fits(norm: int, width: int) -> bool:
    """True when no coefficient of a vector of L1 norm ``norm`` can reach
    the sign bit of a ``width``-bit slot."""
    return norm < 1 << (width - 1)


def _slot_width(norm: int) -> int:
    """Bits per packed coefficient for a vector of L1 norm ``norm``: a
    sign bit plus headroom, rounded up to whole bytes."""
    return (norm.bit_length() + 1 + _HEADROOM_BITS + 7) & ~7


def _unpack(v: int, width: int) -> list[int]:
    """Signed coefficients of a packed int, lowest slot first; exact while
    every coefficient is below 2^(width-1) in absolute value."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    while v:
        c = v & mask
        if c >= half:
            c -= 1 << width
        out.append(c)
        v = (v - c) >> width
    return out


def _pack(coeffs: list[int], width: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = (v << width) + c
    return v


def _repack(state: dict[int, int], width: int) -> tuple[dict[int, int], int, int, int]:
    """Unpack every state, measure the exact L1 norm and the lowest used
    slot, and pack again from that slot at the width the norm needs.
    Returns the new state, its norm, its width and the slots dropped."""
    low = min((((v & -v).bit_length() - 1) // width for v in state.values()), default=0)
    unpacked = {sid: _unpack(v >> (low * width), width) for sid, v in state.items()}
    norm = sum(abs(c) for cs in unpacked.values() for c in cs)
    new_width = _slot_width(norm)
    packed = {sid: _pack(cs, new_width) for sid, cs in unpacked.items()}
    return packed, norm, new_width, low


def kauffman_bracket(w: BraidWord) -> LaurentPoly:
    """Kauffman bracket of the trace closure, unknot normalized to 1.

    Sweeps the letters through the Temperley-Lieb algebra.  The state maps
    a matching id to its coefficient, a polynomial in A^2 packed into one
    int (Kronecker substitution): slot j holds the coefficient of
    A^(exp + 2j), with one shared A-exponent ``exp``; all exponents after
    t letters have the parity of t, so A^2 steps lose nothing.  Each letter
    is scaled so that its weights are left shifts: a positive letter sends
    a state to itself with weight 1 and to its cup-cap with A^2, or, when
    the cup-cap closes a loop, to itself with 1 - (A^4 + 1) = -A^4; a
    negative letter uses A^4, A^2 and A^4 - (A^4 + 1) = -1.  So the L1
    norm over all states at most doubles per letter.  ``norm`` tracks that
    bound; before it could reach the sign bit of a slot, the state is
    repacked at a width fitting its exact norm, which keeps every slot
    exact.
    """
    p = w.strands
    if p > MAX_STRANDS:
        raise ValueError(
            f"strand count {p} exceeds the transfer-matrix guard {MAX_STRANDS}"
        )
    tables = _matchings(p)
    norm = 1
    width = _slot_width(norm)
    state = {0: 1}
    exp = 0
    for x in w.letters:
        if not _fits(norm << 1, width):
            state, norm, width, low = _repack(state, width)
            exp += 2 * low
        norm <<= 1
        i = abs(x) - 1
        row = tables.moves[i]
        width2 = 2 * width
        new: dict[int, int] = {}
        get = new.get
        if x > 0:  # A^-1 * identity + A * cup-cap, scaled by A
            exp -= 1
            for sid, v in state.items():
                t = row[sid]
                if t < 0:
                    t = tables.move(sid, i)
                if t & 1:
                    new[sid] = get(sid, 0) - (v << width2)
                else:
                    new[sid] = get(sid, 0) + v
                    t >>= 1
                    new[t] = get(t, 0) + (v << width)
        else:  # A * identity + A^-1 * cup-cap, scaled by A^3
            exp -= 3
            for sid, v in state.items():
                t = row[sid]
                if t < 0:
                    t = tables.move(sid, i)
                if t & 1:
                    new[sid] = get(sid, 0) - v
                else:
                    new[sid] = get(sid, 0) + (v << width2)
                    t >>= 1
                    new[t] = get(t, 0) + (v << width)
        state = {sid: v for sid, v in new.items() if v}
    # Sums of states keep within the norm, so each sum unpacks exactly.
    by_loops: dict[int, int] = {}
    for sid, v in state.items():
        k = tables.closure_loops(sid)
        by_loops[k] = by_loops.get(k, 0) + v
    coeffs: dict[int, int] = {}
    for k, v in by_loops.items():
        # LOOP^(k-1) = (-1)^(k-1) * A^(-2(k-1)) * (1 + A^4)^(k-1)
        cs = _unpack(v, width)
        for _ in range(k - 1):
            cs = [-c for c in cs] + [0, 0]
            for j in range(len(cs) - 1, 1, -1):
                cs[j] += cs[j - 2]
        base = exp - 2 * (k - 1)
        for j, c in enumerate(cs):
            coeffs[base + 2 * j] = coeffs.get(base + 2 * j, 0) + c
    return LaurentPoly(coeffs)


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


REDUCE_MAX_ROUNDS = 200  # handle-reduce/Markov rounds before the search
SEARCH_MAX_NODES = 3000
SEARCH_SLACK = 4  # letters a candidate may grow beyond the start word
SEARCH_STEP_BUDGET = 500  # handle-reduction steps per search candidate


def _reduce_to_unlink(w: BraidWord) -> tuple[bool, tuple[BraidWord, ...]]:
    """Try to reduce the closure to a disjoint union of trivial circles by
    alternating handle reduction with Markov simplification, falling back
    to a bounded best-first search over Markov moves per stuck piece."""
    pieces = [free_reduce(w)]
    for _ in range(REDUCE_MAX_ROUNDS):
        progressed = False
        next_pieces: list[BraidWord] = []
        for piece in pieces:
            for part in split_unused(piece):
                if not part.letters:
                    continue
                try:
                    reduced = handle_reduce(part)
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
    residue = [p for p in pieces if not _search_dissolves(p)]
    if not residue:
        return True, ()
    return False, tuple(residue)


def _search_dissolves(w: BraidWord, max_nodes: int = SEARCH_MAX_NODES) -> bool:
    """Best-first search over closure-preserving moves (cyclic shifts,
    single-letter conjugations, each followed by handle reduction and
    greedy simplification), fewest strands and letters first.  True iff
    some state reaches the empty word; False is only "not found within
    the budget".

    Different states often share a neighbour.  A neighbour met a second
    time is skipped: its reduction, split search and push would all
    repeat the first time's, and pushing a state twice only adds a stale
    heap entry."""
    start = markov_simplify(w)
    if not start.letters:
        return True
    seen: set[tuple[int, tuple[int, ...]]] = set()
    tried: set[tuple[int, tuple[int, ...]]] = set()
    tick = itertools.count()
    heap = [((start.strands, len(start.letters)), next(tick), start)]
    nodes = 0
    while heap and nodes < max_nodes:
        _, _, cur = heapq.heappop(heap)
        p, letters = key = (cur.strands, cur.letters)
        if key in seen:
            continue
        seen.add(key)
        nodes += 1
        neighbours = [letters[k:] + letters[:k] for k in range(1, len(letters))]
        for g in range(1, p):
            neighbours.append(_conjugate_reduced(letters, g))
            neighbours.append(_conjugate_reduced(letters, -g))
        for raw in neighbours:
            if (p, raw) in tried:
                continue
            tried.add((p, raw))
            cand = BraidWord(p, raw)
            try:
                cand = handle_reduce(cand, budget=SEARCH_STEP_BUDGET)
            except BudgetExceeded:
                pass
            cand = markov_simplify(cand, conjugator_length=1)
            if not cand.letters:
                return True
            parts = split_unused(cand)
            if len(parts) > 1:
                if all(
                    not part.letters or _search_dissolves(part, max_nodes // 2)
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


def certify_unlink(w: BraidWord) -> UnlinkCertificate:
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
    done, residue = _reduce_to_unlink(w)
    if done:
        return UnlinkCertificate(Verdict.CERTIFIED, d, jones_ok, ())
    return UnlinkCertificate(Verdict.INCONCLUSIVE, d, jones_ok, residue)
