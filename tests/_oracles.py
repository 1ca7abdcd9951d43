"""Independent slow oracles used to cross-check the fast implementations.

The bracket oracle enumerates all 2^c crossing smoothings explicitly and
counts loops with a union-find, sharing nothing with the transfer-matrix
sweep except the smoothing weights (A^-1 identity / A cap-cup at a
positive crossing, mirrored at a negative one).

``dict_bracket`` is the Temperley-Lieb sweep the package used before its
packed-integer one: matchings as tuples, coefficients as ``LaurentPoly``
dicts.  It is slow but direct, and reaches words the 2^c state sum
cannot.  ``slot_repack`` is the packed sweep's repack as it was before it
stopped looping over slots: it unpacks every coefficient, sums their
absolute values column by column and packs them again.

``handle_reduce``, ``markov_simplify`` and their helpers below
(``free_reduce``, ``cyclic_shift`` and ``conjugate`` among them) are
the reduction engine as it was before it moved onto letter tuples: it
rebuilds a ``BraidWord`` and free-reduces the whole word after every
move.  The package no longer uses ``free_reduce`` itself.  The
package's engine must give the same words and raise ``BudgetExceeded``
on the same inputs.

``split_unused`` splits a word at the generators it never uses, as
``BraidWord`` pieces.  It shares no code with the package's letter-tuple
split, ``braid._split_core``, and must give the same pieces.

``search_dissolves`` is the certifier's move search as it was before it
ran on ``(strands, letters)`` pairs: it wraps every neighbour in a
``BraidWord`` and calls the public ``handle_reduce`` and
``markov_simplify``, each of which free-reduces the word again, and
``split_unused``.  Those three are checked against the old engine and
the package's split, so this search is the reference for the package's:
the same verdict, from the same states in the same order, on every word
and node cap.

``burau_alexander`` is the Burau-Alexander value as it was before its
columns were packed into one int each: columns as lists of residues, a
comprehension step with three multiplications per entry and letter, and
Gaussian elimination with one modular inverse per pivot.  The package's
value must be the same residue on every word.

``brute_force_uR`` is the region-subset search as it was before the
Burau-Alexander refuter went in front of the certifier: it builds each
subset's diagram through ``region_crossing_changes`` and sends every
word on more than two strands to ``certify_unlink``.  The package's
search must give the same reports.

``close_braid`` builds the diagram from half-edges, as the package did
before it read each face off the word: it pairs half-edges along each
column, traces faces as orbits, and finds the two side faces by their
ports.  It numbers the small faces by the crossing whose top corner
(between its two top ports) they hold, and returns its own face records
(corner lists, side flags), rows and component labels.  The package's
builder must give the same rows in the same order.  ``_cyclic_anchor``
is the numbering the schedules were first calibrated on: the corner
after the largest cyclic gap between a face's corner positions, which
equals the top-corner id on the standard diagrams with q >= 3.

``min_weight_solution`` and ``select_bits`` are GF(2) helpers the package
no longer uses: the least-weight member of a solution coset, and the set
bits of a mask.

The ``_sched_*`` builders are the theorem schedules as the package built
them before it composed each one from a staircase head and an n-free
tail: one builder per case, each taking (p, n, a) with q = n*p + a and
working out its own block offsets from n, over its own copy of the index
sets ``X_i``.  ``SCHEDULE_BUILDERS`` maps each constructible case to its
builder.  The package's schedules must be the same ids in the same order.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from regionum import braid
from regionum.bounds import TheoremCase
from regionum.braid import BraidWord, BudgetExceeded, _free_reduce_list
from regionum.diagram import DisconnectedDiagramError, PlanarDiagram
from regionum.gf2 import solution_coset
from regionum.invariants import (
    BURAU_PRIME,
    BURAU_T,
    UnlinkCertificate,
    Verdict,
    _slot_width,
    _unpack,
    certify_unlink,
)
from regionum.laurent import LOOP, LaurentPoly
from regionum.limits import HANDLE_BUDGET, SEARCH_MAX_NODES, SEARCH_SLACK, SEARCH_STEP_BUDGET
from regionum.search import SearchReport

MARKOV_MAX_ROUNDS = 10_000  # rounds of markov_simplify before it stops


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


def pack(coeffs: list[int], width: int) -> int:
    """The packed int with ``coeffs`` in its slots, lowest first."""
    v = 0
    for c in reversed(coeffs):
        v = (v << width) + c
    return v


def slot_repack(v: list[int], width: int, columns: int) -> tuple[list[int], int, int, int]:
    """Reference for ``invariants._repack``, one coefficient at a time:
    the repacked rows, their largest column norm, their width and the
    levels (runs of ``columns`` slots) dropped.  Slot k of a row lies in
    column k mod ``columns``, and a column's norm is the L1 norm of its
    slots over every row and level."""
    level = columns * width
    low = min((((x & -x).bit_length() - 1) // level for x in v if x), default=0)
    unpacked = [_unpack(x >> (low * level), width) for x in v]
    sums = [0] * columns
    for cs in unpacked:
        for k, c in enumerate(cs):
            sums[k % columns] += abs(c)
    norm = max(sums)
    new_width = _slot_width(norm)
    return [pack(cs, new_width) for cs in unpacked], norm, new_width, low


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


def free_reduce(w: BraidWord) -> BraidWord:
    return BraidWord(w.strands, tuple(_free_reduce_list(w.letters)))


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


def split_unused(w: BraidWord) -> list[BraidWord]:
    """Split at unused generators: if sigma_j never occurs, the closure is a
    split union of the closures of the strands up to j and of the rest.
    Each piece keeps its own letters, shifted down to start at sigma_1; an
    unused strand between two gaps is an empty piece."""
    used = {abs(x) for x in w.letters}
    cuts = [0] + [j for j in range(1, w.strands) if j not in used] + [w.strands]
    return [
        BraidWord(hi - lo, tuple(x - lo if x > 0 else x + lo for x in w.letters if lo < abs(x) < hi))
        for lo, hi in zip(cuts, cuts[1:])
    ]


def search_dissolves(w: BraidWord, max_nodes: int = SEARCH_MAX_NODES) -> bool:
    """Best-first search over closure-preserving moves (cyclic shifts,
    single-letter conjugations, each followed by handle reduction and
    greedy simplification), fewest strands and letters first.  True iff
    some state reaches the empty word; False is only "not found within
    the budget".

    Different states often share a neighbour.  A neighbour met a second
    time is skipped: its reduction, split search and push would all
    repeat the first time's, and pushing a state twice only adds a stale
    heap entry."""
    start = braid.markov_simplify(w)
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
            neighbours.append(braid._conjugate_reduced(letters, g))
            neighbours.append(braid._conjugate_reduced(letters, -g))
        for raw in neighbours:
            if (p, raw) in tried:
                continue
            tried.add((p, raw))
            cand = BraidWord(p, raw)
            try:
                cand = braid.handle_reduce(cand, budget=SEARCH_STEP_BUDGET)
            except BudgetExceeded:
                pass
            cand = braid.markov_simplify(cand)
            if not cand.letters:
                return True
            parts = split_unused(cand)
            if len(parts) > 1:
                if all(
                    not part.letters or search_dissolves(part, max_nodes // 2)
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


_BURAU_T_INV = pow(BURAU_T, -1, BURAU_PRIME)
# Weights of columns i-1, i, i+1 in the new column i, by letter sign.
_BURAU_WEIGHTS = {
    1: (BURAU_T, BURAU_PRIME - BURAU_T, 1),
    -1: (1, BURAU_PRIME - _BURAU_T_INV, _BURAU_T_INV),
}


def burau_alexander(w: BraidWord) -> int:
    """det(I - B(w)) at t0 = ``BURAU_T`` modulo ``BURAU_PRIME``, B the
    reduced Burau matrix of ``w``: ``sigma_i`` sends column i of the
    running product X to t * X[i-1] - t * X[i] + X[i+1], and
    ``sigma_i^-1`` to X[i-1] - t^-1 * X[i] + t^-1 * X[i+1]; columns 0
    and p stay zero."""
    prime = BURAU_PRIME
    n = w.strands - 1
    cols = [[int(r == c) for r in range(n)] for c in range(-1, n + 1)]
    for x in w.letters:
        i = abs(x)
        left, mid, right = _BURAU_WEIGHTS[1 if x > 0 else -1]
        cols[i] = [
            (left * a + mid * b + right * c) % prime
            for a, b, c in zip(cols[i - 1], cols[i], cols[i + 1])
        ]
    # Gaussian elimination of I - X, rows as lists.
    m = [[(int(r == c) - cols[c + 1][r]) % prime for c in range(n)] for r in range(n)]
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % prime
        inv = pow(m[c][c], -1, prime)
        for r in range(c + 1, n):
            f = m[r][c] * inv % prime
            if f:
                m[r] = [(a - f * b) % prime for a, b in zip(m[r], m[c])]
    return det


def brute_force_uR(
    diagram: PlanarDiagram, k_max: int
) -> tuple[SearchReport, list[tuple[BraidWord, UnlinkCertificate]]]:
    """Smallest number of region crossing changes trivializing the
    diagram, searching subsets of size 0..k_max in order; also returns
    every word sent to ``certify_unlink`` with its certificate.  Assumes
    the diagram passes the package's guards (region count, properness)."""
    checked: list[tuple[BraidWord, UnlinkCertificate]] = []
    explored = 0
    undecided = 0
    first_undecided_size: int | None = None
    for k in range(k_max + 1):
        for subset in combinations(range(1, len(diagram.rows) + 1), k):
            explored += 1
            word = diagram.region_crossing_changes(subset).word()
            if diagram.strands == 2:
                trivial = abs(word.writhe) <= 1
            else:
                cert = certify_unlink(word)
                checked.append((word, cert))
                if cert.verdict is Verdict.INCONCLUSIVE:
                    undecided += 1
                    if first_undecided_size is None:
                        first_undecided_size = k
                    continue
                trivial = cert.verdict is Verdict.CERTIFIED
            if trivial:
                report = SearchReport(
                    exact=k if first_undecided_size in (None, k) else None,
                    lower_bound=k if first_undecided_size is None else first_undecided_size,
                    witness=subset,
                    explored=explored,
                    inconclusive=undecided,
                )
                return report, checked
    report = SearchReport(
        exact=None,
        lower_bound=k_max + 1 if first_undecided_size is None else first_undecided_size,
        witness=None,
        explored=explored,
        inconclusive=undecided,
    )
    return report, checked


# Half-edges are encoded as ``4 * crossing + port`` with ports in
# counterclockwise order::
#
#     3 TL   2 TR
#        \   /
#         \ /
#         / \
#     0 BL   1 BR
#
# Faces are the orbits of (rotation o edge-involution).
BL, BR, TR, TL = 0, 1, 2, 3


def _column_touches(w: BraidWord) -> list[list[tuple[int, int, int]]]:
    """For each column (0-based), the crossings touching it in time order as
    (crossing, bottom_port, top_port)."""
    touches: list[list[tuple[int, int, int]]] = [[] for _ in range(w.strands)]
    for c, x in enumerate(w.letters):
        i = abs(x) - 1
        touches[i].append((c, BL, TL))
        touches[i + 1].append((c, BR, TR))
    return touches


@dataclasses.dataclass(frozen=True)
class Face:
    corners: tuple[int, ...]  # one crossing id per corner, in orbit order
    is_outer: bool  # a side face


@dataclasses.dataclass(frozen=True)
class ReferenceDiagram:
    faces: tuple[Face, ...]  # region k + 1 is faces[k]
    rows: tuple[int, ...]  # flip set of each face, in id order
    component_of_strand: tuple[int, ...]  # component label per starting column


def close_braid(w: BraidWord) -> ReferenceDiagram:
    """Build the closed-braid diagram of a nonempty word using every
    generator (otherwise the diagram is disconnected)."""
    if not w.letters:
        raise DisconnectedDiagramError("empty word closes to disjoint circles")
    used = {abs(x) for x in w.letters}
    missing = [j for j in range(1, w.strands) if j not in used]
    if missing:
        raise DisconnectedDiagramError(
            f"generator(s) {missing} never occur: the closure is split"
        )

    n_half = 4 * len(w.letters)
    alpha = [-1] * n_half
    for column in _column_touches(w):
        k = len(column)
        for t in range(k):
            c_top, _, top_port = column[t]
            c_bot, bot_port, _ = column[(t + 1) % k]
            h1 = 4 * c_top + top_port
            h2 = 4 * c_bot + bot_port
            alpha[h1] = h2
            alpha[h2] = h1
    assert all(h >= 0 for h in alpha)

    orbits = _trace_faces(alpha)
    if len(orbits) != len(w.letters) + 2:
        raise DisconnectedDiagramError(
            f"face count {len(orbits)} != crossings + 2; diagram is not planar/connected"
        )
    faces = tuple(
        Face(corners=tuple(h >> 2 for h in orbit), is_outer=outer)
        for orbit, outer in _number_faces(w, orbits)
    )
    rows = tuple(sum(1 << c for c in set(f.corners)) for f in faces)

    perm = w.permutation()
    component_of_strand = [-1] * w.strands
    comp = 0
    for start in range(w.strands):
        if component_of_strand[start] >= 0:
            continue
        j = start
        while component_of_strand[j] < 0:
            component_of_strand[j] = comp
            j = perm[j]
        comp += 1

    return ReferenceDiagram(faces, rows, tuple(component_of_strand))


def _trace_faces(alpha: list[int]) -> list[list[int]]:
    """Faces as orbits of h -> rot(alpha(h)), rot = next port counterclockwise."""
    n = len(alpha)
    seen = [False] * n
    faces = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        h = start
        while not seen[h]:
            seen[h] = True
            orbit.append(h)
            h2 = alpha[h]
            h = (h2 & ~3) | ((h2 + 1) & 3)
        faces.append(orbit)
    return faces


def _number_faces(
    w: BraidWord, orbits: list[list[int]]
) -> list[tuple[list[int], bool]]:
    """Orbits in id order, each with its side flag.

    In an orbit, half-edge ``4c + k`` stands for the corner of crossing c
    between ports k - 1 and k, so ``4c + TL`` is the top corner of c, and
    the small face holding it is region c + 1.  The two large side faces
    get the last two ids (left side first).
    """
    gens = [abs(x) for x in w.letters]
    top = max(gens)
    left_face = None
    right_face = None
    face_of = {}
    for idx, orbit in enumerate(orbits):
        cols = {gens[h >> 2] for h in orbit}
        ports = {h & 3 for h in orbit}
        if cols == {1} and ports <= {BL, TL}:
            left_face = idx
        if cols == {top} and ports <= {BR, TR}:
            right_face = idx
        for h in orbit:
            face_of[h] = idx
    if left_face is None or right_face is None or left_face == right_face:
        raise AssertionError("could not identify the two side faces")
    small = [face_of[4 * c + TL] for c in range(len(gens))]
    assert sorted(small + [left_face, right_face]) == list(range(len(orbits)))
    return [(orbits[idx], False) for idx in small] + [
        (orbits[left_face], True),
        (orbits[right_face], True),
    ]


def _cyclic_anchor(corners: list[int], length: int) -> int:
    """1-based letter position of the corner following the largest cyclic
    gap of the sorted corner positions (ties broken toward the smallest)."""
    best_gap = -1
    anchor = corners[0]
    for k, c in enumerate(corners):
        prev = corners[k - 1]
        gap = (c - prev) % length or length
        if gap > best_gap:
            best_gap = gap
            anchor = c
    return anchor + 1


def min_weight_solution(rows: Sequence[int], target: int) -> int | None:
    best: int | None = None
    for sol in solution_coset(rows, target):
        if best is None or sol.bit_count() < best.bit_count():
            best = sol
    return best


def select_bits(mask: int) -> list[int]:
    return [k for k in range(mask.bit_length()) if (mask >> k) & 1]


def _X(i: int, p: int) -> list[int]:
    return [2 * i * (p - 1) - 2 * t for t in range(i)]


def _X_union(kmax: int, p: int) -> list[int]:
    return [x for i in range(1, kmax + 1) for x in _X(i, p)]


def _mu_rows(p: int, n_blocks: int) -> list[int]:
    """Region ids of the staircase selection on row blocks 1..n_blocks,
    p rows per block (p odd)."""
    base = _X_union((p - 1) // 2, p)
    return [
        (i - 1) * (p - 1) * p + x for i in range(1, n_blocks + 1) for x in base
    ]


def _mn_rows(p: int, n_blocks: int) -> list[int]:
    """Region ids of the staircase-plus-mirror selection on double blocks
    1..n_blocks, 2p rows per block (p even)."""
    c0 = (p - 1) * (2 * p - 1) + 1
    base = _X_union(p // 2, p) + [c0 - x for x in _X_union((p - 2) // 2, p)]
    return [
        (i - 1) * (p - 1) * 2 * p + x for i in range(1, n_blocks + 1) for x in base
    ]


# --- schedule builders -------------------------------------------------
# Each takes (p, n, a) with q = n*p + a and returns the 1-based region
# ids of the standard diagram in selection order.


def _sched_two_braid(p: int, n: int, a: int) -> list[int]:
    # disjoint bigons; adjacent bigon ids share a crossing, so take every
    # other id
    m = (n * p + a + 2) // 4
    return [2 * k + 1 for k in range(m)]


def _sched_mu_only(p: int, n: int, a: int) -> list[int]:
    return _mu_rows(p, n)


def _sched_mn_only(p: int, n: int, a: int) -> list[int]:
    return _mn_rows(p, n // 2)


def _sched_np1_even_odd(p: int, n: int, a: int) -> list[int]:
    head = _mn_rows(p, (n - 1) // 2)
    off = (n - 1) * p * (p - 1)
    return head + [off + x for x in _X_union(p // 2, p)]


def _sched_np2_odd(p: int, n: int, a: int) -> list[int]:
    m = (p + 1) // 4  # p = 4m +- 1
    off = (n * p + 1) * (p - 1)
    return _mu_rows(p, n) + [off - 4 * j for j in range(m)]


def _sched_np2_even(p: int, n: int, a: int) -> list[int]:
    off = (n * p + 1) * (p - 1)
    return _mn_rows(p, n // 2) + [off - 4 * j for j in range(p // 4)]


def _sched_even_ladder(p: int, n: int, a: int) -> list[int]:
    head = _mn_rows(p, (n - 1) // 2)
    off = (n - 1) * p * (p - 1)
    tail = list(_X_union(p // 2, p))
    c1 = (p + a - 1) * (p - 1) + 1
    for j in range(p // a):
        tail.extend(j * a + c1 - x for x in _X_union((a - 2) // 2, p))
    return head + [off + x for x in tail]


def _odd_head(p: int, n: int) -> list[int]:
    return _mu_rows(p, n) if p % 2 else _mn_rows(p, n // 2)


def _sched_odd_ladder_div(p: int, n: int, a: int) -> list[int]:
    off = n * p * (p - 1)
    tail = [
        off - j * a + x
        for j in range((p + 1) // a)
        for x in _X_union((a - 1) // 2, p)
    ]
    return _odd_head(p, n) + tail


def _sched_odd_ladder_2mod(p: int, n: int, a: int) -> list[int]:
    m = (a + 2) // 4  # a = 4m -+ 1
    off = n * p * (p - 1)
    tail = [
        off - j * a + x
        for j in range((p - 2) // a)
        for x in _X_union((a - 1) // 2, p)
    ]
    single_base = (n * p + 1) * (p - 1) + 1
    singles = [single_base + 4 * k * (p - 1) for k in range(m)]
    return _odd_head(p, n) + tail + singles


def _sched_odd_ladder_m2mod(p: int, n: int, a: int) -> list[int]:
    off = n * p * (p - 1)
    batches = (p + 2) // a - 1
    tail = [
        off - j * a + x for j in range(batches) for x in _X_union((a - 1) // 2, p)
    ]
    tail += [off - batches * a + x for x in _X_union((a - 3) // 2, p)]
    single_base = (n * p + a - 2) * (p - 1) + (a - 3)
    singles = [single_base - 4 * k for k in range(a // 4)]
    return _odd_head(p, n) + tail + singles


def _sched_npm1_odd(p: int, n: int, a: int) -> list[int]:
    n1 = n + 1
    head = _mu_rows(p, n1 - 1)
    off = ((n1 - 1) * p - 1) * (p - 1)
    return head + [off + x for x in _X_union((p - 1) // 2, p)]


def _sched_npm1_even(p: int, n: int, a: int) -> list[int]:
    return _mn_rows(p, (n + 1) // 2)


def _sched_npm2_n_odd(p: int, n: int, a: int) -> list[int]:
    n1 = n + 1
    head = _mn_rows(p, (n1 - 1) // 2)
    off = ((n1 - 1) * p - 1) * (p - 1)
    return head + [off + x for x in _X_union((p - 2) // 2, p)]


def _sched_npm2_n_even(p: int, n: int, a: int) -> list[int]:
    n1 = n + 1
    head = _mn_rows(p, (n1 - 2) // 2)
    off = (n1 - 2) * p * (p - 1)
    tail = list(_X_union(p // 2, p))
    c1 = (2 * p - 3) * (p - 1) + 2
    tail += [c1 - x for x in _X_union((p - 4) // 2, p)]
    tail += [(p + 5 + 4 * i) * (p - 1) for i in range(p // 4 - 1)]
    return head + [off + x for x in tail]


def _sched_np3_even_odd(p: int, n: int, a: int) -> list[int]:
    m = (p + 2) // 6
    head = _mn_rows(p, (n - 1) // 2)
    off = (n - 1) * p * (p - 1)
    mid = [off + x for x in _X_union(p // 2, p)]
    single_base = (n * p + 2) * (p - 1) - 2
    singles = [single_base - 6 * i for i in range(m)]
    return head + mid + singles


# Each case's builder, as the case registry named it before the composer.
SCHEDULE_BUILDERS = {
    TheoremCase.TWO_BRAID: _sched_two_braid,
    TheoremCase.NP_P_ODD: _sched_mu_only,
    TheoremCase.NP1_P_ODD: _sched_mu_only,
    TheoremCase.NP1_P_EVEN_N_ODD: _sched_np1_even_odd,
    TheoremCase.NP_P_N_EVEN: _sched_mn_only,
    TheoremCase.NP1_P_N_EVEN: _sched_mn_only,
    TheoremCase.NP2_P_ODD: _sched_np2_odd,
    TheoremCase.NP2_P_N_EVEN: _sched_np2_even,
    TheoremCase.NPA_EVEN_DIV: _sched_even_ladder,
    TheoremCase.NPA_P_ODD_DIV: _sched_odd_ladder_div,
    TheoremCase.NPA_P_N_EVEN_DIV: _sched_odd_ladder_div,
    TheoremCase.NPA_P_ODD_2MODA: _sched_odd_ladder_2mod,
    TheoremCase.NPA_P_N_EVEN_2MODA: _sched_odd_ladder_2mod,
    TheoremCase.NPA_P_ODD_M2MODA: _sched_odd_ladder_m2mod,
    TheoremCase.NPA_P_N_EVEN_M2MODA: _sched_odd_ladder_m2mod,
    TheoremCase.NPM1_P_ODD: _sched_npm1_odd,
    TheoremCase.NPM1_P_N_EVEN: _sched_npm1_even,
    TheoremCase.NPM2_P_EVEN_N_ODD: _sched_npm2_n_odd,
    TheoremCase.NPM2_P_N_EVEN: _sched_npm2_n_even,
    TheoremCase.NP3_P_EVEN_N_ODD: _sched_np3_even_odd,
}
