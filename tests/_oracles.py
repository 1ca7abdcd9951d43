"""Independent slow oracles used to cross-check the fast implementations.

The bracket oracle enumerates all 2^c crossing smoothings explicitly and
counts loops with a union-find, sharing nothing with the transfer-matrix
sweep except the smoothing weights (A^-1 identity / A cap-cup at a
positive crossing, mirrored at a negative one).

``dict_bracket`` is the Temperley-Lieb sweep the package used before its
packed-integer one: matchings as tuples, coefficients as ``LaurentPoly``
dicts.  It is slow but direct, and reaches words the 2^c state sum
cannot.
"""

from __future__ import annotations

from functools import lru_cache

from regionum.braid import BraidWord
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
