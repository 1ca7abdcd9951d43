"""Closure-level triviality oracle: Kauffman bracket by sweeping a braid
word through the cell modules of the Temperley-Lieb algebra, Jones
polynomial, an exact Alexander refuter (the reduced Burau determinant
det(I - B(w)) at a fixed point modulo a 61-bit prime, which works at any
strand count), and an unlink certificate combining these with word
reduction.  The certifier runs Jones up to ``MAX_STRANDS`` strands and the
refuter above it; the u_R search sends every word to the refuter before
the certifier.

Conventions (fixed once, documented here):

* the closure is the trace closure (top joined to bottom);
* a positive letter contributes A^-1 * identity + A * cup-cap when its
  crossing is smoothed, a negative letter the A <-> A^-1 swap (this makes
  the closure of sigma_1^3 evaluate to -t^-4 + t^-3 + t^-1);
* the bracket of the unknot is 1 and every extra loop multiplies by
  delta = -A^2 - A^-2;
* jones(w) = (-A^3)^(-writhe) * bracket(w), with t = A^-4 applied only at
  display time.

The bracket sweep.  Smoothing every crossing maps the word to an element
x of TL_p, and the bracket is tr(x) / delta, where the Markov trace tr
sends a diagram to delta^(loops of its trace closure).  The trace splits
over the cell modules V_j, one for each number j of defects (j = p, p-2,
...): tr = sum_j Delta_j Tr rho_j, with Delta_j = (-1)^j [j+1] the
Chebyshev values Delta_0 = 1, Delta_1 = delta, Delta_(j+1) =
delta Delta_j - Delta_(j-1) (Goodman-de la Harpe-Jones, *Coxeter Graphs
and Towers of Algebras*, 1989; Ridout-Saint-Aubin, arXiv:1204.4505).  The
basis of V_j is the half-diagrams with j defects, C(p, (p-j)/2) -
C(p, (p-j)/2 - 1) of them; all of them together are C(p, floor(p/2)),
against Catalan(p) matchings for the whole algebra.

The sweep keeps rho_j(x) for every j.  A letter multiplies x on top, so
rho_j(letter x) = rho_j(letter) rho_j(x): it recombines rows and never
moves a column.  Each row is therefore one packed int holding all its
columns (Kronecker substitution).  Switching one crossing's smoothing
changes the power of A by 2 and the loop count by 1, so by Kauffman's
state sum (*Topology* 26, 1987) all exponents of one entry lie in one
class mod 4.  That class is fixed by a parity of the rows and the
columns, so a row stores only powers of A^4: slot s D + B holds the
coefficient of A^(exp + 4s + 2 parity(T) - 2 parity(B)) in column B of
row T, where D is the largest dimension and ``exp`` is shared, and
multiplying by A^4 is one shift by D slots.  A letter rewrites only the
rows with a cup at its generator, each from the rows e_i sends to it,
with one shift.  Every slot stays exact because the L1 norm over all
slots at most doubles per letter, and the state is repacked at a width
fitting its exact norm before the bound could reach a slot's sign bit.
At the end each row's diagonal entry is read off, the traces are
weighted by Delta_j, and the sum is divided by delta exactly: a
remainder would be a bug and raises, it is never dropped.  :func:`_sweep`
has the details.

The column split.  As no letter mixes columns, the sweep of any range of
columns runs on its own, with slots for those columns only, and reads
off the diagonal entries in its range; the parts of complementary ranges
add up to tr(x) exactly, once their A-exponents, which differ by a
multiple of 4, are aligned.  A large sweep is split in two
(:func:`_splits`): this process sweeps the low columns while a worker
sweeps the others.  The worker (:mod:`regionum.worker`) is one process
forked on first use, which serves requests on a pipe until that pipe
ends and then leaves by ``os._exit``; an ``atexit`` hook kills and reaps
it, and a worker that ends mid-call makes the bracket raise
ChildProcessError, never return part of the trace.  The split is chosen
only from the sweep's size by a cost rule measured on 2 vCPUs, the CPU
affinity of the process and whether ``os.fork`` exists: at most 6
strands, or a short word, always sweeps in one process.

Chirality of the positive crossing is a convention; every trivial-link
verification in this package is chirality-independent (the unlink
polynomial is palindromic).
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import itertools
import os
import sys
from collections import Counter
from functools import lru_cache, reduce
from itertools import repeat
from math import comb
from operator import add, and_, lshift, mul, or_, rshift
from typing import Callable, NamedTuple

from .braid import (
    BraidWord,
    BudgetExceeded,
    _conjugate_reduced,
    _free_reduce_list,
    _handle_core,
    _markov_core,
    _split_core,
    closure_components,
)
from .laurent import LOOP, LaurentPoly
from .limits import MAX_STRANDS, refuse_over

# Extra bits of slot width over the measured L1 norm when the state is
# repacked.  The norm bound doubles per letter, so this many letters pass
# between two repacks.
_HEADROOM_BITS = 16

# Empty low levels (powers of A^4) a negative letter's right shifts may use
# up, one per letter, before every row is shifted left again; see
# _sweep.
_GUARD_LEVELS = 4

# Rows rewritten at a time when every row changes, so that the old and the
# new values of only this many are alive together.
_CHUNK = 16

# A sweep is split between this process and a worker only with at least
# this many columns and this many rows x columns x letters; see _splits.
_SPLIT_COLUMNS = 14
_SPLIT_COST = 10_000

# The least rows x columns x letters of a sweep that forks the worker: 7.5
# ms or more serially, of which a split saves at least what the start
# costs, 1 ms for the fork and 1.5-3 ms until the first reply.
_START_COST = 250_000


# One class of one generator's pull table: flat records (c, a), (c, a, b)
# and (c, a, b, d) of the cups with 1, 2 and 3 preimages, and a dict from
# each other cup to its preimages.
_Groups = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], dict[int, tuple[int, ...]]]


class _Cells(NamedTuple):
    """The cell modules of TL_p and the tables the sweep pulls by.

    A half-diagram on p points pairs some of them by non-crossing arcs and
    leaves the rest as defects, none under an arc; it is a tuple of each
    point's partner, -1 for a defect.  The half-diagrams with j defects
    are the basis of the cell module V_j, and the sweep's rows are all of
    them, module by module: ``modules`` lists (j, dim V_j) in row order,
    and a row's column is its position in its module.  ``columns`` is the
    largest dimension.  ``groups[i]`` maps each row with an arc at i, i+1
    (a cup at i) to the other rows e_i sends to it, in the form the sweep
    reads (see :func:`_group`): a pair of :data:`_Groups`, the cups of
    parity 0 and those of parity 1.

    ``parity`` gives each row the parity of the sum of its arcs' left
    endpoints, flipped per module so that the module's first row has 0.
    Every row that e_i sends to a cup row then has the other parity than
    that cup row.  e_i replaces the arcs at i and i+1 by the cup (i, i+1)
    plus an arc joining their old partners, or it moves the defect at one
    of them to the other's partner.  No arc encloses a defect or an odd
    number of points, so the sum of left endpoints changes by an odd
    amount in each of the five cases: partners on both sides, both
    partners nested to the right, both nested to the left, a defect at i,
    a defect at i+1.  The parity exists because switching one crossing's
    smoothing changes the power of A by 2 and the loop count by 1, so all
    exponents of one entry of rho_j(x) lie in one class mod 4:
    A^(2 parity(T) - 2 parity(B)) times powers of A^4, up to a shift
    shared by every entry.
    """

    columns: int
    modules: tuple[tuple[int, int], ...]
    parity: tuple[int, ...]
    groups: tuple[tuple[_Groups, _Groups], ...]


@lru_cache(maxsize=None)
def _cells(p: int) -> _Cells:
    grown: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]  # (partners, open arcs)
    for k in range(p):
        states, grown = grown, []
        for s, open_ in states:
            if not open_:  # no defect under an arc
                grown.append((s + (-1,), open_))
            if len(open_) < p - k - 1:
                grown.append((s + (-1,), open_ + (k,)))
            if open_:
                a = open_[-1]
                grown.append((s[:a] + (k,) + s[a + 1 :] + (a,), open_[:-1]))
    states = sorted((s for s, _ in grown), key=lambda s: s.count(-1))
    ids = {s: n for n, s in enumerate(states)}
    pulls: list[dict[int, list[int]]] = [{} for _ in range(p - 1)]
    for t, s in enumerate(states):
        for i, pull in enumerate(pulls):
            a, b = s[i], s[i + 1]
            if a == i + 1:  # a cup at i: e_i sends t to itself and a loop
                pull.setdefault(t, [])
            elif a >= 0 or b >= 0:  # e_i joining two defects is 0 on V_j
                image = list(s)
                image[i], image[i + 1] = i + 1, i
                if a >= 0:
                    image[a] = b
                if b >= 0:
                    image[b] = a
                pull.setdefault(ids[tuple(image)], []).append(t)
    first: dict[int, int] = {}  # each module's first row's parity, before the flip
    parity = []
    for s in states:  # see _Cells
        left = sum(a for a, b in enumerate(s) if a < b) & 1
        parity.append(left ^ first.setdefault(s.count(-1), left))
    dims = Counter(s.count(-1) for s in states)
    return _Cells(
        max(dims.values()),
        tuple(sorted(dims.items())),
        tuple(parity),
        tuple(
            tuple(_group({c: pre for c, pre in pull.items() if parity[c] == k}) for k in (0, 1))
            for pull in pulls
        ),
    )


def _group(pull: dict[int, list[int]]) -> _Groups:
    """``pull`` as :data:`_Groups`, each part in row order."""
    flat: tuple[list[int], ...] = ([], [], [])
    rest = {}
    for c in sorted(pull):
        pre = tuple(sorted(pull[c]))
        if 1 <= len(pre) <= 3:
            flat[len(pre) - 1].extend((c, *pre))
        else:
            rest[c] = pre
    return (*map(tuple, flat), rest)


def _pull(v: list[int], outer: _Groups, inner: _Groups, shift: int, right: bool) -> None:
    """Apply one scaled letter to its cup rows in place: with s the sum of
    ``v`` over the preimages of a cup c, set ``v[c]`` to (s - v[c]) << shift
    for every cup in ``outer`` and to s - (v[c] << shift) for every cup in
    ``inner``, or with ``right`` the same with >>.  A preimage has no cup,
    so it is read before any write can reach it.  Most cups have 1 to 3
    preimages; their loops are spelt out, which saves a call per cup, and
    so are the two directions, which saves a call per shift."""
    get = v.__getitem__
    ones, twos, threes, rest = outer
    if right:
        it = iter(ones)
        for c, a in zip(it, it):
            v[c] = (v[a] - v[c]) >> shift
        it = iter(twos)
        for c, a, b in zip(it, it, it):
            v[c] = (v[a] + v[b] - v[c]) >> shift
        it = iter(threes)
        for c, a, b, d in zip(it, it, it, it):
            v[c] = (v[a] + v[b] + v[d] - v[c]) >> shift
        for c, pre in rest.items():
            v[c] = (sum(map(get, pre)) - v[c]) >> shift
        ones, twos, threes, rest = inner
        it = iter(ones)
        for c, a in zip(it, it):
            v[c] = v[a] - (v[c] >> shift)
        it = iter(twos)
        for c, a, b in zip(it, it, it):
            v[c] = v[a] + v[b] - (v[c] >> shift)
        it = iter(threes)
        for c, a, b, d in zip(it, it, it, it):
            v[c] = v[a] + v[b] + v[d] - (v[c] >> shift)
        for c, pre in rest.items():
            v[c] = sum(map(get, pre)) - (v[c] >> shift)
        return
    it = iter(ones)
    for c, a in zip(it, it):
        v[c] = (v[a] - v[c]) << shift
    it = iter(twos)
    for c, a, b in zip(it, it, it):
        v[c] = (v[a] + v[b] - v[c]) << shift
    it = iter(threes)
    for c, a, b, d in zip(it, it, it, it):
        v[c] = (v[a] + v[b] + v[d] - v[c]) << shift
    for c, pre in rest.items():
        v[c] = (sum(map(get, pre)) - v[c]) << shift
    ones, twos, threes, rest = inner
    it = iter(ones)
    for c, a in zip(it, it):
        v[c] = v[a] - (v[c] << shift)
    it = iter(twos)
    for c, a, b in zip(it, it, it):
        v[c] = v[a] + v[b] - (v[c] << shift)
    it = iter(threes)
    for c, a, b, d in zip(it, it, it, it):
        v[c] = v[a] + v[b] + v[d] - (v[c] << shift)
    for c, pre in rest.items():
        v[c] = sum(map(get, pre)) - (v[c] << shift)


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


def _ones(width: int, slots: int) -> int:
    """A packed int with 1 in each of its ``slots`` slots."""
    return ((1 << (width * slots)) - 1) // ((1 << width) - 1)


def _map_in_place(v: list[int], op: Callable[[int, int], int], bits: int) -> None:
    """Set ``v[s] = op(v[s], bits)`` for every s, a chunk at a time."""
    for s in range(0, len(v), _CHUNK):
        v[s : s + _CHUNK] = map(op, v[s : s + _CHUNK], repeat(bits))


def _respread(v: list[int], slots: int, width: int, new_width: int) -> None:
    """Move slot j of each signed packed int in ``v`` from bit ``width * j``
    to bit ``new_width * j``, in place.  Each int has at most ``slots``
    slots, and every coefficient must fit in both widths with its sign.
    Biased, every slot is non-negative; the widths are whole bytes, so each
    byte position of a slot is then one strided slice over the bytes of a
    chunk of ints."""
    top = min(width, new_width) - 1  # a slot biased by 2^top fits either width
    nb, new_nb = width >> 3, new_width >> 3
    bias, new_bias = _ones(width, slots) << top, _ones(new_width, slots) << top
    size = slots * new_nb
    for s in range(0, len(v), _CHUNK):
        biased = map(add, v[s : s + _CHUNK], repeat(bias))
        buf = b"".join(map(int.to_bytes, biased, repeat(slots * nb), repeat("little")))
        out = bytearray(len(buf) // nb * new_nb)
        for b in range(min(nb, new_nb)):
            out[b::new_nb] = buf[b::nb]
        view = memoryview(out)
        v[s : s + _CHUNK] = [
            int.from_bytes(view[k : k + size], "little") - new_bias
            for k in range(0, len(out), size)
        ]


def _repack(v: list[int], width: int, columns: int) -> tuple[int, int, int]:
    """Measure the exact L1 norm and the lowest used level (a run of
    ``columns`` slots) of the packed rows ``v``, and pack them again in
    place, from that level on, at the width the norm needs.  Returns their
    norm, their width and the levels dropped.  The L1 norm must be below
    2^(width-1).

    Adding a bias of 2^(width-1) to every slot turns slot c into
    c + 2^(width-1), in [1, 2^width), with no carry; its top bit is set
    exactly where c >= 0.  Spreading each top bit over the low width-1
    bits of its slot and masking the biased int with the result gives P,
    the row's non-negative slots, and P - v holds the negated negative
    ones.  An int is congruent to the sum of its slots modulo 2^width - 1,
    carries included, and the slots of all P, like those of all P - v, sum
    to less than that, so sum(P) and sum(P) - sum(v) taken modulo it add
    up to the exact L1 norm.
    """
    acc = reduce(or_, v, 0)
    level = columns * width
    low = ((acc & -acc).bit_length() - 1) // level if acc else 0
    if low:
        _map_in_place(v, rshift, low * level)
    slots = max(map(int.bit_length, v)) // width + 1
    bias = _ones(width, slots) << (width - 1)
    signs = map(and_, map(add, v, repeat(bias)), repeat(bias))
    masks = map(mul, map(rshift, signs, repeat(width - 1)), repeat((1 << (width - 1)) - 1))
    pos = sum(map(and_, map(add, v, repeat(bias)), masks))
    mod = (1 << width) - 1
    norm = pos % mod + (pos - sum(v)) % mod
    new_width = _slot_width(norm)
    if new_width != width:
        _respread(v, slots, width, new_width)
    return norm, new_width, low


def _sweep(p: int, letters: tuple[int, ...], lo: int, hi: int) -> tuple[int, list[int]]:
    """The part of the Markov trace of the braid ``letters`` on ``p``
    strands that columns ``lo`` to ``hi - 1`` of the cell modules carry:
    (exp, total), with total[k] the coefficient of A^(exp + 2(k - p)).

    Sweeps the letters through the cell modules (see the module
    docstring).  ``v[T]`` is row T of rho_j(x) for the word x read so far,
    T a half-diagram of V_j, restricted to the columns B with
    lo <= B < hi, and ``parity`` is :attr:`_Cells.parity`: slot
    s D + B - lo holds the coefficient of A^(exp + 4s + 2 parity(T) -
    2 parity(B)) in column B, with D = hi - lo.  A level, the D slots of
    one power of A^4, is ``D * width`` bits.  The sweep starts from the
    identity, 1 in each row's own column at level 0 where that column is
    in the range; the rows of a module with at most ``lo`` columns stay 0.

    Each letter is scaled so that it fixes every row without a cup at its
    generator: a positive letter acts as 1 + A^2 e_i, a negative one,
    scaled by A^-1, as 1 + A^-2 e_i.  e_i sends every row to a multiple of
    a row with a cup at i, or to 0, so only the cup rows c are rewritten,
    in place, each pulled from the rows e_i sends to it (:func:`_pull`);
    the term of c itself picks up its loop, A^2 (-A^2 - A^-2) = -A^4 - 1
    for a positive letter and A^-2 (-A^2 - A^-2) = -1 - A^-4 for a
    negative one, which with the identity's 1 leaves -A^4 and -A^-4.  Each
    row feeds itself and at most one other, so the L1 norm over all slots
    at most doubles per letter.  ``norm`` tracks that bound, from the
    identity's 1s in the range; before it could reach the sign bit of a
    slot, the state is repacked at a width fitting its exact norm.

    Every preimage of c has the other parity, so the weight A^(+-2) moves
    its terms half a level, which lands on a whole level of c: for a
    positive letter one level up or none, for a negative one one level
    down or none, by the parity of c.  A positive letter sets a cup of parity 0 to
    (s - v[c]) << level and one of parity 1 to s - (v[c] << level), with s
    the sum over its preimages; a negative letter sets a cup of parity 1
    to (s - v[c]) >> level and one of parity 0 to s - (v[c] >> level).
    Each cup costs one shift.

    A negative letter's right shifts are exact because every row keeps at
    least ``guard`` empty low levels: a packed int whose k lowest levels
    are 0 is a multiple of 2^(k D width), so shifting it right by up to k
    levels divides it exactly, and a sum of such ints is one too.
    ``guard`` is 0 after a repack, which drops the levels all rows leave
    empty; a negative letter uses up 1 (its rows' lowest level is at least
    guard - 1); a positive letter keeps it (its rows' lowest level is at
    least guard, and the other rows do not change).  Before a negative
    letter finds none, every row is shifted left by ``_GUARD_LEVELS``
    levels, with ``exp`` lowered to match, so that whole-state shift comes
    at most once every ``_GUARD_LEVELS`` negative letters.

    At the end row T's own column, when it lies in the range, holds its
    diagonal entry, whose level s is the power A^(exp + 4s) as the
    parities cancel.  Biased by 2^(width-1), every slot is non-negative,
    so shifting T's column down to slot 0 and masking keeps exactly that
    entry at every level.  The sum over the rows of V_j is the part of
    Tr rho_j in the range, each coefficient at most the norm and so exact,
    and the parts are weighted by Delta_j into ``total``.
    """
    cells = _cells(p)
    columns = hi - lo
    norm = sum(max(min(dim, hi) - lo, 0) for _, dim in cells.modules)
    width = _slot_width(norm)
    v = [
        1 << (width * (r - lo)) if lo <= r < hi else 0
        for _, dim in cells.modules
        for r in range(dim)
    ]
    exp = 0
    guard = 0
    for x in letters:
        if not _fits(norm << 1, width):
            norm, width, low = _repack(v, width, columns)
            exp += 4 * low
            guard = 0
        norm <<= 1
        level = columns * width
        even, odd = cells.groups[abs(x) - 1]
        if x > 0:  # A^-1 * identity + A * cup-cap, scaled by A
            exp -= 1
            _pull(v, even, odd, level, False)  # A^2 pre - A^4 c
        else:  # A * identity + A^-1 * cup-cap, scaled by A^-1
            if not guard:
                _map_in_place(v, lshift, _GUARD_LEVELS * level)
                exp -= 4 * _GUARD_LEVELS
                guard = _GUARD_LEVELS
            guard -= 1
            exp += 1
            _pull(v, odd, even, level, True)  # A^-2 pre - A^-4 c
    level = columns * width
    levels = max(map(int.bit_length, v)) // level + 1
    bias = _ones(width, levels * columns) << (width - 1)
    lane = _ones(level, levels)  # slot 0 of every level
    mask, unbias = lane * ((1 << width) - 1), lane << (width - 1)
    total = [0] * (2 * levels + 2 * p + 1)
    row = 0
    for j, dim in cells.modules:
        trace = sum(
            (((v[row + r] + bias) >> ((r - lo) * width)) & mask) - unbias
            for r in range(lo, min(dim, hi))
        )
        row += dim
        sign = -1 if j & 1 else 1
        # Delta_j = (-1)^j (A^(2j) + A^(2j-4) + ... + A^(-2j))
        for s, c in enumerate(_unpack(trace, level)):
            for k in range(2 * s + p - j, 2 * s + p + j + 1, 2):
                total[k] += sign * c
    return exp, total


def _bracket(p: int, parts: list[tuple[int, list[int]]]) -> LaurentPoly:
    """tr(x) / delta for the parts of tr(x) that :func:`_sweep` returns
    for complementary column ranges.  Their exponents differ by a multiple
    of 4, as the letters move them alike and the rest by whole levels."""
    exp = min(e for e, _ in parts)
    total = [0] * max((e - exp) // 2 + len(t) for e, t in parts)
    for e, part in parts:
        for k, c in enumerate(part, (e - exp) // 2):
            total[k] += c
    # tr(x) = delta * bracket: peel 1 + A^4 off from the lowest power up
    quot: list[int] = []
    for k, t in enumerate(total):
        quot.append(t - quot[k - 2] if k >= 2 else t)
    if quot[-1] or quot[-2]:
        raise ArithmeticError("the trace is not a multiple of the loop value")
    base = exp - 2 * p + 2  # -A^2 / (1 + A^4) = 1 / delta
    return LaurentPoly({base + 2 * k: -c for k, c in enumerate(quot[:-2]) if c})


@lru_cache(maxsize=None)
def _shape(p: int) -> tuple[int, int, int]:
    """The rows, the columns and the split column of the sweep on ``p``
    strands, from the dimensions d = C(p, k) - C(p, k - 1) of the cell
    modules alone, so that the worker can start on a sweep before this
    process has built the tables.  The split column c halves the work
    best: the columns below c hold min(d, c) d of the d^2 entries of each
    module, and c brings their sum closest to half the total."""
    dims = [comb(p, k) - (comb(p, k - 1) if k else 0) for k in range(p // 2 + 1)]
    columns = max(dims)
    entries = sum(d * d for d in dims)
    split = min(
        range(1, columns),
        key=lambda c: abs(2 * sum(min(d, c) * d for d in dims) - entries),
        default=0,
    )
    return sum(dims), columns, split


def _splits(columns: int, cost: int) -> bool:
    """Whether a sweep of ``cost`` = rows x columns x letters, with
    ``columns`` columns, is split between this process and the worker.

    The cost rule comes from timings on 2 vCPUs (Python 3.11).  A split
    halves the big-int work of each row, but not the interpreter's work
    per row and letter, and it costs a round trip of 50-80 us.  Modules
    narrower than ``_SPLIT_COLUMNS`` (p <= 6) gained nothing, even on
    200-400 letters.  From p = 7 on, a sweep of cost at least
    ``_SPLIT_COST`` (0.3 ms and more serially) ran in 0.5-0.8 of its
    serial time, and smaller ones broke even.  A process whose CPU
    affinity allows one CPU, or a platform without ``os.fork``, never
    splits.
    """
    if columns < _SPLIT_COLUMNS or cost < _SPLIT_COST or not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


def _worker_running() -> bool:
    """Whether this process runs a worker, found without importing
    :mod:`regionum.worker`."""
    worker = sys.modules.get(f"{__package__}.worker")
    return worker is not None and worker.running()


def kauffman_bracket(w: BraidWord) -> LaurentPoly:
    """Kauffman bracket of the trace closure, unknot normalized to 1.

    tr(x) = sum_j Delta_j Tr rho_j(x) is a sum over the columns of the
    cell modules, and :func:`_sweep` sweeps any range of them on its own.
    A sweep that :func:`_splits` finds large enough is split in two at the
    column :func:`_shape` gives: the worker of :mod:`regionum.worker`
    sweeps the columns from there on while this process sweeps the ones
    below.  Only a sweep of cost at least ``_START_COST`` forks the
    worker, so a process whose sweeps are all smaller never starts one.
    Otherwise one sweep covers every column.  :func:`_bracket` adds the
    parts and divides by delta exactly.  A worker that ends mid-call
    raises ChildProcessError; no part is ever left out.
    """
    p = w.strands
    if p > MAX_STRANDS:
        refuse_over("MAX_STRANDS", p, "strands", "the word")
    rows, columns, split = _shape(p)
    cost = rows * columns * len(w.letters)
    if _splits(columns, cost) and (cost >= _START_COST or _worker_running()):
        from . import worker  # compiled by the first sweep that forks the worker

        return _bracket(p, worker.split_sweep(p, w.letters, split, columns))
    return _bracket(p, [_sweep(p, w.letters, 0, columns)])


def jones(w: BraidWord) -> LaurentPoly:
    """Writhe-normalized bracket: invariant of the closure as an
    (unoriented-diagram-computed) link polynomial in A; use
    :meth:`LaurentPoly.format_t` for the t^(1/2) rendering."""
    bracket = kauffman_bracket(w)
    wr = w.writhe
    # (-A^-3)^(-wr), matching the crossing convention above
    factor = LaurentPoly.monomial(3 * wr, (-1) ** (wr % 2))
    return factor * bracket


BURAU_PRIME = (1 << 61) - 1
BURAU_T = 0x5DEECE66D  # evaluation point t0, a unit modulo BURAU_PRIME
_BURAU_T_INV = pow(BURAU_T, -1, BURAU_PRIME)
_BURAU_GEOMETRIC = pow(BURAU_T - 1, -1, BURAU_PRIME)  # (t0 - 1)^-1
_BURAU_SLOT = 128  # bits per packed entry; see burau_alexander


@lru_cache(maxsize=None)
def _burau_masks(n: int) -> tuple[int, int, int, int]:
    """Per-slot constants for ``n`` packed entries: the masks of the low 61
    and the next 67 bits of each slot, 4P in each slot, and P * 2^62 in
    each slot (P = ``BURAU_PRIME``)."""
    ones = _ones(_BURAU_SLOT, n)
    prime = BURAU_PRIME
    return (
        ones * ((1 << 61) - 1),
        ones * ((1 << 67) - 1),
        ones * 4 * prime,
        ones * (prime << 62),
    )


def burau_alexander(w: BraidWord) -> int:
    """det(I - B(w)) at t0 = ``BURAU_T`` modulo ``BURAU_PRIME``, where B is
    the reduced Burau matrix of ``w`` on ``strands - 1`` coordinates.

    Over Z[t, t^-1] this determinant is t^k * (1 + t + ... + t^(p-1))
    times the Conway-normalized Alexander polynomial of the closure, with
    k = (writhe - p + 1) / 2 for a knot (Birman, *Braids, Links, and
    Mapping Class Groups*, 1974, Thm 3.11); it is 0 for a split link.
    ``sigma_i`` sends column i of the running product X to
    t * X[i-1] - t * X[i] + X[i+1], and ``sigma_i^-1`` to
    X[i-1] - t^-1 * X[i] + t^-1 * X[i+1]; every other column stays.
    Columns are 1-based, and columns 0 and p stay zero.

    Each column is one int holding its p - 1 entries in 128-bit slots,
    row r in slot r, so a letter costs a few big-int operations on one
    column.  An entry is any residue in [0, 2^62), not necessarily below
    P = 2^61 - 1.  The fold (x & M61) + (x >> 61 & M67), with M61 and M67
    the low 61 and the next 67 bits of every slot, maps a slot x below
    2^128 to x mod 2^61 + x div 2^61, which is x modulo P as 2^61 = 1
    mod P, and is below 2^61 + 2^(b - 61) when x < 2^b.  The update
    t0 * (X[i-1] + 4P - X[i]) + X[i+1] of a positive letter has slots
    below 2^35 * 2^64 + 2^62 < 2^100, so one fold brings it back below
    2^61 + 2^39 < 2^62; the update X[i-1] + t0^-1 * (X[i+1] + 4P - X[i])
    of a negative letter has slots below 2^62 + 2^61 * 2^64 < 2^126, and
    two folds bring it below 2^61 + 2^65 and then below 2^62.  The 4P
    offset keeps every slot non-negative, and as no slot reaches 2^128 no
    carry crosses into the next one.  Narrower slots would not hold the
    2^126 bound; wider ones only cost.

    The determinant runs on the same ints, as the rows e_c + 4P - X[c] of
    (I - X)^T (below 2^63 per slot, so one fold brings them below 2^62),
    fraction-free and with the current column in slot 0.  With d the
    pivot row_c's entry and f row_r's, both reduced below P, row_r
    becomes d * row_r + P * 2^62 - f * row_c: each slot lies in
    [0, 2^124), as f * row_c < P * 2^62, and two folds bring it below
    2^61 + 2^63 and then below 2^62.  Each such step scales the
    determinant by d, and one inverse of the product of these scales at
    the end undoes them all.  Each remaining row then drops its
    eliminated slot.
    """
    prime = BURAU_PRIME
    n = w.strands - 1
    m61, m67, off, high = _burau_masks(n)
    cols = [0, *(1 << _BURAU_SLOT * c for c in range(n)), 0]
    t, t_inv = BURAU_T, _BURAU_T_INV
    for x in w.letters:
        if x > 0:
            y = t * (cols[x - 1] + off - cols[x]) + cols[x + 1]
            cols[x] = (y & m61) + (y >> 61 & m67)
        else:
            i = -x
            y = cols[i - 1] + t_inv * (cols[i + 1] + off - cols[i])
            y = (y & m61) + (y >> 61 & m67)
            cols[i] = (y & m61) + (y >> 61 & m67)
    rows = []
    for c in range(n):
        y = (1 << _BURAU_SLOT * c) + off - cols[c + 1]
        rows.append((y & m61) + (y >> 61 & m67))
    low = (1 << _BURAU_SLOT) - 1
    det = scale = 1
    for _ in range(n):
        pivot = rows[0]
        d = (pivot & low) % prime
        if not d:
            k = next((k for k, row in enumerate(rows) if (row & low) % prime), None)
            if k is None:
                return 0
            pivot, rows[k] = rows[k], pivot  # rows[0] is not read again
            d = (pivot & low) % prime
            det = -det
        det = det * d % prime
        rest = []
        for row in rows[1:]:
            f = (row & low) % prime
            if f:
                y = d * row + high - f * pivot
                y = (y & m61) + (y >> 61 & m67)
                row = (y & m61) + (y >> 61 & m67)
                scale = scale * d % prime
            rest.append(row >> _BURAU_SLOT)
        rows = rest
        high >>= _BURAU_SLOT
    return det * pow(scale, -1, prime) % prime


def _unknot_burau(p: int, k: int) -> int:
    """t0^k * (1 + t0 + ... + t0^(p-1)) modulo ``BURAU_PRIME``, the value of
    :func:`burau_alexander` on a p-strand word closing to the unknot, as
    t0^k * (t0^p - 1) * (t0 - 1)^-1."""
    prime = BURAU_PRIME
    return pow(BURAU_T, k, prime) * (pow(BURAU_T, p, prime) - 1) * _BURAU_GEOMETRIC % prime


def refutes_unlink(value: int, strands: int, components: int, writhe: int) -> bool:
    """True when ``value``, the :func:`burau_alexander` value of a word on
    ``strands`` strands with this writhe whose closure has ``components``
    components, proves that closure is not the unlink: a link whose value
    is not 0, or a knot whose value is not t0^k * (1 + t0 + ... + t0^(p-1)),
    the unknot's."""
    if components > 1:
        return value != 0
    # an integer: a knot's writhe has the parity of p - 1
    return value != _unknot_burau(strands, (writhe - strands + 1) // 2)


def alexander_refutes(w: BraidWord) -> bool:
    """True only when ``burau_alexander`` proves that the closure of ``w``
    is not the unlink (see :func:`refutes_unlink`).

    A polynomial identity survives evaluation, so True is exact.  False
    decides nothing: the closure may still be knotted.
    """
    return refutes_unlink(burau_alexander(w), w.strands, closure_components(w), w.writhe)


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
    to a bounded best-first search over Markov moves per stuck piece.
    Pieces are ``(strands, letters)`` pairs, each freely reduced."""
    pieces = [(w.strands, tuple(_free_reduce_list(w.letters)))]
    for _ in range(REDUCE_MAX_ROUNDS):
        progressed = False
        next_pieces: list[tuple[int, tuple[int, ...]]] = []
        for piece in pieces:
            parts = _split_core(*piece)
            for strands, part in parts:
                if not part:
                    continue
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
        if not pieces:
            return True, ()
        if not progressed:
            break
    residue = [r for r in (BraidWord(*p) for p in pieces) if not _search_dissolves(r)]
    if not residue:
        return True, ()
    return False, tuple(residue)


def _search_dissolves(w: BraidWord, max_nodes: int = SEARCH_MAX_NODES) -> bool:
    """Best-first search over closure-preserving moves (cyclic shifts,
    single-letter conjugations, each followed by handle reduction and
    greedy simplification), fewest strands and letters first.  True iff
    some state reaches the empty word; False is only "not found within
    the budget".

    States are ``(strands, letters)`` pairs, freely and cyclically reduced
    by :func:`_markov_core`, so every rotation and every
    :func:`_conjugate_reduced` neighbour is freely reduced, and the cores
    take it as it is.  A neighbour met a second time is skipped: its
    reduction, split search and push would all repeat the first time's,
    and pushing a state twice only adds a stale heap entry."""
    start = _markov_core(w.strands, tuple(_free_reduce_list(w.letters)))
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
                if all(
                    not part or _search_dissolves(BraidWord(q, part), max_nodes // 2)
                    for q, part in parts
                ):
                    return True
                continue
            if cand not in seen and len(cand[1]) <= longest:
                heapq.heappush(heap, (cand[0], len(cand[1]), next(tick), cand))
    return False


def certify_unlink(w: BraidWord) -> UnlinkCertificate:
    """Three-way unlink check for the closure of ``w``.

    Refuted when the Jones polynomial differs from the trivial-link value
    (necessary condition); Certified when the reduction engine dissolves
    the whole word into trivial circles (sufficient); Inconclusive
    otherwise, with the reduction residue attached.

    Above ``MAX_STRANDS`` strands Jones is skipped
    (``jones_matches_unlink`` is None) and :func:`alexander_refutes` is
    the cross-check instead: when it proves the closure knotted, the
    verdict is Refuted, still with ``jones_matches_unlink`` None.
    """
    d = closure_components(w)
    jones_ok: bool | None
    if w.strands <= MAX_STRANDS:
        jones_ok = jones(w) == unlink_jones(d)
        if not jones_ok:
            return UnlinkCertificate(Verdict.REFUTED, d, False, (w,))
    else:
        if alexander_refutes(w):
            return UnlinkCertificate(Verdict.REFUTED, d, None, (w,))
        jones_ok = None
    done, residue = _reduce_to_unlink(w)
    if done:
        return UnlinkCertificate(Verdict.CERTIFIED, d, jones_ok, ())
    return UnlinkCertificate(Verdict.INCONCLUSIVE, d, jones_ok, residue)
