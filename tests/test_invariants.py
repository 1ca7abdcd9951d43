import hashlib
import heapq
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import types
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings

import _oracles
from _oracles import (
    conjugate,
    cyclic_shift,
    dict_bracket,
    free_reduce,
    naive_bracket,
    pack,
    slot_repack,
)
from _words import braid_words, random_connected_word, signed_runs, unlink_closures
from regionum import braid, invariants, worker
from regionum.bounds import bound, chosen_case, target_word, verify_bound
from regionum.braid import BraidWord, closure_components, handle_reduce, parse_word, toric_braid
from regionum.invariants import (
    BURAU_PRIME,
    BURAU_T,
    Verdict,
    alexander_refutes,
    burau_alexander,
    certify_unlink,
    jones,
    kauffman_bracket,
    unlink_jones,
)
from regionum.laurent import LOOP, LaurentPoly
from regionum.limits import MAX_STRANDS, SEARCH_MAX_NODES
from regionum.properness import TorusLinkSpec, is_proper
from regionum.search import sharpness_probe
from regionum.templates import staircase_word, three_block_word


def _t(pairs):
    """Laurent polynomial from (half-exponent-of-t, coeff) pairs (t = A^-4)."""
    return LaurentPoly({-2 * k: c for k, c in pairs})


def test_unknot_jones_is_one():
    assert jones(BraidWord(1)) == LaurentPoly.one()
    assert jones(BraidWord(2, (1,))) == LaurentPoly.one()


def test_right_trefoil_jones():
    # -t^-4 + t^-3 + t^-1
    assert jones(toric_braid(2, 3)) == _t([(-8, -1), (-6, 1), (-2, 1)])


def test_hopf_link_jones():
    # -t^(-5/2) - t^(-1/2)
    assert jones(toric_braid(2, 2)) == _t([(-5, -1), (-1, -1)])


def test_figure_eight_jones_is_amphichiral():
    w = parse_word("1 -2 1 -2")
    expected = _t([(-4, 1), (-2, -1), (0, 1), (2, -1), (4, 1)])
    assert jones(w) == expected
    assert jones(w.mirror()) == expected


def test_unlink_jones_values():
    assert unlink_jones(1) == LaurentPoly.one()
    assert unlink_jones(2) == LOOP
    assert jones(BraidWord(2, (1, -1))) == unlink_jones(2)
    assert jones(BraidWord(3, (1, -1))) == unlink_jones(3)
    for d in range(1, 9):
        assert unlink_jones(d) == LOOP ** (d - 1)
        assert unlink_jones(d) is unlink_jones(d)  # computed once per count
    for d in (0, -1):
        with pytest.raises(ValueError):
            unlink_jones(d)


def test_jones_is_the_bracket_times_the_writhe_monomial():
    # jones shifts the bracket's exponents and signs in place of the product
    rng = random.Random(67)
    for _ in range(200):
        w = _random_word(rng, 8, 30)
        wr = w.writhe
        assert jones(w) == LaurentPoly.monomial(3 * wr, (-1) ** (wr % 2)) * kauffman_bracket(w), w


def test_bracket_matches_naive_state_sum():
    rng = random.Random(13)
    for _ in range(60):
        p = rng.randint(2, 5)
        c = rng.randint(0, 10)
        w = BraidWord(
            p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(c))
        )
        assert kauffman_bracket(w) == naive_bracket(w), w


def _random_word(rng, max_strands, max_letters):
    p = rng.randint(2, max_strands)
    c = rng.randint(0, max_letters)
    return BraidWord(
        p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(c))
    )


def _ranges(w, *cuts):
    """The bracket from the column ranges that ``cuts`` bounds, each swept
    in this process: the full range without cuts.  A worker forked
    earlier keeps the module's constants as they were then, so tests that
    patch them sweep here."""
    p = w.strands
    bounds = [0, *cuts, invariants._cells(p).columns]
    parts = [invariants._sweep(p, w.letters, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return invariants._bracket(p, parts)


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _splits(p, letters):
    rows, columns, _ = invariants._shape(p)
    return invariants._splits(columns, rows * columns * letters)


def test_bracket_matches_dict_sweep_on_random_words():
    rng = random.Random(29)
    for _ in range(100):
        w = _random_word(rng, 8, 40)
        assert kauffman_bracket(w) == dict_bracket(w), w


def test_bracket_matches_dict_sweep_on_wide_random_words(monkeypatch):
    # 6 to 9 strands, 40 to 120 letters of both signs, fewer the more
    # strands to keep the oracle quick: the sweeps repack and refill their
    # guard, and pull through the records of cups with 3 preimages (from 6
    # strands on) and with 4 or more (from 8 on), which no grid word reaches
    calls = {"repack": 0, "refill": 0}
    repack, map_in_place = invariants._repack, invariants._map_in_place

    def counted_repack(v, width, columns):
        calls["repack"] += 1
        return repack(v, width, columns)

    def counted_map(v, op, bits):
        calls["refill"] += op is invariants.lshift  # a repack's own shifts go right
        map_in_place(v, op, bits)

    monkeypatch.setattr(invariants, "_repack", counted_repack)
    monkeypatch.setattr(invariants, "_map_in_place", counted_map)
    rng = random.Random(61)
    for p in range(6, 10):
        groups = invariants._cells(p).groups
        for _ in range(2):
            calls.update(repack=0, refill=0)
            n = rng.randint(40, 120 - 20 * (p - 6))
            w = BraidWord(p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(n)))
            expected = dict_bracket(w)
            assert _ranges(w) == expected, w
            assert calls["repack"] and calls["refill"], (w, calls)
            assert kauffman_bracket(w) == expected, w
            halves = [half for x in set(map(abs, w.letters)) for half in groups[x - 1]]
            parts = {k for half in halves for k, part in enumerate(half) if part}
            assert parts >= {0, 1, 2} | ({3} if p >= 8 else set()), (w, parts)


def test_handle_reduction_keeps_the_jones_polynomial():
    # Handle reduction rewrites a word by braid relations only, so the
    # reduced word is the same braid and its closure has the same Jones
    # polynomial: running Jones on the reduced target rests on this.
    grid = [
        TorusLinkSpec(p, q)
        for p in range(2, 7)
        for q in range(p + 1, 6 * p + 6)
        if is_proper(p, q)
    ]
    words = [target_word(spec, chosen_case(spec).case) for spec in grid]
    assert len(words) == 111
    rng = random.Random(41)
    words += [_random_word(rng, 8, 60) for _ in range(300)]
    for w in words:
        assert jones(handle_reduce(w)) == jones(w), w


def _target(p):
    spec = TorusLinkSpec(p, p + 1)
    return target_word(spec, next(r.case for r in bound(spec) if r.constructible))


@pytest.mark.parametrize("p", [6, 7, 8, 9, 10])
def test_bracket_matches_dict_sweep_on_targets(p):
    w = _target(p)
    expected = dict_bracket(w)
    assert kauffman_bracket(w) == expected
    # from 7 strands on, a running worker sweeps half the columns
    splits = _splits(p, len(w.letters))
    assert splits == (p >= 7 and hasattr(os, "fork") and _cpus() >= 2)
    if splits:
        _, columns, split = invariants._shape(p)
        assert invariants._bracket(p, worker.split_sweep(p, w.letters, split, columns)) == expected


def test_complementary_column_ranges_sum_to_the_full_sweep():
    # a letter multiplies rho_j(x) on the left, so every column evolves on
    # its own; 1 and 2 strands have one column, nothing to split.  The
    # K(12,13) target is left to CI's verify 12 13, which splits it.
    rng = random.Random(53)
    for p in range(3, MAX_STRANDS + 1):
        _, columns, split = invariants._shape(p)
        cuts = {split}
        if p <= 10:
            cuts |= {1, columns - 1, rng.randint(1, columns - 1)}
        for _ in range(2):
            w = BraidWord(p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(20)))
            full = _ranges(w)
            for cut in cuts:
                assert _ranges(w, cut) == full, (w, cut)
        if p < MAX_STRANDS:
            w = _target(p)
            assert _ranges(w, split) == _ranges(w), p


def test_small_sweeps_stay_in_this_process():
    # below 7 strands a split never paid, whatever the length; from 7 on,
    # only sweeps of at least _SPLIT_COST rows x columns x letters split
    for p in range(1, 7):
        assert not _splits(p, 10**6)
    assert not _splits(7, 10)
    assert _splits(7, 48) == (hasattr(os, "fork") and _cpus() >= 2)


def _torus_knot_jones(p, q):
    """V(t) of the torus knot T(p, q), p and q coprime, as a t-exponent map:
    t^((p-1)(q-1)/2) * (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)."""
    num = [0] * (p + q + 1)
    for e, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        num[e] += c
    quo = [0] * (p + q - 1)
    for k in range(len(quo)):
        quo[k] = num[k] + (quo[k - 2] if k >= 2 else 0)
    back = [c - (quo[k - 2] if k >= 2 else 0) for k, c in enumerate(quo + [0, 0])]
    assert back == num  # exact division
    shift = (p - 1) * (q - 1) // 2
    return {k + shift: c for k, c in enumerate(quo) if c}


TORUS_KNOTS = [(2, 3), (3, 4), (3, 40), (4, 25), (5, 12), (2, 91)]


# K(10,11) and K(11,12) check the widest cell modules where the dict
# oracle is too slow to follow.
@pytest.mark.parametrize("p,q", TORUS_KNOTS + [(10, 11), (11, 12)])
def test_torus_knot_jones_formula(p, q):
    # the package's convention mirrors t -> t^-1, and t^-k = A^(4k)
    expected = LaurentPoly({4 * e: c for e, c in _torus_knot_jones(p, q).items()})
    assert jones(toric_braid(p, q)) == expected


def test_packed_slots_are_exact_up_to_the_sign_guard():
    for width in (8, 24, 40):
        top = (1 << (width - 1)) - 1
        assert invariants._fits(top, width)
        assert not invariants._fits(top + 1, width)
        coeffs = [top, -top, 0, 1, -1, top]
        assert invariants._unpack(pack(coeffs, width), width) == coeffs
        assert invariants._unpack(pack([top + 1], width), width) != [top + 1]
    for norm in (1, 2, 127, 128, 1 << 40):
        width = invariants._slot_width(norm)
        assert width % 8 == 0
        # the next letter may double the norm before the headroom counts
        assert invariants._fits(norm << (invariants._HEADROOM_BITS + 1), width)


def _packed_states(rng, width, top, count, columns):
    """Random signed packed rows at ``width`` with coefficients below
    2^top in absolute value; some are zero, and the lowest slots of all
    of them are empty: some whole levels of ``columns`` slots and maybe
    part of the next."""
    low = rng.randint(0, 3) * columns + rng.randint(0, columns - 1)
    states = []
    for _ in range(count):
        coeffs = [0] * low + [
            rng.choice([0, 1, -1]) * rng.getrandbits(top)
            for _ in range(rng.randint(0, 6 * columns))
        ]
        states.append(pack(coeffs, width))
    return states


def test_repack_matches_the_per_slot_reference():
    # columns = 1 drops every empty low slot, as the sweep did with one
    # matching per int
    rng = random.Random(41)
    for columns in (1, 3, 5):
        moves = set()
        dropped = set()
        zeros = [0, 0]
        assert (zeros, *invariants._repack(zeros, 40, columns)) == slot_repack(zeros, 40, columns)
        for width, top in [(24, 12), (32, 8), (40, 2), (40, 16), (56, 30)]:
            for _ in range(30):
                states = _packed_states(rng, width, top, rng.randint(1, 12), columns)
                expected = slot_repack(states, width, columns)
                assert invariants._fits(expected[1], width)
                assert (states, *invariants._repack(states, width, columns)) == expected
                new_width = expected[2]
                moves.add((new_width > width) - (new_width < width))
                dropped.add(expected[3])
        assert moves == {-1, 0, 1}
        assert dropped >= {0, 1, 2, 3}


def _column_norms(v, width, columns):
    """The L1 norm of each column of the packed rows ``v``, read one slot
    at a time from their two's-complement bytes: slot k lies in column
    k mod ``columns``, and a slot at or above 2^(width-1) is negative and
    borrows from the next."""
    nb = width // 8
    norms = [0] * columns
    for x in v:
        size = x.bit_length() // width + 2
        data = x.to_bytes(size * nb, "little", signed=True)
        borrow = 0
        for k in range(size):
            c = int.from_bytes(data[k * nb : (k + 1) * nb], "little") + borrow
            borrow = c >= 1 << (width - 1)
            norms[k % columns] += abs(c - (borrow << width))
    return norms


def _watched_sweep(monkeypatch, p, letters, lo, hi):
    """``_sweep(p, letters, lo, hi)`` with its state unpacked at every
    letter and every repack.  The bound the sweep carries starts at the
    identity's largest column norm, is set by each repack and doubles per
    letter; every column's norm must stay within it and it within a
    slot's sign bit, and each repack must return the largest column norm
    of the rows it was given.  Returns the sweep's result and its repack
    count."""
    columns = hi - lo
    pull, repack = invariants._pull, invariants._repack
    carried = []  # the bound, once the first letter has read the identity
    repacks = []

    def watched_pull(v, outer, inner, shift, op):
        width = shift // columns
        if not carried:
            start = _column_norms(v, width, columns)
            assert max(start) == sum(dim > lo for _, dim in invariants._cells(p).modules)
            carried.append(max(start))
        pull(v, outer, inner, shift, op)
        carried[0] <<= 1
        assert invariants._fits(carried[0], width)
        assert max(_column_norms(v, width, columns)) <= carried[0]

    def watched_repack(v, width, columns_):
        assert columns_ == columns
        norms = _column_norms(v, width, columns)
        assert max(norms) <= carried[0]
        result = repack(v, width, columns)
        assert result[0] == max(norms)
        assert _column_norms(v, result[1], columns) == norms
        carried[0] = result[0]
        repacks.append(result)
        return result

    monkeypatch.setattr(invariants, "_pull", watched_pull)
    monkeypatch.setattr(invariants, "_repack", watched_repack)
    try:
        return invariants._sweep(p, letters, lo, hi), len(repacks)
    finally:
        monkeypatch.setattr(invariants, "_pull", pull)
        monkeypatch.setattr(invariants, "_repack", repack)


@pytest.mark.parametrize("headroom", [0, invariants._HEADROOM_BITS], ids=["tight", "default"])
def test_the_carried_bound_holds_every_column(monkeypatch, headroom):
    # Every repack of real sweeps, and every letter in between, checked
    # against the unpacked rows: random words, both halves of split
    # targets and long runs of one sign, with tight slots and default ones.
    monkeypatch.setattr(invariants, "_HEADROOM_BITS", headroom)
    rng = random.Random(59)
    sweeps = []
    for p in range(3, 10):
        columns = invariants._cells(p).columns
        for _ in range(2):
            w = BraidWord(p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(90 // p + 12)))
            sweeps.append((w, 0, columns))
    for p in (7, 8):
        _, columns, split = invariants._shape(p)
        w = _target(p)
        sweeps += [(w, 0, split), (w, split, columns)]
    for p, sign in ((4, 1), (5, -1), (6, -1)):
        runs = tuple(sign * rng.randint(1, p - 1) for _ in range(60))
        sweeps.append((BraidWord(p, runs + tuple(-x for x in runs[:20])), 0, invariants._cells(p).columns))
    repacks = 0
    for w, lo, hi in sweeps:
        part, count = _watched_sweep(monkeypatch, w.strands, w.letters, lo, hi)
        assert part == invariants._sweep(w.strands, w.letters, lo, hi)
        repacks += count
    assert repacks >= len(sweeps)


def test_cell_modules_split_the_algebra_and_its_trace():
    # sum_j d_j^2 = Catalan(p) = dim TL_p, and the closure of the identity,
    # p loops, is sum_j Delta_j d_j with Delta_0 = 1, Delta_1 = delta and
    # Delta_(j+1) = delta Delta_j - Delta_(j-1)
    deltas = [LaurentPoly.one(), LOOP]
    for j in range(1, 14):
        deltas.append(LOOP * deltas[j] - deltas[j - 1])
    for p in range(1, 15):
        cells = invariants._cells(p)
        dims = dict(cells.modules)
        assert sorted(dims) == list(range(p % 2, p + 1, 2))
        for j, d in dims.items():
            k = (p - j) // 2
            assert d == math.comb(p, k) - (math.comb(p, k - 1) if k else 0)
        assert cells.columns == max(dims.values())
        assert invariants._shape(p)[:2] == (sum(dims.values()), cells.columns)
        first = 0
        for j, d in cells.modules:  # the row parity starts each module at 0
            assert cells.parity[first] == 0, (p, j)
            first += d
        assert sum(d * d for d in dims.values()) == math.comb(2 * p, p) // (p + 1)
        trace = LaurentPoly.zero()
        for j, d in dims.items():
            trace = trace + deltas[j] * d
        assert trace == LOOP**p
        if p <= MAX_STRANDS:
            assert kauffman_bracket(BraidWord(p)) == LOOP ** (p - 1)


def test_a_trace_that_is_no_multiple_of_the_loop_value_raises(monkeypatch):
    # On 4 strands the first trace read is V_0's, weighted by Delta_0 = 1:
    # one more power of A there is no multiple of delta, and the sweep must
    # raise, not drop the remainder.
    unpack = invariants._unpack
    perturbed = []

    def one_more(x, width):
        coeffs = unpack(x, width)
        if not perturbed:
            perturbed.append(x)
            coeffs.append(1)
        return coeffs

    monkeypatch.setattr(invariants, "_unpack", one_more)
    with pytest.raises(ArithmeticError):
        kauffman_bracket(parse_word("1 2 -3 2 1"))
    assert perturbed


def _pull_table(groups):
    """A generator's pull table as a dict from each cup row to its
    preimages, both parity classes merged."""
    table = {}
    for ones, twos, threes, rest in groups:
        table.update(rest)
        table.update((c, pre) for c, *pre in ones + twos + threes)
    return table


def test_pull_tables_partition_the_rows_without_a_cup():
    # C(p-2, floor((p-2)/2)) rows have a cup at i; e_i sends each other
    # row to one of them or to 0, so no row is the preimage of two cups
    for p in range(2, 11):
        cells = invariants._cells(p)
        rows = sum(d for _, d in cells.modules)
        for groups in cells.groups:
            table = _pull_table(groups)
            assert len(table) == math.comb(p - 2, (p - 2) // 2)
            pre = [a for c in table for a in table[c]]
            assert len(pre) == len(set(pre))
            assert not set(pre) & set(table)
            assert set(pre) | set(table) <= set(range(rows))


def test_row_parity_is_a_two_colouring_of_the_pull_graph():
    # the sweep stores each row at the A^4 levels of its own exponent
    # class, which needs every preimage of a cup to have the other parity
    for p in range(1, 15):
        cells = invariants._cells(p)
        rows = sum(d for _, d in cells.modules)
        assert len(cells.parity) == rows
        assert set(cells.parity) <= {0, 1}
        for groups in cells.groups:
            for k, half in enumerate(groups):
                for c, pre in _pull_table([half]).items():
                    assert cells.parity[c] == k, (p, c)
                    assert all(cells.parity[a] != k for a in pre), (p, c, pre)


def test_bracket_does_not_depend_on_the_order_tables_were_built():
    rng = random.Random(37)
    short = BraidWord(7, tuple(rng.choice([1, -1]) * rng.randint(1, 6) for _ in range(12)))
    full = toric_braid(7, 8)
    invariants._cells.cache_clear()
    try:
        short_first = kauffman_bracket(short)
        first_tables = invariants._cells(7)
        pair = (short_first, kauffman_bracket(full))
        invariants._cells.cache_clear()
        full_first = kauffman_bracket(full)
        assert invariants._cells(7) is not first_tables  # built again
        assert invariants._cells(7) == first_tables
        swapped = (kauffman_bracket(short), full_first)
    finally:
        invariants._cells.cache_clear()
    assert pair == swapped == (dict_bracket(short), dict_bracket(full))


def test_bracket_is_exact_when_the_slots_are_tight(monkeypatch):
    # no headroom: the sweep repacks every few letters and widens its slots
    monkeypatch.setattr(invariants, "_HEADROOM_BITS", 0)
    rng = random.Random(31)
    for _ in range(40):
        w = _random_word(rng, 6, 40)
        assert kauffman_bracket(w) == dict_bracket(w), w
    for p, q in TORUS_KNOTS:
        w = toric_braid(p, q)
        assert kauffman_bracket(w) == dict_bracket(w), (p, q)
    # both halves of a split, at every strand count that has one
    for p in range(3, 10):
        w = BraidWord(p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(40)))
        assert _ranges(w, invariants._shape(p)[2]) == dict_bracket(w), w


# Runs of either sign, so the sweep's guard slots run out and are refilled
# several times; the oracle takes up to a second on 8 strands.
@settings(deadline=None, max_examples=40)
@given(signed_runs(letters_per_strand=5, max_strands=8, min_letters=20))
def test_bracket_matches_dict_sweep_on_signed_runs(w):
    assert kauffman_bracket(w) == dict_bracket(w)


def test_guard_refills_on_fresh_tables():
    rng = random.Random(43)
    w = BraidWord(7, tuple(-rng.randint(1, 6) if rng.random() < 0.8 else 3 for _ in range(24)))
    invariants._cells.cache_clear()
    try:
        value = kauffman_bracket(w)
        assert invariants._cells.cache_info().misses == 1  # tables built by this sweep
    finally:
        invariants._cells.cache_clear()
    assert value == dict_bracket(w)


def test_negative_letter_right_after_a_repack(monkeypatch):
    # No headroom: the sweep repacks every few letters, which empties the
    # guard, and in an all-negative word the next letter must refill it.
    monkeypatch.setattr(invariants, "_HEADROOM_BITS", 0)
    repacks = []
    repack = invariants._repack

    def recorded(v, width, columns):
        repacks.append(width)
        return repack(v, width, columns)

    monkeypatch.setattr(invariants, "_repack", recorded)
    for w in (toric_braid(4, 9).mirror(), parse_word("-1 -2 -3 -1 -2 -3 -2 -1 -3 -3 -2 -1")):
        for cuts in ((), (invariants._shape(4)[2],)):
            repacks.clear()
            assert _ranges(w, *cuts) == dict_bracket(w), (w, cuts)
            assert len(repacks) >= 2 * (len(cuts) + 1)


def test_long_negative_runs_with_tight_slots(monkeypatch):
    # No headroom: repacks every few letters drop empty levels from rows of
    # both parities, and in between runs of 6 to 12 negative letters use up
    # the guard one level per letter and refill it.
    monkeypatch.setattr(invariants, "_HEADROOM_BITS", 0)
    rng = random.Random(47)
    for p in (7, 8, 9):
        letters = []
        while len(letters) < 4 * p:
            run = rng.randint(6, 12)
            letters += [-rng.randint(1, p - 1) for _ in range(run)]
            letters += [rng.randint(1, p - 1) for _ in range(rng.randint(1, 3))]
        w = BraidWord(p, tuple(letters))
        expected = dict_bracket(w)
        assert _ranges(w) == expected, w
        assert _ranges(w, invariants._shape(p)[2]) == expected, w


def _python(code, timeout=60):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def test_a_grid_pass_leaves_the_worker_unimported():
    # The grid's sweeps are too small to split, and the bracket imports
    # regionum.worker only for a sweep that forks it, so neither importing
    # regionum nor certifying the grid pays for compiling the worker.
    done = _python("""
        import sys
        from regionum import TorusLinkSpec, is_proper, verify_bound

        for p in range(2, 7):
            for q in range(p + 1, 6 * p + 6):
                if is_proper(p, q):
                    verify_bound(TorusLinkSpec(p, q))
        sys.exit("regionum.worker" in sys.modules)
    """)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(
    not hasattr(os, "fork") or _cpus() < 2, reason="the sweep splits only with os.fork and 2 CPUs"
)
def test_a_worker_killed_mid_call_raises_and_is_replaced():
    # The patched sweep of this process kills the worker after the request
    # for the other half has gone out; the bracket must raise, not return
    # half a trace.  The worker is stopped first, so that it cannot reply
    # before the kill lands: its half takes only a few ms, and a parent
    # descheduled between the request and the kill would otherwise get a
    # whole reply and rightly return the bracket.
    code = """
        import os
        import signal
        from regionum import braid, invariants, worker
        from regionum.braid import toric_braid

        w = toric_braid(9, 10)
        expected = invariants.kauffman_bracket(w)
        first = worker._worker.pid
        sweep = invariants._sweep

        def killing(*args):
            os.kill(first, signal.SIGKILL)
            return sweep(*args)

        invariants._sweep = killing
        os.kill(first, signal.SIGSTOP)
        try:
            invariants.kauffman_bracket(w)
        except ChildProcessError as exc:
            print(exc)
        invariants._sweep = sweep
        print(os.path.exists(f"/proc/{first}"))
        print(invariants.kauffman_bracket(w) == expected, worker._worker.pid != first)
    """
    done = _python(code)
    assert done.returncode == 0, done.stderr
    raised, alive, replaced = done.stdout.splitlines()
    assert raised.startswith("bracket worker ")
    assert raised.endswith(" ended mid-call (exit code -9)")
    assert alive == "False"  # reaped
    assert replaced == "True True"


@pytest.mark.skipif(
    not hasattr(os, "fork") or _cpus() < 2, reason="the sweep splits only with os.fork and 2 CPUs"
)
def test_only_a_large_sweep_forks_the_worker():
    # K(7,8) costs less than _START_COST and sweeps here until K(9,10),
    # which costs more, has forked the worker
    code = """
        from regionum import braid, invariants, worker
        from regionum.braid import toric_braid

        calls = []
        split_sweep = worker.split_sweep

        def recorded(p, *args):
            calls.append(p)
            return split_sweep(p, *args)

        worker.split_sweep = recorded
        small = toric_braid(7, 8)
        first = invariants.kauffman_bracket(small)
        print(worker.running(), calls)
        invariants.kauffman_bracket(toric_braid(9, 10))
        print(worker.running(), calls)
        assert invariants.kauffman_bracket(small) == first
        print(calls)
    """
    done = _python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False []", "True [9]", "[9, 7]"]


@pytest.mark.skipif(
    not hasattr(os, "fork") or _cpus() < 2, reason="the sweep splits only with os.fork and 2 CPUs"
)
def test_the_worker_holds_no_pipe_of_its_parent():
    # The parent pipes to a child of its own, then forks the worker; the
    # child must see the end of its pipe once the parent closes its end.
    code = """
        import os
        from regionum import braid, invariants, worker
        from regionum.braid import toric_braid

        r, w = os.pipe()
        child = os.fork()
        if not child:
            os.close(w)
            while os.read(r, 1):
                pass
            os._exit(0)
        os.close(r)
        invariants.kauffman_bracket(toric_braid(9, 10))
        print(worker.running())
        os.close(w)
        print(os.waitpid(child, 0)[1])
    """
    done = _python(code, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["True", "0"]


@given(signed_runs(letters_per_strand=8, max_strands=9))
def test_bracket_of_the_mirror_swaps_A_and_its_inverse(w):
    # mirroring swaps the positive and the negative letter's sweep
    expected = LaurentPoly({-e: c for e, c in kauffman_bracket(w).coefficients().items()})
    assert kauffman_bracket(w.mirror()) == expected


def test_strand_guard():
    with pytest.raises(ValueError):
        kauffman_bracket(BraidWord(MAX_STRANDS + 1, (1,)))


def test_jones_markov_invariance():
    rng = random.Random(17)
    for _ in range(40):
        p = rng.randint(2, 5)
        w = BraidWord(
            p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(8))
        )
        value = jones(w)
        move = rng.choice(["shift", "conj", "stab"])
        if move == "shift":
            w2 = cyclic_shift(w, rng.randint(1, 7))
        elif move == "conj":
            w2 = conjugate(w, rng.choice([1, -1]) * rng.randint(1, p - 1))
        else:  # positive or negative stabilization
            w2 = BraidWord(p + 1, w.letters + (rng.choice([p, -p]),))
        assert jones(w2) == value, (w, move)


@given(braid_words(min_strands=3, max_strands=6))
def test_burau_alexander_and_jones_agree_on_every_rotation(w):
    # the u_R search skips every rotation of a flip pattern once one
    # rotation's closure is refuted; both invariants must allow that
    rotations = [cyclic_shift(w, k) for k in range(1, len(w.letters))]
    assert all(burau_alexander(v) == burau_alexander(w) for v in rotations)
    assert all(jones(v) == jones(w) for v in rotations)


def test_certify_unlink_certifies_trivial_words():
    for p in (2, 3, 4, 5):
        cert = certify_unlink(staircase_word(p))
        assert cert.verdict is Verdict.CERTIFIED
        assert cert.components == p  # identity braid closes to p circles
        assert cert.jones_matches_unlink


def test_certify_unlink_refutes_trefoil():
    cert = certify_unlink(toric_braid(2, 3))
    assert cert.verdict is Verdict.REFUTED
    assert cert.jones_matches_unlink is False


def test_certify_unlink_handles_search_fallback_case():
    # dissolves only through the move search, not greedy reduction
    cert = certify_unlink(three_block_word(4))
    assert cert.verdict is Verdict.CERTIFIED


# sha256 over 150 seeded random words (p = 3..6, up to 3p letters) of
# each word with whether a 50-node move search dissolves it.
SEARCH_DIGEST = "2a14600fd09ae9fe2b138d275ac436f1c8cc89080b0b57f23f4c92eb0a3a43fe"


def test_search_dissolves_golden_digest():
    rng = random.Random(20261019)
    h = hashlib.sha256()
    for _ in range(150):
        p = rng.randint(3, 6)
        n = rng.randint(0, 3 * p)
        w = BraidWord(
            p, tuple(rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(n))
        )
        found = braid._search_dissolves(w.strands, w.letters, max_nodes=50)
        h.update(json.dumps([found, w.strands, w.letters]).encode())
    assert h.hexdigest() == SEARCH_DIGEST


def _random_search_words(seed, count):
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        p = rng.randint(3, 6)
        n = rng.randint(p, 3 * p)
        words.append(
            BraidWord(p, tuple(rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(n)))
        )
    return words


def _package_search(w, cap):
    return braid._search_dissolves(w.strands, w.letters, cap)


def _search_with_states(monkeypatch, module, search, w, cap):
    """The verdict of ``search(w, cap)`` and every state its heaps give up,
    in order, as ``(strands, letters)``."""
    states = []

    def heappop(heap):
        entry = heapq.heappop(heap)
        state = entry[-1]
        states.append((state.strands, state.letters) if isinstance(state, BraidWord) else state)
        return entry

    with monkeypatch.context() as m:
        m.setattr(module, "heapq", types.SimpleNamespace(heappop=heappop, heappush=heapq.heappush))
        return search(w, cap), states


@pytest.mark.parametrize("cap", [3, 30, 200])
def test_search_matches_reference_search(monkeypatch, cap):
    # the move search on (strands, letters) states against the same search
    # on BraidWord states, which free-reduces every neighbour again: the
    # same verdict, from the same states in the same order
    verdicts = []
    for w in _random_search_words(18, 60):
        new = _search_with_states(monkeypatch, braid, _package_search, w, cap)
        old = _search_with_states(monkeypatch, _oracles, _oracles.search_dissolves, w, cap)
        assert new == old, (w, cap)
        verdicts.append(new[0])
    assert True in verdicts and False in verdicts


def test_search_matches_reference_on_grid_and_probe_residues(monkeypatch):
    calls = []
    search = braid._search_dissolves

    def recorded(strands, letters, max_nodes=SEARCH_MAX_NODES):
        calls.append((BraidWord(strands, letters), max_nodes))
        return search(strands, letters, max_nodes)

    monkeypatch.setattr(braid, "_search_dissolves", recorded)
    for p in range(2, 7):
        for q in range(p + 1, 6 * p + 6):
            if is_proper(p, q):
                verify_bound(TorusLinkSpec(p, q))
    grid_calls = len(calls)
    for p in range(2, 6):
        for q in range(2, 17):
            if (p - 1) * q <= 16:
                sharpness_probe(TorusLinkSpec(p, q))
    monkeypatch.undo()
    # 27 grid residues and 7 probe words reach the search, plus the
    # searches on the pieces of split neighbours
    assert grid_calls >= 27 and len(calls) - grid_calls >= 7
    for w, max_nodes in calls:
        for cap in range(1, 41):
            assert _package_search(w, cap) == _oracles.search_dissolves(w, cap), (w, cap)
        new = _search_with_states(monkeypatch, braid, _package_search, w, max_nodes)
        old = _search_with_states(monkeypatch, _oracles, _oracles.search_dissolves, w, max_nodes)
        assert new == old, w


def test_search_states_are_freely_and_cyclically_reduced(monkeypatch):
    # The search hands each state's rotations and conjugates to the
    # reduction cores without reducing them again, which is sound only
    # for freely and cyclically reduced states.
    states = []
    for w in _random_search_words(19, 60) + [three_block_word(4)]:
        states += _search_with_states(monkeypatch, braid, _package_search, w, 30)[1]
    assert len(states) > 300
    for p, letters in states:
        assert free_reduce(BraidWord(p, letters)).letters == letters
        assert not letters or letters[0] != -letters[-1]


def test_no_certified_word_lies_outside_the_writhe_window():
    # Morton; Franks-Williams: a braid on n strands closing to the
    # mu-component unlink has |writhe| <= n - mu.  The u_R search refutes
    # every word outside that window without asking the certifier.
    rng = random.Random(15)
    certified = []
    for _ in range(400):
        p = rng.randint(2, 6)
        w = random_connected_word(rng, p, rng.randint(p - 1, 3 * p))
        if certify_unlink(w).verdict is Verdict.CERTIFIED:
            certified.append(w)
    assert len(certified) >= 40
    # the window is tight: sigma_1 ... sigma_(n-1) and its kin sit on it
    margins = [w.strands - closure_components(w) - abs(w.writhe) for w in certified]
    assert 0 in margins
    grid = [
        TorusLinkSpec(p, q)
        for p in range(2, 7)
        for q in range(p + 1, 6 * p + 6)
        if is_proper(p, q)
    ]
    for spec in grid:
        cert = verify_bound(spec).certificate
        if cert.unlink.verdict is Verdict.CERTIFIED:
            certified.append(cert.target)
    assert [
        w for w in certified if abs(w.writhe) > w.strands - closure_components(w)
    ] == []


def test_certify_multi_component_unlink():
    cert = certify_unlink(BraidWord(3, (1, -1, 2, -2)))
    assert cert.verdict is Verdict.CERTIFIED
    assert cert.components == 3
    cert2 = certify_unlink(BraidWord(2, (1, -1)))
    assert cert2.verdict is Verdict.CERTIFIED
    assert cert2.components == 2


def test_certify_unlink_refutes_by_alexander_above_the_strand_guard():
    cert = certify_unlink(toric_braid(MAX_STRANDS + 1, MAX_STRANDS + 2))
    assert cert.verdict is Verdict.REFUTED
    assert cert.jones_matches_unlink is None
    unknot = BraidWord(MAX_STRANDS + 1, tuple(range(1, MAX_STRANDS + 1)))
    cert = certify_unlink(unknot)
    assert cert.verdict is Verdict.CERTIFIED
    assert cert.jones_matches_unlink is None


def _at_t0(poly):
    """A Laurent polynomial {exponent: coefficient} evaluated at t0
    modulo the Burau prime."""
    return sum(c * pow(BURAU_T, e, BURAU_PRIME) for e, c in poly.items()) % BURAU_PRIME


def _times(f, g):
    out = {}
    for a, ca in f.items():
        for b, cb in g.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
    return out


def test_burau_alexander_known_values():
    # det(I - B(w)) = t^k (1 + t + ... + t^(p-1)) Delta(t), k = (writhe - p + 1)/2
    trefoil = _times({1: 1}, _times({0: 1, 1: 1}, {-1: 1, 0: -1, 1: 1}))
    assert burau_alexander(toric_braid(2, 3)) == _at_t0(trefoil)
    left = _times({-2: 1}, _times({0: 1, 1: 1}, {-1: 1, 0: -1, 1: 1}))
    assert burau_alexander(toric_braid(2, 3).mirror()) == _at_t0(left)
    eight = _times({-1: 1}, _times({0: 1, 1: 1, 2: 1}, {-1: -1, 0: 3, 1: -1}))
    assert burau_alexander(parse_word("1 -2 1 -2")) == _at_t0(eight)
    assert burau_alexander(BraidWord(1)) == 1


# The elimination of I - B(w) meets a zero pivot on the example word,
# swaps rows, and still ends with a non-zero determinant.
@given(signed_runs())
@example(BraidWord(4, (2, 1, -3, -2, -2, 1, -2)))
def test_burau_alexander_matches_the_column_list_oracle(w):
    assert burau_alexander(w) == _oracles.burau_alexander(w)


def test_burau_alexander_matches_the_oracle_on_sign_flipped_torus_words():
    rng = random.Random(20261018)
    for p in range(3, 14):
        for q in (rng.randint(1, 2 * p), rng.randint(2 * p, 4 * p)):
            letters = toric_braid(p, q).letters
            for density in (0.05, 0.3, 0.7):
                w = BraidWord(p, tuple(-x if rng.random() < density else x for x in letters))
                assert burau_alexander(w) == _oracles.burau_alexander(w), w


def test_burau_alexander_of_torus_knots_has_the_closed_form():
    # det(I - B(sigma_1 ... sigma_(p-1))^q) = (t^(pq) - 1) / (t^q - 1) for
    # gcd(p, q) = 1: t^k (1 + ... + t^(p-1)) times the torus knot's
    # Conway-normalized Alexander polynomial,
    # t^-k (t^(pq) - 1)(t - 1) / ((t^p - 1)(t^q - 1)), k = (p - 1)(q - 1) / 2
    prime, t = BURAU_PRIME, BURAU_T
    knots = [(p, q) for p in range(2, 16) for q in range(1, 40) if gcd(p, q) == 1]
    assert len(knots) == 330
    for p, q in knots:
        expected = (pow(t, p * q, prime) - 1) * pow(pow(t, q, prime) - 1, -1, prime) % prime
        assert burau_alexander(toric_braid(p, q)) == expected, (p, q)


def test_unknot_value_is_the_geometric_sum():
    prime, t = BURAU_PRIME, BURAU_T
    for p in range(1, 21):
        total = sum(pow(t, j, prime) for j in range(p))
        for k in range(-40, 41):
            assert invariants._unknot_burau(p, k) == pow(t, k, prime) * total % prime, (p, k)


def test_alexander_refutes_small_links():
    assert alexander_refutes(toric_braid(2, 3))
    assert alexander_refutes(parse_word("1 -2 1 -2"))
    assert alexander_refutes(toric_braid(2, 2))  # Hopf link
    assert not alexander_refutes(BraidWord(1))
    assert not alexander_refutes(BraidWord(2, (1, -1)))  # 2-component unlink
    assert not alexander_refutes(BraidWord(3, (1, -1, 2, -2)))  # 3 components
    assert not alexander_refutes(BraidWord(3))


def test_unknot_value_exponent_and_sign_are_pinned():
    # every sigma_1^(+-1) ... sigma_(p-1)^(+-1) closes to the unknot
    prime, t = BURAU_PRIME, BURAU_T
    for p in range(2, 7):
        total = sum(pow(t, j, prime) for j in range(p))
        for signs in itertools.product((1, -1), repeat=p - 1):
            w = BraidWord(p, tuple(s * i for i, s in enumerate(signs, start=1)))
            k = (w.writhe - p + 1) // 2
            value = burau_alexander(w)
            assert value == pow(t, k, prime) * total % prime, w
            assert value != -pow(t, k, prime) * total % prime
            assert value != pow(t, k + 1, prime) * total % prime
            assert not alexander_refutes(w)


def test_alexander_never_refutes_a_certified_target():
    # On the probe words the search test checks that Alexander refutes
    # only words Jones refutes, so no certified one.
    grid = [
        TorusLinkSpec(p, q)
        for p in range(2, 7)
        for q in range(p + 1, 6 * p + 6)
        if is_proper(p, q)
    ]
    wide = [TorusLinkSpec(p, p + 1) for p in range(7, 10)]
    certified = []
    for spec in grid + wide:
        cert = verify_bound(spec).certificate
        if cert.unlink.verdict is Verdict.CERTIFIED:
            certified.append(cert.target)
    assert len(certified) == 114
    assert [w for w in certified if alexander_refutes(w)] == []


@given(unlink_closures())
def test_alexander_never_refutes_an_unlink(w):
    assert not alexander_refutes(w)
