import hashlib
import json
import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles
from _oracles import conjugate, cyclic_shift, free_reduce, split_unused
from _words import braid_words, letters, trivial_conjugates
from regionum import braid
from regionum.bounds import bound, target_word, verify_bound
from regionum.braid import (
    HANDLE_BUDGET,
    BraidWord,
    BudgetExceeded,
    _conjugate_reduced,
    _destabilize,
    _handle_core,
    _markov_core,
    _split_core,
    closure_components,
    format_word,
    handle_reduce,
    is_trivial_braid,
    markov_simplify,
    parse_word,
    toric_braid,
)
from regionum.properness import TorusLinkSpec, is_proper
from regionum.search import sharpness_probe
from regionum.templates import mirror_staircase_word, mu, staircase_word


def test_letter_validation():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError):
        BraidWord(0)


def test_parse_format_roundtrip():
    w = parse_word("1 -2 1 -2")
    assert w.strands == 3
    assert format_word(w) == "1 -2 1 -2"
    assert parse_word("1", strands=5).strands == 5


def test_toric_braid_shape():
    w = toric_braid(3, 4)
    assert w.strands == 3
    assert w.letters == (1, 2) * 4
    with pytest.raises(ValueError):
        toric_braid(1, 3)


def test_inverse_and_mirror():
    w = parse_word("1 -2")
    assert w.inverse().letters == (2, -1)
    assert w.mirror().letters == (-1, 2)
    assert free_reduce(w * w.inverse()).letters == ()


def test_writhe_and_permutation():
    w = parse_word("1 1 1")
    assert w.writhe == 3
    assert w.permutation() == (1, 0)
    assert not w.is_identity_permutation()
    assert parse_word("1 1").is_identity_permutation()


def test_free_reduce_inner_cancellation():
    assert free_reduce(parse_word("1 2 -2 -1")).letters == ()
    # non-adjacent letters must not cancel
    assert free_reduce(parse_word("1 2 -1")).letters == (1, 2, -1)


@pytest.mark.parametrize("p", range(2, 8))
def test_handle_reduce_dissolves_staircase(p):
    assert handle_reduce(staircase_word(p)).letters == ()
    assert handle_reduce(mirror_staircase_word(p)).letters == ()


def test_handle_reduce_keeps_nontrivial():
    assert handle_reduce(toric_braid(2, 3)).letters != ()
    assert not is_trivial_braid(toric_braid(2, 3))
    assert is_trivial_braid(staircase_word(4))


def test_handle_reduce_budget():
    with pytest.raises(BudgetExceeded):
        handle_reduce(staircase_word(8), budget=3)


@pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 6), (6, 4)])
def test_closure_components_is_gcd(p, q):
    assert closure_components(toric_braid(p, q)) == gcd(p, q)


def test_closure_components_counts_free_strands():
    # sigma_1 on 4 strands: one merged pair plus two untouched circles
    assert closure_components(BraidWord(4, (1,))) == 3


def test_cyclic_shift_and_conjugate_preserve_closure():
    rng = random.Random(7)
    for _ in range(25):
        p = rng.randint(2, 5)
        w = BraidWord(
            p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(8))
        )
        d = closure_components(w)
        assert closure_components(cyclic_shift(w, rng.randint(1, 7))) == d
        g = rng.choice([1, -1]) * rng.randint(1, p - 1)
        assert closure_components(conjugate(w, g)) == d


def test_split_unused_partitions_letters():
    w = BraidWord(5, (1, -1, 4, 4))
    parts = split_unused(w)
    # the unused middle strand survives as an empty piece (a free circle)
    assert [part.letters for part in parts] == [(1, -1), (), (1, 1)]


def test_markov_simplify_destabilizes():
    # sigma_1 sigma_2 sigma_3 on 4 strands destabilizes down to nothing
    w = BraidWord(4, (1, 2, 3))
    assert markov_simplify(w).letters == ()


def test_markov_simplify_never_grows():
    rng = random.Random(11)
    for _ in range(30):
        p = rng.randint(2, 5)
        w = BraidWord(
            p, tuple(rng.choice([1, -1]) * rng.randint(1, p - 1) for _ in range(10))
        )
        s = markov_simplify(w)
        assert len(s) <= len(w)
        assert s.strands <= w.strands
        assert closure_components(s) == closure_components(w)


# sha256 over 300 seeded random words (p = 2..7, up to 4p letters) of each
# word with its markov_simplify result, written twice: the two slots held
# the results for conjugator lengths 2 and 1, which never differed because
# no such conjugation fires (see the markov_simplify docstring).
MARKOV_DIGEST = "d73e6fcd1a6dbc8a988893d8c06332515d1c92f11e68d28f87fbb8e44a07a987"


def test_markov_simplify_golden_digest():
    rng = random.Random(20261018)
    h = hashlib.sha256()
    for _ in range(300):
        p = rng.randint(2, 7)
        n = rng.randint(0, 4 * p)
        w = BraidWord(
            p, tuple(rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(n))
        )
        a = markov_simplify(w)
        h.update(
            json.dumps(
                [w.strands, w.letters, a.strands, a.letters, a.strands, a.letters]
            ).encode()
        )
    assert h.hexdigest() == MARKOV_DIGEST


@given(braid_words())
def test_try_destabilize_ignores_rotation(w):
    expected = _destabilize(w.strands, w.letters)
    for k in range(len(w)):
        assert _destabilize(w.strands, cyclic_shift(w, k).letters) == expected


@given(braid_words(6))
def test_markov_simplify_matches_oracle(w):
    # the oracle still searches conjugators of length 1 and 2
    for n in (1, 2):
        assert markov_simplify(w) == _oracles.markov_simplify(w, n)
    expected = _oracles._try_destabilize(w)
    if expected is not None:
        expected = (expected.strands, expected.letters)
    assert _destabilize(w.strands, w.letters) == expected


@given(braid_words(6))
def test_no_short_conjugation_improves_markov_simplify(w):
    s = markov_simplify(w)
    for n in (1, 2):
        assert _oracles._conjugation_improvement(s, n) is None


@given(braid_words(6), st.data())
def test_conjugate_reduced_matches_conjugate(w, data):
    v = free_reduce(w)
    a = data.draw(letters(w.strands))
    assert _conjugate_reduced(v.letters, a) == conjugate(v, a).letters


@given(braid_words(6))
def test_handle_reduce_matches_oracle(w):
    assert handle_reduce(w) == _oracles.handle_reduce(w)


@given(trivial_conjugates())
def test_conjugated_identity_handle_reduces_to_empty(v):
    # Dehornoy (Adv. Math. 125, 1997): a handle-free word is empty iff it
    # is the identity braid, whatever spelling it starts from.
    assert handle_reduce(v).letters == ()
    assert is_trivial_braid(v)


def _outcome(reduce, w, budget):
    try:
        return reduce(w, budget)
    except BudgetExceeded:
        return None


@given(st.one_of(braid_words(6), trivial_conjugates()), st.integers(0, 20))
def test_handle_reduce_budget_matches_oracle(w, budget):
    assert _outcome(handle_reduce, w, budget) == _outcome(
        _oracles.handle_reduce, w, budget
    )


# The cores below take freely reduced letters and do no reduction of
# their own before they start; the public functions free-reduce first.


@given(st.one_of(braid_words(6), trivial_conjugates()), st.integers(0, 20))
def test_handle_core_matches_handle_reduce_and_its_budget(w, budget):
    v = free_reduce(w)
    assert _handle_core(v.letters) == handle_reduce(w).letters
    expected = _outcome(_oracles.handle_reduce, v, budget)
    try:
        got = _handle_core(v.letters, budget)
    except BudgetExceeded:
        got = None
    assert got == (None if expected is None else expected.letters)
    if got is not None:
        assert free_reduce(BraidWord(w.strands, got)).letters == got


def _oracle_steps(monkeypatch, w):
    """The oracle's handle reduction of ``w`` and its step count: it
    searches for a handle once per step and once more to find none."""
    searches = []
    find = _oracles._find_handle

    def counted(letters):
        searches.append(None)
        return find(letters)

    with monkeypatch.context() as m:
        m.setattr(_oracles, "_find_handle", counted)
        reduced = _oracles.handle_reduce(w)
    return reduced.letters, len(searches) - 1


def _check_core_at_its_step_count(monkeypatch, w):
    """``_handle_core`` gives the oracle's word at a budget of exactly the
    oracle's step count and runs out one step below it.  Returns the
    oracle's word and step count."""
    expected, steps = _oracle_steps(monkeypatch, w)
    v = free_reduce(w).letters
    assert _handle_core(v, steps) == expected
    if steps:
        with pytest.raises(BudgetExceeded):
            _handle_core(v, steps - 1)
    return expected, steps


def _seeded_word(p, n):
    rng = random.Random(1000 * p + n)
    return BraidWord(p, tuple(rng.choice((1, -1)) * rng.randint(1, p - 1) for _ in range(n)))


# Fewer letters on more strands: the oracle re-reads the whole word after
# every step, about 12 s on 2000 random letters at p = 8.
@pytest.mark.parametrize(
    "p,n", [(3, 2000), (4, 1200), (5, 800), (6, 500), (7, 400), (8, 300)]
)
def test_handle_core_matches_oracle_at_its_step_count_on_long_words(monkeypatch, p, n):
    _, steps = _check_core_at_its_step_count(monkeypatch, _seeded_word(p, n))
    assert steps > n // 10


@pytest.mark.parametrize("p,q", [(6, 41), (9, 65), (12, 79)])
def test_handle_core_matches_oracle_at_its_step_count_on_long_targets(monkeypatch, p, q):
    spec = TorusLinkSpec(p, q)
    case = next(r for r in bound(spec) if r.constructible).case
    _, steps = _check_core_at_its_step_count(monkeypatch, target_word(spec, case))
    assert steps > 100


def test_handle_core_matches_oracle_on_grid_and_probe_inputs(monkeypatch):
    calls = []
    core = braid._handle_core

    def recorded(word, budget=HANDLE_BUDGET):
        calls.append((tuple(word), budget))
        return core(word, budget)

    monkeypatch.setattr(braid, "_handle_core", recorded)
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
    assert grid_calls >= 2000 and len(calls) - grid_calls >= 200
    total = 0
    for word, budget in set(calls):
        w = BraidWord(max(map(abs, word), default=0) + 1, word)
        expected, steps = _check_core_at_its_step_count(monkeypatch, w)
        assert _outcome(_handle_core, word, budget) == (expected if steps <= budget else None)
        total += steps
    assert total > 3000


def test_handle_core_is_linear_on_a_long_staircase_power():
    # 200 000 letters: a core that copies the rest of the word after every
    # rewrite took about 33 s on it (Python 3.11, 2 vCPUs), this one 0.15 s
    w = staircase_word(3).letters * 33333 + mu(3, 1).letters
    assert len(w) == 200_000
    assert _handle_core(w) == (1, 2)


@given(braid_words(6))
def test_markov_core_matches_markov_simplify(w):
    v = free_reduce(w)
    s = markov_simplify(w)
    p, letters = _markov_core(v.strands, v.letters)
    assert (p, letters) == (s.strands, s.letters)
    # freely and cyclically reduced: what the move search relies on
    assert free_reduce(BraidWord(p, letters)).letters == letters
    assert not letters or letters[0] != -letters[-1]


@given(braid_words(6))
def test_split_core_matches_split_unused(w):
    v = free_reduce(w)
    pieces = _split_core(v.strands, v.letters)
    assert pieces == [(part.strands, part.letters) for part in split_unused(v)]
    assert sum(p for p, _ in pieces) == v.strands
    assert sum(len(letters) for _, letters in pieces) == len(v)
    for p, letters in pieces:
        assert {abs(x) for x in letters} == set(range(1, p))
    if {abs(x) for x in v.letters} == set(range(1, v.strands)):
        assert pieces == [(v.strands, v.letters)]
