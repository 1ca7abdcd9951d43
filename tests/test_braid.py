import hashlib
import json
import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import _oracles
from _oracles import conjugate, cyclic_shift
from regionum.braid import (
    BraidWord,
    BudgetExceeded,
    _conjugate_reduced,
    _try_destabilize,
    closure_components,
    format_word,
    free_reduce,
    handle_reduce,
    is_trivial_braid,
    markov_simplify,
    parse_word,
    split_unused,
    toric_braid,
)
from regionum.templates import mirror_staircase_word, staircase_word


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
# word with its markov_simplify results for conjugator lengths 2 and 1.
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
        b = markov_simplify(w, conjugator_length=1)
        h.update(
            json.dumps(
                [w.strands, w.letters, a.strands, a.letters, b.strands, b.letters]
            ).encode()
        )
    assert h.hexdigest() == MARKOV_DIGEST


def _letters(p):
    return st.sampled_from([x for x in range(1 - p, p) if x])


@st.composite
def braid_words(draw, letters_per_strand=4):
    p = draw(st.integers(2, 8))
    return BraidWord(
        p, tuple(draw(st.lists(_letters(p), max_size=letters_per_strand * p)))
    )


@given(braid_words())
def test_try_destabilize_ignores_rotation(w):
    expected = _try_destabilize(w)
    for k in range(len(w)):
        assert _try_destabilize(cyclic_shift(w, k)) == expected


@given(braid_words(6))
def test_markov_simplify_matches_oracle(w):
    for n in (1, 2):
        assert markov_simplify(w, n) == _oracles.markov_simplify(w, n)
    assert _try_destabilize(w) == _oracles._try_destabilize(w)


@given(braid_words(6), st.data())
def test_conjugate_reduced_matches_conjugate(w, data):
    v = free_reduce(w)
    a = data.draw(_letters(w.strands))
    assert _conjugate_reduced(v.letters, a) == conjugate(v, a).letters


@given(braid_words(6))
def test_handle_reduce_matches_oracle(w):
    assert handle_reduce(w) == _oracles.handle_reduce(w)


def _rewrite_at(word, j):
    """One braid relation applied at position j, or None if none fits:
    far-apart letters commute, s_i^e s_k^f s_i^-e = s_k^-e s_i^f s_k^e
    and s_i^e s_k^e s_i^e = s_k^e s_i^e s_k^e for |i - k| = 1."""
    x, y = word[j], word[j + 1]
    i, k = abs(x), abs(y)
    if abs(i - k) >= 2:
        return word[:j] + [y, x] + word[j + 2 :]
    if j + 2 >= len(word) or abs(i - k) != 1:
        return None
    e, f = (1 if x > 0 else -1), (1 if y > 0 else -1)
    if word[j + 2] == -x:
        return word[:j] + [-e * k, f * i, e * k] + word[j + 3 :]
    if word[j + 2] == x and e == f:
        return word[:j] + [y, x, y] + word[j + 3 :]
    return None


def _respell(letters, moves):
    """The same braid spelled differently: each move inserts a cancelling
    pair, or applies the first braid relation that fits at or after a
    position."""
    word = list(letters)
    for kind, pos, gen in moves:
        if kind == 0:
            j = pos % (len(word) + 1)
            word[j:j] = [gen, -gen]
            continue
        for step in range(len(word) - 1):
            rewritten = _rewrite_at(word, (pos + step) % (len(word) - 1))
            if rewritten is not None:
                word = rewritten
                break
    return tuple(word)


@st.composite
def trivial_conjugates(draw):
    """u w w'^-1 u^-1, where w' is w respelled by braid relations (on
    three or more strands, where relations other than free cancellation
    exist)."""
    p = draw(st.integers(3, 8))
    w = draw(st.lists(_letters(p), min_size=2, max_size=3 * p))
    u = draw(st.lists(_letters(p), max_size=2 * p))
    move = st.tuples(st.integers(0, 3), st.integers(0, 64), _letters(p))
    moves = draw(st.lists(move, min_size=p, max_size=4 * p))
    u = BraidWord(p, tuple(u))
    v = BraidWord(p, tuple(w)) * BraidWord(p, _respell(w, moves)).inverse()
    return u * v * u.inverse()


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
