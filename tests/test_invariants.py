import hashlib
import json
import random

import pytest

from _oracles import conjugate, cyclic_shift, dict_bracket, naive_bracket
from regionum import invariants
from regionum.bounds import bound, target_word
from regionum.braid import BraidWord, parse_word, toric_braid
from regionum.invariants import (
    MAX_STRANDS,
    Verdict,
    certify_unlink,
    jones,
    kauffman_bracket,
    unlink_jones,
)
from regionum.laurent import LOOP, LaurentPoly
from regionum.properness import TorusLinkSpec
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
    with pytest.raises(ValueError):
        unlink_jones(0)


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


def test_bracket_matches_dict_sweep_on_random_words():
    rng = random.Random(29)
    for _ in range(100):
        w = _random_word(rng, 8, 40)
        assert kauffman_bracket(w) == dict_bracket(w), w


@pytest.mark.parametrize("p", [6, 7, 8])
def test_bracket_matches_dict_sweep_on_targets(p):
    spec = TorusLinkSpec(p, p + 1)
    case = next(r.case for r in bound(spec) if r.constructible)
    w = target_word(spec, case)
    assert kauffman_bracket(w) == dict_bracket(w)


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


@pytest.mark.parametrize("p,q", TORUS_KNOTS)
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
        assert invariants._unpack(invariants._pack(coeffs, width), width) == coeffs
        assert invariants._unpack(invariants._pack([top + 1], width), width) != [top + 1]
    for norm in (1, 2, 127, 128, 1 << 40):
        width = invariants._slot_width(norm)
        assert width % 8 == 0
        assert invariants._fits(norm << invariants._HEADROOM_BITS, width)


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
        found = invariants._search_dissolves(w, max_nodes=50)
        h.update(json.dumps([found, w.strands, w.letters]).encode())
    assert h.hexdigest() == SEARCH_DIGEST


def test_certify_multi_component_unlink():
    cert = certify_unlink(BraidWord(3, (1, -1, 2, -2)))
    assert cert.verdict is Verdict.CERTIFIED
    assert cert.components == 3
    cert2 = certify_unlink(BraidWord(2, (1, -1)))
    assert cert2.verdict is Verdict.CERTIFIED
    assert cert2.components == 2
