import random

import pytest

from regionum.braid import closure_components, handle_reduce
from regionum.invariants import Verdict, certify_unlink, jones, unlink_jones
from regionum.templates import (
    WORD_FAMILIES,
    eight_block_word,
    eta_ladder_words,
    even_ladder_words,
    generator_run_word,
    mirror_staircase_word,
    mu,
    nu,
    run_pair_words,
    staircase_word,
    three_block_word,
    three_block_words,
    width4_cancel_words,
)


def signs(rng, n):
    return [rng.choice([1, -1]) for _ in range(n)]


def sign_table(rng, rows, cols):
    return [signs(rng, cols) for _ in range(rows)]


def assert_same_closure(lhs, rhs):
    assert closure_components(lhs) == closure_components(rhs), (lhs, rhs)
    assert jones(lhs) == jones(rhs), (lhs, rhs)


def test_mu_nu_structure():
    assert mu(4, 1).letters == (1, 2, 3)
    assert mu(4, 3).letters == (1, -2, -3)
    assert mu(4, 4).letters == (-1, -2, -3)
    assert nu(4, 3).letters == (-1, 2, 3)
    with pytest.raises(ValueError):
        mu(4, 5)


@pytest.mark.parametrize("p", range(2, 9))
def test_staircase_words_are_trivial(p):
    assert handle_reduce(staircase_word(p)).letters == ()
    assert handle_reduce(mirror_staircase_word(p)).letters == ()


def test_eta_ladder_closure_equivalence():
    rng = random.Random(23)
    for _ in range(8):
        p = rng.randint(3, 7)
        a = rng.randint(1, p - 1)
        lhs, rhs = eta_ladder_words(p, a, sign_table(rng, a, p - a))
        assert_same_closure(lhs, rhs)


def test_even_ladder_closure_equivalence():
    rng = random.Random(29)
    for _ in range(8):
        p = rng.choice([4, 6, 8])
        q = rng.choice([x for x in (2, 4, 6) if x < p])
        lhs, rhs = even_ladder_words(p, q, sign_table(rng, q, p - q))
        assert_same_closure(lhs, rhs)


def test_width4_cancel_closure_equivalence():
    rng = random.Random(31)
    for _ in range(8):
        p = rng.randint(6, 9)
        lhs, rhs = width4_cancel_words(
            p,
            signs(rng, p - 5),
            signs(rng, p - 5),
            rng.choice([1, -1]),
            rng.choice([1, -1]),
        )
        assert_same_closure(lhs, rhs)


@pytest.mark.parametrize("p", [4, 6, 8, 10])
def test_three_block_closures_are_trivial_links(p):
    lhs, rhs = three_block_words(p)
    assert closure_components(lhs) == closure_components(rhs)
    assert jones(lhs) == unlink_jones(closure_components(lhs))
    assert jones(rhs) == unlink_jones(closure_components(rhs))


def test_three_block_rejects_bad_p():
    with pytest.raises(ValueError):
        three_block_word(7)  # p = 1 (mod 6)
    with pytest.raises(ValueError):
        three_block_word(9)  # p = 3 (mod 6)


def test_generator_run_closures_are_trivial_links():
    rng = random.Random(37)
    for _ in range(10):
        i = rng.randint(1, 6)
        j = rng.randint(1, 6)
        w = generator_run_word(i, j)
        assert jones(w) == unlink_jones(closure_components(w)), (i, j)


def test_run_pair_closures_are_trivial_links():
    for n in range(1, 7):
        for w in run_pair_words(n):
            assert jones(w) == unlink_jones(closure_components(w)), (n, w)


def test_eight_block_word_is_trivial_four_component_link():
    w = eight_block_word(12, 4)
    assert closure_components(w) == 4
    assert jones(w) == unlink_jones(4)
    with pytest.raises(ValueError):
        eight_block_word(11, 4)


def test_eight_block_shifted_copies_certify():
    cert = certify_unlink(eight_block_word(13, 5))
    assert cert.verdict is Verdict.CERTIFIED
    assert cert.components == 5  # one extra untouched strand


def test_word_family_letter_counts_are_the_word_lengths():
    # `regionum word` refuses a word by this closed-form count before it
    # builds the word, so the count must be the word's length
    for name, (letters, build) in WORD_FAMILIES.items():
        for p in range(1, 15):
            for i in range(16):
                for j in range(6):
                    try:
                        w = build(p, i, j)
                    except ValueError:
                        continue
                    assert letters(p, i, j) == len(w.letters), (name, p, i, j)
