import pytest

from regionum.laurent import LOOP, LaurentPoly


def test_zero_and_one():
    assert not LaurentPoly.zero()
    assert LaurentPoly.one() == 1
    assert LaurentPoly.zero() + LaurentPoly.one() == LaurentPoly.one()


def test_cancellation_in_constructor():
    assert LaurentPoly([(3, 1), (3, -1)]) == LaurentPoly.zero()


def test_arithmetic():
    x = LaurentPoly({2: 1, 0: -3})
    y = LaurentPoly({-2: 2})
    assert x + y == LaurentPoly({2: 1, 0: -3, -2: 2})
    assert x - x == LaurentPoly.zero()
    assert x * y == LaurentPoly({0: 2, -2: -6})
    assert 2 * x == LaurentPoly({2: 2, 0: -6})


def test_a_and_inverse_cancel():
    assert LaurentPoly.monomial(1) * LaurentPoly.monomial(-1) == LaurentPoly.one()


def test_pow_matches_repeated_multiplication():
    acc = LaurentPoly.one()
    for k in range(5):
        assert LOOP**k == acc
        acc = acc * LOOP
    with pytest.raises(ValueError):
        LOOP ** (-1)


def test_hash_consistent_with_eq():
    assert hash(LaurentPoly({2: 1})) == hash(LaurentPoly([(2, 2), (2, -1)]))


def test_t_half_conversion():
    # A^-4 = t, so A^-8 renders as t^2 and A^2 as -exponent 1 in half-units.
    assert LaurentPoly.monomial(-8).to_t_half_powers() == {4: 1}
    assert LaurentPoly.monomial(2).to_t_half_powers() == {-1: 1}
    with pytest.raises(ValueError):
        LaurentPoly.monomial(3).to_t_half_powers()


def test_format_t():
    assert LaurentPoly.zero().format_t() == "0"
    assert LaurentPoly.one().format_t() == "+1"
    assert LOOP.format_t() == "-1*t^(-1/2) -1*t^(1/2)"
    assert LaurentPoly.monomial(-8, 3).format_t() == "+3*t^2"
