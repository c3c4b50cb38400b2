import random

import pytest

from facnum.errors import VerificationError
from facnum.intpoly import IntPolynomial


def test_normalization_drops_trailing_zeros():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == ()
    assert IntPolynomial().degree == -1
    assert IntPolynomial((5,)).degree == 0


def test_equality_with_ints():
    assert IntPolynomial((7,)) == 7
    assert IntPolynomial() == 0
    assert IntPolynomial((0, 1)) != 1


def test_basic_arithmetic():
    x = IntPolynomial.x()
    q = x * x + 3 * x + 5
    assert q.coeffs == (5, 3, 1)
    assert (q - q) == 0
    assert (q + 1).coeffs == (6, 3, 1)
    assert (-q).coeffs == (-5, -3, -1)
    assert (x**3).coeffs == (0, 0, 0, 1)
    assert q.shift(2).coeffs == (0, 0, 5, 3, 1)


def test_evaluation_matches_coefficient_arithmetic():
    q = IntPolynomial((5, 3, 1))
    for v in (-3, 0, 1, 2, 10, 10**6):
        assert q(v) == v * v + 3 * v + 5


def test_divmod_exact_chain():
    x = IntPolynomial.x()
    num = x**2 - 1
    quo, rem = divmod(num, x - 1)
    assert quo == x + 1 and rem == 0


def test_divmod_with_remainder():
    x = IntPolynomial.x()
    quo, rem = divmod(x**2 + 1, x - 1)
    assert quo == x + 1
    assert rem == 2


def test_exact_div_rejects_remainder():
    x = IntPolynomial.x()
    with pytest.raises(VerificationError):
        (x**2 + 1).exact_div(x - 1)


def test_division_requires_divisible_leading_coefficient():
    x = IntPolynomial.x()
    with pytest.raises(ValueError):
        divmod(x**2, 2 * x)


def test_randomized_product_division_roundtrip():
    rng = random.Random(20240611)
    for _ in range(200):
        a = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))])
        b = IntPolynomial([rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
        if not b or b.coeffs[-1] not in (1, -1):
            continue  # keep the divisor monic-ish so ZZ division is defined
        prod = a * b
        assert prod.exact_div(b) == a
        v = rng.randint(-20, 20)
        assert prod(v) == a(v) * b(v)


def test_str_formatting():
    x = IntPolynomial.x()
    assert str(x * x + 3 * x + 5) == "p^2 + 3p + 5"
    assert str(3 * x**4 + 4 * x**3 + 8 * x**2 + 5 * x + 7) == "3p^4 + 4p^3 + 8p^2 + 5p + 7"
    assert str(IntPolynomial()) == "0"
    assert str(x) == "p"
    assert str(-x + 1) == "-p + 1"
    assert str(x**2 - x) == "p^2 - p"


def test_exact_div_rejects_a_leading_coefficient_that_does_not_divide():
    x = IntPolynomial.x()
    with pytest.raises(VerificationError):
        (x**2).exact_div(2 * x)


@pytest.mark.parametrize("c", [0, 5, -7])
def test_constant_hashes_as_the_int_it_equals(c):
    poly = IntPolynomial.constant(c)
    assert poly == c and hash(poly) == hash(c)
    assert len({c, poly}) == 1


def test_zero_polynomial_hashes_as_zero():
    assert IntPolynomial() == 0 and hash(IntPolynomial()) == hash(0)
    assert len({0, IntPolynomial()}) == 1
