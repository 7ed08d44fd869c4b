import random
from fractions import Fraction

import pytest

from holoseq.polynomials import (
    Polynomial,
    X,
    format_rational,
    parse_integer,
    parse_rational,
)


def test_rational_text_round_trip():
    for text, expected in [
        ("2/3", Fraction(2, 3)),
        ("-4", Fraction(-4)),
        ("−2/3", Fraction(-2, 3)),  # unicode minus
        ("7/14", Fraction(1, 2)),
    ]:
        assert parse_rational(text) == expected
    assert format_rational(Fraction(-2, 3)) == "-2/3"
    assert format_rational(Fraction(10, 5)) == "2"
    with pytest.raises(ValueError):
        parse_rational("1.5")


def test_parse_rational_zero_denominator_is_value_error():
    for text in ["1/0", "-3/00", "0/0"]:
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational(text)


def test_parse_integer_strict():
    assert parse_integer("-12") == -12
    assert parse_integer(" 34 ") == 34
    for bad in ["1.0", "1e3", "", "2/3", "0x1f"]:
        with pytest.raises(ValueError):
            parse_integer(bad)


def test_decimal_round_trip_5000_digits():
    rng = random.Random(5000)
    digits = "".join(rng.choice("0123456789") for _ in range(5000)).lstrip("0")
    value = parse_integer(digits)
    assert str(value) == digits
    assert parse_integer(str(-value)) == -value


def test_polynomial_strips_trailing_zeros():
    assert Polynomial((1, 2, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial((0, 0)).is_zero
    assert Polynomial(()).degree == float("-inf")
    assert Polynomial((5,)).degree == 0


def test_polynomial_eval_examples():
    square = (X - Polynomial.constant(1)) ** 2
    assert square(3) == 4
    assert (X ** 2)(6) == 36
    assert Polynomial.constant(1)(1000) == 1
    assert square(Fraction(1, 2)) == Fraction(1, 4)


def test_polynomial_arithmetic_identities():
    n = X
    assert n * (n - Polynomial.constant(1)) + n == n ** 2
    one = Polynomial.constant(1)
    assert (one + n) * (one - n) == one - n ** 2
    p = Polynomial((3, -2, 5))
    assert (p - p).is_zero


def test_polynomial_eval_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(100):
        p = Polynomial(tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 6))))
        q = Polynomial(tuple(Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(0, 6))))
        at = rng.randint(-100, 100)
        assert (p + q)(at) == p(at) + q(at)
        assert (p * q)(at) == p(at) * q(at)


def test_polynomial_shift():
    square = (X - Polynomial.constant(1)) ** 2
    shifted = square.shifted(1)  # (n+1-1)^2 == n^2
    assert shifted == X ** 2
    rng = random.Random(11)
    for _ in range(50):
        p = Polynomial(tuple(Fraction(rng.randint(-5, 5)) for _ in range(5)))
        c = rng.randint(-4, 4)
        at = rng.randint(-10, 10)
        assert p.shifted(c)(at) == p(at + c)


def test_falling_factorial():
    assert Polynomial.falling_factorial(0) == Polynomial.constant(1)
    assert Polynomial.falling_factorial(1) == X
    assert Polynomial.falling_factorial(2) == X * (X - Polynomial.constant(1))
    # vanishes on 0..length-1, the fact the extraction rule leans on
    for length in range(5):
        p = Polynomial.falling_factorial(length)
        for n in range(length):
            assert p(n) == 0
        assert p(length) != 0


def test_polynomial_text():
    assert Polynomial((1, -1)).to_text() == "1 - t"
    assert Polynomial((1, -2, 1)).to_text(var="n") == "1 - 2*n + n^2"
    assert Polynomial((1, -1)).to_text(compact=True) == "1-t"
    assert Polynomial(()).to_text() == "0"
    assert Polynomial((0, Fraction(-2, 3))).to_text() == "-2/3*t"
