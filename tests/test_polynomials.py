import random
import re
import subprocess
import sys
import threading
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from holoseq.polynomials import (
    Polynomial,
    X,
    _lift_digit_cap,
    format_rational,
    parse_integer,
    parse_rational,
)
from holoseq.series import Series


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
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the test's own str() calls, not the library's
    try:
        text, negative_text = str(value), str(-value)
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == digits
    assert parse_integer(negative_text) == -value


def test_import_leaves_the_digit_cap_alone():
    code = (
        "import sys; before = sys.get_int_max_str_digits(); import holoseq, holoseq.cli; "
        "assert sys.get_int_max_str_digits() == before, sys.get_int_max_str_digits()"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_overlapping_calls_from_two_threads_restore_the_digit_cap(default_digit_cap):
    """A enters, B enters, A leaves, then B converts a 5001-digit int inside the cap and leaves."""
    a_inside, b_inside, a_left = threading.Event(), threading.Event(), threading.Event()
    converted = []

    @_lift_digit_cap
    def hold_until_b_enters():
        a_inside.set()
        b_inside.wait(30)

    @_lift_digit_cap
    def convert_after_a_leaves():
        b_inside.set()
        a_left.wait(30)
        try:
            return str(10**5000)
        except ValueError as error:
            return error

    def run_a():
        hold_until_b_enters()
        a_left.set()

    a = threading.Thread(target=run_a)
    b = threading.Thread(target=lambda: converted.append(convert_after_a_leaves()))
    a.start()
    assert a_inside.wait(30)
    b.start()
    a.join(30)
    b.join(30)
    assert not a.is_alive() and not b.is_alive()
    assert converted == ["1" + "0" * 5000]
    assert sys.get_int_max_str_digits() == default_digit_cap


def test_many_threads_formatting_5001_digit_numbers_leave_the_digit_cap_as_it_was(default_digit_cap):
    value = 10**5000 + 7
    texts: list = []

    def run():
        for _ in range(60):
            try:
                texts.append(format_rational(value))
            except ValueError as error:
                texts.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert texts == ["1" + "0" * 4999 + "7"] * 240
    assert sys.get_int_max_str_digits() == default_digit_cap


def test_polynomial_strips_trailing_zeros():
    assert Polynomial((1, 2, 0)).coeffs == (Fraction(1), Fraction(2))
    assert Polynomial((0, 0)).is_zero
    assert Polynomial(()).degree == float("-inf")
    assert Polynomial((5,)).degree == 0


def test_trailing_zeros_are_stripped_in_linear_time():
    start = time.perf_counter()
    assert Polynomial((1,) + (0,) * 200_000).coeffs == (Fraction(1),)
    assert time.perf_counter() - start < 1


def test_polynomial_rejects_floats_and_strings():
    for bad in ((0.5,), ("1/2", 1), (1, 0.0)):
        with pytest.raises(TypeError):
            Polynomial(bad)
    for bad in (0.5, "3"):
        with pytest.raises(TypeError):
            Polynomial.constant(bad)
        with pytest.raises(TypeError):
            X.shifted(bad)


def test_polynomial_holds_integer_numerators_over_one_positive_denominator_in_lowest_terms():
    def fields(value):
        return value._nums, value._den

    half_third = Polynomial((Fraction(1, 2), Fraction(1, 3)))
    assert fields(half_third) == ((3, 2), 6)
    assert fields(Polynomial((Fraction(-1, 3), 0))) == ((-1,), 3)
    p = Polynomial((Fraction(1, 6), Fraction(-5, 6), 2))
    zeros = (Polynomial(), Polynomial((0, Fraction(0, 7))), p - p, p * 0, 0 * p, p * Polynomial())
    for zero in zeros:
        assert fields(zero) == ((), 1)
    pairs = [
        (Polynomial((4, -6, 4)), Polynomial((Fraction(8, 2), Fraction(-6), Fraction(12, 3), 0))),
        (Polynomial((3, 2)) * Fraction(1, 6), half_third),
        (X * 2, Polynomial((0, Fraction(1, 2))) * 4),
        (Polynomial((1, -2, 1)), (X - Polynomial.constant(Fraction(3, 3))) ** 2),
        (Polynomial((1, 2, 1)), (X * Fraction(1, 2) + Polynomial.constant(Fraction(1, 2))) ** 2 * 4),
        (Polynomial((Fraction(1, 4), 1, 1)), X.shifted(Fraction(1, 2)) ** 2),
        (Polynomial((9, 6, 1)), (X**2).shifted(3)),
    ]
    for from_ints, from_fractions in pairs:
        assert fields(from_ints) == fields(from_fractions)
        assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
    for bad in (0.5, "1", Decimal(1)):
        with pytest.raises(TypeError):
            Polynomial((1, bad))
    series = Series((Fraction(1, 2), Fraction(1, 3)))
    assert fields(series) == fields(half_third)
    assert series != half_third and half_third != series
    with pytest.raises(TypeError):
        half_third + series
    with pytest.raises(TypeError):
        series * half_third


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

    def rational():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 35)))

    for _ in range(200):
        p = Polynomial(tuple(rational() for _ in range(rng.randint(0, 6))))
        q = Polynomial(tuple(rational() for _ in range(rng.randint(0, 6))))
        at = rng.choice((rng.randint(-100, 100), Fraction(rng.randint(-100, 100), rng.randint(1, 9))))
        c = rational()
        assert (p + q)(at) == p(at) + q(at)
        assert (p - q)(at) == p(at) - q(at)
        assert (-p)(at) == -p(at)
        assert (p * q)(at) == p(at) * q(at)
        assert (c * p)(at) == (p * c)(at) == c * p(at)


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
    for _ in range(50):
        p = Polynomial(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(6)))
        c = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        at = Fraction(rng.randint(-10, 10), rng.randint(1, 3))
        assert p.shifted(c)(at) == p(at + c)
    assert Polynomial().shifted(Fraction(1, 3)).is_zero
    assert Polynomial.constant(Fraction(-2, 7)).shifted(5) == Polynomial.constant(Fraction(-2, 7))


def test_falling_factorial():
    assert Polynomial.falling_factorial(0) == Polynomial.constant(1)
    assert Polynomial.falling_factorial(1) == X
    assert Polynomial.falling_factorial(2) == X * (X - Polynomial.constant(1))
    product = Polynomial.constant(1)
    for length in range(9):
        assert Polynomial.falling_factorial(length) == product
        product = product * (X - Polynomial.constant(length))
    # vanishes on 0..length-1, the fact the extraction rule leans on
    for length in range(5):
        p = Polynomial.falling_factorial(length)
        for n in range(length):
            assert p(n) == 0
        assert p(length) != 0
    with pytest.raises(ValueError, match=r"^falling factorial length must be >= 0$"):
        Polynomial.falling_factorial(-1)
    with pytest.raises(ValueError, match=r"^polynomial exponent must be a nonnegative integer$"):
        X ** -1


# (call, exception, message): a bool or a non-int is a TypeError, a negative int keeps its error
INTEGER_ARGUMENTS = [
    pytest.param(lambda: X ** True, TypeError, "exponent must be an int", id="X ** True"),
    pytest.param(lambda: X ** 2.0, TypeError, "exponent must be an int", id="X ** 2.0"),
    pytest.param(lambda: X ** -1, ValueError,
                 "polynomial exponent must be a nonnegative integer", id="X ** -1"),
    pytest.param(lambda: Polynomial.falling_factorial(True), TypeError,
                 "length must be an int", id="Polynomial.falling_factorial(True)"),
    pytest.param(lambda: Polynomial.falling_factorial(Fraction(2)), TypeError,
                 "length must be an int", id="Polynomial.falling_factorial(Fraction(2))"),
    pytest.param(lambda: Polynomial.falling_factorial(-1), ValueError,
                 "falling factorial length must be >= 0", id="Polynomial.falling_factorial(-1)"),
    pytest.param(lambda: Series.zero(2.5), TypeError,
                 "order must be an int", id="Series.zero(2.5)"),
    pytest.param(lambda: Series.zero(-1), ValueError,
                 "a truncated series needs at least the constant term", id="Series.zero(-1)"),
    pytest.param(lambda: Series.one(True), TypeError,
                 "order must be an int", id="Series.one(True)"),
    pytest.param(lambda: Series.one(-1), ValueError,
                 "a truncated series needs at least the constant term", id="Series.one(-1)"),
    pytest.param(lambda: Series.from_polynomial(X, False), TypeError,
                 "order must be an int", id="Series.from_polynomial(X, False)"),
    pytest.param(lambda: Series((1, 2)).truncated(True), TypeError,
                 "order must be an int", id="Series((1, 2)).truncated(True)"),
    pytest.param(lambda: Series((1, 2)).truncated(-1), ValueError,
                 "truncation order must be >= 0", id="Series((1, 2)).truncated(-1)"),
    pytest.param(lambda: Series((1, 2)).coefficient(True), TypeError,
                 "k must be an int", id="Series((1, 2)).coefficient(True)"),
    pytest.param(lambda: Series((1, 2)).coefficient(1.0), TypeError,
                 "k must be an int", id="Series((1, 2)).coefficient(1.0)"),
    pytest.param(lambda: Series((1, 2)).coefficient(-1), IndexError,
                 "coefficient index -1 outside truncation order 1", id="Series((1, 2)).coefficient(-1)"),
]


@pytest.mark.parametrize("call, error, message", INTEGER_ARGUMENTS)
def test_integer_arguments_reject_bools_and_non_ints(call, error, message):
    # a bool is an int subclass: X ** True was X, Series((1, 2)).coefficient(True) was 2
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_polynomial_text():
    assert Polynomial((1, -1)).to_text() == "1 - t"
    assert Polynomial((1, -2, 1)).to_text(var="n") == "1 - 2*n + n^2"
    assert Polynomial(()).to_text() == "0"
    assert Polynomial((0, Fraction(-2, 3))).to_text() == "-2/3*t"
