from fractions import Fraction
from math import factorial

import pytest

from holoseq.meixner import (
    A214615_INITIAL,
    A214615_RECURRENCE,
    a214615_terms,
    build_egf,
    egf_annihilator,
    meixner_eval,
)
from holoseq.sequences import SequenceTable

GOLDEN_12 = (1, 1, 0, -4, -4, 60, 160, -2000, -9840, 118160, 915200, -10900800)


@pytest.mark.parametrize("size", [True, False, 2.5, 3.0, Fraction(3), "3"])
def test_size_arguments_reject_bools_and_non_ints(size):
    # a bool once read as 0 or 1, and 2.5 failed in islice, range or a multiply
    for call, name in (
        (lambda: build_egf(1, size), "order"),
        (lambda: a214615_terms(size), "n_max"),
        (lambda: meixner_eval(size, 1), "n"),
        (lambda: A214615_RECURRENCE.unroll(A214615_INITIAL, size), "n_max"),
    ):
        with pytest.raises(TypeError, match=rf"^{name} must be an int$"):
            call()
    assert build_egf(1, 1).order == 1 and a214615_terms(1).terms == (1, 1) == A214615_INITIAL.terms
    assert meixner_eval(1, 1) == 1 and A214615_RECURRENCE.unroll(A214615_INITIAL, 1) == A214615_INITIAL


def test_meixner_small_cases():
    assert meixner_eval(0, 99) == 1
    assert meixner_eval(1, 7) == 7
    # M_2 = x^2 - 1
    for x in (0, 1, 2, Fraction(1, 2), -3):
        assert meixner_eval(2, x) == Fraction(x) ** 2 - 1
    assert meixner_eval(3, 1) == -4
    with pytest.raises(ValueError):
        meixner_eval(-1, 0)


def test_meixner_parity():
    # M_n(-x) == (-1)^n M_n(x)
    for n in range(31):
        for x in (1, 2, Fraction(3, 2)):
            assert meixner_eval(n, -x) == (-1) ** n * meixner_eval(n, x)


def test_terms_golden_dozen():
    assert a214615_terms(11).terms == GOLDEN_12
    assert a214615_terms(0) == SequenceTable(0, (1,))
    assert a214615_terms(1) == SequenceTable(0, (1, 1))


def test_terms_match_polynomial_evaluation():
    table = a214615_terms(60)
    for n in range(61):
        assert table.term(n) == meixner_eval(n, 1)


def test_terms_match_recurrence_unroll():
    for n_max in (1, 2, 7, 60, 500):
        assert a214615_terms(n_max) == A214615_RECURRENCE.unroll(A214615_INITIAL, n_max)


def test_egf_small_orders():
    assert build_egf(1, 0).coeffs == (Fraction(1),)
    assert build_egf(1, 3).to_text() == "1 + 1*t + 0*t^2 - 2/3*t^3 + O(t^4)"
    # x0 = 0 leaves the pure inverse-sqrt factor
    assert build_egf(0, 4).coeffs == (1, 0, Fraction(-1, 2), 0, Fraction(3, 8))


def test_egf_coefficients_are_the_terms():
    egf = build_egf(1, 40)
    assert egf.egf_terms() == a214615_terms(40)


def test_bivariate_egf_matches_meixner_values():
    for x0 in (0, 1, 2, -1, Fraction(1, 2)):
        egf = build_egf(x0, 40)
        for n in range(41):
            assert factorial(n) * egf.coefficient(n) == meixner_eval(n, x0), (x0, n)


def test_bivariate_annihilator():
    for x0 in (0, 1, 2, -1, Fraction(1, 2)):
        egf = build_egf(x0, 40)
        assert egf_annihilator(x0).apply(egf).is_zero


def test_annihilator_extraction_matches_builtin_recurrence():
    assert egf_annihilator(1).to_recurrence() == A214615_RECURRENCE


def test_half_integer_x0_is_not_an_integer_sequence():
    from holoseq.series import NonIntegerCoefficientError

    with pytest.raises(NonIntegerCoefficientError):
        build_egf(Fraction(1, 2), 8).egf_terms()


def test_build_egf_rejects_negative_order():
    with pytest.raises(ValueError):
        build_egf(1, -1)
    with pytest.raises(ValueError, match=r"^n_max must be >= 0$"):
        a214615_terms(-1)


def test_x0_must_be_int_or_fraction():
    # Fraction(0.1) would smuggle a binary approximation into the EGF, and
    # Fraction("1/2") would accept text that the exact grammar never parsed.
    for order in (0, 2):
        with pytest.raises(TypeError):
            build_egf(0.1, order)
    with pytest.raises(TypeError):
        meixner_eval(2, "1/2")
