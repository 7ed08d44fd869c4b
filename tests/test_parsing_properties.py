"""Round-trip properties of the operator and recurrence text forms; the integer-literal check."""

import re

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from holoseq.operators import DifferentialOperator, RecurrenceOperator
from holoseq.parsing import parse_differential_operator, parse_recurrence
from holoseq.polynomials import Polynomial, _is_integer

# derandomized and small, so the suite stays deterministic and fast
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polynomials = st.lists(rationals, max_size=4).map(lambda cs: Polynomial(tuple(cs)))
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero)


@PROPERTY
@given(st.lists(polynomials, max_size=3), nonzero_polynomials)
def test_differential_operator_text_round_trip(lower, top):
    operator = DifferentialOperator((*lower, top))
    assert parse_differential_operator(operator.to_text()) == operator


@PROPERTY
@given(nonzero_polynomials, st.lists(polynomials, max_size=3), st.integers(-3, 10))
def test_recurrence_text_round_trip(p0, rest, n_min):
    rec = RecurrenceOperator((p0, *rest), n_min)
    assert parse_recurrence(rec.to_text()) == rec


# ASCII digits, signs, what int() or Decimal() would also read (_ . e space), and digits of
# other scripts (Arabic-Indic, superscript, NKo, fullwidth) that str.isdigit accepts.
LITERAL_ALPHABET = "0123456789+-_.e \u0663\u00b2\u07c0\uff12"


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.text(LITERAL_ALPHABET, max_size=6))
@example("")
@example("+")
@example("+-1")
@example("--1")
@example("1\uff12")
@example("\u00b2")
def test_is_integer_is_an_optional_sign_then_ascii_digits(text):
    assert _is_integer(text) == (re.fullmatch(r"[+-]?[0-9]+", text) is not None)
