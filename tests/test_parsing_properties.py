"""Round-trip properties of the operator and recurrence text forms."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from holoseq.operators import DifferentialOperator, RecurrenceOperator
from holoseq.parsing import parse_differential_operator, parse_recurrence
from holoseq.polynomials import Polynomial

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
