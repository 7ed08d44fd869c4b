"""Value semantics of holoseq's immutable classes: repr, equality, hash, immutability, keywords."""

import copy
import pickle
from fractions import Fraction

import pytest

from holoseq import (
    BFileDocument,
    DifferentialOperator,
    Polynomial,
    RecurrenceOperator,
    SequenceTable,
    Series,
    VerifyReport,
)
from holoseq.meixner import A214615_RECURRENCE, a214615_terms
from holoseq.polynomials import format_rational

TABLE = "SequenceTable(offset=1, terms=(2, 3))"
P_ONE = "Polynomial(_nums=(1,), _den=1)"
P_MINUS_ONE = "Polynomial(_nums=(-1,), _den=1)"

# Each value is built twice, so equality never rests on identity; its repr; its fields in order.
VALUES = [
    pytest.param(lambda: Polynomial((1, Fraction(1, 2))), "Polynomial(_nums=(2, 1), _den=2)",
                 ("_nums", "_den"), id="Polynomial"),
    pytest.param(lambda: Series((1, Fraction(1, 3), 0)), "Series(_nums=(3, 1, 0), _den=3)",
                 ("_nums", "_den"), id="Series"),
    pytest.param(lambda: SequenceTable(0, [1, 1, 0]), "SequenceTable(offset=0, terms=(1, 1, 0))",
                 ("offset", "terms"), id="SequenceTable"),
    pytest.param(lambda: BFileDocument(SequenceTable(1, (2, 3)), "A214615"),
                 f"BFileDocument(entries={TABLE}, sequence_id='A214615')",
                 ("entries", "sequence_id"), id="BFileDocument"),
    pytest.param(lambda: DifferentialOperator((Polynomial((1, 0, 1)), -1, Polynomial())),
                 f"DifferentialOperator(coeffs=(Polynomial(_nums=(1, 0, 1), _den=1), {P_MINUS_ONE}))",
                 ("coeffs",), id="DifferentialOperator"),
    pytest.param(lambda: RecurrenceOperator((Polynomial((-2,)), 2), 1),
                 f"RecurrenceOperator(coeffs=({P_ONE}, {P_MINUS_ONE}), n_min=1)",
                 ("coeffs", "n_min"), id="RecurrenceOperator"),
    pytest.param(lambda: RecurrenceOperator((1, -1), 1).verify(SequenceTable(0, (1, 1, 2))),
                 "VerifyReport(n_first_checked=1, n_last_checked=2, first_failure=(2, 1))",
                 ("n_first_checked", "n_last_checked", "first_failure"), id="VerifyReport"),
]


@pytest.mark.parametrize("make, text, fields", VALUES)
def test_value_repr_equality_hash_and_immutability(make, text, fields):
    value = make()
    assert repr(value) == text
    assert list(vars(value)) == list(fields)
    assert hash(value) == hash(tuple(getattr(value, name) for name in fields))
    for twin in (make(), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin is not value
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert repr(twin) == text
    assert value != 1 and not value == 1
    for name in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("make, text, fields", VALUES)
def test_value_takes_no_new_attribute(make, text, fields):
    # Every name is refused, not only the fields; Polynomial and Series, which subclass the
    # private _Rationals, included.
    value = make()
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        value.extra = 1
    assert list(vars(value)) == list(fields)


def test_values_of_different_classes_never_compare_equal():
    assert Polynomial((1,)) != Series((1,))
    assert Series((1,)) != Polynomial((1,))
    assert Polynomial((1, 2)) != Polynomial((1, 3))
    assert SequenceTable(0, (1,)) != SequenceTable(1, (1,))
    assert DifferentialOperator((1,)) != RecurrenceOperator((1,), 0)


def test_constructors_take_their_parameters_by_keyword():
    table = SequenceTable(offset=0, terms=(1, 1, 0))
    assert table == SequenceTable(0, (1, 1, 0))
    document = BFileDocument(entries=table, sequence_id="A214615")
    assert document == BFileDocument(table, "A214615")
    assert BFileDocument(entries=table).sequence_id is None
    rec = RecurrenceOperator(coeffs=(Polynomial((1,)), -1), n_min=1)
    assert rec == RecurrenceOperator((1, -1), 1)
    assert DifferentialOperator(coeffs=(1, 1)) == DifferentialOperator((1, 1))
    assert VerifyReport(n_first_checked=1, n_last_checked=2, first_failure=None).passed
    assert Polynomial(coeffs=(1, 2)) == Polynomial((1, 2))
    assert Series(coeffs=(1, 2)) == Series((1, 2))


def test_repr_of_values_beyond_the_default_digit_cap(default_digit_cap):
    # format_rational lifts the cap itself, so it spells out the expected reprs here.
    big = 10**4400 + 7
    table = a214615_terms(3000)
    series = Series((Fraction(1, 3), big))
    report = A214615_RECURRENCE.verify(table.replaced(2999, 0))
    n, residual = report.first_failure
    assert abs(residual).bit_length() > default_digit_cap * 3.33  # beyond 4300 digits
    terms = ", ".join(map(format_rational, table.terms))
    assert repr(table) == f"SequenceTable(offset=0, terms=({terms}))"
    assert repr(series) == f"Series(_nums=(1, {format_rational(3 * big)}), _den=3)"
    assert repr(report) == (
        f"VerifyReport(n_first_checked=2, n_last_checked=2999, "
        f"first_failure=(2999, {format_rational(residual)}))"
    )
