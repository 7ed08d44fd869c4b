import sys
from fractions import Fraction

import pytest

from holoseq.cli import main
from holoseq.meixner import A214615_RECURRENCE, egf_annihilator
from holoseq.operators import DifferentialOperator, NonIntegerTermError, RecurrenceOperator
from holoseq.parsing import (
    OperatorSyntaxError,
    parse_differential_operator,
    parse_polynomial,
    parse_recurrence,
)
from holoseq.polynomials import Polynomial, X, format_rational
from holoseq.series import NonIntegerCoefficientError, Series

ONE = Polynomial.constant(1)


def test_parse_polynomial_canonical_and_padded():
    assert parse_polynomial("1 - t") == Polynomial((1, -1))
    assert parse_polynomial("1 - t + 0*t^2") == Polynomial((1, -1))
    assert parse_polynomial("n^2 - 2*n + 1", var="n") == (X - ONE) ** 2
    assert parse_polynomial("(1-t)^2") == Polynomial((1, -2, 1))
    assert parse_polynomial("-t") == Polynomial((0, -1))
    assert parse_polynomial("3/2") == Polynomial.constant(Fraction(3, 2))


def test_parse_polynomial_round_trip():
    for p in [Polynomial((1, -1)), (X - ONE) ** 2, Polynomial((Fraction(1, 2), 0, -3))]:
        assert parse_polynomial(p.to_text(var="n"), var="n") == p


def test_parse_polynomial_rejects_foreign_symbols():
    with pytest.raises(OperatorSyntaxError):
        parse_polynomial("1 + x")
    with pytest.raises(OperatorSyntaxError):
        parse_polynomial("D + 1")
    with pytest.raises(OperatorSyntaxError):
        parse_polynomial("a(n)", var="n")


def test_parse_differential_operator_golden():
    operator = parse_differential_operator("(1+t^2)*D - (1-t)")
    assert operator == egf_annihilator(1)
    assert operator.to_text() == "(1+t^2)*D - (1-t)"


def test_parse_differential_operator_implicit_star():
    assert parse_differential_operator("(1+t^2)D - (1-t)") == egf_annihilator(1)
    assert parse_differential_operator("t^2D^2 + 1") == DifferentialOperator(
        (ONE, Polynomial(), Polynomial((0, 0, 1)))
    )


def test_parse_differential_operator_unicode_minus():
    assert parse_differential_operator("(1+t²)*D − (1−t)".replace("²", "^2")) == egf_annihilator(1)


def test_parse_differential_operator_rejects_d_times_t():
    for text in ["D*t", "D*(t*D)", "(t*D)^2", "(D+1)*(t*D)", "D^2*(t+D)"]:
        with pytest.raises(OperatorSyntaxError):
            parse_differential_operator(text)
    # constants and D itself commute with D, so these are fine
    assert parse_differential_operator("D*2") == DifferentialOperator(
        (Polynomial(), Polynomial.constant(2))
    )
    assert parse_differential_operator("D*(2*D)") == DifferentialOperator(
        (Polynomial(), Polynomial(), Polynomial.constant(2))
    )
    assert parse_differential_operator("(D)*(D+3)") == DifferentialOperator(
        (Polynomial(), Polynomial.constant(3), ONE)
    )


def test_parse_recurrence_golden():
    rec = parse_recurrence("a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2")
    assert rec == A214615_RECURRENCE
    assert rec.to_text() == "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"


def test_parse_recurrence_default_bound_is_order():
    rec = parse_recurrence("a(n) - a(n-1) + (n-1)^2*a(n-2) = 0")
    assert rec == A214615_RECURRENCE
    assert parse_recurrence("a(n) - a(n-1) = 0").n_min == 1


def test_parse_recurrence_stated_bound_survives():
    assert parse_recurrence("a(n) - a(n-1) = 0 for n >= 5").n_min == 5


def test_parse_recurrence_shifted_spelling():
    # stated bound refers to the written n and reindexes with the shifts
    rec = parse_recurrence("a(n+1) = a(n) - n^2*a(n-1) for n >= 0")
    assert rec.coeffs == A214615_RECURRENCE.coeffs
    assert rec.n_min == 1
    rec2 = parse_recurrence("a(n+1) - a(n) + n^2*a(n-1) = 0 for n >= 1")
    assert rec2 == A214615_RECURRENCE


def test_parse_recurrence_equation_moves_rhs():
    assert parse_recurrence("a(n) = a(n-1)") == parse_recurrence("a(n) - a(n-1) = 0")


def test_parse_recurrence_normalizes_rationals():
    rec = parse_recurrence("1/2*a(n) - a(n-1) = 0")
    assert rec.coeffs == (ONE, Polynomial.constant(-2))


def test_parse_recurrence_implicit_star_before_a():
    rec = parse_recurrence("a(n) - a(n-1) + (n-1)^2 a(n-2) = 0 for n >= 2")
    assert rec == A214615_RECURRENCE
    assert parse_recurrence("2a(n) - a(n-1) = 0").coeffs == (
        Polynomial.constant(2),
        -ONE,
    )


def test_parse_recurrence_nonlinear_rejected():
    with pytest.raises(OperatorSyntaxError) as info:
        parse_recurrence("a(n)*a(n-1) = 0")
    assert "nonlinear" in str(info.value)
    with pytest.raises(OperatorSyntaxError):
        parse_recurrence("a(n)^2 - a(n-1) = 0")


def test_parse_recurrence_inhomogeneous_rejected():
    with pytest.raises(OperatorSyntaxError):
        parse_recurrence("a(n) - 1 = 0")
    with pytest.raises(OperatorSyntaxError):
        parse_recurrence("a(n) = n")


def test_parse_errors_carry_positions():
    with pytest.raises(OperatorSyntaxError) as info:
        parse_recurrence("a(n) + + a(n-1) = 0")
    assert info.value.position == 7
    with pytest.raises(OperatorSyntaxError) as info:
        parse_differential_operator("(1+t^2*D")
    assert "expected ')'" in str(info.value)
    with pytest.raises(OperatorSyntaxError):
        parse_differential_operator("(1+t)/2 * D")
    with pytest.raises(OperatorSyntaxError):
        parse_recurrence("")
    with pytest.raises(OperatorSyntaxError):
        parse_differential_operator("D ? 1")


PARSE_ERRORS = [
    (parse_polynomial, "t^x", "expected an integer exponent", 2),
    (parse_differential_operator, "3/0*D", "zero denominator", 2),
    (parse_differential_operator, "3/t*D", "expected an integer denominator", 2),
    (parse_differential_operator, "D - D", "the zero operator has no order", 0),
    (parse_recurrence, "a(m) = 0", "expected 'n' inside a(...)", 2),
    (parse_recurrence, "a(n*1) = 0", "expected '+', '-' or ')' in a(...)", 3),
    (parse_recurrence, "a(n+k) = 0", "expected an integer shift in a(...)", 4),
    (parse_recurrence, "a(n) = a(n-1) for m >= 2", "expected 'n' after 'for'", 18),
    (parse_recurrence, "a(n) = a(n-1) for n >= x", "expected an integer bound", 23),
    (parse_polynomial, "1 + é", "unexpected character 'é'", 4),
    (parse_polynomial, "1 + ٣", "unexpected character '٣'", 4),
    (parse_differential_operator, "(1+t^2*D", "expected ')', found 'end'", 8),
    (parse_recurrence, "a n", "expected '(', found 'n'", 2),
    (parse_recurrence, "a(n) = a(n-1) for n 2", "expected '>=', found '2'", 20),
    (parse_recurrence, "a(n)*a(n-1) = 0", "nonlinear product of a(...) terms", 4),
    (parse_differential_operator, "D*t", "polynomial coefficients must be written to the left of D", 1),
    (parse_differential_operator, "D^2*(t+D)", "polynomial coefficients must be written to the left of D", 3),
    (parse_polynomial, "1 + x", "unknown symbol 'x'", 4),
    (parse_differential_operator, "a(n)", "unknown symbol 'a'", 0),
    (parse_recurrence, "a(n) = ", "expected a value, found 'end'", 7),
    (parse_recurrence, "a(n) + + a(n-1) = 0", "expected a value, found '+'", 7),
    (parse_differential_operator, "D 1", "unexpected trailing '1'", 2),
    (parse_polynomial, "t = 1", "unexpected trailing '='", 2),
    (parse_recurrence, "n^2 - 1 = 0", "no a(...) terms in recurrence", 0),
    (parse_recurrence, "a(n) - 1 = 0", "inhomogeneous recurrences are not supported (nonzero polynomial part)", 0),
]


@pytest.mark.parametrize("parse, text, message, position", PARSE_ERRORS, ids=[row[1] for row in PARSE_ERRORS])
def test_parse_errors_name_the_fault_and_its_position(parse, text, message, position):
    with pytest.raises(OperatorSyntaxError) as raised:
        parse(text)
    assert (str(raised.value), raised.value.position) == (f"{message} (at position {position})", position)


def test_deep_nesting_is_a_syntax_error():
    for depth in (300, 5000):
        for parse, text in (
            (parse_polynomial, "t"),
            (parse_differential_operator, "D"),
            (parse_recurrence, "a(n)"),
        ):
            with pytest.raises(OperatorSyntaxError, match="nested too deeply") as info:
                parse("(" * depth + text + ")" * depth)
            assert 0 < info.value.position < depth
        with pytest.raises(OperatorSyntaxError, match="nested too deeply") as info:
            parse_recurrence("a(n) = " + "(" * depth + "a(n-1)" + ")" * depth)
        assert 7 < info.value.position < depth + 7
    assert parse_polynomial("(" * 50 + "1 - t" + ")" * 50) == Polynomial((1, -1))
    assert parse_differential_operator("(" * 50 + "D" + ")" * 50) == DifferentialOperator((Polynomial(), ONE))
    assert parse_recurrence("(" * 50 + "a(n)" + ")" * 50 + " = a(n-1)") == parse_recurrence("a(n) = a(n-1)")


def test_parse_recurrence_requires_a_term():
    with pytest.raises(OperatorSyntaxError):
        parse_recurrence("n^2 - 1 = 0")


def test_round_trip_corpus():
    recurrences = [
        A214615_RECURRENCE,
        A214615_RECURRENCE.with_n_min(1),
        RecurrenceOperator((ONE, Polynomial.constant(-2)), 1),
        RecurrenceOperator((ONE, -X, (X + ONE) ** 2, Polynomial((1, 2, 3))), 3),
        RecurrenceOperator((Polynomial((0, 0, 1)), Polynomial((Fraction(1, 2),))), 2),
    ]
    for rec in recurrences:
        assert parse_recurrence(rec.to_text()) == rec
    operators = [
        egf_annihilator(1),
        egf_annihilator(0),
        egf_annihilator(3),
        egf_annihilator(Fraction(1, 2)),
        DifferentialOperator((Polynomial.constant(-1), ONE)),
        DifferentialOperator((ONE, Polynomial(), Polynomial((0, 0, 1)))),
        DifferentialOperator((Polynomial((0, 1)), Polynomial((2, 0, 0, -5)))),
        DifferentialOperator((ONE, Polynomial((-1, 2, -3)))),  # -(1-2*t+3*t^2)*D + 1
    ]
    for operator in operators:
        assert parse_differential_operator(operator.to_text()) == operator


def test_texts_of_5000_digit_numbers_under_the_default_cap(default_digit_cap):
    big, digits = 10**5000, "1" + "0" * 5000
    p = Polynomial((big, 0, -3))
    r = RecurrenceOperator((Polynomial((big,)), Polynomial((1, 1))), 1)
    d = DifferentialOperator((Polynomial((big,)), Polynomial((0, 1))))
    texts = [
        p.to_text(), r.to_text(), d.to_text(), Series((Fraction(big, 3),)).to_text(),
        format_rational(big), format_rational(Fraction(-1, big)),
        str(NonIntegerTermError(7, Fraction(big, 3))),
        str(NonIntegerCoefficientError(3, Fraction(-1, big))),
    ]
    assert all(digits in text for text in texts)
    assert texts[3] == f"{digits}/3 + O(t^1)" and texts[5] == f"-1/{digits}"
    assert parse_polynomial(p.to_text()) == p
    assert parse_recurrence(r.to_text()) == r
    assert parse_differential_operator(d.to_text()) == d
    assert sys.get_int_max_str_digits() == default_digit_cap


@pytest.mark.parametrize("digit", ["\u0663", "\uff13"], ids=["arabic-indic", "fullwidth"])
@pytest.mark.parametrize(
    "kind, template",
    [
        ("ode", "{}*D - t"),
        ("ode", "D - t^{}"),
        ("rec", "a(n) - a(n-{}) = 0"),
        ("rec", "a(n) - 1/{}*a(n-1) = 0"),
        ("rec", "a(n) - a(n-1) = 0 for n >= {}"),
    ],
    ids=["coefficient", "exponent", "shift", "denominator", "bound"],
)
def test_a_non_ascii_digit_is_a_syntax_error_at_its_position(capsys, digit, kind, template):
    text = template.format(digit)
    parse = parse_differential_operator if kind == "ode" else parse_recurrence
    with pytest.raises(OperatorSyntaxError) as raised:
        parse(text)
    assert raised.value.position == text.index(digit)
    argv = ["ode2rec", text] if kind == "ode" else ["generate", "--rec", text, "--init", "1", "--to", "3"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"holoseq: {raised.value}\n")
