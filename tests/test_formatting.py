"""Coefficient text and JSON lists against renderings of the coefficients' Fractions written here.

The library formats every rational from its stored integers; the renderings here go through
``str(Fraction)`` alone, as the library did before, and so check the lowest-terms reduction,
signs, unit coefficients and the digit cap independently.
"""

import json
import random
import re
import sys
from fractions import Fraction
from math import comb

import pytest

from holoseq.cli import main
from holoseq.meixner import build_egf
from holoseq.operators import DifferentialOperator, RecurrenceOperator
from holoseq.parsing import parse_differential_operator
from holoseq.polynomials import Polynomial, X, format_rational
from holoseq.series import Series

HUGE = Fraction(10**4400 + 7, 3)  # a numerator past CPython's default cap of 4300 digits


def uncapped(render, *args):
    """render(*args) with the digit cap lifted, for the renderings and argv built here."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def random_rational(rng) -> Fraction:
    """Zero, or a signed ratio whose denominator is often > 1 and often not in lowest terms."""
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 4, 6, 9, 1000003)))


def joined(parts: list[tuple[bool, str]]) -> str:
    (negative, text), *rest = parts
    return ("-" if negative else "") + text + "".join(
        (" - " if negative else " + ") + text for negative, text in rest
    )


def polynomial_text(coeffs: list[Fraction], var: str = "t") -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c != 0:
            power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
            head = str(abs(c)) if k == 0 else "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append((c < 0, head + power))
    return joined(parts) if parts else "0"


def series_text(coeffs: list[Fraction]) -> str:
    powers = ["", "*t"] + [f"*t^{k}" for k in range(2, len(coeffs))]
    parts = [(c < 0, str(abs(c)) + power) for c, power in zip(coeffs, powers)]
    return joined(parts + [(False, f"O(t^{len(coeffs)})")])


def coefficient_text(coeffs: list[Fraction], var: str, trailer: str) -> tuple[bool, str]:
    """c * trailer for a constant c; c*(var+b)^e * trailer for integer b with e >= 2 or b = 0;
    else the parenthesized polynomial, its lowest nonzero coefficient made positive."""
    tail = f"*{trailer}" if trailer else ""
    if len(coeffs) <= 1:
        c = coeffs[0] if coeffs else Fraction(0)
        if not trailer:
            return c < 0, str(abs(c))
        return c < 0, trailer if abs(c) == 1 else f"{abs(c)}*{trailer}"
    e, c = len(coeffs) - 1, coeffs[-1]
    b = coeffs[-2] / (e * c)
    expanded = [c * comb(e, k) * b ** (e - k) for k in range(e + 1)]
    if b.denominator == 1 and expanded == coeffs and (e >= 2 or b == 0):
        inner = var if b == 0 else f"{var}+{b}" if b > 0 else f"{var}-{-b}"
        base = inner if b == 0 else f"({inner})"
        base = base if e == 1 else f"{base}^{e}"
        return c < 0, (base if abs(c) == 1 else f"{abs(c)}*{base}") + tail
    negative = next(v for v in coeffs if v) < 0
    body = polynomial_text([-v if negative else v for v in coeffs], var).replace(" ", "")
    return negative, f"({body}){tail}"


def operator_text(operator: DifferentialOperator) -> str:
    parts = []
    for j in range(operator.order, -1, -1):
        q = list(operator.coeffs[j].coeffs)
        if q:
            parts.append(coefficient_text(q, "t", "" if j == 0 else "D" if j == 1 else f"D^{j}"))
    return joined(parts)


def recurrence_text(rec: RecurrenceOperator) -> str:
    parts = [coefficient_text(list(p.coeffs), "n", "a(n)" if k == 0 else f"a(n-{k})")
             for k, p in enumerate(rec.coeffs) if not p.is_zero]
    return f"{joined(parts)} = 0 for n >= {rec.n_min}"


def random_polynomial(rng, degree: int) -> Polynomial:
    """Random rationals, or c * (x + b)^e with rational c and integer b, so that both branches
    of the operators' coefficient text are reached."""
    if rng.random() < 0.4:
        c = random_rational(rng) or Fraction(-5, 4)
        b, e = rng.randint(-3, 3), rng.randint(1, 3)
        return Polynomial([c * comb(e, k) * b ** (e - k) for k in range(e + 1)])
    return Polynomial([random_rational(rng) for _ in range(rng.randint(0, degree) + 1)])


def nonzero_polynomial(rng) -> Polynomial:
    p = random_polynomial(rng, 3)
    return Polynomial((1,)) if p.is_zero else p


def random_operators(rng, count: int) -> list[DifferentialOperator]:
    operators = []
    for _ in range(count):
        coeffs = [random_polynomial(rng, 3) for _ in range(rng.randint(1, 3))]
        operators.append(DifferentialOperator((*coeffs, nonzero_polynomial(rng))))
    huge = Polynomial((HUGE, 0, -HUGE / 5))
    operators.append(DifferentialOperator((Polynomial((Fraction(1, 2),)), huge, Polynomial((0, HUGE)))))
    return operators


def test_format_rational_and_both_to_texts_match_fraction_renderings(default_digit_cap):
    rng = random.Random(2303)
    values = [random_rational(rng) for _ in range(300)] + [HUGE, -HUGE, Fraction(0), 7, -1]
    for value in values:
        assert format_rational(value) == uncapped(str, Fraction(value))
    for _ in range(200):
        coeffs = [random_rational(rng) for _ in range(rng.randint(1, 8))]
        coeffs += [HUGE] * (rng.random() < 0.1)
        polynomial, series = Polynomial(coeffs), Series(coeffs)
        assert polynomial.to_text("n") == uncapped(polynomial_text, list(polynomial.coeffs), "n")
        assert series.to_text() == uncapped(series_text, list(series.coeffs))
    assert Polynomial().to_text() == "0"


def test_both_operators_to_text_match_fraction_renderings(default_digit_cap):
    rng = random.Random(2304)
    rational_powers = integer_powers = 0  # c*(x+b)^e with c a fraction, or an integer other than 1
    for operator in random_operators(rng, 150):
        text = operator.to_text()
        assert text == uncapped(operator_text, operator)
        rational_powers += bool(re.search(r"/[0-9]+\*\(t[+-][0-9]\)\^", text))
        rec = operator.to_recurrence()
        assert rec.to_text() == uncapped(recurrence_text, rec)
    for _ in range(100):
        coeffs = (nonzero_polynomial(rng), random_polynomial(rng, 3), Polynomial((HUGE, 1)))
        rec = RecurrenceOperator(coeffs, 2)
        text = rec.to_text()
        assert text == uncapped(recurrence_text, rec)
        integer_powers += bool(re.search(r"[0-9]\*\(n[+-][0-9]\)\^", text))
    assert rational_powers > 10 and integer_powers > 10


def test_json_coefficient_lists_match_fraction_renderings(default_digit_cap, capsys):
    rng = random.Random(2305)
    x0s = [random_rational(rng) for _ in range(8)] + [HUGE]
    for x0 in x0s:
        argv = uncapped(lambda: ["series", f"--x0={x0}", "--to", str(rng.randint(0, 12)), "--json"])
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        egf = build_egf(x0, payload["order"])
        assert payload["coefficients"] == uncapped(lambda: [str(c) for c in egf.coeffs])
    for operator in random_operators(rng, 20):
        text = operator.to_text()
        assert main(["ode2rec", text, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rec = parse_differential_operator(text).to_recurrence()
        expected = uncapped(lambda: [[str(c) for c in p.coeffs] for p in rec.coeffs])
        assert payload["coefficients"] == expected
        assert payload["text"] == uncapped(recurrence_text, rec)


def power(c, b, e):
    """c*(t+b)^e as a Polynomial."""
    return X.shifted(b) ** e * c


@pytest.mark.parametrize("coeffs, text", [
    ((-1, 1), "D - 1"),  # unit constants of both signs, with and without a trailer
    ((1, -1), "-D + 1"),
    ((5, -3, 2), "2*D^2 - 3*D + 5"),  # non-unit constants of both signs
    ((Fraction(-3, 4), Fraction(1, 2)), "1/2*D - 3/4"),
    ((X, X * X), "t^2*D + t"),
    ((-X, X * X * 2), "2*t^2*D - t"),
    ((power(-5, -1, 3), power(3, 2, 2)), "3*(t+2)^2*D - 5*(t-1)^3"),
    ((power(Fraction(3, 5), -1, 2), 0, power(Fraction(3, 5), -1, 2)), "3/5*(t-1)^2*D^2 + 3/5*(t-1)^2"),
    ((power(-1, 2, 2), power(1, -3, 4)), "(t-3)^4*D - (t+2)^2"),
    ((power(1, 1, 1), power(1, -1, 1)), "-(1-t)*D + (1+t)"),  # (t+b) at e = 1: the fallback
    ((Polynomial((1, 2, -1)), Polynomial((-2, 0, -3))), "-(2+3*t^2)*D + (1+2*t-t^2)"),
    ((1, 0, 0, 1), "D^3 + 1"),  # zero coefficients between orders
])
def test_differential_operator_text_of_each_shape(coeffs, text):
    assert DifferentialOperator(coeffs).to_text() == text
    assert parse_differential_operator(text).to_text() == text
