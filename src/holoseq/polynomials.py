"""Exact scalars and dense univariate polynomials over the rationals.

Scalars are plain ``int`` and ``fractions.Fraction``: arbitrary precision,
always in lowest terms with a positive denominator, and they raise
``ZeroDivisionError`` on a zero denominator.  The helpers here only add
strict decimal parsing and canonical formatting on top.

``Polynomial`` is the coefficient type used everywhere else: recurrence
coefficients p_k(n), differential-operator coefficients q_j(t), and the
falling-factorial weights that connect the two.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

# Sequence terms and b-file entries routinely run to thousands of decimal
# digits; lift the interpreter's int<->str conversion cap high enough that
# parsing and printing them is never the thing that fails.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))

RationalLike = Union[int, Fraction]

_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")


def _normalize_minus(text: str) -> str:
    return text.replace("−", "-")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (decimal digits, optional sign) into a Fraction.

    Only integer and slash-fraction spellings are accepted; decimal points
    and exponents are rejected so the text grammar stays exact.  Every
    malformed spelling, a zero denominator included, raises ValueError.
    """
    cleaned = _normalize_minus(text).strip()
    if not _RATIONAL_RE.match(cleaned):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(cleaned)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_rational(value: RationalLike) -> str:
    """Canonical text: "p/q" in lowest terms, or "p" when q == 1."""
    return str(Fraction(value))


def parse_integer(text: str) -> int:
    """Parse a decimal integer literal (optional sign, digits only)."""
    cleaned = _normalize_minus(text).strip()
    if not _INTEGER_RE.match(cleaned):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(cleaned)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; coeffs[k] multiplies x^k.

    Trailing zero coefficients are stripped on construction, so the zero
    polynomial is the empty tuple and equality is structural.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def constant(cls, value: RationalLike) -> Polynomial:
        return cls((Fraction(value),))

    @classmethod
    def falling_factorial(cls, length: int) -> Polynomial:
        """x(x-1)...(x-length+1); the empty product (length 0) is 1."""
        if length < 0:
            raise ValueError("falling factorial length must be >= 0")
        out = cls.constant(1)
        for i in range(length):
            out = out * cls((Fraction(-i), Fraction(1)))
        return out

    @property
    def degree(self) -> Union[int, float]:
        """Degree, with float('-inf') for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, point: RationalLike) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(tuple(a[i] + b[i] if i < len(b) else a[i] for i in range(len(a))))

    def __neg__(self) -> Polynomial:
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union[Polynomial, RationalLike]) -> Polynomial:
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(tuple(out))
        if isinstance(other, (int, Fraction)):
            return Polynomial(tuple(c * other for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other: RationalLike) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        out = Polynomial.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    def shifted(self, offset: RationalLike) -> Polynomial:
        """p(x + offset), expanded."""
        out = Polynomial()
        step = Polynomial((Fraction(offset), Fraction(1)))
        for c in reversed(self.coeffs):
            out = out * step + Polynomial.constant(c)
        return out

    def to_text(self, var: str = "t", compact: bool = False) -> str:
        """Canonical ascending-power text, e.g. "1 - t" or "n^2 - 2*n + 1".

        compact=True drops the spaces around + and - (used when a polynomial
        is printed inside operator parentheses).
        """
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                head = "" if mag == 1 else f"{format_rational(mag)}*"
                body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
            parts.append(("-" if c < 0 else "+") + body)
        first = parts[0]
        text = first[1:] if first[0] == "+" else "-" + first[1:]
        sep_plus, sep_minus = ("+", "-") if compact else (" + ", " - ")
        for piece in parts[1:]:
            text += (sep_plus if piece[0] == "+" else sep_minus) + piece[1:]
        return text


#: The identity polynomial x, for building coefficients like (x - 1)^2.
X = Polynomial((Fraction(0), Fraction(1)))
