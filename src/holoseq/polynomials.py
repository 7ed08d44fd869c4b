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

import functools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Union

RationalLike = Union[int, Fraction]

_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")

# Sequence terms and b-file entries routinely run to thousands of decimal digits.
_DIGIT_CAP = 2_000_000


def _lift_digit_cap(func: Callable) -> Callable:
    """Run ``func`` with the interpreter's int<->str digit cap at >= 2,000,000, then restore it.

    Only the entry points that parse or print whole terms are wrapped, so importing holoseq
    changes no interpreter-wide state.  Wrap no generator function: its body runs after the
    call has returned.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the cap
        return func

    @functools.wraps(func)
    def lifted(*args, **kwargs):
        limit = sys.get_int_max_str_digits()
        if 0 < limit < _DIGIT_CAP:
            sys.set_int_max_str_digits(_DIGIT_CAP)
        try:
            return func(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(limit)

    return lifted


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    """Join (is_negative, unsigned_text) pairs as canonical text: "-a + b - c"."""
    (negative, text), *rest = parts
    return ("-" if negative else "") + text + "".join(
        (" - " if negative else " + ") + text for negative, text in rest
    )


def _normalize_minus(text: str) -> str:
    return text.replace("−", "-")


def _as_fraction(value: RationalLike) -> Fraction:
    """``value`` as a Fraction; anything but an int or a Fraction is a TypeError.

    ``Fraction`` itself also accepts floats and decimal strings, which would
    smuggle binary approximations (0.1 -> .../2^55) into exact arithmetic.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or a Fraction, got {type(value).__name__} {value!r}")


def _over_common_denominator(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators n_k and the least d > 0 with values[k] = n_k / d."""
    # ints already carry .numerator and .denominator
    fracs = [v if isinstance(v, int) else _as_fraction(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _primitive(values: Iterable[RationalLike]) -> list[int]:
    """The positive multiple of ``values`` that is integral with content 1 (zeros stay zero)."""
    numerators, _ = _over_common_denominator(values)
    content = gcd(*numerators)
    return [v // content for v in numerators] if content else numerators


@_lift_digit_cap
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


@_lift_digit_cap
def parse_integer(text: str) -> int:
    """Parse a decimal integer literal (optional sign, digits only)."""
    cleaned = _normalize_minus(text).strip()
    if not _INTEGER_RE.match(cleaned):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(cleaned)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; coeffs[k] multiplies x^k.

    Coefficients must be ints or Fractions; anything else raises TypeError.
    Trailing zero coefficients are stripped on construction, so the zero
    polynomial is the empty tuple and equality is structural.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(_as_fraction(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def constant(cls, value: RationalLike) -> Polynomial:
        return cls((value,))

    @classmethod
    def falling_factorial(cls, length: int) -> Polynomial:
        """x(x-1)...(x-length+1); the empty product (length 0) is 1."""
        if length < 0:
            raise ValueError("falling factorial length must be >= 0")
        coeffs = [1]
        for i in range(length):
            # multiply by (x - i): c_k <- c_{k-1} - i*c_k
            coeffs = [a - i * b for a, b in zip([0] + coeffs, coeffs + [0])]
        return cls(tuple(coeffs))

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
        """p(x + offset), expanded by the Taylor shift in place."""
        a = _as_fraction(offset)
        cs = list(self.coeffs)
        for i in range(len(cs) - 1):
            for j in range(len(cs) - 2, i - 1, -1):
                cs[j] += a * cs[j + 1]
        return Polynomial(tuple(cs))

    def to_text(self, var: str = "t") -> str:
        """Canonical ascending-power text, e.g. "1 - t" or "n^2 - 2*n + 1"."""
        if self.is_zero:
            return "0"
        parts: list[tuple[bool, str]] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                head = "" if mag == 1 else f"{format_rational(mag)}*"
                body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
            parts.append((c < 0, body))
        return _join_signed(parts)


#: The identity polynomial x, for building coefficients like (x - 1)^2.
X = Polynomial((Fraction(0), Fraction(1)))
