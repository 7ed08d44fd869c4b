"""Exact scalars and dense univariate polynomials over the rationals.

Scalars are plain ``int`` and ``fractions.Fraction``: arbitrary precision,
always in lowest terms with a positive denominator, and they raise
``ZeroDivisionError`` on a zero denominator.  The helpers here only add
strict decimal parsing and canonical formatting on top.

``Polynomial`` is the coefficient type used everywhere else: differential-operator
coefficients q_j(t), the falling-factorial weights of ``egf_shift_weight``, and
the ``coeffs`` view of a recurrence, whose p_k(n) are stored as integer rows.  It
shares its stored form, integer numerators over one denominator, and its sums,
negation and scalar products with ``series.Series`` through the private base
class ``_Rationals``.
Every immutable value of holoseq, ``_Rationals`` among them, gets its equality,
hash, repr and refusal of assignment from the private base class ``_Frozen``.
"""

from __future__ import annotations

import decimal
import functools
import re
import sys
import threading
from fractions import Fraction
from itertools import repeat, zip_longest
from math import gcd, lcm, prod
from typing import Callable, Iterable, Sequence, TypeVar, Union

RationalLike = Union[int, Fraction]
_Trimmed = TypeVar("_Trimmed", list, tuple)
_R = TypeVar("_R", bound="_Rationals")

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")

# Sequence terms and b-file entries routinely run to thousands of decimal digits.
_DIGIT_CAP = 2_000_000
# Calls inside the lifted cap, in any thread, and the cap the first of them found.
_cap_lock = threading.Lock()
_cap_calls = _cap_found = 0

# Exact decimal arithmetic: integer Decimals of any length, and an error instead of any rounding.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow,
           decimal.DivisionByZero],
)


def _lift_digit_cap(func: Callable) -> Callable:
    """Run ``func`` with the int<->str digit cap at >= 2,000,000; that is all it does.

    The first call in lifts the interpreter's cap and the last call out, in whichever thread,
    puts back the cap the first found, so overlapping calls from threads never leave it
    lifted, and importing holoseq changes no interpreter-wide state.  Only these are wrapped:
    the CLI's ``main``, the b-file reader (per piece), ``format_bfile`` and ``write_bfile``, the
    text parsers, ``format_rational``, the four ``to_text`` methods (``Polynomial``, ``Series``
    and the two operators, which format each coefficient with ``_ratio_text`` and
    ``_polynomial_text``, both unlifted, so that the cap is lifted once per text),
    ``RecurrenceOperator._verify_entries``, ``series._decimal_mul``, whose base-10 packing
    puts each coefficient of a long product through ``str`` and reads each back with ``int``,
    and ``_Frozen.__repr__``.
    Wrap no generator function: its body runs after the call has returned.
    Decimal arithmetic is exact only in ``_EXACT``: ``cli.main`` and ``RecurrenceOperator.verify``
    enter it as the thread's context, and ``_decimal_mul`` calls its methods directly.
    """

    @functools.wraps(func)
    def lifted(*args, **kwargs):
        global _cap_calls, _cap_found
        with _cap_lock:
            if _cap_calls == 0:
                _cap_found = getattr(sys, "get_int_max_str_digits", lambda: 0)()
                if 0 < _cap_found < _DIGIT_CAP:
                    sys.set_int_max_str_digits(_DIGIT_CAP)
            _cap_calls += 1
        try:
            return func(*args, **kwargs)
        finally:
            with _cap_lock:
                _cap_calls -= 1
                if _cap_calls == 0 and _cap_found:
                    sys.set_int_max_str_digits(_cap_found)

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


def _lowest_terms(values: Iterable[RationalLike], den: int = 1) -> tuple[tuple[int, ...], int]:
    """Integer numerators n_k and d with values[k] / den = n_k / d, d > 0 and gcd(d, *n_k) = 1.

    ``values`` are ints and Fractions; anything else is a TypeError.  Ints pass as they are,
    and the division by the content is skipped when it is 1.  With den = 0 the result is the
    positive multiple of ``values`` that is integral with content 1 (zeros stay zero), over 0.
    """
    nums = tuple(values)
    if not all(type(v) is int for v in nums):
        fractions = [_as_fraction(v) for v in nums]
        scale = lcm(*(v.denominator for v in fractions))
        nums = tuple(v.numerator * (scale // v.denominator) for v in fractions)
        den *= scale
    content = -gcd(den, *nums) if den < 0 else gcd(den, *nums)
    if content not in (0, 1):
        nums, den = tuple(v // content for v in nums), den // content
    return nums, den


def _check_int(name: str, value: object) -> None:
    """TypeError naming the argument unless ``value`` is an int; a bool is none."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int")


def _without_trailing_zeros(values: _Trimmed) -> _Trimmed:
    """``values`` up to its last true item: a row of ints without its trailing zeros, or a list
    of rows without its trailing empty ones."""
    end = len(values)
    while end and not values[end - 1]:
        end -= 1
    return values[:end]


def _taylor_shift(nums: list[int], offset: int) -> list[int]:
    """The coefficients of p(x + offset) for integer coefficients ``nums`` of p, in place."""
    n = len(nums) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            nums[j] += offset * nums[j + 1]
    return nums


def _falling_factorial(length: int) -> list[int]:
    """The integer coefficients of x(x-1)...(x-length+1), lowest first; [1] for length 0."""
    coeffs = [1]
    for i in range(length):
        # multiply by (x - i): c_k <- c_{k-1} - i*c_k
        coeffs = [a - i * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _primitive(values: Iterable[RationalLike]) -> list[int]:
    """The positive multiple of ``values`` that is integral with content 1 (zeros stay zero)."""
    return list(_lowest_terms(values, 0)[0])


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


def _polynomial_text(nums: Sequence[int], den: int, var: str) -> str:
    """Canonical ascending-power text of sum_k nums[k] / den * var^k, "0" when every nums[k]
    is 0; the one polynomial formatter, unlifted: callers lift the digit cap."""
    parts: list[tuple[bool, str]] = []
    for k, c in enumerate(nums):
        if c == 0:
            continue
        mag = _ratio_text(abs(c), den)
        if k == 0:
            body = mag
        else:
            head = "" if abs(c) == den else f"{mag}*"
            body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
        parts.append((c < 0, body))
    return _join_signed(parts) if parts else "0"


def _ratio_text(num: int, den: int) -> str:
    """num / den as canonical text, "p/q" in lowest terms or "p" when q == 1, for den > 0.

    The one rational formatter: every coefficient text and JSON list runs on the stored
    integers through here, with no Fraction.  It puts ints through ``str``, so callers lift
    the digit cap.
    """
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


@_lift_digit_cap
def format_rational(value: RationalLike) -> str:
    """Canonical text: "p/q" in lowest terms, or "p" when q == 1; anything but an int or a
    Fraction is a TypeError."""
    return _ratio_text(*_as_fraction(value).as_integer_ratio())


def _is_integer(text: str) -> bool:
    """Whether ``text`` is a decimal integer literal: at most one leading sign, then ASCII digits.

    ``bytes.isdigit`` accepts 0-9 alone, whatever the locale; the one check of such a literal."""
    digits = text[1:] if text.startswith(("+", "-")) else text
    return digits.isascii() and digits.encode().isdigit()


@_lift_digit_cap
def parse_integer(text: str) -> int:
    """Parse a decimal integer literal (optional sign, digits only)."""
    cleaned = _normalize_minus(text).strip()
    if not _is_integer(cleaned):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(cleaned)


class _Frozen:
    """An immutable value made of the attributes named in its class's ``_fields``.

    Each class's ``__init__`` stores the fields once, in ``_fields`` order, through ``_store``,
    which writes the instance dict directly; every assignment or deletion raises
    AttributeError.  Values are equal when they are of the same class and their fields are
    equal, a value of another class is ``NotImplemented``, the hash is that of the fields, and
    the repr reads ``Class(field=value, ...)``, with the digit cap lifted for long ints.
    """

    _fields: tuple[str, ...]

    def _store(self, *values: object) -> None:
        vars(self).update(zip(self._fields, values))  # past __setattr__, in one call

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    @_lift_digit_cap
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Rationals(_Frozen):
    """Rationals c_0..c_N stored as integer numerators over one denominator, c_k = _nums[k] / _den.

    _den > 0 and gcd(_den, *_nums) = 1, so equal values have equal fields and equal hashes,
    and a value never equals one of another class.  Each class's constructor takes ints and
    Fractions, or integer numerators and their private ``_den``, and stores what
    ``_lowest_terms`` makes of them.  ``coeffs`` builds the Fractions only when asked.  The
    ring operations that ``Polynomial`` and ``Series`` share run here on the numerators; each
    class adds its own products.
    """

    _fields = ("_nums", "_den")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """c_0..c_N as Fractions, built on each call."""
        return tuple(Fraction(v, self._den) for v in self._nums)

    @property
    def is_zero(self) -> bool:
        return not any(self._nums)

    def _check_operand(self, other: _R) -> None:
        """Run before ``+`` on two values of the same class; ``Series`` checks their orders."""

    def __add__(self: _R, other: _R) -> _R:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_operand(other)
        den = lcm(self._den, other._den)
        sa, sb = den // self._den, den // other._den
        pairs = zip_longest(self._nums, other._nums, fillvalue=0)
        return type(self)([a * sa + b * sb for a, b in pairs], den)

    def __neg__(self: _R) -> _R:
        return type(self)([-v for v in self._nums], self._den)

    def __sub__(self: _R, other: _R) -> _R:
        return self + (-other) if isinstance(other, type(self)) else NotImplemented

    def __mul__(self: _R, other: RationalLike) -> _R:
        """The product with an int or a Fraction scalar."""
        if isinstance(other, (int, Fraction)):
            return type(self)([v * other.numerator for v in self._nums], self._den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__


class Polynomial(_Rationals):
    """Dense univariate polynomial; coeffs[k] multiplies x^k.

    Coefficients must be ints or Fractions; anything else raises TypeError.
    Trailing zero coefficients are stripped on construction, so the zero
    polynomial has no numerators and equality is structural.
    """

    def __init__(self, coeffs: Iterable[RationalLike] = (), _den: int = 1) -> None:
        nums, den = _lowest_terms(coeffs, _den)
        self._store(_without_trailing_zeros(nums), den)

    @classmethod
    def constant(cls, value: RationalLike) -> Polynomial:
        return cls((value,))

    @classmethod
    def falling_factorial(cls, length: int) -> Polynomial:
        """x(x-1)...(x-length+1); the empty product (length 0) is 1.  A length that is a bool
        or not an int is a TypeError."""
        _check_int("length", length)
        if length < 0:
            raise ValueError("falling factorial length must be >= 0")
        return cls(_falling_factorial(length))

    @property
    def degree(self) -> Union[int, float]:
        """Degree, with float('-inf') for the zero polynomial."""
        return len(self._nums) - 1 if self._nums else float("-inf")

    def __call__(self, point: RationalLike) -> Fraction:
        acc = 0
        for c in reversed(self._nums):
            acc = acc * point + c
        return Fraction(acc, self._den)

    def __mul__(self, other: Union[Polynomial, RationalLike]) -> Polynomial:
        if not isinstance(other, Polynomial):
            return super().__mul__(other)
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [0] * (len(self._nums) + len(other._nums) - 1)
        for i, a in enumerate(self._nums):
            for j, b in enumerate(other._nums):
                out[i + j] += a * b
        return Polynomial(out, self._den * other._den)

    def __pow__(self, exponent: int) -> Polynomial:
        _check_int("exponent", exponent)
        if exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return prod(repeat(self, exponent), start=Polynomial.constant(1))

    def shifted(self, offset: RationalLike) -> Polynomial:
        """p(x + offset), expanded by the Taylor shift in place, on integers.

        With offset = a/b and n the degree, b^n p(x + a/b) = R(b x) for R(z) = Q(z + a), where
        Q(z) = b^n p(z/b) has the integer coefficients b^(n-k) c_k.
        """
        (a,), b = _lowest_terms((offset,))
        n = max(len(self._nums) - 1, 0)
        cs = _taylor_shift([c * b ** (n - k) for k, c in enumerate(self._nums)], a)
        return Polynomial([c * b**k for k, c in enumerate(cs)], self._den * b**n)

    @_lift_digit_cap
    def to_text(self, var: str = "t") -> str:
        """Canonical ascending-power text, e.g. "1 - t" or "n^2 - 2*n + 1"."""
        return _polynomial_text(self._nums, self._den, var)


#: The identity polynomial x, for building coefficients like (x - 1)^2.
X = Polynomial((0, 1))
