"""Truncated power series with exact rational coefficients.

A ``Series`` holds the coefficients of a formal power series modulo
t^(order+1): exactly order+1 rationals, nothing floating (construction
accepts only ints and Fractions).  The truncation order is part of the value.
Binary operations require both operands to be truncated at the same order and
raise ``OrderMismatchError`` otherwise; ``derivative`` lowers the order by one
and ``integral`` raises it by one, so callers re-truncate explicitly when they
need aligned orders.

A series is stored as the kernels use it, in the form it shares with
``Polynomial`` (``polynomials._Rationals``): integer numerators over one
positive denominator, in lowest terms.  Each kernel reads the numerators, runs
on plain ints with no gcd in the inner loop, and hands its integer results and
their one denominator to the constructor, which reduces them by one gcd:

* ``a * b`` is one big-integer multiply by Kronecker substitution (Harvey,
  J. Symb. Comp. 2009, for the technique): each operand is packed into one
  number with a fixed-width slot per coefficient, wide enough for any product
  coefficient plus a sign, and the low slots of the product are read back.
  Short products pack in bytes into an int (CPython's Karatsuba); long ones
  pack in decimal digits, through ``str``, into a ``decimal.Decimal``, whose
  libmpdec multiply is a number-theoretic transform.  CPython 3.12's
  ``Lib/_pylong.py`` uses decimal for the same reason.
* ``a / b`` and ``exp`` each solve a recurrence term by term (``_solve``):
  (a_0 + n s) h_n + sum_{k=1..n} a_k h_{n-k} = r_n with integer a_k, r_n and one integer
  slope s, for n >= first, h_n given below.  It runs on the integers q h_n, with q the product
  of the leads a_0 + n s over n = first..N; each step's division is exact, since by induction
  h_n times the leads up to n is an integer.  Division h = f / g has a_k = g_k, s = 0 and
  r_n = f_n, so q = g_0^(N+1).  ``exp(g)``, h' = g'h, is n d h_n = sum_k E_k h_{n-k} with
  E_k / d the coefficients of t g'(t) over their own least denominator, so a_k = -E_k, s = d
  and q = N! d^N.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence, Union

from .polynomials import (
    _EXACT, Polynomial, RationalLike, _join_signed, _lift_digit_cap, _lowest_terms, _ratio_text,
    _Rationals, _without_trailing_zeros, format_rational,
)
from .sequences import SequenceTable


class OrderMismatchError(ValueError):
    """Binary operation on series truncated at different orders."""


class ConstantTermError(ValueError):
    """Constant term violates a precondition (division, exp)."""


class NonIntegerCoefficientError(ArithmeticError):
    """n! * c_n is not an integer, so the series is not an integer EGF."""

    def __init__(self, index: int, value: Fraction):
        self.index = index
        self.value = value
        super().__init__(
            f"{index}! * c_{index} = {format_rational(value)} is not an integer"
        )


# Products whose shorter operand packs into at least this many bits (after its trailing zero
# coefficients are dropped) run on decimal, smaller ones on int.  CPython's int multiply is
# Karatsuba; libmpdec's is a number-theoretic transform, which wins once it outweighs the
# base-10 packing's str/int conversions.  On a 2-vCPU Xeon with Python 3.11, decimal took
# 1.09x the int time at 92,000 bits (151 slots of 300-bit coefficients) and 0.75-0.78x at
# 122,000 bits (61 to 201 slots).
_DECIMAL_MIN_BITS = 100_000


def _kronecker_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The low len(a) coefficients of the integer polynomial product a * b.

    Both have the same length L.  Trailing zero coefficients are dropped first, so a
    polynomial operand packs short.  Every product coefficient is at most
    bound = min(la, lb) * max|a| * max|b| in magnitude (la, lb the trimmed lengths), so slots
    wide enough for 2 * bound hold them without overlap, and the packed product is one big
    multiply: in bytes on int (``_binary_mul``) or in decimal digits on ``decimal``
    (``_decimal_mul``), whichever is faster for the shorter operand's packed size.
    """
    length = len(a)
    a, b = _without_trailing_zeros(a), _without_trailing_zeros(b)
    if not a or not b:
        return [0] * length
    shorter = min(len(a), len(b))
    bound = max(map(abs, a)) * max(map(abs, b)) * shorter
    if shorter * (bound.bit_length() + 1) < _DECIMAL_MIN_BITS:
        return _binary_mul(a, b, length, bound)
    return _decimal_mul(a, b, length, bound)


def _binary_mul(a: Sequence[int], b: Sequence[int], length: int, bound: int) -> list[int]:
    """``_kronecker_mul`` with a byte-aligned slot of bound's bits and a sign bit per coefficient.

    The signed packed product is reduced mod 2^(slot * length), which drops the high slots
    whatever their sign; adding half a slot to every low slot then makes each one
    nonnegative, so the slots are read back without borrows.
    """
    size = bound.bit_length() // 8 + 1
    mask = (1 << (8 * size * length)) - 1
    half = 1 << (8 * size - 1)
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * length, "little")
    low = (((_pack(a, size) * _pack(b, size)) & mask) + bias) & mask
    data = low.to_bytes(size * length, "little")
    return [int.from_bytes(data[i : i + size], "little") - half for i in range(0, len(data), size)]


def _pack(values: Sequence[int], size: int) -> int:
    """sum_k values[k] * 256^(size*k), for |values[k]| < 256^size."""
    zero = bytes(size)
    pos = b"".join(v.to_bytes(size, "little") if v > 0 else zero for v in values)
    neg = b"".join((-v).to_bytes(size, "little") if v < 0 else zero for v in values)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


@_lift_digit_cap
def _decimal_mul(a: Sequence[int], b: Sequence[int], length: int, bound: int) -> list[int]:
    """``_kronecker_mul`` with one slot of ``width`` decimal digits per coefficient, on libmpdec.

    Coefficients go through ``str`` into the slots, and each operand becomes one Decimal, so
    no int is converted to Decimal (quadratic) and no long int to str.  bound has at most
    bits * log10(2) + 1 digits, so bound < 10^(width-1) < half = 5 * 10^(width-1).  The
    product has la + lb - 1 slots, so 10^(width * max(la + lb - 1, length)) exceeds it in
    magnitude.  Adding that power and half to each of the low ``length`` slots makes the
    number positive and each low slot hold c_k + half in (0, 10^width), so the low slots are
    read back from its string without borrows.  Every operation is a method of the library's
    one exact context, ``polynomials._EXACT``, which traps Inexact and Rounded, so the
    thread's decimal context is neither used nor changed.
    """
    width = bound.bit_length() * 30103 // 100000 + 2  # log10(2) < 0.30103
    product = _EXACT.multiply(_pack10(a, width), _pack10(b, width))
    half = "5" + "0" * (width - 1)
    high = "1" + "0" * (width * max(len(a) + len(b) - 1 - length, 0))
    total = _EXACT.add(product, _EXACT.create_decimal(high + half * length))
    del product
    digits = _EXACT.to_sci_string(total)[-width * length :]
    del total
    offset = int(half)
    return [int(digits[i - width : i]) - offset for i in range(len(digits), 0, -width)]


def _pack10(values: Sequence[int], width: int) -> decimal.Decimal:
    """sum_k values[k] * 10^(width*k) as a Decimal, for |values[k]| < 10^width."""
    zeros = "0" * width
    pos = "".join(str(v).zfill(width) if v > 0 else zeros for v in reversed(values))
    neg = "".join(str(-v).zfill(width) if v < 0 else zeros for v in reversed(values))
    return _EXACT.subtract(_EXACT.create_decimal(pos), _EXACT.create_decimal(neg))


def _solve(a: Sequence[int], slope: int, r: Sequence[int], first: int) -> tuple[list[int], int]:
    """q h_0..q h_N and q = prod_{n=first..N} (a_0 + n slope), for the h with
    (a_0 + n slope) h_n + sum_{k=1..n} a_k h_{n-k} = r_n at n = first..N and h_n = r_n below
    first.  Only the nonzero a_k are visited."""
    lead = a[0]
    q = prod(lead + n * slope for n in range(first, len(r)))
    terms = [(k, c) for k, c in enumerate(a) if k and c]
    h = [q * v for v in r[:first]]
    for n in range(first, len(r)):
        acc = q * r[n]
        for k, c in terms:
            if k > n:
                break
            acc -= c * h[n - k]
        h.append(acc // (lead + n * slope))
    return h, q


class Series(_Rationals):
    """Coefficients c_0..c_N of a series truncated at order N = len - 1.

    ``Series(coeffs)`` takes ints and Fractions, at least one; the kernels pass integer
    numerators and their private ``_den``.  The stored form and the sums, negation and scalar
    products are those of ``polynomials._Rationals``; a sum checks the orders first.
    """

    def __init__(self, coeffs: Iterable[RationalLike], _den: int = 1) -> None:
        nums, den = _lowest_terms(coeffs, _den)
        if not nums:
            raise ValueError("a truncated series needs at least the constant term")
        self._store(nums, den)

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order: int) -> Series:
        return cls((1,) + (0,) * order)

    @classmethod
    def from_polynomial(cls, poly: Polynomial, order: int) -> Series:
        """The polynomial read mod t^(order+1); high-degree terms drop off."""
        return cls((poly._nums + (0,) * (order + 1))[: order + 1], poly._den)

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside truncation order {self.order}")
        return Fraction(self._nums[k], self._den)

    def truncated(self, order: int) -> Series:
        """Drop coefficients above ``order``; never extends."""
        if order > self.order:
            raise OrderMismatchError(
                f"cannot extend truncation order {self.order} to {order}"
            )
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        return Series(self._nums[: order + 1], self._den)

    def _check_operand(self, other: Series) -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __mul__(self, other: Union[Series, RationalLike]) -> Series:
        """Product mod t^(N+1), by one big-number multiply (Kronecker substitution).

        Cost: one multiply of two numbers of about N * (bits of both numerators + log2 N)
        bits (an int, or a Decimal from about 10^5 bits on), and one gcd chain to reduce the
        result.  A polynomial operand packs short, which makes the multiply linear in N.
        """
        if not isinstance(other, Series):
            return super().__mul__(other)
        self._check_operand(other)
        return Series(_kronecker_mul(self._nums, other._nums), self._den * other._den)

    def __truediv__(self, other: Series) -> Series:
        """Series division; the divisor needs a nonzero constant term.

        On numerators f/df and g/dg, the quotient times df is the h of ``_solve`` with
        a_k = g_k, slope 0 and r_n = dg f_n: O(N * nnz g) integer operations.
        """
        if not isinstance(other, Series):
            return NotImplemented
        self._check_operand(other)
        if other._nums[0] == 0:
            raise ConstantTermError("division by a series with zero constant term")
        nums, q = _solve(other._nums, 0, [other._den * v for v in self._nums], 0)
        return Series(nums, self._den * q)

    def derivative(self) -> Series:
        """Formal d/dt; the truncation order drops by one."""
        if self.order < 1:
            raise ValueError("derivative needs truncation order >= 1")
        return Series([k * v for k, v in enumerate(self._nums) if k], self._den)

    def integral(self) -> Series:
        """Formal antiderivative with constant term 0; order rises by one."""
        scale = lcm(*range(1, self.order + 2))
        nums = [v * (scale // (k + 1)) for k, v in enumerate(self._nums)]
        return Series([0] + nums, self._den * scale)

    def exp(self) -> Series:
        """exp of a series with zero constant term, via h' = g'h.

        Solved by ``_solve`` with slope d, the denominator of t g'(t) reduced on its own, over
        q = N! d^N (module docstring): O(N^2) multiplies, skipping the zero coefficients of g'.
        """
        if self._nums[0] != 0:
            raise ConstantTermError("exp needs a zero constant term")
        t_dg = Series([k * v for k, v in enumerate(self._nums)], self._den)
        return Series(*_solve([-e for e in t_dg._nums], t_dg._den, [1] + [0] * self.order, 1))

    def egf_terms(self) -> SequenceTable:
        """Read the series as an EGF: the table a(n) = n! * c_n, offset 0.

        Raises NonIntegerCoefficientError at the first n where n! * c_n is
        not an integer.
        """
        terms: list[int] = []
        factorial = 1
        for n, v in enumerate(self._nums):
            if n > 0:
                factorial *= n
            term, rest = divmod(factorial * v, self._den)
            if rest:
                raise NonIntegerCoefficientError(n, Fraction(factorial * v, self._den))
            terms.append(term)
        return SequenceTable(0, tuple(terms))

    @_lift_digit_cap
    def to_text(self) -> str:
        """Canonical text, e.g. "1 + 1*t + 0*t^2 - 2/3*t^3 + O(t^4)"."""
        powers = ["", "*t"] + [f"*t^{k}" for k in range(2, self.order + 1)]
        den = self._den
        parts = [(v < 0, _ratio_text(abs(v), den) + power) for v, power in zip(self._nums, powers)]
        parts.append((False, f"O(t^{self.order + 1})"))
        return _join_signed(parts)
