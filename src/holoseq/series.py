"""Truncated power series with exact rational coefficients.

A ``Series`` holds the coefficients of a formal power series modulo
t^(order+1): exactly order+1 Fractions, nothing floating.  The truncation
order is part of the value.  Binary operations require both operands to be
truncated at the same order and raise ``OrderMismatchError`` otherwise;
``derivative`` lowers the order by one and ``integral`` raises it by one, so
callers re-truncate explicitly when they need aligned orders.

The two nontrivial constructions are ``exp`` and ``inverse_sqrt``:

* ``exp(g)`` with g(0) = 0 solves h' = g'h coefficient by coefficient:
  (k+1) h_{k+1} = sum_{i=0..k} (i+1) g_{i+1} h_{k-i}, h_0 = 1.
* ``inverse_sqrt(u)`` with u(0) = 1 runs J. C. P. Miller's power
  recurrence for h = u^alpha at alpha = -1/2 (Knuth, TAOCP vol. 2, 4.7):
  n h_n = sum_{k=1..n} ((alpha+1) k - n) u_k h_{n-k}, h_0 = 1, which reads
  2n h_n = sum_k (k - 2n) u_k h_{n-k} and costs O(N) per nonzero u_k.  The
  defining identity u h^2 = 1 is re-checked at full order before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .polynomials import Polynomial, RationalLike, format_rational
from .sequences import SequenceTable


class OrderMismatchError(ValueError):
    """Binary operation on series truncated at different orders."""


class ConstantTermError(ValueError):
    """Constant term violates a precondition (division, exp, inverse sqrt)."""


class NonIntegerCoefficientError(ArithmeticError):
    """n! * c_n is not an integer, so the series is not an integer EGF."""

    def __init__(self, index: int, value: Fraction):
        self.index = index
        self.value = value
        super().__init__(
            f"{index}! * c_{index} = {format_rational(value)} is not an integer"
        )


@dataclass(frozen=True)
class Series:
    """Coefficients c_0..c_N of a series truncated at order N = len - 1."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        cs = tuple(Fraction(c) for c in self.coeffs)
        if not cs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def zero(cls, order: int) -> Series:
        return cls((Fraction(0),) * (order + 1))

    @classmethod
    def one(cls, order: int) -> Series:
        return cls((Fraction(1),) + (Fraction(0),) * order)

    @classmethod
    def from_polynomial(cls, poly: Polynomial, order: int) -> Series:
        """The polynomial read mod t^(order+1); high-degree terms drop off."""
        cs = [Fraction(0)] * (order + 1)
        for k, c in enumerate(poly.coeffs[: order + 1]):
            cs[k] = c
        return cls(tuple(cs))

    @classmethod
    def from_coefficients(cls, coeffs: Iterable[RationalLike]) -> Series:
        return cls(tuple(Fraction(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside truncation order {self.order}")
        return self.coeffs[k]

    def truncated(self, order: int) -> Series:
        """Drop coefficients above ``order``; never extends."""
        if order > self.order:
            raise OrderMismatchError(
                f"cannot extend truncation order {self.order} to {order}"
            )
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        return Series(self.coeffs[: order + 1])

    def _require_same_order(self, other: Series) -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"series orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_order(other)
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> Series:
        return Series(tuple(-c for c in self.coeffs))

    def __sub__(self, other: Series) -> Series:
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_order(other)
        return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: Union[Series, RationalLike]) -> Series:
        if isinstance(other, Series):
            self._require_same_order(other)
            n = self.order
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return Series(tuple(out))
        if isinstance(other, (int, Fraction)):
            return Series(tuple(c * other for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other: RationalLike) -> Series:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other: Series) -> Series:
        """Series division; the divisor needs a nonzero constant term."""
        if not isinstance(other, Series):
            return NotImplemented
        self._require_same_order(other)
        b0 = other.coeffs[0]
        if b0 == 0:
            raise ConstantTermError("division by a series with zero constant term")
        n = self.order
        out: list[Fraction] = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for i in range(1, k + 1):
                acc -= other.coeffs[i] * out[k - i]
            out.append(acc / b0)
        return Series(tuple(out))

    def derivative(self) -> Series:
        """Formal d/dt; the truncation order drops by one."""
        if self.order < 1:
            raise ValueError("derivative needs truncation order >= 1")
        return Series(tuple((k + 1) * self.coeffs[k + 1] for k in range(self.order)))

    def integral(self) -> Series:
        """Formal antiderivative with constant term 0; order rises by one."""
        return Series(
            (Fraction(0),) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs))
        )

    def exp(self) -> Series:
        """exp of a series with zero constant term, via h' = g'h."""
        if self.coeffs[0] != 0:
            raise ConstantTermError("exp needs a zero constant term")
        g = self.coeffs
        h = [Fraction(1)]
        for k in range(self.order):
            acc = Fraction(0)
            for i in range(k + 1):
                gi = g[i + 1]
                if gi != 0:
                    acc += (i + 1) * gi * h[k - i]
            h.append(acc / (k + 1))
        return Series(tuple(h))

    def inverse_sqrt(self) -> Series:
        """u^(-1/2) for u with constant term 1, by Miller's power recurrence."""
        if self.coeffs[0] != 1:
            raise ConstantTermError("inverse sqrt needs constant term 1")
        u = [(k, c) for k, c in enumerate(self.coeffs) if k > 0 and c != 0]
        h = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k, c in u:
                if k > n:
                    break
                acc += (k - 2 * n) * c * h[n - k]
            h.append(acc / (2 * n))
        result = Series(tuple(h))
        if (self * result * result) != Series.one(self.order):
            raise ArithmeticError("inverse sqrt fixed point check failed")
        return result

    def egf_terms(self) -> SequenceTable:
        """Read the series as an EGF: the table a(n) = n! * c_n, offset 0.

        Raises NonIntegerCoefficientError at the first n where n! * c_n is
        not an integer.
        """
        terms: list[int] = []
        factorial = 1
        for n, c in enumerate(self.coeffs):
            if n > 0:
                factorial *= n
            value = factorial * c
            if value.denominator != 1:
                raise NonIntegerCoefficientError(n, value)
            terms.append(int(value))
        return SequenceTable(0, tuple(terms))

    def to_text(self, var: str = "t") -> str:
        """Canonical text, e.g. "1 + 1*t + 0*t^2 - 2/3*t^3 + O(t^4)"."""
        parts = [format_rational(self.coeffs[0])]
        for k in range(1, self.order + 1):
            c = self.coeffs[k]
            sign = "-" if c < 0 else "+"
            body = f"{format_rational(abs(c))}*{var}" if k == 1 else f"{format_rational(abs(c))}*{var}^{k}"
            parts.append(f"{sign} {body}")
        parts.append(f"+ O({var}^{self.order + 1})")
        return " ".join(parts)
