"""Linear differential operators, P-recurrences, and the bridge between them.

``DifferentialOperator`` is sum_j q_j(t) D^j with polynomial coefficients,
acting on truncated series.  ``RecurrenceOperator`` is
sum_k p_k(n) a(n-k) = 0 for n >= n_min, with integer polynomial coefficients
in canonical form.  The bridge is coefficient extraction on exponential
generating functions: if F(t) = sum a(n) t^n / n! then

    [t^n / n!]  t^a F^(b)(t)  =  n (n-1) ... (n-a+1) * a(n - a + b),

so the monomial c t^a D^b contributes the weight c * fall(n, a) to the term
a(n + s) at shift s = b - a.  Collecting weights by shift and reindexing by
m = n + s_max turns an annihilating operator into a recurrence
sum_k p_k(m) a(m-k) = 0 with p_k(m) = w_{s_max-k}(m - s_max).

Index convention: a(m) is taken to be 0 for m below the table offset.  That
convention is sound for extracted recurrences because any term reaching below
index 0 carries a falling-factorial weight that vanishes there; recurrence
verification honors the same convention so that shifted variants of the same
relation (differing only in the stated validity bound) can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional, Union

from .polynomials import Polynomial, RationalLike, X, format_rational
from .sequences import SequenceTable
from .series import Series


class SingularRecurrenceError(ArithmeticError):
    """p_0(n) = 0 at an index the unroll needs to solve for."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"leading coefficient p_0({n}) = 0; cannot solve for a({n})")


class NonIntegerTermError(ArithmeticError):
    """The solved term is not an integer, so the table cannot be extended."""

    def __init__(self, n: int, value: Fraction):
        self.n = n
        self.value = value
        super().__init__(
            f"a({n}) = {format_rational(value)} is not an integer"
        )


def egf_shift_weight(t_power: int, d_order: int) -> tuple[int, Polynomial]:
    """Shift and weight contributed by t^a D^b under EGF extraction.

    Returns (b - a, fall(n, a)) where fall(n, a) = n (n-1) ... (n-a+1).
    """
    if t_power < 0 or d_order < 0:
        raise ValueError("monomial exponents must be >= 0")
    return d_order - t_power, Polynomial.falling_factorial(t_power)


def _trailer_product(
    poly: Polynomial, var: str, trailer: str
) -> tuple[bool, str]:
    """Render poly * trailer as (is_negative, unsigned_text).

    Recognizes constants and shifted powers c*(var+b)^e with integer b so
    that coefficients print as "(n-1)^2" rather than "(1-2*n+n^2)"; anything
    else falls back to a compact parenthesized polynomial.
    """
    if poly.degree <= 0:
        c = poly.coeffs[0] if poly.coeffs else Fraction(0)
        mag = format_rational(abs(c))
        if not trailer:
            return c < 0, mag
        return c < 0, trailer if abs(c) == 1 else f"{mag}*{trailer}"
    shifted = _as_shifted_power(poly)
    if shifted is not None and (shifted[2] >= 2 or shifted[1] == 0):
        c, b, e = shifted
        if b == 0:
            base = var if e == 1 else f"{var}^{e}"
        else:
            inner = f"{var}+{b}" if b > 0 else f"{var}-{-b}"
            base = f"({inner})" if e == 1 else f"({inner})^{e}"
        text = base if abs(c) == 1 else f"{format_rational(abs(c))}*{base}"
        if trailer:
            text = f"{text}*{trailer}"
        return c < 0, text
    lowest = next(c for c in poly.coeffs if c != 0)
    negative = lowest < 0
    body = (-poly if negative else poly).to_text(var, compact=True)
    text = f"({body})"
    if trailer:
        text = f"{text}*{trailer}"
    return negative, text


def _as_shifted_power(poly: Polynomial) -> Optional[tuple[Fraction, int, int]]:
    """Decompose poly as c * (x + b)^e with integer b, e >= 1, if possible."""
    deg = poly.degree
    if not isinstance(deg, int) or deg < 1:
        return None
    c = poly.coeffs[-1]
    b = poly.coeffs[deg - 1] / (c * deg)
    if b.denominator != 1:
        return None
    if poly == (X + Polynomial.constant(b)) ** deg * c:
        return c, int(b), deg
    return None


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    negative, text = parts[0]
    out = ("-" if negative else "") + text
    for negative, text in parts[1:]:
        out += (" - " if negative else " + ") + text
    return out


@dataclass(frozen=True)
class DifferentialOperator:
    """sum_j coeffs[j] * D^j with polynomial coefficients in t.

    The leading coefficient is nonzero (trailing zero polynomials are
    trimmed; the zero operator is rejected).
    """

    coeffs: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        cs = tuple(
            c if isinstance(c, Polynomial) else Polynomial.constant(c)
            for c in self.coeffs
        )
        while cs and cs[-1].is_zero:
            cs = cs[:-1]
        if not cs:
            raise ValueError("the zero operator has no order; refusing to build it")
        object.__setattr__(self, "coeffs", cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: DifferentialOperator) -> DifferentialOperator:
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = tuple(a[j] + b[j] if j < len(b) else a[j] for j in range(len(a)))
        return DifferentialOperator(merged)

    def apply(self, f: Series) -> Series:
        """Apply to a truncated series.

        D^j is exact only mod t^(N-j+1), so the result is truncated at
        N - order; f must be truncated at order >= the operator order.
        """
        if f.order < self.order:
            raise ValueError(
                f"series order {f.order} is below the operator order {self.order}"
            )
        out_order = f.order - self.order
        result = Series.zero(out_order)
        d = f
        for j, q in enumerate(self.coeffs):
            if j > 0:
                d = d.derivative()
            if not q.is_zero:
                result = result + Series.from_polynomial(q, out_order) * d.truncated(out_order)
        return result

    def to_recurrence(self) -> RecurrenceOperator:
        """The recurrence satisfied by EGF coefficient tables this kills.

        Expands every monomial c t^a D^b into its shift/weight pair,
        collects weights by shift, and reindexes so the recurrence reads
        sum_k p_k(n) a(n-k) = 0.  The validity bound n_min is the recurrence
        order: the smallest n at which no referenced index is negative.
        """
        weights: dict[int, Polynomial] = {}
        for j, q in enumerate(self.coeffs):
            for a_pow, c in enumerate(q.coeffs):
                if c == 0:
                    continue
                shift, weight = egf_shift_weight(a_pow, j)
                weights[shift] = weights.get(shift, Polynomial()) + weight * c
        return RecurrenceOperator.from_shift_weights(weights)

    def to_text(self, var: str = "t") -> str:
        """Canonical text, highest derivative first: "(1+t^2)*D - (1-t)"."""
        parts: list[tuple[bool, str]] = []
        for j in range(self.order, -1, -1):
            q = self.coeffs[j]
            if q.is_zero:
                continue
            trailer = "" if j == 0 else ("D" if j == 1 else f"D^{j}")
            parts.append(_trailer_product(q, var, trailer))
        return _join_signed(parts)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a recurrence against a table.

    The scan runs n = max(n_min, offset) upward and stops at the first
    failure, so n_last_checked is the last index actually evaluated.
    passed is True exactly when first_failure is None.
    """

    passed: bool
    n_first_checked: int
    n_last_checked: int
    first_failure: Optional[tuple[int, int]]


@dataclass(frozen=True)
class RecurrenceOperator:
    """sum_k coeffs[k](n) * a(n-k) = 0 for all n >= n_min.

    Canonical form, enforced on construction: integer coefficients with
    overall content 1, no trailing zero polynomial, p_0 nonzero, and the
    leading coefficient of p_0 positive.  Equality of two operators is
    structural equality of the canonical form plus the n_min bound.
    """

    coeffs: tuple[Polynomial, ...]
    n_min: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_min, int):
            raise TypeError("n_min must be an int")
        cs = tuple(
            c if isinstance(c, Polynomial) else Polynomial.constant(c)
            for c in self.coeffs
        )
        while cs and cs[-1].is_zero:
            cs = cs[:-1]
        if not cs or cs[0].is_zero:
            raise ValueError("the coefficient p_0 of a(n) must be nonzero")
        denominators = [c.denominator for p in cs for c in p.coeffs]
        scale = Fraction(lcm(*denominators)) if denominators else Fraction(1)
        numerators = [int(c * scale) for p in cs for c in p.coeffs if c != 0]
        content = gcd(*numerators)
        scale /= content
        if cs[0].coeffs[-1] * scale < 0:
            scale = -scale
        object.__setattr__(self, "coeffs", tuple(p * scale for p in cs))

    @classmethod
    def from_coefficients(
        cls,
        coeffs: tuple[Polynomial, ...],
        n_min: Optional[int] = None,
    ) -> RecurrenceOperator:
        """Build with n_min defaulting to the (trimmed) order."""
        trimmed = list(coeffs)
        while trimmed and (
            trimmed[-1].is_zero
            if isinstance(trimmed[-1], Polynomial)
            else trimmed[-1] == 0
        ):
            trimmed.pop()
        if n_min is None:
            n_min = max(len(trimmed) - 1, 0)
        return cls(tuple(trimmed), n_min)

    @classmethod
    def from_shift_weights(
        cls,
        weights: Mapping[int, Union[Polynomial, RationalLike]],
        valid_from: Optional[int] = None,
    ) -> RecurrenceOperator:
        """Build from sum_s w_s(n) a(n+s) = 0 by reindexing at m = n + s_max.

        p_k(m) = w_{s_max - k}(m - s_max).  If the source relation is valid
        for n >= valid_from, the result carries n_min = valid_from + s_max;
        with no bound given, n_min defaults to the recurrence order (the
        smallest m at which no referenced index is negative for offset-0
        tables).
        """
        polys = {
            s: (w if isinstance(w, Polynomial) else Polynomial.constant(w))
            for s, w in weights.items()
        }
        nonzero = {s: w for s, w in polys.items() if not w.is_zero}
        if not nonzero:
            raise ValueError("all shift weights are zero; no recurrence to build")
        s_max, s_min = max(nonzero), min(nonzero)
        order = s_max - s_min
        coeffs = tuple(
            nonzero.get(s_max - k, Polynomial()).shifted(-s_max)
            for k in range(order + 1)
        )
        n_min = order if valid_from is None else valid_from + s_max
        return cls(coeffs, n_min)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.coeffs if not p.is_zero)

    def order_degree(self) -> tuple[int, int]:
        return self.order, self.degree

    def with_n_min(self, n_min: int) -> RecurrenceOperator:
        """The same relation with a different stated validity bound."""
        return RecurrenceOperator(self.coeffs, n_min)

    def _int_rows(self) -> list[list[int]]:
        return [[int(c) for c in p.coeffs] for p in self.coeffs]

    @staticmethod
    def _eval_int(row: list[int], n: int) -> int:
        acc = 0
        for c in reversed(row):
            acc = acc * n + c
        return acc

    def unroll(self, initial: SequenceTable, n_max: int) -> SequenceTable:
        """Extend the initial terms through index n_max by solving for a(n).

        The first solved index offset + len(initial) must be >= n_min;
        indices below the offset contribute zero.  Raises
        SingularRecurrenceError where p_0 vanishes and NonIntegerTermError
        when the solved value is not an integer.
        """
        if n_max < initial.offset:
            raise ValueError(f"n_max {n_max} is below the table offset {initial.offset}")
        if n_max <= initial.last_index:
            return initial.prefix(n_max)
        start = initial.last_index + 1
        if start < self.n_min:
            raise ValueError(
                f"initial terms end at {initial.last_index} but the recurrence "
                f"only holds for n >= {self.n_min}"
            )
        rows = self._int_rows()
        offset = initial.offset
        terms = list(initial.terms)
        for n in range(start, n_max + 1):
            lead = self._eval_int(rows[0], n)
            if lead == 0:
                raise SingularRecurrenceError(n)
            acc = 0
            for k in range(1, self.order + 1):
                m = n - k
                if m < offset:
                    continue
                acc += self._eval_int(rows[k], n) * terms[m - offset]
            quotient, remainder = divmod(-acc, lead)
            if remainder != 0:
                raise NonIntegerTermError(n, Fraction(-acc, lead))
            terms.append(quotient)
        return SequenceTable(offset, tuple(terms))

    def verify(self, table: SequenceTable) -> VerifyReport:
        """Check the recurrence at every n from max(n_min, offset) up.

        Indices below the offset count as zero.  Stops at the first nonzero
        residual and reports it as (n, residual).
        """
        start = max(self.n_min, table.offset)
        end = table.last_index
        if start > end:
            raise ValueError(
                f"table ends at {end}, before the first checkable index {start}"
            )
        rows = self._int_rows()
        offset = table.offset
        for n in range(start, end + 1):
            residual = 0
            for k in range(self.order + 1):
                m = n - k
                if m < offset:
                    continue
                coeff = self._eval_int(rows[k], n)
                if coeff != 0:
                    residual += coeff * table.terms[m - offset]
            if residual != 0:
                return VerifyReport(False, start, n, (n, residual))
        return VerifyReport(True, start, end, None)

    def to_text(self) -> str:
        """Canonical text: "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"."""
        parts: list[tuple[bool, str]] = []
        for k, p in enumerate(self.coeffs):
            if p.is_zero:
                continue
            trailer = "a(n)" if k == 0 else f"a(n-{k})"
            parts.append(_trailer_product(p, "n", trailer))
        return f"{_join_signed(parts)} = 0 for n >= {self.n_min}"
