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
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .polynomials import (
    Polynomial, RationalLike, _join_signed, _lift_digit_cap, _primitive, format_rational
)
from .sequences import SequenceTable
from .series import Series


class SingularRecurrenceError(ArithmeticError):
    """p_0(n) = 0 at an index the unroll needs to solve for."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"leading coefficient p_0({n}) = 0; cannot solve for a({n})")


class NonIntegerTermError(ArithmeticError):
    """The solved term is not an integer, so the table cannot be extended."""

    @_lift_digit_cap
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
    else falls back to the parenthesized polynomial with its spaces dropped.
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
    body = (-poly if negative else poly).to_text(var).replace(" ", "")
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
    # p = c*(x+b)^e exactly when p(x-b) is the monomial c*x^e
    if poly.shifted(-b).coeffs[:-1] == (0,) * deg:
        return c, int(b), deg
    return None


def _as_polynomials(
    values: Iterable[Union[Polynomial, RationalLike]]
) -> tuple[Polynomial, ...]:
    """The values as Polynomials, constants lifted, trailing zeros trimmed."""
    cs = [v if isinstance(v, Polynomial) else Polynomial.constant(v) for v in values]
    while cs and cs[-1].is_zero:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class DifferentialOperator:
    """sum_j coeffs[j] * D^j with polynomial coefficients in t.

    The leading coefficient is nonzero (trailing zero polynomials are
    trimmed; the zero operator is rejected).
    """

    coeffs: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        cs = _as_polynomials(self.coeffs)
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
        sum_k p_k(n) a(n-k) = 0.  Extraction proves it for n >= 0 before reindexing,
        so n_min = max(order, s_max): the order unless every monomial has b > a
        (D^2 - D, which kills 5 + e^t, gives a(n) = a(n-1) only for n >= 2).
        """
        weights: dict[int, Polynomial] = {}
        for j, q in enumerate(self.coeffs):
            for a_pow, c in enumerate(q.coeffs):
                if c == 0:
                    continue
                shift, weight = egf_shift_weight(a_pow, j)
                weights[shift] = weights.get(shift, Polynomial()) + weight * c
        return RecurrenceOperator.from_shift_weights(weights, max(0, -min(weights)))

    def to_text(self) -> str:
        """Canonical text, highest derivative first: "(1+t^2)*D - (1-t)"."""
        parts: list[tuple[bool, str]] = []
        for j in range(self.order, -1, -1):
            q = self.coeffs[j]
            if q.is_zero:
                continue
            trailer = "" if j == 0 else ("D" if j == 1 else f"D^{j}")
            parts.append(_trailer_product(q, "t", trailer))
        return _join_signed(parts)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a recurrence against a table.

    The scan runs n = max(n_min, offset) upward and stops at the first
    failure, so n_last_checked is the last index actually evaluated.
    """

    n_first_checked: int
    n_last_checked: int
    first_failure: Optional[tuple[int, int]]

    @property
    def passed(self) -> bool:
        return self.first_failure is None


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
        cs = _as_polynomials(self.coeffs)
        if not cs or cs[0].is_zero:
            raise ValueError("the coefficient p_0 of a(n) must be nonzero")
        sign = 1 if cs[0].coeffs[-1] > 0 else -1
        flat = iter(_primitive([c for p in cs for c in p.coeffs]))
        canonical = tuple(Polynomial(tuple(sign * next(flat) for _ in p.coeffs)) for p in cs)
        object.__setattr__(self, "coeffs", canonical)

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
        # a zero weight trims to the empty tuple
        nonzero = {s: p for s, w in weights.items() for p in _as_polynomials((w,))}
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

    def with_n_min(self, n_min: int) -> RecurrenceOperator:
        """The same relation with a different stated validity bound."""
        return RecurrenceOperator(self.coeffs, n_min)

    def _steps(
        self, terms: Sequence[int], offset: int, start: int, stop: int
    ) -> Iterator[tuple[int, int, int]]:
        """Yield (n, p_0(n), s(n)) for n = start..stop, s(n) = -sum_{k>=1} p_k(n) a(n-k).

        a(m) = terms[m - offset], zero below the offset (unroll appends a(n) before n + 1).
        Integer Horner on the canonical rows; zero values are skipped, +-1 needs no multiply.
        """
        lead, *others = ([int(c) for c in reversed(p.coeffs)] for p in self.coeffs)
        rows = [(k, [-c for c in row]) for k, row in enumerate(others, 1) if row]
        for n in range(start, stop + 1):
            p0 = 0
            for c in lead:
                p0 = p0 * n + c
            s = None
            for k, row in rows:
                v = 0
                for c in row:
                    v = v * n + c
                if v == 0 or n - k < offset:
                    continue
                a = terms[n - k - offset]
                if s is None:  # start at the first term, not at 0 + term
                    s = a if v == 1 else -a if v == -1 else v * a
                else:
                    s = s + a if v == 1 else s - a if v == -1 else s + v * a
            yield n, p0, 0 if s is None else s

    def unroll(self, initial: SequenceTable, n_max: int) -> SequenceTable:
        """Extend the initial terms through index n_max by solving p_0(n) a(n) = s(n).

        s(n) comes from ``_steps``, and a(n) = s(n) outright when p_0(n) = 1.
        The first solved index offset + len(initial) must be >= n_min; indices
        below the offset contribute zero.  Raises SingularRecurrenceError where
        p_0 vanishes and NonIntegerTermError when s(n)/p_0(n) is not an integer.
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
        terms = list(initial.terms)
        for n, lead, s in self._steps(terms, initial.offset, start, n_max):
            if lead == 0:
                raise SingularRecurrenceError(n)
            quotient, remainder = (s, 0) if lead == 1 else divmod(s, lead)
            if remainder != 0:
                raise NonIntegerTermError(n, Fraction(s, lead))
            terms.append(quotient)
        return SequenceTable(initial.offset, tuple(terms))

    def verify(self, table: SequenceTable) -> VerifyReport:
        """Compare p_0(n) a(n) with s(n) of ``_steps`` at every n >= max(n_min, offset).

        Indices below the offset count as zero.  Stops at the first mismatch and
        reports (n, residual), the full residual p_0(n) a(n) - s(n).
        """
        start = max(self.n_min, table.offset)
        end = table.last_index
        if start > end:
            raise ValueError(f"table ends at {end}, before the first checkable index {start}")
        for n, lead, s in self._steps(table.terms, table.offset, start, end):
            a = table.terms[n - table.offset]
            if (a if lead == 1 else lead * a) != s:
                return VerifyReport(start, n, (n, lead * a - s))
        return VerifyReport(start, end, None)

    def verify_windows(self, tables: Iterable[SequenceTable]) -> VerifyReport:
        """``verify`` of the whole table that ``windows(entries, self.order)`` cut into ``tables``.

        Each index is checked on the first table that holds it, through the ``order`` terms
        that table carries before it.  Every table is read, also after a failure, so that a
        b-file reader checks its input to the end.
        """
        start = end = report = None
        for table in tables:
            start = max(self.n_min, table.offset if end is None else end + 1)
            end = table.last_index
            if start <= end and (report is None or report.passed):
                part = self.with_n_min(start).verify(table)
                first = start if report is None else report.n_first_checked
                report = VerifyReport(first, part.n_last_checked, part.first_failure)
            del table  # hold no table while the next one is read
        if report is None:  # then start is the whole table's max(n_min, offset)
            raise ValueError(f"table ends at {end}, before the first checkable index {start}")
        return report

    def to_text(self) -> str:
        """Canonical text: "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"."""
        parts: list[tuple[bool, str]] = []
        for k, p in enumerate(self.coeffs):
            if p.is_zero:
                continue
            trailer = "a(n)" if k == 0 else f"a(n-{k})"
            parts.append(_trailer_product(p, "n", trailer))
        return f"{_join_signed(parts)} = 0 for n >= {self.n_min}"
