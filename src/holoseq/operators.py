"""Linear differential operators, P-recurrences, and the bridge between them.

``DifferentialOperator`` is sum_j q_j(t) D^j with polynomial coefficients,
acting on truncated series.  ``RecurrenceOperator`` is
sum_k p_k(n) a(n-k) = 0 for n >= n_min, stored as its canonical integer rows:
``_rows[k]`` holds the integer coefficients of p_k, lowest power first, and all
the rows together have content 1.  Its ``coeffs`` are Polynomials built from the
rows only when asked.  The bridge is coefficient extraction on exponential
generating functions: if F(t) = sum a(n) t^n / n! then

    [t^n / n!]  t^a F^(b)(t)  =  n (n-1) ... (n-a+1) * a(n - a + b),

so the monomial c t^a D^b contributes the weight c * fall(n, a) to the term
a(n + s) at shift s = b - a.  Collecting weights by shift and reindexing by
m = n + s_max turns an annihilating operator into a recurrence
sum_k p_k(m) a(m-k) = 0 with p_k(m) = w_{s_max-k}(m - s_max).  Both steps run
on plain int rows: each monomial adds c * fall(n, a) into its shift's row of
integer numerators, and one reindexing routine, which ``from_shift_weights``
shares, Taylor-shifts each row and hands the rows to the operator.  No
``Polynomial`` is built on the way.  One routine, ``_canonicalize``, turns
integer rows into the stored form; the constructor, the reindexing,
``guess_recurrence`` and ``with_n_min`` all build through it.  The constructor,
``from_shift_weights`` and ``to_recurrence`` clear their coefficients to integer
rows over one denominator by one helper, ``_cleared``.

Coefficient text is formatted from the stored integers, the rows of a
recurrence and the numerators and denominator of each q_j, with no Fraction or
Polynomial per coefficient, by one shape rule: a shifted power c*(var+b)^e, a constant
being e = 0, prints as "c*(n-1)^2", its magnitude left out when it is 1 and
something follows it; any other coefficient, (var+b) itself among them, prints
as its parenthesized polynomial, "(1+n)".  Both ``to_text`` methods join their
signed parts in one loop, ``_signed_text``.

Index convention: a(m) is taken to be 0 for m below the table offset.  That
convention is sound for extracted recurrences because any term reaching below
index 0 carries a falling-factorial weight that vanishes there; recurrence
verification honors the same convention so that shifted variants of the same
relation (differing only in the stated validity bound) can be checked.

Sequence terms are ints.  The one walk, ``_steps``, behind ``unroll``, ``verify``
and ``guess_recurrence`` also takes integer ``decimal.Decimal`` terms (exponent
0), as the CLI writes b-files and checks them, since it only adds, multiplies,
divides with remainder and compares them; they are exact only in an exact
context (``_EXACT`` in ``polynomials``), which ``verify`` and the CLI enter.
The CLI's ``verify`` and ``selfcheck --against`` pass each term as its checked
b-file text, which the walk takes as the solved term where it reads as that
term's ``str``, and converts to a ``Decimal`` everywhere else.
"""

from __future__ import annotations

from collections import deque
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain, count, islice, zip_longest
from math import comb, lcm
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .polynomials import (
    _EXACT, Polynomial, RationalLike, _check_int, _falling_factorial, _Frozen, _join_signed,
    _lift_digit_cap, _lowest_terms, _polynomial_text, _primitive, _ratio_text, _taylor_shift,
    _without_trailing_zeros, format_rational,
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

    def __init__(self, n: int, value: Fraction):
        self.n = n
        self.value = value
        super().__init__(
            f"a({n}) = {format_rational(value)} is not an integer"
        )


def egf_shift_weight(t_power: int, d_order: int) -> tuple[int, Polynomial]:
    """Shift and weight contributed by t^a D^b under EGF extraction.

    Returns (b - a, fall(n, a)) where fall(n, a) = n (n-1) ... (n-a+1): the one-monomial,
    public form of the integer row that ``DifferentialOperator.to_recurrence`` adds.  An
    exponent that is a bool or not an int is a TypeError, a negative one a ValueError.
    """
    _check_int("t_power", t_power)
    _check_int("d_order", d_order)
    if t_power < 0 or d_order < 0:
        raise ValueError("monomial exponents must be >= 0")
    return d_order - t_power, Polynomial(_falling_factorial(t_power))


def _reindexed(rows: Mapping[int, list[int]], valid_from: Optional[int]) -> RecurrenceOperator:
    """The recurrence of sum_s w_s(n) a(n+s) = 0 for n >= valid_from, where ``rows[s]`` holds
    the integer coefficients of w_s, lowest first; the rows are shifted in place.

    The recurrence spans the shifts s_min..s_max of the nonzero rows: the row of each such s,
    an empty one where ``rows`` has none, goes to k = s_max - s and is Taylor-shifted to
    p_k(m) = w_s(m - s_max), and the operator is built once from the p_k.  n_min is
    valid_from + s_max, or the order s_max - s_min when ``valid_from`` is None.
    """
    shifts = [s for s, row in rows.items() if any(row)]
    if not shifts:
        raise ValueError("all shift weights are zero; no recurrence to build")
    s_max, s_min = max(shifts), min(shifts)
    coeffs = [_taylor_shift(rows.get(s, []), -s_max) for s in range(s_max, s_min - 1, -1)]
    n_min = s_max - s_min if valid_from is None else valid_from + s_max
    return RecurrenceOperator._from_rows(coeffs, n_min)


def _steps(
    coeffs: Sequence[Sequence[int]], before: Sequence[int], start: int
) -> Iterator[tuple[int, int, int]]:
    """Yield (n, p_0(n), s(n)) for n = start, start + 1, ..., s(n) = -sum_{k>=1} p_k(n) a(n-k),
    where ``coeffs[k]`` holds the integer coefficients of p_k, lowest first.

    The one walk of a recurrence over a table: ``unroll``, ``verify`` and ``guess_recurrence``
    all evaluate through it.  a(n-k) is ``before[-k]`` when n is reached, so the caller appends
    a(n) to ``before`` between steps; a term that ``before`` does not reach (k > len(before))
    is zero, as below a table's offset.  Integer Horner on the rows; zero values are skipped,
    +-1 needs no multiply.
    """
    lead, *others = (row[::-1] for row in coeffs)
    rows = [(k, [-c for c in row]) for k, row in enumerate(others, 1) if any(row)]
    for n in count(start):
        p0 = 0
        for c in lead:
            p0 = p0 * n + c
        s = None
        for k, row in rows:
            v = 0
            for c in row:
                v = v * n + c
            if v == 0 or k > len(before):
                continue
            a = before[-k]
            if s is None:  # start at the first term, not at 0 + term
                s = a if v == 1 else -a if v == -1 else v * a
            else:
                s = s + a if v == 1 else s - a if v == -1 else s + v * a
        yield n, p0, 0 if s is None else s


def _cleared(values: Iterable[Union[Polynomial, RationalLike]]) -> list[Sequence[int]]:
    """The values as integer rows over their least common denominator, lowest power first.

    Polynomials give their numerators, ints and Fractions a row of one (anything else is a
    TypeError); each row is scaled to the one denominator, which is then dropped.  A row that
    needs no scaling is the value's own tuple.
    """
    parts = [(v._nums, v._den) if isinstance(v, Polynomial) else _lowest_terms((v,)) for v in values]
    den = lcm(*[d for _, d in parts])
    return [nums if d == den else [c * (den // d) for c in nums] for nums, d in parts]


def _signed_text(triples: Iterable[tuple[Sequence[int], int, str]], var: str) -> str:
    """Canonical text of the sum of nums / den * trailer over (nums, den, trailer) triples, where
    nums holds a coefficient's integer numerators, lowest power first; zero ones are skipped."""
    return _join_signed([_trailer_product(*triple, var) for triple in triples if triple[0]])


def _trailer_product(nums: Sequence[int], den: int, trailer: str, var: str) -> tuple[bool, str]:
    """Render nums / den * trailer as (is_negative, unsigned_text), for nonzero trimmed nums.

    A shifted power c*(var+b)^e with integer b, constants (e = 0) included, prints as
    "c*(n-1)^2", the magnitude left out when it is 1 and something follows it.  c is the
    leading numerator and e the degree; the next numerator, c * e * b, gives b, and the
    expansion c * C(e, k) * b^(e-k) decides.  Anything else, (var+b) itself among it, falls
    back to the parenthesized polynomial with its spaces dropped, "(1+n)", printed from the
    negated numerators where the lowest nonzero one is negative.
    """
    e, c = len(nums) - 1, nums[-1]
    b, rest = divmod(nums[e - 1], c * e) if e else (0, 0)
    if rest or e == 1 and b or any(v != c * comb(e, k) * b ** (e - k) for k, v in enumerate(nums)):
        negative = next(v for v in nums if v) < 0
        shown = _polynomial_text([-v for v in nums] if negative else nums, den, var)
        text = f"({shown.replace(' ', '')})"
    else:
        negative = c < 0
        text = "" if e == 0 else var if b == 0 else f"({var}+{b})" if b > 0 else f"({var}-{-b})"
        if e > 1:
            text = f"{text}^{e}"
        if abs(c) != den or not (text or trailer):
            mag = _ratio_text(abs(c), den)
            text = f"{mag}*{text}" if text else mag
    if trailer:
        text = f"{text}*{trailer}" if text else trailer
    return negative, text


class DifferentialOperator(_Frozen):
    """sum_j coeffs[j] * D^j with polynomial coefficients in t.

    The leading coefficient is nonzero (trailing zero polynomials are
    trimmed; the zero operator is rejected).
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[Union[Polynomial, RationalLike]]) -> None:
        cs = [v if isinstance(v, Polynomial) else Polynomial.constant(v) for v in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        if not cs:
            raise ValueError("the zero operator has no order; refusing to build it")
        self._store(tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: DifferentialOperator) -> DifferentialOperator:
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=Polynomial())
        return DifferentialOperator(a + b for a, b in pairs)

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

        Each monomial c t^a D^b, with c a numerator of the q_j scaled to their common
        denominator, adds c * fall(n, a) into the int row of its shift b - a (the weight
        of ``egf_shift_weight``, with no Polynomial built); the reindexing that
        ``from_shift_weights`` shares turns the rows into sum_k p_k(n) a(n-k) = 0 and
        builds the operator once.  Extraction proves it for n >= 0 before reindexing,
        so n_min = max(order, s_max): the order unless every monomial has b > a
        (D^2 - D, which kills 5 + e^t, gives a(n) = a(n-1) only for n >= 2).
        """
        rows: dict[int, list[int]] = {}
        for b, q in enumerate(_cleared(self.coeffs)):  # a common scale leaves the recurrence as it is
            for a, c in enumerate(q):
                if c:
                    row = zip_longest(rows.get(b - a, ()), _falling_factorial(a), fillvalue=0)
                    rows[b - a] = [v + c * w for v, w in row]
        return _reindexed(rows, max(0, -min(rows)))

    @_lift_digit_cap
    def to_text(self) -> str:
        """Canonical text, highest derivative first: "(1+t^2)*D - (1-t)"."""
        triples = [(q._nums, q._den, f"D^{j}" if j > 1 else "D" if j else "")
                   for j, q in enumerate(self.coeffs)]
        return _signed_text(reversed(triples), "t")


class VerifyReport(_Frozen):
    """Outcome of checking a recurrence against a table.

    The scan runs n = max(n_min, offset) upward and stops at the first
    failure, so n_last_checked is the last index actually evaluated.
    """

    _fields = ("n_first_checked", "n_last_checked", "first_failure")

    def __init__(
        self, n_first_checked: int, n_last_checked: int, first_failure: Optional[tuple[int, int]]
    ) -> None:
        self._store(n_first_checked, n_last_checked, first_failure)

    @property
    def passed(self) -> bool:
        return self.first_failure is None


class RecurrenceOperator(_Frozen):
    """sum_k coeffs[k](n) * a(n-k) = 0 for all n >= n_min.

    Stored as its canonical integer rows, ``_rows[k]`` the coefficients of p_k, lowest power
    first, with no trailing zero in a row and no trailing zero row, p_0 nonzero, the leading
    coefficient of p_0 positive and overall content 1; ``coeffs`` builds the Polynomials only
    when asked.  Equality of two operators is structural equality of the rows plus the n_min
    bound.
    """

    _fields = ("_rows", "n_min")

    def __init__(self, coeffs: Iterable[Union[Polynomial, RationalLike]], n_min: int) -> None:
        self._canonicalize(_cleared(coeffs), n_min)

    @classmethod
    def _from_rows(cls, rows: Sequence[Sequence[int]], n_min: int) -> RecurrenceOperator:
        """The operator of integer rows p_0, p_1, ..., lowest power first, with no Polynomial
        built: how ``_reindexed``, ``guess_recurrence`` and ``with_n_min`` build one."""
        return cls.__new__(cls)._canonicalize(rows, n_min)

    def _canonicalize(self, rows: Sequence[Sequence[int]], n_min: int) -> RecurrenceOperator:
        """Store the canonical form of integer rows p_0, p_1, ... and n_min, and return self: the
        one canonicalization.  Trailing zeros and zero rows are trimmed, p_0 = 0 is a ValueError,
        and the rows, flattened and signed so that p_0 leads positive, are divided by their
        content.  An n_min that is a bool or not an int is a TypeError."""
        _check_int("n_min", n_min)
        rows = _without_trailing_zeros([_without_trailing_zeros(row) for row in rows])
        if not rows or not rows[0]:
            raise ValueError("the coefficient p_0 of a(n) must be nonzero")
        sign = 1 if rows[0][-1] > 0 else -1
        flat = iter(_primitive([sign * c for row in rows for c in row]))
        self._store(tuple(tuple(islice(flat, len(row))) for row in rows), n_min)
        return self

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
        tables).  The weights are cleared to one denominator as int rows, which
        the reindexing of ``to_recurrence`` Taylor-shifts and builds into the
        operator once.  A shift or ``valid_from`` that is a bool or not an int is
        a TypeError.
        """
        for s in weights:
            _check_int(f"shift {s!r}", s)
        if valid_from is not None:
            _check_int("valid_from", valid_from)
        rows = {s: list(row) for s, row in zip(weights, _cleared(weights.values()))}
        return _reindexed(rows, valid_from)

    @property
    def coeffs(self) -> tuple[Polynomial, ...]:
        """p_0, p_1, ... as Polynomials, built on each call."""
        return tuple(map(Polynomial, self._rows))

    @property
    def order(self) -> int:
        return len(self._rows) - 1

    @property
    def degree(self) -> int:
        return max(map(len, self._rows)) - 1

    def with_n_min(self, n_min: int) -> RecurrenceOperator:
        """The same relation with a different stated validity bound."""
        return RecurrenceOperator._from_rows(self._rows, n_min)

    def _unrolled(self, initial: Iterable[int], offset: int) -> Iterator[tuple[int, int]]:
        """(n, a(n)) for n >= offset without end: the ``initial`` terms, then the solved ones;
        holds ``order`` terms; see ``unroll``.  Raises ValueError on reaching the first index
        to solve if it is below n_min."""
        before: deque[int] = deque(maxlen=self.order)
        start = offset
        for a in initial:
            yield start, a
            before.append(a)
            start += 1
        if start < self.n_min:
            raise ValueError(
                f"initial terms end at {start - 1} but the recurrence "
                f"only holds for n >= {self.n_min}"
            )
        for n, lead, s in _steps(self._rows, before, start):
            if lead == 0:
                raise SingularRecurrenceError(n)
            quotient, remainder = (s, 0) if lead == 1 else divmod(s, lead)
            if remainder != 0:
                raise NonIntegerTermError(n, Fraction(int(s), lead))
            before.append(quotient)
            yield n, quotient

    def unroll(self, initial: SequenceTable, n_max: int) -> SequenceTable:
        """The initial terms extended through index n_max by solving p_0(n) a(n) = s(n).

        The table is the first n_max + 1 - offset entries of ``_unrolled``, with s(n) from
        ``_steps`` and a(n) = s(n) outright when p_0(n) = 1.  The first solved index
        offset + len(initial) must be >= n_min; indices below the offset contribute zero.
        Raises SingularRecurrenceError where p_0 vanishes and NonIntegerTermError when
        s(n)/p_0(n) is not an integer, and TypeError for an n_max that is a bool or not an int.
        """
        _check_int("n_max", n_max)
        if n_max < initial.offset:
            raise ValueError(f"n_max {n_max} is below the table offset {initial.offset}")
        entries = islice(self._unrolled(initial.terms, initial.offset), n_max + 1 - initial.offset)
        return SequenceTable(initial.offset, tuple(a for _, a in entries))

    def verify(self, entries: Union[SequenceTable, Iterable[tuple[int, int]]]) -> VerifyReport:
        """Compare p_0(n) a(n) with s(n) of ``_steps`` at every n >= max(n_min, offset).

        ``entries`` is a table, or consecutive (n, a(n)) pairs with the first at the offset;
        the walk holds ``order`` terms, and raises ValueError at an index that does not
        follow the one before it.  Indices below the offset count as zero.  Checks stop at
        the first mismatch, reported as (n, residual), the full residual p_0(n) a(n) - s(n),
        but every entry is read, so that a b-file reader checks its input to the end.
        """
        items = entries.items() if isinstance(entries, SequenceTable) else entries
        with localcontext(_EXACT):  # Decimal terms are exact only in this context
            return self._verify_entries(items)

    @_lift_digit_cap
    def _verify_entries(
        self, entries: Iterable[tuple[int, object]], _value: Optional[Callable] = None
    ) -> VerifyReport:
        """``verify`` of (n, a(n)) entries, in the caller's decimal context.  The CLI streams
        through this name, inside ``main``'s ``_EXACT``: perfbench's by-name probe of ``verify``
        reads the ``terms`` of its argument.

        With ``_value`` (the CLI's ``verify`` and ``selfcheck --against`` pass ``Decimal``),
        each a(n) is the checked text of an integer literal.  At a checked n where s(n)/p_0(n)
        is an integer q whose ``str`` is that text, a(n) is q, unconverted; every other text is
        ``_value`` of it.  Equal text is an equal value, so the report is the one of the
        converted terms.  After the first failure such text is only read: each later entry gets
        its index check, with no conversion and no window append."""
        entries = iter(entries)
        offset, _ = first = next(entries, (None, None))
        if offset is None:
            raise ValueError("a sequence table needs at least one term")
        start, last, failure = max(self.n_min, offset), offset - 1, None
        before: deque[int] = deque(maxlen=self.order)
        steps = _steps(self._rows, before, start)
        for n, a in chain([first], entries):
            if n != last + 1:
                raise ValueError(f"index {n} does not follow {last}")
            last = n
            if failure is not None and _value is not None:
                continue  # checked text after a failure is only read
            _, lead, s = next(steps) if n >= start and failure is None else (None,) * 3
            if _value is not None:
                q, r = (s, 0) if lead == 1 else divmod(s, lead) if lead else (None, 1)
                if r == 0 and a == str(q):  # p_0(n) q = s(n): a(n) checks out as q
                    before.append(q)
                    continue
                a = _value(a)
            is_int = isinstance(a, int) and not isinstance(a, bool)
            if not (is_int or isinstance(a, Decimal) and a.same_quantum(1)):
                raise TypeError(f"sequence terms must be ints, got {a!r}")
            if lead is not None and (a if lead == 1 else lead * a) != s:
                failure = (n, lead * a - s)
            before.append(a)
        if last < start:
            raise ValueError(f"table ends at {last}, before the first checkable index {start}")
        return VerifyReport(start, last if failure is None else failure[0], failure)

    @_lift_digit_cap
    def to_text(self) -> str:
        """Canonical text: "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"."""
        triples = ((row, 1, f"a(n-{k})" if k else "a(n)") for k, row in enumerate(self._rows))
        return f"{_signed_text(triples, 'n')} = 0 for n >= {self.n_min}"
