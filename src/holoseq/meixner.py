"""The golden instance: OEIS A214615 and its Meixner-polynomial family.

M_0 = 1, M_1 = x, M_{n+1} = x M_n - n^2 M_{n-1}; the sequence is
a(n) = M_n(1).  Its exponential generating function, and more generally the
EGF of n -> M_n(x0), is

    F(t) = exp(x0 * arctan t) / sqrt(1 + t^2),

annihilated by the first-order operator (1 + t^2) D - (x0 - t), that is
F'/F = (x0 - t) / (1 + t^2).  ``build_egf`` reads log F from that one ratio:
one division of x0 - t by the sparse 1 + t^2, one integral and one
``Series.exp``; no series product or root is taken.  Everything here is
assembled from the exact series/operator primitives, so the three routes to
the terms (polynomial evaluation, EGF extraction, recurrence unrolling) stay
independent and cross-checkable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import Iterator

from .operators import DifferentialOperator, RecurrenceOperator
from .polynomials import Polynomial, RationalLike, X, _as_fraction, _check_int
from .sequences import SequenceTable
from .series import Series

A214615_ID = "A214615"


def meixner_eval(n: int, x: RationalLike) -> Fraction:
    """M_n(x) by running the three-term recurrence forward; x is an int or a Fraction.  An index
    that is a bool or not an int is a TypeError."""
    _check_int("n", n)
    if n < 0:
        raise ValueError("polynomial index must be >= 0")
    x = _as_fraction(x)
    prev, cur = Fraction(1), x
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, x * cur - k * k * prev
    return cur


def _a214615_direct() -> Iterator[int]:
    """a(0), a(1), ... for a(n) = M_n(1), via a(n+1) = a(n) - n^2 a(n-1); holds two terms."""
    prev, cur = 1, 1
    yield prev
    for n in count(1):
        yield cur
        prev, cur = cur, cur - n * n * prev


def a214615_terms(n_max: int) -> SequenceTable:
    """a(0..n_max) for a(n) = M_n(1), the first n_max + 1 terms of ``_a214615_direct``; an n_max
    that is a bool or not an int is a TypeError."""
    _check_int("n_max", n_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return SequenceTable(0, tuple(islice(_a214615_direct(), n_max + 1)))


def build_egf(x0: RationalLike, order: int) -> Series:
    """F = exp(x0 arctan t) / sqrt(1 + t^2) at ``order``, x0 an int or a Fraction: the exp of the
    integral of F'/F = (x0 - t) / (1 + t^2), where t F'/F has denominator den(x0), exp's slope.
    An order that is a bool or not an int is a TypeError."""
    x0 = _as_fraction(x0)
    _check_int("order", order)
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if order == 0:
        return Series.one(0)
    one_plus_t2 = Series.from_polynomial(Polynomial((1, 0, 1)), order - 1)
    return (Series.from_polynomial(Polynomial((x0, -1)), order - 1) / one_plus_t2).integral().exp()


def egf_annihilator(x0: RationalLike) -> DifferentialOperator:
    """(1 + t^2) D - (x0 - t), which sends build_egf(x0, N) to zero."""
    q0 = X - Polynomial.constant(x0)
    q1 = Polynomial((1, 0, 1))
    return DifferentialOperator((q0, q1))


#: a(n) - a(n-1) + (n-1)^2 a(n-2) = 0 for n >= 2.
A214615_RECURRENCE = RecurrenceOperator(
    (
        Polynomial.constant(1),
        Polynomial.constant(-1),
        (X - Polynomial.constant(1)) ** 2,
    ),
    n_min=2,
)

#: a(0) = a(1) = 1, enough to unroll the order-2 recurrence.
A214615_INITIAL = SequenceTable(0, (1, 1))
