"""Recurrence guessing: the minimal sum_k p_k(n) a(n-k) = 0 that fits a table of terms.

``guess_recurrence`` tries the (order, degree) pairs within the bounds by their
number of unknowns, each on its own exact linear system, and stops at the first
pair with a fit.  A pair's first ncols + 1 equations (ncols unknowns), its head
rows, are built once and serve both checks.  First they are eliminated
fraction-free modulo one fixed prime p < 2^30: an integer matrix's rank mod p
is at most its rank over the rationals, so a pair whose head has full column
rank mod p has no fit, and is skipped.  Only the other pairs, the one that fits
and any where p is unlucky, reach ``nullspace``, which solves exactly the rows
it is given, on ints only, so nothing is ever rounded and no result depends on
p.  ``guess_recurrence`` gives it the head, and walks each solution of the head
over the whole table with ``_steps``, the walk of ``unroll`` and ``verify``,
collecting its residuals.  Where every residual is 0, the head's basis is the
table's.  Otherwise ``nullspace`` solves the residual matrix, one column per
head solution; its solutions combine the head's into a spanning set of the
table's nullspace, and two more calls turn that set into the table's basis.
So a pair's whole system is never built.  A pair's head rows are built when it
is tried, and none is kept for the next pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add, mul
from typing import Iterable, Iterator, Sequence, Union

from .operators import RecurrenceOperator, _steps
from .polynomials import _check_int, _primitive
from .sequences import SequenceTable


# The modular filter's prime, the largest below 2^30: each residue is one 30-bit digit of a
# CPython int, and the product of two fits in two.  An unlucky prime only costs an exact solve.
_PRIME = 1_073_741_789


class InsufficientTermsError(ValueError):
    """Too few terms to overdetermine the ansatz."""


def nullspace(matrix: Sequence[Sequence[Union[int, Fraction]]]) -> list[tuple[int, ...]]:
    """Basis of the right nullspace, as primitive integer vectors.

    Every row must have the same length and hold only ints and Fractions
    (else ValueError or TypeError).  Every row is cleared of denominators
    and the whole matrix is reduced to row echelon form by fraction-free
    (Bareiss) elimination with row pivoting; each free column yields one
    basis vector by back substitution on ints (see the comment there).
    Vectors are normalized to content 1 with a positive first nonzero entry,
    so the basis depends on the row space alone, and nullspace(nullspace(S))
    is the basis of the space that the rows of S span.  A tall matrix costs
    the elimination of all its rows: ``guess_recurrence`` passes a pair's head
    rows and, where a head solution fails on the table, the residual matrix,
    which has one column per head solution.
    """
    if not matrix:
        raise ValueError("the matrix needs at least one row")
    ncols = len(matrix[0])
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("all matrix rows must have the same length")
        if not all(isinstance(value, (int, Fraction)) for value in row):
            raise TypeError("matrix entries must be ints or Fractions")
    rows = [_primitive(row) for row in matrix]
    nrows = len(rows)
    pivot_cols: list[int] = []
    pivot_row = 0
    previous_pivot = 1
    for col in range(ncols):
        if pivot_row == nrows:
            break
        selected = next(
            (i for i in range(pivot_row, nrows) if rows[i][col] != 0), None
        )
        if selected is None:
            continue
        rows[pivot_row], rows[selected] = rows[selected], rows[pivot_row]
        pivot = rows[pivot_row][col]
        for i in range(pivot_row + 1, nrows):
            factor = rows[i][col]
            for j in range(col + 1, ncols):
                rows[i][j] = (rows[i][j] * pivot - factor * rows[pivot_row][j]) // previous_pivot
            rows[i][col] = 0
        previous_pivot = pivot
        pivot_cols.append(col)
        pivot_row += 1
    basis: list[tuple[int, ...]] = []
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    for free in free_cols:
        # x[free] = last pivot (+-the rank-r minor) makes x integral by Cramer: each // is exact.
        solution = [0] * ncols
        solution[free] = previous_pivot
        for i in reversed(range(len(pivot_cols))):
            col = pivot_cols[i]
            acc = sum(rows[i][j] * solution[j] for j in range(col + 1, ncols))
            solution[col] = -acc // rows[i][col]
        vector = _primitive(solution)
        sign = 1 if next(v for v in vector if v) > 0 else -1
        basis.append(tuple(sign * v for v in vector))
    return basis


def _full_column_rank_mod_p(rows: Iterable[Sequence[int]], ncols: int) -> bool:
    """Whether the integer ``rows`` have rank ``ncols`` modulo ``_PRIME``.

    Each row is reduced mod p on entry.  While its first nonzero column is a
    pivot's, the row becomes (lead*row - factor*pivot row) mod p from there
    on, fraction-free: lead, the pivot's entry, is a unit mod p, so the span
    is kept with no inverse.  A row whose first nonzero column is no pivot's
    becomes a pivot row; a zero row is skipped, and the walk stops at
    ``ncols`` pivots.  Full rank mod p implies full rank over the rationals,
    so the rows then have no nonzero rational nullspace; False proves nothing.
    """
    pivots: dict[int, tuple[int, list[int]]] = {}  # pivot column -> (its entry, its row from there on)
    for values in rows:
        row = [v % _PRIME for v in values]
        for col in range(len(row)):
            factor = row[col]
            if factor:
                if col not in pivots:
                    pivots[col] = (factor, row[col:])
                    break
                lead, pivot = pivots[col]
                negated = _PRIME - factor  # -factor mod p: each sum stays >= 0, so % has no sign to fix
                row[col:] = [(lead * a + negated * b) % _PRIME for a, b in zip(row[col:], pivot)]
        if len(pivots) == ncols:
            return True
    return False


def guess_recurrence(
    table: SequenceTable, max_order: int, max_degree: int
) -> list[RecurrenceOperator]:
    """The minimal recurrences of order <= max_order and degree <= max_degree that fit.

    Needs len(table) >= (max_order+1)(max_degree+1) + max_order + 1: the
    homogeneous system determines solutions only up to scale, so this means
    two more equations than effective unknowns.  The pairs (r', d') within
    the bounds are tried by increasing (r'+1)(d'+1), ties by increasing r',
    and the result is the candidates of the first pair that has any: the
    fit with the fewest unknowns, even when it has order 0, such as
    n(n-1)*a(n) = 0 on a table that is zero from a(2) on.  It is normally a
    single recurrence, and [] when no pair has a candidate.  A candidate has
    its pair's order r' and claims n >= table.offset + r', the first index
    whose r' predecessors are all in the table; it holds on the whole table.
    The candidates are the basis vectors of the pair's nullspace with p_0 and
    p_r' both nonzero; where there is none, but one has p_0 != 0 and one has
    p_r' != 0, the candidate is the sum of the first of each kind, as
    ``nullspace`` normalizes them.  A solution of lower order is no candidate:
    it fails below table.offset + r', or an earlier pair would have returned it.
    """
    _check_int("max_order", max_order)
    _check_int("max_degree", max_degree)
    r, d = max_order, max_degree
    if r < 0 or d < 0:
        raise ValueError("order and degree bounds must be >= 0")
    needed = (r + 1) * (d + 1) + r + 1
    if len(table) < needed:
        raise InsufficientTermsError(
            f"need at least {needed} terms for order {r}, degree {d}; got {len(table)}"
        )
    offset, terms = table.offset, table.terms
    pairs = sorted(
        product(range(r + 1), range(d + 1)), key=lambda p: ((p[0] + 1) * (p[1] + 1), p[0])
    )

    def equations(r1: int, d1: int) -> list[list[int]]:
        """The pair's head: its ncols + 1 rows [n^j a(n-k) for k <= r1 for j <= d1], in the
        order of the unknowns, for n = offset + r1 .. offset + r1 + ncols; they are all in the
        table, as the length check above makes sure."""
        count = (r1 + 1) * (d1 + 1) + 1
        powers = {i: [(offset + i) ** j for j in range(d1 + 1)] for i in range(r1, r1 + count)}
        return [[terms[i - k] * p for k in range(r1 + 1) for p in row] for i, row in powers.items()]

    def split(vector: Sequence[int], d1: int) -> list[Sequence[int]]:
        """The rows p_0, p_1, ... of a solution, read off in the order of the unknowns."""
        return [vector[j : j + d1 + 1] for j in range(0, len(vector), d1 + 1)]

    def residuals(vector: Sequence[int], r1: int, d1: int) -> Iterator[int]:
        """sum_k p_k(n) a(n-k) for n = offset + r1 .. the last index, by one ``_steps`` walk."""
        before = list(terms[:r1])
        for a, (_, p0, s) in zip(terms[r1:], _steps(split(vector, d1), before, offset + r1)):
            yield p0 * a - s
            before.append(a)

    for r1, d1 in pairs:
        ncols = (r1 + 1) * (d1 + 1)
        head = equations(r1, d1)
        if _full_column_rank_mod_p(head, ncols):
            continue
        # The table's nullspace N is {sum y_i b_i : sum y_i residuals(b_i) = 0} for the head's
        # basis b_1, ..., b_k, so it is the head's where every residual is 0.  Else the y solve
        # the m x k residual matrix and their sums span N; N's basis is the nullspace of N^perp,
        # as nullspace's basis depends only on the row space it is given.
        basis = nullspace(head)
        rows = list(zip(*(residuals(b, r1, d1) for b in basis)))
        if any(map(any, rows)):
            sums = [[sum(map(mul, y, col)) for col in zip(*basis)] for y in nullspace(rows)]
            basis = nullspace(nullspace(sums) or [[0] * ncols]) if sums else []
        # A fit has p_0 != 0 and order r1.  No solution of order k < r1 holds from offset + k:
        # if one did, it would solve the earlier pair (k, its degree).  Each column free there is
        # free here too (a subset of the rows, more columns before it), and a basis vector is 0
        # on each free column but its last; so the solution is that pair's basis vector for the
        # same column, a fit there.  Where no basis vector has both p_0 and p_r1 nonzero, the
        # first one with p_0 and the first one with p_r1 add up to a fit.
        first = [v for v in basis if any(v[: d1 + 1])]  # p_0 != 0
        last = [v for v in basis if any(v[-d1 - 1 :])]  # p_r1 != 0
        fits = [v for v in first if v in last] or [tuple(map(add, *vw)) for vw in zip(first, last)][:1]
        if fits:
            return [RecurrenceOperator._from_rows(split(v, d1), offset + r1) for v in fits]
    return []
