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
p.  ``guess_recurrence`` gives it the head, and turns each solution with
p_0 != 0 into one recurrence.  That recurrence is certified on the whole table
by one walk of it; when every solution holds, the pair's full system has the
same nullspace and the same basis.  Otherwise ``nullspace`` solves the whole
system.  A pair's rows are built when it is tried, and none is kept for
the next pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence, Union

from .operators import RecurrenceOperator
from .polynomials import Polynomial, _check_int, _primitive
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
    so the basis depends on the nullspace alone.  A tall matrix costs the
    elimination of all its rows: ``guess_recurrence`` passes a pair's head
    rows and certifies the basis on the table itself, and eliminates a whole
    system only where that certificate fails.
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
    A solution of lower order is no candidate: it fails below
    table.offset + r', or an earlier pair would have returned it.
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

    def equations(r1: int, d1: int, count: int) -> list[list[int]]:
        """The first ``count`` rows [n^j a(n-k) for k <= r1 for j <= d1], in the order of the
        unknowns, for n = offset + r1, offset + r1 + 1, ... up to the table's last index."""
        rows = []
        for i in range(r1, min(r1 + count, len(terms))):
            powers = [(offset + i) ** j for j in range(d1 + 1)]
            rows.append([terms[i - k] * power for k in range(r1 + 1) for power in powers])
        return rows

    def recurrences(basis: list[tuple[int, ...]], r1: int, d1: int) -> list[RecurrenceOperator]:
        """Each solution with p_0 != 0 as the recurrence its rows state, for n >= offset + r1;
        p_0, ..., p_r1 are read off in the order of the unknowns."""
        operators = []
        for v in basis:
            polys = [Polynomial(v[k * (d1 + 1) : (k + 1) * (d1 + 1)]) for k in range(r1 + 1)]
            if not polys[0].is_zero:
                operators.append(RecurrenceOperator(polys, offset + r1))
        return operators

    for r1, d1 in pairs:
        ncols = (r1 + 1) * (d1 + 1)
        head = equations(r1, d1, ncols + 1)
        if _full_column_rank_mod_p(head, ncols):
            continue
        # The table's nullspace lies in the head's.  It is the head's when each head solution has
        # p_0 != 0 and its recurrence holds on the whole table; then nullspace of all the rows
        # returns this same basis, so they need not be built.
        basis = nullspace(head)
        solved = recurrences(basis, r1, d1)
        if len(solved) < len(basis) or not all(op.verify(table).passed for op in solved):
            solved = recurrences(nullspace(equations(r1, d1, len(terms))), r1, d1)
        # No solution of order k < r1 holds from offset + k.  If one did, it would solve the
        # earlier pair (k, its degree).  Each column free there is free here too (a subset of the
        # rows, more columns before it), and a basis vector is 0 on each free column but its
        # last; so the solution is that pair's basis vector for the same column, a fit there.
        candidates = [op for op in solved if op.order == r1]
        if candidates:
            return candidates
    return []
