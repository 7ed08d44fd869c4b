"""Recurrence guessing: fit sum_k p_k(n) a(n-k) = 0 to a table of terms.

The ansatz with order bound r and degree bound d has (r+1)(d+1) unknown
integer coefficients c_{k,j} multiplying n^j a(n-k).  Every fully-in-table
index n contributes one linear equation; the exact nullspace of that system
is computed on ints only, so nothing is ever rounded.  The system is tall
and its rank is at most its column count, so only its first ncols + 1 rows
are eliminated (Bareiss elimination after clearing denominators, then back
substitution scaled by the last pivot, where every division is exact); each
remaining row is certified exactly against the resulting basis, and a row
that fails sends the whole system through the same elimination.  Candidates
are the nullspace basis vectors that have a nonzero leading polynomial p_0
and that hold on the whole table, where only the indices below offset + r
need a ``verify`` (the equations cover the rest); an empty result just means
nothing was found at those bounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .operators import RecurrenceOperator
from .polynomials import Polynomial, _primitive
from .sequences import SequenceTable


class InsufficientTermsError(ValueError):
    """Too few terms to overdetermine the ansatz."""


def nullspace(matrix: Sequence[Sequence[Union[int, Fraction]]]) -> list[tuple[int, ...]]:
    """Basis of the right nullspace, as primitive integer vectors.

    Rows are cleared of denominators, and the first ncols + 1 of them (at
    most ncols can be independent) are reduced to row echelon form by
    fraction-free (Bareiss) elimination with row pivoting; each free column
    yields one basis vector by back substitution on ints (see the comment
    there).  Every remaining row is then certified exactly: its integer dot
    product with every basis vector must be 0.  If one is not, the whole
    matrix is eliminated instead.  Vectors are normalized to content 1 with
    a positive first nonzero entry.  Entries must be ints or Fractions (else
    TypeError), in every row.
    """
    if not matrix:
        raise ValueError("the matrix needs at least one row")
    ncols = len(matrix[0])
    rows: list[list[int]] = []
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("all matrix rows must have the same length")
        rows.append(_primitive(row))
    # The head's nullspace contains the matrix's and equals it once the rest is certified; the basis
    # depends on that space alone (pivots at the first independent columns, x[free] = 1, primitive).
    basis = _bareiss_nullspace([row[:] for row in rows[: ncols + 1]])
    rest = rows[ncols + 1 :]
    if all(sum(r * v for r, v in zip(row, vector)) == 0 for vector in basis for row in rest):
        return basis
    return _bareiss_nullspace(rows)


def _bareiss_nullspace(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """``nullspace`` of the nonempty integer ``rows``, which it overwrites."""
    nrows, ncols = len(rows), len(rows[0])
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


def _max_bit_length(operator: RecurrenceOperator) -> int:
    return max(
        int(c).bit_length() for p in operator.coeffs for c in p.coeffs
    )


def guess_recurrence(
    table: SequenceTable, max_order: int, max_degree: int
) -> list[RecurrenceOperator]:
    """All recurrences of order <= max_order, degree <= max_degree that fit.

    Needs len(table) >= (max_order+1)(max_degree+1) + max_order + 1: the
    homogeneous system determines solutions only up to scale, so this means
    two more equations than effective unknowns.  A candidate of order k
    claims n >= table.offset + k, the first index whose k predecessors are
    all in the table, and must hold on the whole table (verified below
    table.offset + max_order, where the equations start).  The result is
    sorted simplest-first by (order, degree, largest coefficient bit length)
    and may be empty.
    """
    r, d = max_order, max_degree
    if r < 0 or d < 0:
        raise ValueError("order and degree bounds must be >= 0")
    unknowns = (r + 1) * (d + 1)
    needed = unknowns + r + 1
    if len(table) < needed:
        raise InsufficientTermsError(
            f"need at least {needed} terms for order {r}, degree {d}; got {len(table)}"
        )
    equations: list[list[int]] = []
    for n in range(table.offset + r, table.last_index + 1):
        row: list[int] = []
        for k in range(r + 1):
            a = table.term(n - k)
            power = 1
            for _ in range(d + 1):
                row.append(power * a)
                power *= n
        equations.append(row)
    candidates: dict[RecurrenceOperator, None] = {}
    for vector in nullspace(equations):
        polys = tuple(
            Polynomial(vector[k * (d + 1) : (k + 1) * (d + 1)])
            for k in range(r + 1)
        )
        if polys[0].is_zero:
            continue
        order = max(k for k, p in enumerate(polys) if not p.is_zero)
        candidate = RecurrenceOperator(polys, table.offset + order)
        if order == r or candidate.verify(table.prefix(table.offset + r - 1)).passed:
            candidates.setdefault(candidate, None)
    return sorted(
        candidates,
        key=lambda op: (op.order, op.degree, _max_bit_length(op)),
    )
