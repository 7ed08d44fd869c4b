"""Recurrence guessing: fit sum_k p_k(n) a(n-k) = 0 to a table of terms.

The ansatz with order bound r and degree bound d has (r+1)(d+1) unknown
integer coefficients c_{k,j} multiplying n^j a(n-k).  Every fully-in-table
index n contributes one linear equation; the exact nullspace of that system
is computed fraction-free (Bareiss elimination over integers after clearing
denominators), so nothing is ever rounded.  Candidates are the nullspace
basis vectors that have a nonzero leading polynomial p_0 and that re-verify
against the full table; an empty result just means nothing was found at
those bounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

from .operators import RecurrenceOperator
from .polynomials import Polynomial
from .sequences import SequenceTable


class InsufficientTermsError(ValueError):
    """Too few terms to overdetermine the ansatz."""


def _normalize_int_vector(values: Sequence[Fraction]) -> tuple[int, ...]:
    denominators = [v.denominator for v in values]
    scaled = [int(v * lcm(*denominators)) for v in values]
    content = gcd(*scaled)
    if content:
        scaled = [v // content for v in scaled]
    lead = next((v for v in scaled if v), 0)
    if lead < 0:
        scaled = [-v for v in scaled]
    return tuple(scaled)


def nullspace(matrix: Sequence[Sequence[Union[int, Fraction]]]) -> list[tuple[int, ...]]:
    """Basis of the right nullspace, as primitive integer vectors.

    Rows are cleared of denominators, reduced to row echelon form by
    fraction-free (Bareiss) elimination with row pivoting, and each free
    column yields one basis vector by back substitution.  Vectors are
    normalized to content 1 with a positive first nonzero entry.
    """
    if not matrix:
        raise ValueError("the matrix needs at least one row")
    ncols = len(matrix[0])
    rows: list[list[int]] = []
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("all matrix rows must have the same length")
        fracs = [Fraction(x) for x in row]
        scale = lcm(*[f.denominator for f in fracs])
        rows.append([int(f * scale) for f in fracs])
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
        solution = [Fraction(0)] * ncols
        solution[free] = Fraction(1)
        for i in reversed(range(len(pivot_cols))):
            col = pivot_cols[i]
            acc = sum(
                (rows[i][j] * solution[j] for j in range(col + 1, ncols)),
                Fraction(0),
            )
            solution[col] = -acc / rows[i][col]
        basis.append(_normalize_int_vector(solution))
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
    all in the table, and must re-verify on the whole table; the result is sorted simplest-first by (order,
    degree, largest coefficient bit length) and may be empty.
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
            Polynomial(tuple(Fraction(c) for c in vector[k * (d + 1) : (k + 1) * (d + 1)]))
            for k in range(r + 1)
        )
        if polys[0].is_zero:
            continue
        order = max(k for k, p in enumerate(polys) if not p.is_zero)
        candidate = RecurrenceOperator(polys, table.offset + order)
        if candidate.verify(table).passed:
            candidates.setdefault(candidate, None)
    return sorted(
        candidates,
        key=lambda op: (op.order, op.degree, _max_bit_length(op)),
    )
