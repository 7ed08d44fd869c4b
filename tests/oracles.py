"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: series exp
is computed from the power sum instead of the ODE method, inverse sqrt from
generalized binomial coefficients instead of Miller's power recurrence,
nullspaces by plain Fraction Gauss-Jordan instead of fraction-free
elimination, and EGF coefficient extraction by literally differentiating and
shifting the series instead of the falling-factorial shift/weight rule.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def naive_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    order = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def naive_exp(g: list[Fraction]) -> list[Fraction]:
    # sum_k g^k / k!; g must have zero constant term, so g^k starts at t^k
    assert g[0] == 0
    order = len(g) - 1
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        power = naive_mul(power, g)
        scale = Fraction(1, factorial(k))
        for i, c in enumerate(power):
            out[i] += scale * c
    return out


def binomial_half(k: int) -> Fraction:
    # generalized binomial coefficient C(-1/2, k)
    out = Fraction(1)
    for i in range(k):
        out *= (Fraction(-1, 2) - i) / (i + 1)
    return out


def naive_inverse_sqrt(u: list[Fraction]) -> list[Fraction]:
    # (1 + z)^(-1/2) = sum_k C(-1/2, k) z^k with z = u - 1 (zero constant term)
    assert u[0] == 1
    order = len(u) - 1
    z = [u[0] - 1] + list(u[1:])
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    out[0] = Fraction(1)
    for k in range(1, order + 1):
        power = naive_mul(power, z)
        coeff = binomial_half(k)
        for i, c in enumerate(power):
            out[i] += coeff * c
    return out


def naive_derivative(f: list[Fraction]) -> list[Fraction]:
    return [Fraction(k) * f[k] for k in range(1, len(f))]


def egf_extraction_by_series(
    table: list[int], t_power: int, d_order: int, n: int
) -> Fraction:
    """n! * [t^n] of t^a F^(b) where F is the EGF of the table (offset 0)."""
    coeffs = [Fraction(value, factorial(i)) for i, value in enumerate(table)]
    for _ in range(d_order):
        coeffs = naive_derivative(coeffs)
    shifted = [Fraction(0)] * t_power + coeffs
    if n >= len(shifted):
        raise IndexError("table too short for the requested coefficient")
    return factorial(n) * shifted[n]


def gauss_nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Right-nullspace basis via plain Fraction Gauss-Jordan (RREF)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0])
    pivot_cols: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        chosen = next(
            (i for i in range(pivot_row, len(rows)) if rows[i][col] != 0), None
        )
        if chosen is None:
            continue
        rows[pivot_row], rows[chosen] = rows[chosen], rows[pivot_row]
        pivot = rows[pivot_row][col]
        rows[pivot_row] = [x / pivot for x in rows[pivot_row]]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, col in enumerate(pivot_cols):
            vec[col] = -rows[i][free]
        basis.append(vec)
    return basis


def normalize_direction(vector: list[Fraction]) -> tuple[Fraction, ...]:
    """Scale a nonzero vector so its first nonzero entry is 1."""
    lead = next(x for x in vector if x != 0)
    return tuple(x / lead for x in vector)


def rank(matrix: list[list[Fraction]]) -> int:
    return len(matrix[0]) - len(gauss_nullspace(matrix))


def in_span(vector: list[Fraction], basis: list[list[Fraction]]) -> bool:
    """Membership test by rank comparison, using the oracle elimination."""
    if not basis:
        return all(x == 0 for x in vector)
    matrix = [list(b) for b in basis]
    return rank(matrix + [list(vector)]) == rank(matrix)
