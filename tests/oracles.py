"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: series exp is
computed from the power sum instead of the ODE method, inverse sqrt from
generalized binomial coefficients, so that exp(x0*arctan(t)) times
(1 + t^2)^(-1/2) checks the EGF the library builds as one exp of its
logarithmic derivative, nullspaces by plain Fraction Gauss-Jordan instead of
fraction-free elimination, EGF coefficient extraction by literally
differentiating and shifting the series instead of the falling-factorial
shift/weight rule, and recurrence unrolling and residuals by summing c_j n^j
over Fractions instead of integer Horner, minimal guessing from those
Fraction nullspaces of each pair's whole system alone, and ranks mod a
prime by Gauss-Jordan with modular inverses instead of fraction-free
elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Optional


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


def power_sum(coeffs: list[Fraction], n: int) -> Fraction:
    """sum_j coeffs[j] * n^j, term by term (no Horner)."""
    return sum((Fraction(c) * n**j for j, c in enumerate(coeffs)), Fraction(0))


def recurrence_residual(rows: list[list[Fraction]], offset: int, terms: list[int], n: int) -> Fraction:
    """sum_k p_k(n) a(n-k), with a(m) = terms[m - offset] and 0 below the offset."""
    total = Fraction(0)
    for k, row in enumerate(rows):
        if n - k >= offset:
            total += power_sum(row, n) * terms[n - k - offset]
    return total


def unroll_by_fractions(
    rows: list[list[Fraction]], offset: int, initial: list[int], n_max: int
) -> tuple[list[int], Optional[tuple]]:
    """Terms through n_max, solving p_0(n) a(n) = -sum_{k>=1} p_k(n) a(n-k).

    Returns (terms, None), or the terms so far and ("singular", n) where
    p_0(n) = 0, or ("non-integer", n, value) where a(n) is not an integer.
    """
    terms = list(initial)
    for n in range(offset + len(terms), n_max + 1):
        lead = power_sum(rows[0], n)
        if lead == 0:
            return terms, ("singular", n)
        # with a(n) set to 0 the residual is the sum over k >= 1 alone
        value = -recurrence_residual(rows, offset, terms + [0], n) / lead
        if value.denominator != 1:
            return terms, ("non-integer", n, value)
        terms.append(int(value))
    return terms, None


def verify_by_fractions(
    rows: list[list[Fraction]], n_min: int, offset: int, terms: list[int]
) -> tuple[bool, int, int, Optional[tuple[int, Fraction]]]:
    """(passed, first n checked, last n checked, first (n, nonzero residual) or None)."""
    start = max(n_min, offset)
    for n in range(start, offset + len(terms)):
        residual = recurrence_residual(rows, offset, terms, n)
        if residual != 0:
            return False, start, n, (n, residual)
    return True, start, offset + len(terms) - 1, None


def primitive(vector: list[Fraction]) -> list[Fraction]:
    """The integer multiple of a nonzero vector with content 1 and a positive first nonzero entry."""
    scale = lcm(*(Fraction(x).denominator for x in vector))
    ints = [int(x * scale) for x in vector]
    content = gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
    return [Fraction(x, content) for x in ints]


def minimal_fits(
    terms: list[int], offset: int, r: int, d: int
) -> list[tuple[list[list[Fraction]], int]]:
    """(rows, n_min) of every fit of the first (order, degree) pair that has one.

    Pairs go by the number of unknowns (order+1)(degree+1), then by order.  A
    pair's fits are the Gauss-Jordan basis vectors of its system (one equation
    per n >= offset + order) whose p_0 and p_order are both nonzero, with
    n_min = offset + order.  Where there is none, but one basis vector has p_0
    nonzero and one has p_order nonzero, the fit is the sum of the first of each
    kind, each scaled to a primitive integer vector with a positive first entry.
    """
    for unknowns in range(1, (r + 1) * (d + 1) + 1):
        for order in range(r + 1):
            degree = unknowns // (order + 1) - 1
            if unknowns % (order + 1) or degree > d:
                continue
            matrix = [
                [Fraction(n) ** j * terms[n - k - offset] for k in range(order + 1) for j in range(degree + 1)]
                for n in range(offset + order, offset + len(terms))
            ]
            split = [
                [vector[k * (degree + 1) : (k + 1) * (degree + 1)] for k in range(order + 1)]
                for vector in map(primitive, gauss_nullspace(matrix))
            ]
            fits = [rows for rows in split if any(rows[0]) and any(rows[-1])]
            leads = [rows for rows in split if any(rows[0])]
            lasts = [rows for rows in split if any(rows[-1])]
            if not fits and leads and lasts:
                fits = [[[x + y for x, y in zip(p, q)] for p, q in zip(leads[0], lasts[0])]]
            if fits:
                return [(rows, offset + order) for rows in fits]
    return []


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over GF(p) by plain Gauss-Jordan, each pivot row scaled by its
    entry's inverse mod p (so p must be prime)."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        chosen = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if chosen is None:
            continue
        rows[rank], rows[chosen] = rows[chosen], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inverse % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank
