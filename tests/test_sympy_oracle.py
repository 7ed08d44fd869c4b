"""Differential check against sympy's holonomic module, skipped without sympy.

sympy turns a differential operator L into a recurrence for the ordinary
power-series coefficients c_n of a solution: sum_i q_i(n) c_{n+i} = 0 for
n >= n0.  Its derivation is independent of holoseq's shift/weight rule.  The
test reindexes it to the exponential one with c_n = a(n)/n!, multiplying
through by (n+r)!: sum_i q_i(n) (n+i+1)...(n+r) a(n+i) = 0, and checks it on
terms unrolled from holoseq's ``to_recurrence``.  It also checks ``build_egf``
against sympy's own Taylor expansion of exp(x arctan t) / sqrt(1 + t^2), with
x symbolic and then substituted.
"""

import random
from fractions import Fraction
from math import prod

import pytest

sympy = pytest.importorskip("sympy")
from sympy.holonomic import DifferentialOperators, HolonomicFunction  # noqa: E402

from holoseq.meixner import build_egf, egf_annihilator  # noqa: E402
from holoseq.operators import DifferentialOperator  # noqa: E402
from holoseq.polynomials import Polynomial  # noqa: E402
from holoseq.sequences import SequenceTable  # noqa: E402

N = 30


def sympy_ogf_recurrence(op):
    """sympy's (q_0, ..., q_r) as Fraction coefficient lists, lowest power first, and n0."""
    x = sympy.Symbol("x")
    _, Dx = DifferentialOperators(sympy.QQ.old_poly_ring(x), "Dx")
    L = sum(
        (sum(c * x**a for a, c in enumerate(q.coeffs)) * Dx**j for j, q in enumerate(op.coeffs)),
        0 * Dx,
    )
    # The initial values only feed sympy's own series; the recurrence ignores them.
    (solution,) = HolonomicFunction(L, x, 0, [1] * op.order).to_sequence()
    sequence, n0 = solution[0], solution[-1]
    qs = [
        [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(p.to_list())]
        for p in sequence.recurrence.listofpoly
    ]
    return qs, n0


def egf_residuals(qs, n0, terms):
    """sum_i q_i(n) (n+i+1)...(n+r) a(n+i) for every n >= n0 whose terms exist."""
    r = len(qs) - 1
    return [
        sum(
            sum(c * n**j for j, c in enumerate(q))
            * prod(range(n + i + 1, n + r + 1))
            * terms[n + i]
            for i, q in enumerate(qs)
        )
        for n in range(n0, len(terms) - r)
    ]


def random_operator(rng):
    # q_r(0) = +-1 keeps t = 0 an ordinary point for sympy and makes holoseq's
    # p_0 the constant q_r(0), so the unrolled terms stay integers.
    order = rng.randint(1, 2)
    coeffs = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] for _ in range(order + 1)]
    coeffs[order][0] = rng.choice((-1, 1))
    return DifferentialOperator(tuple(Polynomial(tuple(c)) for c in coeffs))


def test_golden_operator_matches_sympy():
    qs, _ = sympy_ogf_recurrence(egf_annihilator(1))
    # (n+1) c_n - c_{n+1} + (n+2) c_{n+2} = 0
    assert qs == [[1, 1], [-1], [2, 1]]


def test_to_recurrence_terms_satisfy_sympy_recurrence():
    rng = random.Random(7)
    operators = [egf_annihilator(1)] + [random_operator(rng) for _ in range(10)]
    for op in operators:
        rec = op.to_recurrence()
        initial = SequenceTable(0, tuple(rng.randint(-5, 5) for _ in range(rec.order)))
        terms = list(rec.unroll(initial, N).terms)
        qs, n0 = sympy_ogf_recurrence(op)
        assert all(r == 0 for r in egf_residuals(qs, n0, terms)), op.to_text()
        terms[-1] += 1
        assert any(r != 0 for r in egf_residuals(qs, n0, terms)), op.to_text()


def test_build_egf_matches_sympys_series_of_exp_x_arctan_over_sqrt():
    x, t = sympy.symbols("x t")
    expansion = sympy.series(sympy.exp(x * sympy.atan(t)) / sympy.sqrt(1 + t**2), t, 0, 11).removeO()
    coeffs = [sympy.expand(expansion.coeff(t, k)) for k in range(11)]
    for x0 in ("0", "1", "-3/4", "5/2", "7/1000003"):
        expected = tuple(Fraction(str(c.subs(x, sympy.Rational(x0)))) for c in coeffs)
        assert build_egf(Fraction(x0), 10).coeffs == expected, x0
