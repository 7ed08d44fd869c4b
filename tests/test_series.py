import random
from fractions import Fraction
from math import factorial

import pytest

from holoseq.polynomials import Polynomial
from holoseq.sequences import SequenceTable
from holoseq.series import (
    ConstantTermError,
    NonIntegerCoefficientError,
    OrderMismatchError,
    Series,
)

import oracles


def rand_series(rng, order, bound=9, denominators=(1, 2, 3)):
    return Series(
        tuple(
            Fraction(rng.randint(-bound, bound), rng.choice(denominators))
            for _ in range(order + 1)
        )
    )


def test_mul_example():
    one_plus = Series.from_coefficients((1, 1, 0, 0, 0))
    one_minus = Series.from_coefficients((1, -1, 0, 0, 0))
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0, 0)


def test_div_geometric():
    one = Series.one(5)
    denom = Series.from_polynomial(Polynomial((1, 0, 1)), 5)
    inv = one / denom
    assert inv.coeffs == (1, 0, -1, 0, 1, 0)
    assert (inv * denom) == one


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatchError):
        Series.one(3) + Series.one(4)
    with pytest.raises(OrderMismatchError):
        Series.one(3) * Series.one(2)
    with pytest.raises(OrderMismatchError):
        Series.one(3).truncated(9)


def test_div_needs_unit():
    t = Series.from_coefficients((0, 1, 0))
    with pytest.raises(ConstantTermError):
        Series.one(2) / t


def test_derivative():
    f = Series.from_coefficients((1, 1, 1))
    assert f.derivative().coeffs == (1, 2)
    assert Series.one(1).derivative().coeffs == (0,)
    with pytest.raises(ValueError):
        Series.one(0).derivative()


def test_integral_and_arctan():
    geom = Series.one(5) / Series.from_polynomial(Polynomial((1, 0, 1)), 5)
    arctan = geom.integral()
    assert arctan.coeffs == (0, 1, 0, Fraction(-1, 3), 0, Fraction(1, 5), 0)
    # derivative undoes integral (one order up, then back down)
    assert arctan.derivative() == geom


def test_exp_of_t():
    t = Series.from_polynomial(Polynomial((0, 1)), 6)
    e = t.exp()
    assert e.coeffs == tuple(Fraction(1, factorial(k)) for k in range(7))


def test_exp_requires_zero_constant_term():
    with pytest.raises(ConstantTermError):
        Series.one(3).exp()


def test_exp_matches_power_sum_oracle():
    rng = random.Random(101)
    for _ in range(25):
        order = rng.randint(1, 12)
        g = rand_series(rng, order)
        g = Series((Fraction(0),) + g.coeffs[1:])
        assert g.exp().coeffs == tuple(oracles.naive_exp(list(g.coeffs)))


def test_exp_of_arctan_first_terms():
    # independent hand-check of the first four coefficients
    geom = Series.one(2) / Series.from_polynomial(Polynomial((1, 0, 1)), 2)
    arctan = geom.integral()
    e = arctan.exp()
    assert e.coeffs == (1, 1, Fraction(1, 2), Fraction(-1, 6))


def test_inverse_sqrt_binomial_oracle():
    u = Series.from_polynomial(Polynomial((1, 0, 1)), 8)
    h = u.inverse_sqrt()
    expected = [Fraction(0)] * 9
    for k in range(5):
        expected[2 * k] = oracles.binomial_half(k)
    assert h.coeffs == tuple(expected[:9])
    assert h.coeffs[:5] == (1, 0, Fraction(-1, 2), 0, Fraction(3, 8))


def test_inverse_sqrt_random_oracle():
    rng = random.Random(77)
    for _ in range(15):
        order = rng.randint(0, 10)
        u = rand_series(rng, order)
        u = Series((Fraction(1),) + u.coeffs[1:])
        got = u.inverse_sqrt()
        assert got.coeffs == tuple(oracles.naive_inverse_sqrt(list(u.coeffs)))
        assert (u * got * got) == Series.one(order)


def test_inverse_sqrt_requires_unit_constant_term():
    with pytest.raises(ConstantTermError):
        Series.from_coefficients((2, 0, 0)).inverse_sqrt()


def test_ring_laws_random():
    rng = random.Random(4242)
    for _ in range(30):
        order = rng.randint(0, 12)
        f = rand_series(rng, order)
        g = rand_series(rng, order)
        h = rand_series(rng, order)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + (-f) == Series.zero(order)


def test_leibniz_rule_random():
    rng = random.Random(31337)
    for _ in range(30):
        order = rng.randint(1, 12)
        f = rand_series(rng, order)
        g = rand_series(rng, order)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g.truncated(order - 1) + f.truncated(order - 1) * g.derivative()
        assert lhs == rhs


def test_exp_is_homomorphism():
    rng = random.Random(99)
    for _ in range(15):
        order = rng.randint(1, 10)
        g1 = Series((Fraction(0),) + rand_series(rng, order).coeffs[1:])
        g2 = Series((Fraction(0),) + rand_series(rng, order).coeffs[1:])
        assert (g1 + g2).exp() == g1.exp() * g2.exp()


def test_exp_chain_rule():
    rng = random.Random(55)
    for _ in range(15):
        order = rng.randint(1, 10)
        g = Series((Fraction(0),) + rand_series(rng, order).coeffs[1:])
        e = g.exp()
        assert e.derivative() == g.derivative() * e.truncated(order - 1)


def test_egf_terms():
    t = Series.from_polynomial(Polynomial((0, 1)), 6)
    assert t.exp().egf_terms() == SequenceTable(0, (1,) * 7)
    geom = Series.one(6) / Series.from_polynomial(Polynomial((1, -1)), 6)
    assert geom.egf_terms() == SequenceTable(0, tuple(factorial(n) for n in range(7)))


def test_egf_terms_non_integer():
    bad = Series.from_coefficients((1, Fraction(1, 3)))
    with pytest.raises(NonIntegerCoefficientError) as info:
        bad.egf_terms()
    assert info.value.index == 1


def test_series_text():
    s = Series.from_coefficients((1, 1, 0, Fraction(-2, 3)))
    assert s.to_text() == "1 + 1*t + 0*t^2 - 2/3*t^3 + O(t^4)"
    assert Series.one(0).to_text() == "1 + O(t^1)"
