import decimal
import random
import sys
from fractions import Fraction
from math import factorial, gcd

import pytest

from holoseq import series as series_module
from holoseq.meixner import build_egf, egf_annihilator, meixner_eval
from holoseq.polynomials import Polynomial
from holoseq.sequences import SequenceTable
from holoseq.series import (
    _DECIMAL_MIN_BITS,
    ConstantTermError,
    NonIntegerCoefficientError,
    OrderMismatchError,
    Series,
    _kronecker_mul,
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
    one_plus = Series((1, 1, 0, 0, 0))
    one_minus = Series((1, -1, 0, 0, 0))
    assert (one_plus * one_minus).coeffs == (1, 0, -1, 0, 0)


def test_mul_matches_naive_oracle_where_packing_can_fail():
    rng = random.Random(2009)
    big = [rng.getrandbits(4000) * rng.choice((-1, 1)) for _ in range(8)]
    primes = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1, 2**607 - 1]
    cases = [
        ((Fraction(3),), (Fraction(-2, 7),)),  # order 0
        ((0,) * 6, tuple(range(1, 7))),  # zero operand
        (tuple(range(1, 7)), (0,) * 6),
        ((0,), (0,)),
        (tuple(-k - 1 for k in range(7)), tuple(Fraction(-1, k + 2) for k in range(7))),
        (tuple(1 if k % 2 else big[k] for k in range(8)), tuple(big[7 - k] if k % 3 else -1 for k in range(8))),
        (tuple(Fraction(k + 1, p) for k, p in enumerate(primes)), tuple(Fraction(-1, p) for p in reversed(primes))),
        # No truncated-away slot of these products is positive.
        ((1, 1), (1, -1)),
        ((1, 0, 0, 1), (1, 0, 0, -5)),
        ((1, 2, 3, 4, 5), (5, -4, -30, -20, -100)),
    ]
    for a, b in cases:
        got = Series(a) * Series(b)
        assert got.coeffs == tuple(oracles.naive_mul([Fraction(x) for x in a], [Fraction(x) for x in b]))


LARGE_PRIMES = (2**61 - 1, 2**89 - 1, 10**9 + 7, 2**127 - 1)


def spy_packings(monkeypatch) -> list[str]:
    """Record, in order, which packing each ``_kronecker_mul`` call takes."""
    used: list[str] = []
    for name in ("_binary_mul", "_decimal_mul"):
        real = getattr(series_module, name)
        monkeypatch.setattr(series_module, name, lambda *args, real=real, name=name: used.append(name) or real(*args))
    return used


def signed(rng, bits, signs):
    """A random integer of exactly ``bits`` bits with a sign drawn from ``signs``."""
    return rng.choice(signs) * ((1 << (bits - 1)) | rng.getrandbits(bits - 1))


def shorter_packed_bits(a, b):
    """The shorter operand's packed size, which picks the packing, from its definition."""
    la, lb = (len(v) - next(i for i, x in enumerate(reversed(v)) if x) for v in (a, b))
    bound = max(map(abs, a)) * max(map(abs, b)) * min(la, lb)
    return min(la, lb) * (bound.bit_length() + 1)


def assert_kronecker_matches_naive(a, b):
    assert _kronecker_mul(list(a), list(b)) == oracles.naive_mul(list(a), list(b))


def test_kronecker_mul_just_below_and_above_the_crossover(monkeypatch):
    used = spy_packings(monkeypatch)
    rng = random.Random(151)
    length = 60
    for signs in ((-1, 1), (1,), (-1,)):
        shapes = {}
        for bits in range(780, 900):
            a = [signed(rng, bits, signs) for _ in range(length)]
            b = [signed(rng, bits, signs) for _ in range(length)]
            side = shorter_packed_bits(a, b) >= _DECIMAL_MIN_BITS
            shapes.setdefault(side, []).append((a, b))
        below, above = shapes[False][-1], shapes[True][0]
        assert shorter_packed_bits(*above) - shorter_packed_bits(*below) < 1000
        used.clear()
        assert_kronecker_matches_naive(*below)
        assert_kronecker_matches_naive(*above)
        assert used == ["_binary_mul", "_decimal_mul"]


def test_kronecker_mul_zero_operands_and_zero_coefficients(monkeypatch):
    used = spy_packings(monkeypatch)
    rng = random.Random(31)
    length = 50
    dense = [signed(rng, 2100, (-1, 1)) for _ in range(length)]
    holes = [x if k % 3 else 0 for k, x in enumerate(dense)]
    low_half = dense[: length // 2] + [0] * (length - length // 2)
    cases = [
        ([0] * length, dense),
        (dense, [0] * length),
        ([0] * length, [0] * length),
        ([0], [0]),
        ([-7] + [0] * (length - 1), dense),  # trims to one coefficient
        (holes, dense),
        (low_half, dense),
        (low_half, list(reversed(low_half))),
        (dense, [0, 0, 0, 1] + [0] * (length - 4)),
    ]
    for a, b in cases:
        assert_kronecker_matches_naive(a, b)
    assert used == ["_binary_mul", "_decimal_mul", "_decimal_mul", "_decimal_mul", "_binary_mul"]


def test_kronecker_mul_with_negative_truncated_slots(monkeypatch):
    used = spy_packings(monkeypatch)
    rng = random.Random(7)
    for length, bits in ((20, 3000), (6, 40)):
        big = signed(rng, bits, (1,))
        ones = [1] * (length - 1)
        cases = [
            # only the truncated top slot is nonzero above the low ones, and it is -big^2
            ([1] + [0] * (length - 2) + [big], [1] + [0] * (length - 2) + [-big]),
            # every truncated slot negative, and so is the whole packed product
            ([1] + ones[1:] + [big], [-1] + ones[1:] + [-big]),
            ([-big] * length, [big] * length),
            ([signed(rng, bits, (-1, 1)) for _ in range(length)], [-big] * length),
        ]
        for a, b in cases:
            assert_kronecker_matches_naive(a, b)
    assert used == ["_decimal_mul"] * 4 + ["_binary_mul"] * 4


def test_kronecker_mul_when_a_coefficient_reaches_the_bound(monkeypatch):
    # With every coefficient equal, c_(L-1) = L * max|a| * max|b|: the slot must hold the bound
    # itself.  The bounds 5 * 10^(2m) and about 10^(2m+1) put a 5 and a 9 in the leading digit,
    # and the range of m walks them across the digit counts that the slot width, estimated from
    # the bit length, can meet.
    used = spy_packings(monkeypatch)
    for length, sizes in ((10, range(3, 40)), (40, range(380, 400))):
        for m in sizes:
            nines, fives = 10**m - 1, 5 * 10**m // length
            for a, b in ((nines, nines), (-nines, nines), (fives, 10**m), (-fives, 10**m)):
                assert_kronecker_matches_naive([a] * length, [b] * length)
    assert used == ["_binary_mul"] * 4 * 37 + ["_decimal_mul"] * 4 * 20


def test_kronecker_mul_past_4300_digits_under_the_default_cap(default_digit_cap, monkeypatch):
    used = spy_packings(monkeypatch)
    rng = random.Random(4300)
    a = [signed(rng, 15_000, (-1, 1)) for _ in range(6)]
    b = [signed(rng, 15_000, (-1, 1)) for _ in range(6)]
    assert_kronecker_matches_naive(a, b)
    assert used == ["_decimal_mul"]
    fa, fb = Series(tuple(Fraction(x, 3) for x in a)), Series(tuple(Fraction(1, x) for x in b))
    assert (fa * fb).coeffs == tuple(oracles.naive_mul(list(fa.coeffs), list(fb.coeffs)))
    assert sys.get_int_max_str_digits() == default_digit_cap


def test_products_ignore_a_hostile_thread_context():
    rng = random.Random(3)
    cases = [
        ([signed(rng, 2000, (-1, 1)) for _ in range(40)], [signed(rng, 2000, (-1, 1)) for _ in range(40)]),
        ([signed(rng, 2000, (1,)) for _ in range(40)], [signed(rng, 2000, (-1,)) for _ in range(40)]),
    ]
    with decimal.localcontext() as hostile:
        hostile.prec = 3
        hostile.clear_traps()
        hostile.clear_flags()
        before = repr(hostile)
        for a, b in cases:
            assert shorter_packed_bits(a, b) >= _DECIMAL_MIN_BITS
            assert_kronecker_matches_naive(a, b)
        assert (Series(tuple(cases[0][0])) * Series(tuple(cases[0][1]))).coeffs == tuple(
            oracles.naive_mul(*cases[0])
        )
        assert repr(decimal.getcontext()) == before
        assert decimal.getcontext() is hostile


def test_div_geometric():
    one = Series.one(5)
    denom = Series.from_polynomial(Polynomial((1, 0, 1)), 5)
    inv = one / denom
    assert inv.coeffs == (1, 0, -1, 0, 1, 0)
    assert (inv * denom) == one
    # q = 3^6 exactly, the leads of n = 0..5: a spare factor would only vanish in the gcd
    assert series_module._solve((3, 0, 1), 0, one._nums, 0) == ([243, 0, -81, 0, 27, 0], 3**6)
    rng = random.Random(3)
    a = rand_series(rng, 20)
    for b in (
        Series.from_polynomial(Polynomial((3, 0, 1)), 20),
        rand_series(rng, 20, denominators=(1, 5, 7, 97)) + Series.one(20) * 10,
    ):
        assert (a / b) * b == a


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatchError):
        Series.one(3) + Series.one(4)
    with pytest.raises(OrderMismatchError):
        Series.one(3) * Series.one(2)
    with pytest.raises(OrderMismatchError):
        Series.one(3).truncated(9)


def test_div_needs_unit():
    t = Series((0, 1, 0))
    with pytest.raises(ConstantTermError):
        Series.one(2) / t


def test_derivative():
    f = Series((1, 1, 1))
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
    arctan = (Series.one(11) / Series.from_polynomial(Polynomial((1, 0, 1)), 11)).integral()
    cases = [rand_series(rng, rng.randint(1, 12)) for _ in range(25)]
    cases += [rand_series(rng, rng.randint(1, 12), denominators=(1, 5, 7, 97)) for _ in range(10)]
    cases.append(arctan * Fraction(-3, 5))
    for g in cases:
        g = Series((Fraction(0),) + g.coeffs[1:])
        assert g.exp().coeffs == tuple(oracles.naive_exp(list(g.coeffs)))


def test_exp_of_arctan_first_terms():
    # independent hand-check of the first four coefficients
    geom = Series.one(2) / Series.from_polynomial(Polynomial((1, 0, 1)), 2)
    arctan = geom.integral()
    e = arctan.exp()
    assert e.coeffs == (1, 1, Fraction(1, 2), Fraction(-1, 6))


def rand_sparse_series(rng, order, denominators, zero_constant):
    """A series with a few nonzero coefficients at random places, over ``denominators``."""
    coeffs = [Fraction(0)] * (order + 1)
    for k in rng.sample(range(1, order + 1), min(order, 3)):
        coeffs[k] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**12), rng.choice(denominators))
    coeffs[0] = Fraction(0 if zero_constant else 1)
    return Series(tuple(coeffs))


def random_kernel_inputs(seed, zero_constant):
    """Dense and sparse series of orders 0, 1, 2 and up to 10, over large-prime denominators."""
    rng = random.Random(seed)
    head = Fraction(0 if zero_constant else 1)
    out = []
    for order in (0, 1, 2, 0, 1, 2, 5, 10):
        dense = rand_series(rng, order, bound=10**9, denominators=(1, 3) + LARGE_PRIMES)
        out.append(Series((head,) + dense.coeffs[1:]))
    for order in (1, 2, 6, 10, 10):
        out.append(rand_sparse_series(rng, order, (1, 7) + LARGE_PRIMES, zero_constant))
    return out


def test_exp_matches_oracle_on_dense_and_sparse_series_with_large_denominators():
    for g in random_kernel_inputs(1009, zero_constant=True):
        assert g.exp().coeffs == tuple(oracles.naive_exp(list(g.coeffs))), g


def test_exp_of_arctan_times_x0_with_a_large_denominator():
    arctan = (Series.one(11) / Series.from_polynomial(Polynomial((1, 0, 1)), 11)).integral()
    for x0 in (Fraction(3, 2**61 - 1), Fraction(-(10**20 + 1), 10**30 + 57), Fraction(2**89 - 1, 2**64)):
        g = arctan * x0
        assert g.exp().coeffs == tuple(oracles.naive_exp(list(g.coeffs)))
        egf = build_egf(x0, 30)
        assert egf_annihilator(x0).apply(egf).is_zero
        assert all(factorial(n) * egf.coefficient(n) == meixner_eval(n, x0) for n in range(31))


def test_coefficient_and_truncation_outside_the_order_raise():
    with pytest.raises(IndexError, match=r"^coefficient index 4 outside truncation order 3$"):
        Series.one(3).coefficient(4)
    with pytest.raises(ValueError, match=r"^truncation order must be >= 0$"):
        Series.one(3).truncated(-1)


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
    bad = Series((1, Fraction(1, 3)))
    with pytest.raises(NonIntegerCoefficientError) as info:
        bad.egf_terms()
    assert info.value.index == 1


def test_construction_rejects_floats_and_strings():
    for bad in ((0.1, 1), (1, "1/2"), (Fraction(1), 1.0)):
        with pytest.raises(TypeError):
            Series(bad)
    assert Series((1, Fraction(1, 3))).coeffs == (Fraction(1), Fraction(1, 3))


def test_series_text():
    s = Series((1, 1, 0, Fraction(-2, 3)))
    assert s.to_text() == "1 + 1*t + 0*t^2 - 2/3*t^3 + O(t^4)"
    assert Series.one(0).to_text() == "1 + O(t^1)"


def fields(s):
    return s._nums, s._den


def test_series_holds_integer_numerators_over_one_positive_denominator_in_lowest_terms():
    assert fields(Series((Fraction(1, 2), Fraction(1, 3)))) == ((3, 2), 6)
    assert fields(Series((4, -6, Fraction(8, 2)))) == ((4, -6, 4), 1)
    f = Series((Fraction(1, 6), Fraction(-5, 6), 0))
    for zero in (Series.zero(2), f - f, f * Series.zero(2), Series((Fraction(0, 7), 0, 0))):
        assert fields(zero) == ((0, 0, 0), 1)
    assert fields(Series((Fraction(2, 3), Fraction(1, 3))).truncated(0)) == ((2,), 3)
    assert fields(Series((Fraction(1, 3), Fraction(1, 2))).truncated(0)) == ((1,), 3)
    with pytest.raises(TypeError):
        Series((decimal.Decimal(1), 0))
    with pytest.raises(ValueError):
        Series(())


def naive_div(a, b):
    """q with q * b = a mod t^len(a), coefficient by coefficient in Fractions."""
    q = []
    for k, ak in enumerate(a):
        q.append((ak - sum(b[i] * q[k - i] for i in range(1, k + 1))) / b[0])
    return q


def assert_fields_of_oracle(got, oracle):
    expected = Series(tuple(oracle))
    assert expected._den > 0 and gcd(expected._den, *expected._nums) == 1
    assert fields(got) == fields(expected) and hash(got) == hash(expected)


def test_division_by_a_negative_constant_term_keeps_the_denominator_positive():
    a = Series((1, Fraction(2, 3), 0, -5, Fraction(1, 4)))
    for b0 in (-1, -3, Fraction(-2, 7)):
        b = Series((b0, 1, 0, Fraction(1, 2), 0))
        q = a / b
        assert q._den > 0
        assert_fields_of_oracle(q, naive_div(list(a.coeffs), list(b.coeffs)))


def test_kernel_results_have_the_fields_of_the_series_of_their_oracle_fractions():
    for g in random_kernel_inputs(1009, zero_constant=True):
        assert_fields_of_oracle(g.exp(), oracles.naive_exp(list(g.coeffs)))
        if g.order:
            assert_fields_of_oracle(g.derivative(), oracles.naive_derivative(list(g.coeffs)))
        assert_fields_of_oracle(g.integral(), [0] + [c / (k + 1) for k, c in enumerate(g.coeffs)])
    units = random_kernel_inputs(2027, zero_constant=False)
    rng = random.Random(2718)
    for a in units:
        b = rng.choice([u for u in units if u.order == a.order])
        b = b * rng.choice((1, -1, Fraction(-3, 7), 10**12 + 39))
        fa, fb = list(a.coeffs), list(b.coeffs)
        assert_fields_of_oracle(a * b, oracles.naive_mul(fa, fb))
        assert_fields_of_oracle(a / b, naive_div(fa, fb))
        assert_fields_of_oracle(a + b, [x + y for x, y in zip(fa, fb)])
        assert_fields_of_oracle(a - b, [x - y for x, y in zip(fa, fb)])


def test_build_egf_equals_the_series_of_its_oracle_fractions_in_fields_and_hash():
    for order in (1, 2, 30):
        arctan = [Fraction((-1) ** (k // 2), k) if k % 2 else Fraction(0) for k in range(order + 1)]
        u = [Fraction(k in (0, 2)) for k in range(order + 1)]
        for x0 in (0, 1, -2, Fraction(1, 2), Fraction(-3, 4), Fraction(7, 3)):
            exp_part = oracles.naive_exp([x0 * c for c in arctan])
            oracle = oracles.naive_mul(exp_part, oracles.naive_inverse_sqrt(u))
            egf = build_egf(x0, order)
            assert_fields_of_oracle(egf, oracle)
            assert egf.coeffs == tuple(oracle), (x0, order)


def test_build_egf_is_one_division_and_one_exp_with_no_series_product(monkeypatch):
    def refused(*args):
        raise AssertionError("build_egf must not take a series product")

    solves = []
    real_solve = series_module._solve
    monkeypatch.setattr(series_module, "_kronecker_mul", refused)
    monkeypatch.setattr(series_module, "_solve", lambda *args: solves.append(args) or real_solve(*args))
    for x0, order in ((1, 250), (Fraction(-3, 4), 30)):
        solves.clear()
        assert build_egf(x0, order).coefficient(order) * factorial(order) == meixner_eval(order, x0)
        assert len(solves) == 2, (x0, order)
