import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import comb, factorial, gcd, lcm

import pytest

from holoseq.operators import (
    DifferentialOperator,
    NonIntegerTermError,
    RecurrenceOperator,
    SingularRecurrenceError,
    egf_shift_weight,
)
from holoseq.guessing import guess_recurrence
from holoseq.parsing import parse_recurrence
from holoseq.polynomials import Polynomial, X
from holoseq.sequences import SequenceTable
from holoseq.series import Series
from holoseq.meixner import (
    A214615_INITIAL,
    A214615_RECURRENCE,
    a214615_terms,
    build_egf,
    egf_annihilator,
)

import oracles

ONE = Polynomial.constant(1)


def rand_table(rng, length):
    return [rng.randint(-9, 9) for _ in range(length)]


# --- shift/weight rule -------------------------------------------------


def test_shift_weight_trivial_cases():
    assert egf_shift_weight(0, 1) == (1, ONE)
    assert egf_shift_weight(2, 1) == (-1, X * (X - ONE))
    assert egf_shift_weight(1, 0) == (-1, X)
    assert egf_shift_weight(0, 0) == (0, ONE)


def test_shift_weight_rejects_negative_exponents():
    with pytest.raises(ValueError):
        egf_shift_weight(-1, 0)
    with pytest.raises(ValueError):
        egf_shift_weight(0, -1)


def test_shift_weight_matches_series_extraction_exhaustively():
    # n! [t^n] t^a F^(b) == fall(n, a) * a(n - a + b), checked for every
    # monomial with a <= 3, b <= 2 against literal differentiate-and-shift
    rng = random.Random(2024)
    for a_pow in range(4):
        for d_order in range(3):
            for _ in range(3):
                table = rand_table(rng, 12)
                shift, weight = egf_shift_weight(a_pow, d_order)
                assert shift == d_order - a_pow
                top = len(table) - d_order + a_pow
                for n in range(top):
                    lhs = oracles.egf_extraction_by_series(table, a_pow, d_order, n)
                    m = n + shift
                    rhs = weight(n) * (table[m] if 0 <= m < len(table) else 0)
                    assert lhs == rhs, (a_pow, d_order, n)


def test_monomial_recurrences_have_order_zero_degree_a():
    for a_pow in range(4):
        for d_order in range(3):
            op_coeffs = [Polynomial()] * d_order + [
                Polynomial((Fraction(0),) * a_pow + (Fraction(1),))
            ]
            rec = DifferentialOperator(tuple(op_coeffs)).to_recurrence()
            assert rec.order == 0
            assert rec.degree == a_pow


# --- ode_to_recurrence -------------------------------------------------


def test_extraction_golden_case():
    rec = egf_annihilator(1).to_recurrence()
    assert rec == A214615_RECURRENCE
    assert rec.n_min == 2
    assert rec.coeffs == (ONE, -ONE, (X - ONE) ** 2)


def test_extraction_first_order_exponential():
    d_minus_1 = DifferentialOperator((Polynomial.constant(-1), ONE))
    rec = d_minus_1.to_recurrence()
    assert rec.to_text() == "a(n) - a(n-1) = 0 for n >= 1"
    assert (rec.order, rec.degree) == (1, 0)


def test_extraction_claims_only_the_indices_it_proves():
    # D^2 - D kills 5 + e^t, whose table 6, 1, 1, ... fails a(n) = a(n-1) at n = 1
    five_plus_exp = Series(tuple(Fraction(1, factorial(n)) + (5 if n == 0 else 0) for n in range(13)))
    d2_minus_d = DifferentialOperator((Polynomial(), -ONE, ONE))
    assert d2_minus_d.apply(five_plus_exp).is_zero
    rec = d2_minus_d.to_recurrence()
    assert rec.to_text() == "a(n) - a(n-1) = 0 for n >= 2"
    table = five_plus_exp.egf_terms()
    assert table.terms[:3] == (6, 1, 1)
    assert rec.verify(table).passed
    assert rec.with_n_min(1).verify(table).first_failure == (1, -5)
    # D kills every constant; 7, 0, 0, ... fails a(n) = 0 at n = 0
    seven = Series((Fraction(7),) + (Fraction(0),) * 12)
    d = DifferentialOperator((Polynomial(), ONE))
    assert d.apply(seven).is_zero
    rec = d.to_recurrence()
    assert rec.to_text() == "a(n) = 0 for n >= 1"
    assert rec.verify(seven.egf_terms()).passed
    assert rec.with_n_min(0).verify(seven.egf_terms()).first_failure == (0, 7)


def test_extraction_x0_3_cross_checked_by_unroll():
    rec = egf_annihilator(3).to_recurrence()
    assert rec.to_text() == "a(n) - 3*a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"
    egf = build_egf(3, 30)
    unrolled = rec.unroll(SequenceTable(0, (1, 3)), 30)
    assert egf.egf_terms() == unrolled


def test_extraction_is_additive_in_the_operator():
    lhs = egf_annihilator(1)
    rhs = DifferentialOperator((X ** 2, X))
    merged = (lhs + rhs).to_recurrence()
    # recompute by collecting both operators' monomials in one weight table
    weights: dict[int, Polynomial] = {}
    for op in (lhs, rhs):
        for j, q in enumerate(op.coeffs):
            for a_pow, c in enumerate(q.coeffs):
                if c == 0:
                    continue
                s, w = egf_shift_weight(a_pow, j)
                weights[s] = weights.get(s, Polynomial()) + w * c
    assert merged == RecurrenceOperator.from_shift_weights(weights)


def test_power_band_family_order_equals_degree():
    # (1 + t^d) D - q0 with deg q0 < d gives a recurrence of order exactly d
    rng = random.Random(5)
    for d in (1, 2, 3):
        for _ in range(4):
            q0 = Polynomial(tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)))
            lead = Polynomial((Fraction(1),) + (Fraction(0),) * (d - 1) + (Fraction(1),))
            operator = DifferentialOperator((-q0, lead))
            rec = operator.to_recurrence()
            assert rec.order == d
            assert rec.degree == d


def naive_shift_weights(operator: DifferentialOperator) -> dict[int, list[Fraction]]:
    """w_s(n) as Fraction rows: each monomial c t^a D^b adds c * n (n-1) ... (n-a+1) to w_{b-a}."""
    weights: dict[int, list[Fraction]] = {}
    for b, q in enumerate(operator.coeffs):
        for a, c in enumerate(q.coeffs):
            if c == 0:
                continue
            fall = [Fraction(1)]
            for i in range(a):  # times (n - i)
                fall = [(fall[k - 1] if k else 0) - i * (fall[k] if k < len(fall) else 0)
                        for k in range(len(fall) + 1)]
            row = weights.setdefault(b - a, [])
            row.extend([Fraction(0)] * (len(fall) - len(row)))
            for k, f in enumerate(fall):
                row[k] += c * f
    return weights


def naive_reindexed(weights: dict[int, list[Fraction]]) -> list[list[Fraction]]:
    """p_k(m) = w_{s_max-k}(m - s_max), expanded by the binomial theorem, then scaled to integer
    rows with content 1 and a positive leading coefficient of p_0; trailing zeros dropped."""
    s_max, s_min = max(weights), min(weights)
    rows = []
    for k in range(s_max - s_min + 1):
        w = weights.get(s_max - k, [])
        p = [sum((w[i] * comb(i, j) * (-s_max) ** (i - j) for i in range(j, len(w))), Fraction(0))
             for j in range(len(w))]
        while p and p[-1] == 0:
            p.pop()
        rows.append(p)
    scale = lcm(*(v.denominator for p in rows for v in p))
    content = gcd(*(int(v * scale) for p in rows for v in p))
    scale = Fraction(scale if rows[0][-1] > 0 else -scale, content)
    return [[v * scale for v in p] for p in rows]


def random_rational_operator(rng, order: int, degree: int) -> DifferentialOperator:
    """q_0 + ... + q_order D^order, each q_j of t-degree <= degree over its own denominators."""
    coeffs = []
    for j in range(order + 1):
        denominators = rng.sample((1, 2, 3, 4, 5, 7, 9, 11), 2)
        q = [Fraction(rng.randint(-9, 9), rng.choice(denominators)) if rng.random() < 0.7 else 0
             for _ in range(rng.randint(0, degree) + 1)]
        coeffs.append(Polynomial(q))
    if coeffs[-1].is_zero:
        coeffs[-1] = Polynomial((0,) * rng.randint(0, degree) + (Fraction(-3, 7),))
    return DifferentialOperator(tuple(coeffs))


def test_to_recurrence_matches_a_naive_fraction_extraction():
    rng = random.Random(2301)
    operators = [random_rational_operator(rng, rng.randint(1, 3), 6) for _ in range(150)]
    # every monomial has b > a, so n_min = s_max: -D^2 + D (a(n) = a(n-1) for n >= 2), 3/4 D^3 - t D^3
    operators += [DifferentialOperator((Polynomial(), ONE, -ONE)),
                  DifferentialOperator((Polynomial(),) * 3 + (Polynomial((Fraction(3, 4), -1)),))]
    shapes = set()
    for operator in operators:
        weights = naive_shift_weights(operator)
        rec = operator.to_recurrence()
        assert [list(p.coeffs) for p in rec.coeffs] == naive_reindexed(weights)
        order = max(weights) - min(weights)
        assert rec.n_min == max(order, max(weights))
        assert all(p._den == 1 for p in rec.coeffs)
        shapes.add(rec.n_min > order)
        shapes.add(len({q._den for q in operator.coeffs if not q.is_zero}) > 1)
    assert shapes == {True, False}
    assert operators[-2].to_recurrence().to_text() == "a(n) - a(n-1) = 0 for n >= 2"


def test_canonical_recurrence_coefficients_are_integers_over_den_1():
    rng = random.Random(2302)
    for _ in range(100):
        weights = {s: [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 6, 35)))
                       for _ in range(rng.randint(1, 4))]
                   for s in rng.sample(range(-3, 4), rng.randint(1, 4))}
        for row in weights.values():
            row[-1] = row[-1] or Fraction(1, 3)
        given = {s: Polynomial(row) if len(row) > 1 else row[0] for s, row in weights.items()}
        rec = RecurrenceOperator.from_shift_weights(given)
        assert [list(p.coeffs) for p in rec.coeffs] == naive_reindexed(weights)
        assert rec.n_min == rec.order
        assert all(p._den == 1 for p in rec.coeffs)
    rec = RecurrenceOperator((Polynomial((Fraction(1, 2), Fraction(-2, 3))), Fraction(5, 7)), 1)
    assert [p._den for p in rec.coeffs] == [1, 1]
    assert [p._nums for p in rec.coeffs] == [(-21, 28), (-30,)]


def per_monomial_weights(operator: DifferentialOperator) -> dict[int, Polynomial]:
    """The public per-monomial route: the egf_shift_weight of each c t^a D^b, times c, summed
    by shift as Polynomials."""
    weights: dict[int, Polynomial] = {}
    for b, q in enumerate(operator.coeffs):
        for a, c in enumerate(q.coeffs):
            if c:
                s, w = egf_shift_weight(a, b)
                weights[s] = weights.get(s, Polynomial()) + w * c
    return weights


def operator_with_every_b_above_a(rng, order: int) -> DifferentialOperator:
    """q_1 D + ... + q_order D^order with deg q_b < b and q_0 = 0: every monomial t^a D^b has
    b > a, so every shift is positive."""
    coeffs = [Polynomial()]
    for b in range(1, order + 1):
        q = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(rng.randint(1, b))]
        coeffs.append(Polynomial(q))
    if coeffs[-1].is_zero:
        coeffs[-1] = Polynomial((Fraction(5, 3),))
    return DifferentialOperator(tuple(coeffs))


def test_to_recurrence_equals_from_shift_weights_of_the_per_monomial_weights():
    rng = random.Random(3601)
    operators = [random_rational_operator(rng, rng.randint(0, 3), 4) for _ in range(200)]
    operators += [operator_with_every_b_above_a(rng, rng.randint(1, 3)) for _ in range(40)]
    shapes = set()
    for operator in operators:
        weights = per_monomial_weights(operator)
        expected = RecurrenceOperator.from_shift_weights(weights)
        rec = operator.to_recurrence()
        assert rec == expected.with_n_min(max(expected.order, max(weights)))
        shapes.add(("all b > a", min(weights) > 0))
        shapes.add(("mixed denominators", len({q._den for q in operator.coeffs if not q.is_zero}) > 1))
        shapes.add(("D-order 0", operator.order == 0))
    assert shapes == {(shape, seen) for shape in ("all b > a", "mixed denominators", "D-order 0")
                      for seen in (True, False)}


def test_recurrence_producers_build_no_polynomial_per_recurrence_coefficient(monkeypatch):
    # to_recurrence, guess_recurrence and the reindexing hand their integer rows to the one
    # canonicalization; parse_recurrence builds one Polynomial per atom of its text: each
    # a(n+s) and the polynomial part, the "0" on the right
    rng = random.Random(3602)
    operators = [random_rational_operator(rng, rng.randint(0, 3), 4) for _ in range(100)]
    operators += [operator_with_every_b_above_a(rng, 3),
                  DifferentialOperator((X, Polynomial(), (X + ONE) ** 60))]
    built = []
    init = Polynomial.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    recs = []
    for operator in operators:
        built.clear()
        recs.append(operator.to_recurrence())
        assert built == []
    assert recs[-1].order == 60
    built.clear()
    assert guess_recurrence(a214615_terms(40), 2, 2) == [A214615_RECURRENCE]
    assert built == []
    for rec in recs[:-1]:
        text = rec.to_text()
        built.clear()
        assert parse_recurrence(text) == rec
        assert len(built) == text.count("a(") + 1
    built.clear()
    assert A214615_RECURRENCE.with_n_min(5).n_min == 5
    assert built == []


def test_bridge_integer_inputs_reject_bools_and_non_ints():
    for args, name in (((0, 1.5), "d_order"), ((True, 0), "t_power"), ((0, False), "d_order"),
                       ((Fraction(1), 0), "t_power")):
        with pytest.raises(TypeError, match=rf"^{name} must be an int$"):
            egf_shift_weight(*args)
    with pytest.raises(TypeError, match=r"^shift True must be an int$"):
        RecurrenceOperator.from_shift_weights({True: 1, 0: -1})
    with pytest.raises(TypeError, match=r"^shift 1\.5 must be an int$"):
        RecurrenceOperator.from_shift_weights({1.5: 1, 0: -1})
    for valid_from in (True, 1.0, "1"):
        with pytest.raises(TypeError, match=r"^valid_from must be an int$"):
            RecurrenceOperator.from_shift_weights({1: 1, 0: -1}, valid_from=valid_from)
    with pytest.raises(TypeError, match=r"^expected an int or a Fraction, got float 0\.5$"):
        RecurrenceOperator.from_shift_weights({1: 1, 0: 0.5})
    # the int spellings: a(n+1) - a(n) = 0 for n >= 1 is a(n) - a(n-1) = 0 for n >= 2
    rec = RecurrenceOperator.from_shift_weights({1: 1, 0: -1}, valid_from=1)
    assert rec == RecurrenceOperator((ONE, -ONE), 2)


# --- apply -------------------------------------------------------------


def test_apply_d_to_polynomial_series():
    d = DifferentialOperator((Polynomial(), ONE))
    f = Series.from_polynomial(Polynomial((1, 1)), 3)
    assert d.apply(f) == Series.one(2)


def test_apply_requires_enough_order():
    with pytest.raises(ValueError):
        egf_annihilator(1).apply(Series.one(0))


def test_annihilator_kills_its_egf():
    for x0 in (0, 1, 2, -1, Fraction(1, 2)):
        egf = build_egf(x0, 25)
        assert egf_annihilator(x0).apply(egf).is_zero


def test_wrong_annihilator_leaves_residual():
    egf = build_egf(1, 20)
    assert not egf_annihilator(2).apply(egf).is_zero


# --- construction and normalization ------------------------------------


def test_normalization_clears_denominators_content_and_sign():
    scaled = RecurrenceOperator(
        tuple(p * Fraction(-3, 2) for p in A214615_RECURRENCE.coeffs), 2
    )
    assert scaled == A214615_RECURRENCE
    doubled = RecurrenceOperator(
        tuple(p * 4 for p in A214615_RECURRENCE.coeffs), 2
    )
    assert doubled == A214615_RECURRENCE


def test_stored_rows_are_the_primitive_flat_values_with_p0_leading_positive():
    # the one canonicalization, reached from Polynomials, ints and Fractions and from int rows
    rng = random.Random(4101)
    shapes = set()
    for _ in range(300):
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 10)))
                 for _ in range(rng.randint(0, 4))] for _ in range(rng.randint(1, 4))]
        rows[0].append(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 4))))
        rows += [[]] * rng.randint(0, 2)
        given = [Polynomial(row) if len(row) > 1 or rng.random() < 0.3
                 else row[0] if row and row[0].denominator > 1 else int(row[0]) if row else 0
                 for row in rows]
        rec = RecurrenceOperator(given, 3)
        trimmed = [Polynomial(row).coeffs for row in rows]
        while not trimmed[-1]:
            trimmed.pop()
        flat = oracles.primitive([c for row in trimmed for c in row])
        sign = 1 if flat[len(trimmed[0]) - 1] > 0 else -1
        flat = iter(flat)
        assert rec._rows == tuple(tuple(sign * next(flat) for _ in row) for row in trimmed)
        assert all(type(c) is int for row in rec._rows for c in row)
        scale = rng.choice((-6, -1, 1, 35)) * lcm(*(c.denominator for row in rows for c in row))
        int_rows = [[int(c * scale) for c in row] + [0] * rng.randint(0, 2) for row in rows]
        built = RecurrenceOperator._from_rows(int_rows, 3)
        assert built == rec and hash(built) == hash(rec)
        assert rec.with_n_min(0)._rows == rec._rows and rec.with_n_min(0).n_min == 0
        shapes.add(("p_0 leads negative", rows[0][-1] < 0))
        shapes.add(("trailing zero rows", len(trimmed) < len(rows)))
        shapes.add(("sign flipped", sign < 0))
    assert shapes == {(shape, seen) for seen in (True, False)
                      for shape in ("p_0 leads negative", "trailing zero rows", "sign flipped")}


def test_equality_includes_n_min():
    assert A214615_RECURRENCE.with_n_min(1) != A214615_RECURRENCE
    assert A214615_RECURRENCE.with_n_min(1).coeffs == A214615_RECURRENCE.coeffs


def test_zero_leading_coefficient_rejected():
    with pytest.raises(ValueError):
        RecurrenceOperator((Polynomial(), ONE), 1)
    with pytest.raises(ValueError):
        RecurrenceOperator((), 0)
    with pytest.raises(TypeError, match=r"^n_min must be an int$"):
        RecurrenceOperator((Polynomial.constant(1),), 1.5)
    with pytest.raises(ValueError, match=r"^all shift weights are zero; no recurrence to build$"):
        RecurrenceOperator.from_shift_weights({0: 0})


def test_bools_are_rejected_where_ints_are_stored_and_printed():
    # bool is an int subclass: it would print as "True" and fail to parse back
    with pytest.raises(TypeError, match=r"^offset must be an int$"):
        SequenceTable(True, (1, 2))
    with pytest.raises(TypeError, match=r"^sequence terms must be ints, got True$"):
        SequenceTable(0, (True, False, 3))
    with pytest.raises(TypeError, match=r"^n_min must be an int$"):
        RecurrenceOperator((ONE, -ONE), True)
    with pytest.raises(TypeError, match=r"^sequence terms must be ints, got False$"):
        RecurrenceOperator((ONE, -ONE), 1).verify(iter([(0, 1), (1, False)]))


def test_verify_checks_the_type_of_int_stream_terms_after_a_failure():
    rec = RecurrenceOperator((ONE, -ONE), 1)
    report = rec.verify(iter([(0, 1), (1, 2), (2, 2), (3, 2)]))
    assert report.first_failure == (1, 1) and report.n_last_checked == 1
    with pytest.raises(TypeError, match=r"^sequence terms must be ints, got 2\.5$"):
        rec.verify(iter([(0, 1), (1, 2), (2, 2.5)]))
    with pytest.raises(TypeError, match=r"^sequence terms must be ints, got '3'$"):
        rec.verify(iter([(0, 1), (1, 2), (2, 2), (3, "3")]))


def test_trailing_zero_polynomials_trimmed():
    rec = RecurrenceOperator((ONE, -ONE, Polynomial()), 1)
    assert rec.order == 1


def test_order_and_degree_examples():
    assert (A214615_RECURRENCE.order, A214615_RECURRENCE.degree) == (2, 2)
    constant = RecurrenceOperator((ONE, -ONE), 1)
    assert (constant.order, constant.degree) == (1, 0)


# --- unroll ------------------------------------------------------------


def test_unroll_golden_terms():
    table = A214615_RECURRENCE.unroll(A214615_INITIAL, 11)
    assert table.terms == (1, 1, 0, -4, -4, 60, 160, -2000, -9840, 118160, 915200, -10900800)


def test_unroll_prefix_when_target_inside_initial():
    table = A214615_RECURRENCE.unroll(A214615_INITIAL, 1)
    assert table == A214615_INITIAL
    assert A214615_RECURRENCE.unroll(A214615_INITIAL, 0) == SequenceTable(0, (1,))


def test_unrolled_yields_from_the_offset_and_checks_n_min_at_the_first_index_to_solve():
    rec = RecurrenceOperator((ONE, -X), 6)  # a(n) = n*a(n-1) for n >= 6
    entries = rec._unrolled((4, 9), 3)
    assert list(islice(entries, 2)) == [(3, 4), (4, 9)]
    with pytest.raises(ValueError, match="^initial terms end at 4 but the recurrence only holds for n >= 6$"):
        next(entries)
    solved = [(3, 4), (4, 9), (5, 2), (6, 12), (7, 84), (8, 672)]
    assert list(islice(rec._unrolled((4, 9, 2), 3), 6)) == solved
    assert rec.unroll(SequenceTable(3, (4, 9, 2)), 8) == SequenceTable(3, (4, 9, 2, 12, 84, 672))
    assert rec.unroll(SequenceTable(3, (4, 9)), 4) == SequenceTable(3, (4, 9))
    assert rec.unroll(SequenceTable(3, (4, 9)), 3) == SequenceTable(3, (4,))


def test_unroll_needs_initial_up_to_n_min():
    with pytest.raises(ValueError):
        A214615_RECURRENCE.unroll(SequenceTable(0, (1,)), 5)


def test_unroll_with_low_n_min_uses_zero_convention():
    relaxed = A214615_RECURRENCE.with_n_min(1)
    table = relaxed.unroll(SequenceTable(0, (1,)), 11)
    assert table == a214615_terms(11)


def test_unroll_constant_sequence():
    rec = RecurrenceOperator((ONE, -ONE), 1)
    assert rec.unroll(SequenceTable(0, (7,)), 5).terms == (7,) * 6


def test_unroll_singular_point():
    # (n-5)*a(n) - (n-5)*a(n-1) = 0: every step gives a(n) = a(n-1)
    # exactly, until p_0(n) = n - 5 vanishes at n = 5.
    p = X - Polynomial.constant(5)
    rec = RecurrenceOperator((p, -p), 1)
    with pytest.raises(SingularRecurrenceError) as info:
        rec.unroll(SequenceTable(0, (1,)), 10)
    assert info.value.n == 5


def test_unroll_non_integer_term():
    rec = RecurrenceOperator((Polynomial.constant(2), -ONE), 1)
    with pytest.raises(NonIntegerTermError) as info:
        rec.unroll(SequenceTable(0, (1,)), 3)
    assert info.value.n == 1
    assert info.value.value == Fraction(1, 2)


def test_unroll_non_integer_5000_digit_term_is_typed(default_digit_cap):
    halving = RecurrenceOperator((Polynomial.constant(2), -ONE), 1)
    odd = 10**4999 + 1
    with pytest.raises(NonIntegerTermError) as info:
        halving.unroll(SequenceTable(0, (odd,)), 1)
    assert (info.value.n, info.value.value) == (1, Fraction(odd, 2))


def test_unroll_bad_target():
    with pytest.raises(ValueError):
        A214615_RECURRENCE.unroll(A214615_INITIAL, -1)


# --- verify ------------------------------------------------------------


def test_verify_golden_range():
    report = A214615_RECURRENCE.verify(a214615_terms(11))
    assert report.passed
    assert (report.n_first_checked, report.n_last_checked) == (2, 11)
    assert report.first_failure is None


def test_verify_detects_single_corruption():
    table = a214615_terms(11)
    bad = table.replaced(7, table.term(7) + 1)
    report = A214615_RECURRENCE.verify(bad)
    assert not report.passed
    assert report.first_failure is not None
    assert report.first_failure[0] == 7
    assert report.n_last_checked == 7


def test_verify_zero_convention_below_offset():
    # same coefficients, stated from n >= 1: needs a(-1) * (n-1)^2 |_{n=1} = 0
    relaxed = A214615_RECURRENCE.with_n_min(1)
    report = relaxed.verify(a214615_terms(11))
    assert report.passed
    assert report.n_first_checked == 1


def test_verify_powers_of_two():
    rec = RecurrenceOperator((ONE, Polynomial.constant(-2)), 1)
    table = SequenceTable(0, tuple(2 ** n for n in range(12)))
    assert rec.verify(table).passed
    assert not rec.verify(table.replaced(5, 33)).passed


def test_verify_starts_at_offset_for_shifted_tables():
    rec = RecurrenceOperator((ONE, -ONE), 1)
    table = SequenceTable(4, (3, 3, 3))
    report = rec.verify(table)
    # a(3) is below the table, counted as zero, so n = 4 FAILS: a(4) - 0 != 0
    assert not report.passed
    assert report.first_failure == (4, 3)


def test_verify_table_entirely_below_n_min():
    with pytest.raises(ValueError):
        A214615_RECURRENCE.verify(SequenceTable(0, (1, 1)))


def test_unroll_then_verify_round_trip_random():
    rng = random.Random(424242)
    for _ in range(20):
        order = rng.randint(1, 3)
        degree = rng.randint(0, 2)
        coeffs = [ONE]
        for _ in range(order):
            coeffs.append(
                Polynomial(tuple(Fraction(rng.randint(-3, 3)) for _ in range(degree + 1)))
            )
        rec = RecurrenceOperator(tuple(coeffs), 0)
        rec = rec.with_n_min(rec.order)
        if rec.order == 0:
            continue
        initial = SequenceTable(0, tuple(rng.randint(-5, 5) for _ in range(rec.order)))
        table = rec.unroll(initial, 20)
        assert rec.verify(table).passed


def _random_row(rng, near):
    """Coefficients of a p_k(n); the linear and quadratic kinds take -1, 0 and 1 near ``near``."""
    c = rng.randint(near - 2, near + 12)
    return rng.choice((
        [rng.choice((-1, 1))],
        [rng.randint(-6, 6)],
        [-c, 1],
        [c, -1],
        [c * c - 1, -2 * c, 1],
        [rng.randint(-3, 3) for _ in range(3)],
    ))


def _is_composite(v):
    v = abs(int(v))
    return v > 3 and any(v % q == 0 for q in range(2, v))


def test_unroll_and_verify_match_fraction_oracle_random():
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(400):
        offset = rng.choice((0, 1, 5))
        order = rng.randint(1, 3)
        n_min = rng.randint(offset - 3, offset + order)
        initial = [rng.randint(-5, 5) for _ in range(max(1, n_min - offset) + rng.randint(0, 2))]
        start = offset + len(initial)
        n_max = start + rng.randint(0, 12)
        rows = [[Fraction(c) for c in _random_row(rng, start)] for _ in range(order + 1)]
        if not any(rows[0]):
            rows[0] = [Fraction(1)]
        rec = RecurrenceOperator(tuple(Polynomial(tuple(row)) for row in rows), n_min)

        expected, failure = oracles.unroll_by_fractions(rows, offset, initial, n_max)
        if failure is None:
            table = rec.unroll(SequenceTable(offset, tuple(initial)), n_max)
            assert table.terms == tuple(expected)
            seen["complete"] += 1
        else:
            error = SingularRecurrenceError if failure[0] == "singular" else NonIntegerTermError
            with pytest.raises(error) as info:
                rec.unroll(SequenceTable(offset, tuple(initial)), n_max)
            assert info.value.n == failure[1]
            if error is NonIntegerTermError:
                assert info.value.value == failure[2]
            seen[failure[0]] += 1
        for n in range(start, offset + len(expected) + (failure is not None)):
            lead = oracles.power_sum(rows[0], n)
            if any(rows[0][1:]):
                seen["p_0 = +-1"] += abs(lead) == 1
                seen["p_0 composite"] += _is_composite(lead)
            for k in range(1, order + 1):
                value = oracles.power_sum(rows[k], n)
                if n - k >= offset and value in (-1, 0, 1):
                    seen[f"p_k = {value}"] += 1

        canonical = [list(p.coeffs) for p in rec.coeffs]
        first, last = max(n_min, offset), offset + len(expected) - 1
        if last < first:
            with pytest.raises(ValueError):
                rec.verify(SequenceTable(offset, tuple(expected)))
            continue
        variants = [expected, [rng.randint(-9, 9) for _ in expected]]
        for i in (first, last):
            bad = list(expected)
            bad[i - offset] += rng.choice((-1, 1)) * rng.randint(1, 5)
            variants.append(bad)
        for terms in variants:
            want = oracles.verify_by_fractions(canonical, n_min, offset, terms)
            report = rec.verify(SequenceTable(offset, tuple(terms)))
            got = (report.passed, report.n_first_checked, report.n_last_checked, report.first_failure)
            assert got == want
            if want[3] is not None:
                seen["fails at first"] += want[3][0] == first
                seen["fails at last"] += want[3][0] == last > first
    for case in ("complete", "singular", "non-integer", "p_0 = +-1", "p_0 composite",
                 "p_k = -1", "p_k = 0", "p_k = 1", "fails at first", "fails at last"):
        assert seen[case] > 0, case


# --- extraction/verification consistency --------------------------------


def test_extracted_recurrence_holds_whenever_operator_annihilates():
    cases = [(egf_annihilator(x0), build_egf(x0, 24)) for x0 in (0, 1, 2, -1)]
    rng = random.Random(4441)

    def rational_polynomial(degree, denominators):
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice(denominators)) for _ in range(degree)]
        return Polynomial(coeffs + [Fraction(1, denominators[-1])])

    for x0 in (1, -2, 3):
        # L = (1+t^2)*D - (x0-t) kills F, so does D L = (1+t^2)*D^2 + (3t-x0)*D + 1, and so does
        # r L + s D L: Fraction coefficients over different denominators, of t-degree up to 42
        derived = DifferentialOperator((ONE, Polynomial((-x0, 3)), Polynomial((1, 0, 1))))
        r = rational_polynomial(rng.randint(20, 40), (1, 2, 4))
        s = rational_polynomial(rng.randint(0, 40), (3, 9))
        operator = DifferentialOperator(tuple(r * q for q in egf_annihilator(x0).coeffs))
        operator = operator + DifferentialOperator(tuple(s * q for q in derived.coeffs))
        assert len({lcm(*(c.denominator for c in q.coeffs)) for q in operator.coeffs}) > 1
        cases.append((operator, build_egf(x0, 100)))
    for operator, egf in cases:
        assert operator.apply(egf).is_zero
        rec = operator.to_recurrence()
        terms = egf.egf_terms()
        report = rec.verify(terms)
        assert report.passed and report.n_last_checked == len(terms) - 1
        corrupted = SequenceTable(0, terms.terms[:-1] + (terms.terms[-1] + 1,))
        assert not rec.verify(corrupted).passed


def test_mismatched_operator_fails_both_ways():
    operator = egf_annihilator(2)
    egf = build_egf(1, 24)
    assert not operator.apply(egf).is_zero
    assert not operator.to_recurrence().verify(egf.egf_terms()).passed


# --- text --------------------------------------------------------------


def test_operator_text_golden():
    assert egf_annihilator(1).to_text() == "(1+t^2)*D - (1-t)"
    assert A214615_RECURRENCE.to_text() == "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"


def test_operator_text_variants():
    assert DifferentialOperator((Polynomial.constant(-1), ONE)).to_text() == "D - 1"
    assert DifferentialOperator((Polynomial(), X)).to_text() == "t*D"
    second = DifferentialOperator((ONE, Polynomial(), Polynomial((0, 0, 1))))
    assert second.to_text() == "t^2*D^2 + 1"
    eq10 = A214615_RECURRENCE.with_n_min(1)
    assert eq10.to_text() == "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 1"


def test_differential_operator_sum():
    first = DifferentialOperator((ONE, X))
    second = DifferentialOperator((X, Polynomial.constant(2), Polynomial((0, 0, 3))))
    expected = DifferentialOperator((Polynomial((1, 1)), Polynomial((2, 1)), Polynomial((0, 0, 3))))
    assert first + second == expected and second + first == expected  # of different lengths
    cancelled = second + DifferentialOperator((ONE, ONE, Polynomial((0, 0, -3))))
    assert cancelled == DifferentialOperator((Polynomial((1, 1)), Polynomial.constant(3)))
    assert cancelled.order == 1
    with pytest.raises(ValueError, match=r"^the zero operator has no order; refusing to build it$"):
        second + DifferentialOperator((-X, Polynomial.constant(-2), Polynomial((0, 0, -3))))
    with pytest.raises(TypeError):
        first + ONE
    with pytest.raises(TypeError):
        first + 1


def test_zero_differential_operator_rejected():
    with pytest.raises(ValueError):
        DifferentialOperator((Polynomial(),))
