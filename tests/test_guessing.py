import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from holoseq import guessing
from holoseq.guessing import InsufficientTermsError, guess_recurrence, nullspace
from holoseq.meixner import A214615_RECURRENCE, a214615_terms, build_egf, egf_annihilator
from holoseq.operators import RecurrenceOperator
from holoseq.polynomials import Polynomial
from holoseq.sequences import SequenceTable

import oracles

ONE = Polynomial.constant(1)


# --- nullspace ----------------------------------------------------------


def test_nullspace_identity_is_trivial():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace(identity) == []


def test_nullspace_one_equation():
    assert nullspace([[1, 1]]) == [(1, -1)]


def test_nullspace_zero_matrix():
    basis = nullspace([[0, 0], [0, 0]])
    assert basis == [(1, 0), (0, 1)]


def test_nullspace_rational_entries():
    basis = nullspace([[Fraction(1, 2), Fraction(1, 3)]])
    assert basis == [(2, -3)]


def test_nullspace_vectors_are_primitive_and_sign_normalized():
    basis = nullspace([[2, 4, 6]])
    for vector in basis:
        from math import gcd

        assert gcd(*vector) == 1
        assert next(v for v in vector if v) > 0


def test_nullspace_matches_fraction_oracle_random():
    rng = random.Random(31415)
    matrices = []
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        matrices.append([
            [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(ncols)]
            for _ in range(nrows)
        ])
    # Rank-deficient integer products B*C (B is n x k, C is k x m, k < min(n, m)):
    # the pivots are large minors, so back substitution divides by numbers far from +-1.
    for _ in range(20):
        n, m = rng.randint(2, 12), rng.randint(2, 12)
        k = rng.randint(1, min(n, m) - 1)
        b = [[rng.randint(-10**6, 10**6) for _ in range(k)] for _ in range(n)]
        c = [[rng.randint(-10**6, 10**6) for _ in range(m)] for _ in range(k)]
        matrices.append([[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(m)] for i in range(n)])
    # Tall matrices, more rows than the ncols + 1 of a head: every row counts.  One row repeated
    # over the first ncols + 1 leaves a nullspace that only the rows below it cut down.
    def product(n, m, k):
        b = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5))) for _ in range(k)] for _ in range(n)]
        c = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(k)]
        return [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(m)] for i in range(n)]

    for _ in range(20):
        m = rng.randint(1, 8)
        matrices.append(product(rng.randint(m + 2, 3 * m + 4), m, rng.randint(1, m)))
    for _ in range(20):
        m = rng.randint(2, 8)
        repeated = [rng.randint(1, 9)] + [Fraction(rng.randint(-9, 9), 3) for _ in range(m - 1)]
        tail = product(rng.randint(1, 2 * m + 3), m, rng.randint(1, m))
        matrices.append([repeated] * (m + 1) + tail)
    for matrix in matrices:
        got = nullspace(matrix)
        expected = oracles.gauss_nullspace(matrix)
        assert len(got) == len(expected)
        got_lists = [[Fraction(x) for x in v] for v in got]
        # the very same basis, vector by vector, up to scale
        assert [oracles.normalize_direction(v) for v in got_lists] == [
            oracles.normalize_direction(v) for v in expected
        ]
        # same subspace: every vector of each basis lies in the other's span
        for vector in got_lists:
            assert oracles.in_span(vector, expected)
        for vector in expected:
            assert oracles.in_span(vector, got_lists)
        # and the basis actually annihilates the matrix
        for vector in got:
            for row in matrix:
                assert sum(r * v for r, v in zip(row, vector)) == 0


def test_nullspace_rejects_floats():
    with pytest.raises(TypeError):
        nullspace([[0.5, 1]])
    with pytest.raises(TypeError):  # in a row below the first ncols + 1
        nullspace([[1, 2], [3, 4], [5, 6], [0.5, 1]])


def test_nullspace_rejects_ragged_input():
    with pytest.raises(ValueError):
        nullspace([[1, 2], [1]])
    with pytest.raises(ValueError):  # in a row below the first ncols + 1
        nullspace([[1, 2], [3, 4], [5, 6], [1]])
    with pytest.raises(ValueError):
        nullspace([])


# --- guess_recurrence ---------------------------------------------------


def test_guess_golden_terms_unique_candidate():
    candidates = guess_recurrence(a214615_terms(11), 2, 2)
    assert candidates == [A214615_RECURRENCE.with_n_min(2)]
    assert candidates[0].to_text() == "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"


def test_guess_constant_sequence():
    table = SequenceTable(0, (1,) * 12)
    candidates = guess_recurrence(table, 1, 0)
    assert [c.to_text() for c in candidates] == ["a(n) - a(n-1) = 0 for n >= 1"]


def test_guess_factorials():
    table = SequenceTable(0, tuple(factorial(n) for n in range(10)))
    candidates = guess_recurrence(table, 1, 1)
    assert [c.to_text() for c in candidates] == ["a(n) - n*a(n-1) = 0 for n >= 1"]


def test_guess_at_offset_one():
    terms = a214615_terms(20).terms
    candidates = guess_recurrence(SequenceTable(1, terms[1:]), 2, 2)
    assert [c.to_text() for c in candidates] == [
        "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 3"
    ]
    factorials = SequenceTable(1, tuple(factorial(n) for n in range(1, 10)))
    assert [c.to_text() for c in guess_recurrence(factorials, 1, 1)] == [
        "a(n) - n*a(n-1) = 0 for n >= 2"
    ]


def test_guess_at_offset_five():
    table = SequenceTable(5, a214615_terms(40).terms[5:])
    candidates = guess_recurrence(table, 2, 2)
    assert [c.to_text() for c in candidates] == [
        "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 7"
    ]
    assert all(c.verify(table).n_first_checked == 7 for c in candidates)


def test_guess_rejects_a_fit_that_fails_only_below_the_equations():
    # a(offset) = 5 breaks a(n) = 2*a(n-1) at n = offset + 1 alone.  At bounds
    # (2, 0) the equations start at n = offset + 2, so their nullspace is that
    # order-1 relation, and only the check below offset + 2 can reject it.
    for offset in (0, 5):
        table = SequenceTable(offset, (5,) + tuple(2**n for n in range(1, 9)))
        equations = range(offset + 2, table.last_index + 1)
        assert nullspace([[table.term(n - k) for k in range(3)] for n in equations]) == [(1, -2, 0)]
        doubling = RecurrenceOperator(
            (Polynomial.constant(1), Polynomial.constant(-2)), offset + 1
        )
        assert doubling.verify(table).first_failure == (offset + 1, -8)
        assert guess_recurrence(table, 2, 0) == []


def test_guess_insufficient_terms_boundary():
    # order 2, degree 2 needs (2+1)(2+1) + 2 + 1 = 12 terms
    with pytest.raises(InsufficientTermsError):
        guess_recurrence(a214615_terms(10), 2, 2)
    assert guess_recurrence(a214615_terms(11), 2, 2)


def test_guess_rejects_negative_bounds():
    with pytest.raises(ValueError, match=r"^order and degree bounds must be >= 0$"):
        guess_recurrence(a214615_terms(20), -1, 2)


@pytest.mark.parametrize("bounds, name", [
    ((2.0, 2), "max_order"), ((2, 2.0), "max_degree"), ((True, 2), "max_order"),
    ((2, False), "max_degree"), (("2", 2), "max_order"), ((2, None), "max_degree"),
    ((Fraction(2), 2), "max_order"),
])
def test_guess_rejects_bounds_that_are_not_ints(bounds, name):
    # A float would fail inside range and True would run as order 1; each is refused by name.
    with pytest.raises(TypeError, match=rf"^{name} must be an int$"):
        guess_recurrence(a214615_terms(20), *bounds)


def test_guess_empty_result_is_normal():
    # primes are not P-recursive at these bounds
    primes = SequenceTable(0, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert guess_recurrence(primes, 1, 1) == []


def test_guess_loop_closure_with_extraction():
    table = build_egf(1, 30).egf_terms()
    candidates = guess_recurrence(table, 2, 2)
    assert candidates == [egf_annihilator(1).to_recurrence()]


def test_guess_candidates_all_verify():
    rng = random.Random(777)
    for _ in range(10):
        table = SequenceTable(0, tuple(rng.randint(-4, 4) for _ in range(14)))
        try:
            candidates = guess_recurrence(table, 2, 1)
        except InsufficientTermsError:
            raise AssertionError("14 terms must be enough for order 2 degree 1")
        for candidate in candidates:
            assert candidate.verify(table).passed


def test_guess_round_trip_recovers_known_recurrences():
    # completeness at bound: unroll a known R with p_0 = 1, then re-guess it
    rng = random.Random(20260819)
    trials = 0
    recovered = 0
    while trials < 20:
        order = rng.randint(1, 2)
        degree = rng.randint(0, 2)
        coeffs = [ONE] + [
            Polynomial(tuple(Fraction(rng.randint(-3, 3)) for _ in range(degree + 1)))
            for _ in range(order)
        ]
        rec = RecurrenceOperator(tuple(coeffs), 0)
        rec = rec.with_n_min(rec.order)
        if rec.order == 0:
            continue
        initial = SequenceTable(0, tuple(rng.randint(-3, 3) for _ in range(rec.order)))
        terms = rec.unroll(initial, (rec.order + 1) * (degree + 1) + rec.order + 6)
        trials += 1
        candidates = guess_recurrence(terms, rec.order, degree)
        for candidate in candidates:
            assert candidate.verify(terms).passed
        # a 1-dimensional fit space must come back as exactly R
        matrix = [
            [Fraction(n) ** j * terms.term(n - k) for k in range(rec.order + 1) for j in range(degree + 1)]
            for n in range(terms.offset + rec.order, terms.last_index + 1)
        ]
        if len(oracles.gauss_nullspace(matrix)) == 1:
            assert candidates == [rec], (rec.to_text(), [c.to_text() for c in candidates])
        if rec in candidates:
            recovered += 1
    # the generic case: almost every random recurrence comes back verbatim
    assert recovered >= 15


def test_guess_ordering_is_deterministic():
    table = a214615_terms(13)
    first = guess_recurrence(table, 2, 2)
    second = guess_recurrence(table, 2, 2)
    assert first == second
    for earlier, later in zip(first, first[1:]):
        assert (earlier.order, earlier.degree) <= (later.order, later.degree)


# --- minimal-first walk -------------------------------------------------


def _first_order_table(offset, m, first, length):
    """a(n) + (n - m)*a(n-1) = 0 from a(offset) = first: zero from a(m) on when m > offset."""
    rec = RecurrenceOperator((ONE, Polynomial((-m, 1))), offset + 1)
    return rec.unroll(SequenceTable(offset, (first,)), offset + length - 1)


def test_guess_eventually_zero_sequence():
    table = _first_order_table(0, 2, 1, 12)
    assert table.terms[:4] == (1, 1, 0, 0)
    assert [c.to_text() for c in guess_recurrence(table, 1, 1)] == [
        "a(n) - (2-n)*a(n-1) = 0 for n >= 1"
    ]
    # n(n-1)*a(n) = 0 has 3 unknowns, fewer than the 4 of the order-1 fit
    n_n_minus_1 = RecurrenceOperator((Polynomial((0, -1, 1)),), 0)
    assert guess_recurrence(table, 2, 2) == [n_n_minus_1]
    assert n_n_minus_1.verify(table).passed


def test_guess_prefers_fewer_unknowns_over_lower_order():
    # 1, 3, 6, 6, 0, 0, ...: the (1, 1) fit has 4 unknowns, n(n-1)(n-2)(n-3)*a(n) = 0 has 5
    table = _first_order_table(0, 4, 1, 30)
    assert table.terms[:6] == (1, 3, 6, 6, 0, 0)
    assert [c.to_text() for c in guess_recurrence(table, 4, 4)] == [
        "a(n) - (4-n)*a(n-1) = 0 for n >= 1"
    ]


def test_guess_at_large_bounds_returns_only_the_minimal_recurrence():
    table = a214615_terms(201)
    assert guess_recurrence(table, 12, 12) == [A214615_RECURRENCE.with_n_min(2)]


def _direction(rows):
    trimmed = [list(row) for row in rows]
    for row in trimmed:
        while row and row[-1] == 0:
            row.pop()
    lead = next(c for row in trimmed for c in row if c)
    return tuple(tuple(Fraction(c) / lead for c in row) for row in trimmed)


def test_guess_matches_minimal_fits_oracle():
    rng = random.Random(8128)
    cases = []  # (table, r, d)
    for offset in (0, 1, 5):
        for _ in range(35):  # unrolled random recurrences with p_0 = 1
            order, degree = rng.randint(1, 2), rng.randint(0, 2)
            rows = [ONE] + [
                Polynomial(tuple(rng.randint(-3, 3) for _ in range(degree)) + (rng.choice((-2, -1, 1, 2)),))
                for _ in range(order)
            ]
            r, d = rng.randint(order - 1, 3), rng.randint(max(degree - 1, 0), 3)
            length = (r + 1) * (d + 1) + r + 1 + rng.randint(0, 4)
            initial = SequenceTable(offset, tuple(rng.randint(-3, 3) for _ in range(order)))
            cases.append((RecurrenceOperator(tuple(rows), offset + order).unroll(initial, offset + length - 1), r, d))
        for _ in range(25):  # random short tables
            r, d = rng.randint(0, 2), rng.randint(0, 2)
            length = (r + 1) * (d + 1) + r + 1 + rng.randint(0, 3)
            cases.append((SequenceTable(offset, tuple(rng.randint(-3, 3) for _ in range(length))), r, d))
        for m in range(offset + 1, offset + 6):  # eventually zero
            r, d = rng.randint(1, 3), rng.randint(1, 3)
            length = (r + 1) * (d + 1) + r + 1 + rng.randint(0, 3)
            cases.append((_first_order_table(offset, m, rng.choice((-2, 1, 3)), length), r, d))
    cases.append((_first_order_table(0, 4, 1, 30), 4, 4))
    assert len(cases) == 196
    nonempty = 0
    for table, r, d in cases:
        got = guess_recurrence(table, r, d)
        expected = oracles.minimal_fits(list(table.terms), table.offset, r, d)
        assert [(_direction(p.coeffs for p in c.coeffs), c.n_min) for c in got] == [
            (_direction(rows), n_min) for rows, n_min in expected
        ], (table, r, d)
        nonempty += bool(got)
    assert nonempty >= 70  # the comparison is not vacuous


def test_guess_returns_the_sum_of_basis_vectors_when_no_basis_vector_fits():
    # At (1, 1) the table's nullspace is spanned by (n - 7)*a(n), of order 0, and
    # (n - 1)*a(n - 1), whose p_0 is 0; neither fits alone, and their sum does.
    table = SequenceTable(0, (1, 0, 0, 0, 0, 0, 0, 1))
    got = guess_recurrence(table, 1, 1)
    assert [c.to_text() for c in got] == ["-(7-n)*a(n) - (1-n)*a(n-1) = 0 for n >= 1"]
    assert got[0].verify(table).passed


def test_guess_matches_minimal_fits_oracle_on_sparse_tables():
    # Mostly zero tables, where a pair's fit is often the sum of two basis vectors.
    rng = random.Random(20261022)
    sums = nonempty = 0
    for _ in range(1200):
        r, d, offset = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 3)
        length = (r + 1) * (d + 1) + r + 1 + rng.randint(0, 4)
        zeros = rng.choice((0.7, 0.8))
        terms = [0 if rng.random() < zeros else rng.choice((1, -1, 2)) for _ in range(length)]
        table = SequenceTable(offset, tuple(terms))
        got = guess_recurrence(table, r, d)
        expected = oracles.minimal_fits(terms, offset, r, d)
        assert [(_direction(p.coeffs for p in c.coeffs), c.n_min) for c in got] == [
            (_direction(rows), n_min) for rows, n_min in expected
        ], (table, r, d)
        assert all(c.verify(table).passed for c in got)
        if expected:  # a sum where no basis vector of the fitting pair has both p_0 and p_r'
            order, degree = len(expected[0][0]) - 1, len(expected[0][0][0]) - 1
            matrix = [[Fraction(n) ** j * terms[n - k - offset] for k in range(order + 1) for j in range(degree + 1)]
                      for n in range(offset + order, offset + length)]
            basis = oracles.gauss_nullspace(matrix)
            sums += not any(any(v[: degree + 1]) and any(v[-degree - 1 :]) for v in basis)
            nonempty += 1
    assert sums >= 10 and nonempty >= 400  # both rules are exercised


def test_no_solution_of_lower_order_than_its_pair_holds_from_its_own_order():
    # guess keeps only the solutions of a pair's own order.  On the oracle's bases, no solution
    # of lower order k, at any pair up to the first with a fit, holds from offset + k.
    rng = random.Random(20261021)
    lower = 0
    for trial in range(600):
        r, d = rng.choice(((1, 1), (2, 0), (2, 1), (1, 2), (2, 2), (3, 0), (3, 1)))
        offset, length = rng.randint(0, 3), (r + 1) * (d + 1) + r + 1 + rng.randint(0, 3)
        if trial % 2:  # mostly zeros
            terms = [rng.choice([0] * rng.randint(1, 6) + [1, -1, 2]) for _ in range(length)]
        else:  # a random recurrence of order 1 or 2, with a free term wherever p_0 fails to divide
            order = rng.randint(1, 2)
            rows = [[rng.randint(-2, 2) for _ in range(rng.randint(1, 3))] for _ in range(order + 1)]
            terms = [rng.randint(-2, 2) for _ in range(order)]
            for i in range(order, length):
                p0 = oracles.power_sum(rows[0], offset + i)
                s = -sum(oracles.power_sum(rows[k], offset + i) * terms[i - k] for k in range(1, order + 1))
                terms.append(int(s / p0) if p0 and s % p0 == 0 else rng.choice((0, 0, 1, -1)))
        for _ in range(rng.randint(0, 2)):
            terms[rng.randrange(length)] = rng.randint(-3, 3)
        for r1, d1 in sorted(
            ((k, j) for k in range(r + 1) for j in range(d + 1)), key=lambda p: ((p[0] + 1) * (p[1] + 1), p[0])
        ):
            matrix = [
                [Fraction(n) ** j * terms[n - k - offset] for k in range(r1 + 1) for j in range(d1 + 1)]
                for n in range(offset + r1, offset + length)
            ]
            fits = False
            for vector in oracles.gauss_nullspace(matrix):
                rows = [vector[k * (d1 + 1) : (k + 1) * (d1 + 1)] for k in range(r1 + 1)]
                if not any(rows[0]):
                    continue
                order = max(k for k, row in enumerate(rows) if any(row))
                if order == r1:
                    fits = True
                    continue
                lower += 1
                residuals = [oracles.recurrence_residual(rows[: order + 1], offset, terms, n)
                             for n in range(offset + order, offset + r1)]
                assert any(residuals), (offset, terms, r1, d1, rows)
            if fits:
                break
    assert lower >= 50  # the claim is not vacuous


# --- modular filter -----------------------------------------------------

P = guessing._PRIME


def _bell(count):
    """The first ``count`` Bell numbers, by the Bell triangle: P-recursive at no bounds."""
    row, out = [1], [1]
    while len(out) < count:
        row = [row[-1]] + row
        for i in range(1, len(row)):
            row[i] = row[i - 1] + row[i]
        out.append(row[0])
    return SequenceTable(0, tuple(out))


def _count_exact_calls(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(len(matrix[0]))
        return nullspace(matrix)

    monkeypatch.setattr(guessing, "nullspace", counted)
    return calls


def test_guess_calls_the_exact_nullspace_only_where_the_residues_allow(monkeypatch):
    calls = _count_exact_calls(monkeypatch)
    assert guess_recurrence(a214615_terms(201), 12, 12) == [A214615_RECURRENCE.with_n_min(2)]
    assert calls == [9]  # the (2, 2) pair alone
    calls.clear()
    assert guess_recurrence(_bell(202), 6, 6) == []
    assert calls == []


def test_guess_where_every_term_is_zero_mod_p_takes_the_exact_path(monkeypatch):
    # Every equation is 0 mod p, so no pair is ruled out and each one is solved exactly.
    calls = _count_exact_calls(monkeypatch)
    bell = _bell(202)
    assert bell.terms[:10] == (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)
    assert guess_recurrence(SequenceTable(0, tuple(P * v for v in bell.terms)), 4, 4) == []
    assert len(calls) == 25
    calls.clear()
    scaled = SequenceTable(0, tuple(P * v for v in a214615_terms(201).terms))
    assert guess_recurrence(scaled, 12, 12) == [A214615_RECURRENCE.with_n_min(2)]
    assert calls[-1] == 9 and len(calls) > 1


def _motzkin(count):
    """(n+2) a(n) = (2n+1) a(n-1) + 3(n-1) a(n-2), from a(0) = a(1) = 1."""
    out = [1, 1]
    for n in range(2, count):
        out.append(((2 * n + 1) * out[-1] + 3 * (n - 1) * out[-2]) // (n + 2))
    return SequenceTable(0, tuple(out))


def test_guess_hands_nullspace_the_naive_rows_of_the_solved_pair(monkeypatch):
    # Each pair (r', d') is filtered on the rows n^j a(n-k) over k <= r', j <= d', for
    # n = offset + r' .. offset + r' + ncols, in the documented pair order; the pair that
    # passes hands those same rows to nullspace, and only when a head solution fails on the
    # table does it hand nullspace the residual matrix: row . b for each head basis vector b,
    # one row per n = offset + r' .. last.  Two solves of at most ncols rows follow it.
    def naive(r1, d1, count):
        ns = range(table.offset + r1, table.last_index + 1)[:count]
        return [
            tuple(n**j * table.term(n - k) for k in range(r1 + 1) for j in range(d1 + 1))
            for n in ns
        ]

    def filtered(rows, ncols):
        r1, d1 = untried.pop(0)
        rows = [tuple(row) for row in rows]
        assert ncols == (r1 + 1) * (d1 + 1) and rows == naive(r1, d1, ncols + 1), (r1, d1)
        filtered_pairs.append((r1, d1))
        return full_column_rank_mod_p(rows, ncols)

    def solved(matrix):
        r1, d1 = filtered_pairs[-1]
        ncols = (r1 + 1) * (d1 + 1)
        rows = [tuple(row) for row in matrix]
        if pairs[-1:] != [(r1, d1)]:  # the pair's head, once
            assert rows == naive(r1, d1, ncols + 1), (r1, d1)
            pairs.append((r1, d1))
            head_basis[:] = nullspace(matrix)
            return list(head_basis)
        if fallbacks[-1:] != [(r1, d1)]:  # after its head, once: the residual matrix
            residuals = [tuple(sum(x * y for x, y in zip(row, b)) for b in head_basis)
                         for row in naive(r1, d1, len(table) - r1)]
            assert rows == residuals and any(map(any, rows)), (r1, d1)
            fallbacks.append((r1, d1))
        else:  # then the sums' and N^perp's solves, on ncols columns and at most ncols rows
            assert len(rows[0]) == ncols and len(rows) <= ncols, (r1, d1)
            followers.append((r1, d1))
        return nullspace(matrix)

    full_column_rank_mod_p = guessing._full_column_rank_mod_p
    monkeypatch.setattr(guessing, "_full_column_rank_mod_p", filtered)
    monkeypatch.setattr(guessing, "nullspace", solved)
    motzkin = _motzkin(60)
    scaled_bell = SequenceTable(-2, tuple(P * v for v in _bell(60).terms))
    a = a214615_terms(60).terms[1:]
    cases = [
        (SequenceTable(1, a), 4, 4, ["a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 3"], []),
        (motzkin, 3, 3, ["(2+n)*a(n) - (1+2*n)*a(n-1) + (3-3*n)*a(n-2) = 0 for n >= 2"], []),
        (SequenceTable(-2, motzkin.terms), 3, 3,
         ["(4+n)*a(n) - (5+2*n)*a(n-1) - (3+3*n)*a(n-2) = 0 for n >= 0"], []),
        (scaled_bell, 3, 3, [], []),
        (SequenceTable(1, a[:-1] + (a[-1] + 1,)), 3, 3,
         ["-(60-n)*a(n) + (60-n)*a(n-1) - (60-121*n+62*n^2-n^3)*a(n-2) = 0 for n >= 3"],
         [(2, 2), (2, 3)]),
    ]
    for table, r, d, expected, expected_fallbacks in cases:  # the spies read these names
        untried = sorted(
            ((k, j) for k in range(r + 1) for j in range(d + 1)),
            key=lambda pair: ((pair[0] + 1) * (pair[1] + 1), pair[0]),
        )
        filtered_pairs, pairs, fallbacks, followers, head_basis = [], [], [], [], []
        assert [c.to_text() for c in guess_recurrence(table, r, d)] == expected
        assert pairs and filtered_pairs and fallbacks == expected_fallbacks
        # (2, 2)'s residuals have no nonzero solution; (2, 3)'s solutions span the table's basis
        assert followers == ([(2, 3), (2, 3)] if fallbacks else [])
        if table is scaled_bell:
            assert len(pairs) == len(filtered_pairs) == 16  # every pair reaches the exact path


def test_guess_hands_nullspace_a_head_or_at_most_k_columns(monkeypatch):
    # No call is a pair's whole system: each is the head (ncols + 1 rows), the residual matrix
    # (k columns, k the head basis's size), or one of the two solves after it (ncols columns,
    # at most ncols rows).
    def filtered(rows, ncols):
        pair.update(ncols=ncols, k=None)
        return full_column_rank_mod_p(rows, ncols)

    def solved(matrix):
        nrows, ncols, basis = len(matrix), len(matrix[0]), nullspace(matrix)
        if pair["k"] is None:
            assert (nrows, ncols) == (pair["ncols"] + 1, pair["ncols"])
            pair["k"] = len(basis)
            kinds.append("head")
        elif ncols <= pair["k"]:
            kinds.append("residuals")
        else:
            assert ncols == pair["ncols"] and nrows <= ncols
            kinds.append("solve")
        return basis

    full_column_rank_mod_p = guessing._full_column_rank_mod_p
    monkeypatch.setattr(guessing, "_full_column_rank_mod_p", filtered)
    monkeypatch.setattr(guessing, "nullspace", solved)
    pair, kinds = {}, []
    a = a214615_terms(500).terms[1:]
    cases = _fallback_tables() + [
        (SequenceTable(0, (1, 0, 0, 0, 0, 0, 0, 1)), 1, 1),
        (SequenceTable(1, a[:-1] + (a[-1] + 1,)), 3, 3),
        (SequenceTable(0, tuple(P * v for v in _bell(60).terms)), 3, 3),
    ]
    for table, r, d in cases:
        guess_recurrence(table, r, d)
    assert kinds.count("residuals") >= 5 and kinds.count("solve") >= 4


def _apery(count):
    """sum_k C(n, k)^2 C(n+k, k)^2: n^3 a(n) = (34n^3-51n^2+27n-5) a(n-1) - (n-1)^3 a(n-2)."""
    return SequenceTable(0, tuple(sum((comb(n, k) * comb(n + k, k)) ** 2 for k in range(n + 1)) for n in range(count)))


def _spied_guess(monkeypatch):
    """``guess_recurrence`` that also returns the row counts of the residual matrices it solves.
    A pair's first ``nullspace`` call is its head, k the size of the head's basis; a residual
    matrix comes after it, with one row per n >= offset + r' and at most k columns."""
    pair = {}

    def filtered(rows, ncols):
        r1, d1 = next(pair["untried"])
        assert ncols == (r1 + 1) * (d1 + 1)
        pair.update(rows=pair["length"] - r1, k=None)
        return full_column_rank_mod_p(rows, ncols)

    def counted(matrix):
        basis = nullspace(matrix)
        if pair["k"] is None:
            pair["k"] = len(basis)
        elif len(matrix) == pair["rows"] and len(matrix[0]) <= pair["k"]:
            pair["solves"].append(len(matrix))
        return basis

    def guess(table, r, d):
        untried = sorted(product(range(r + 1), range(d + 1)), key=lambda p: ((p[0] + 1) * (p[1] + 1), p[0]))
        pair.update(untried=iter(untried), length=len(table), solves=[])
        return guess_recurrence(table, r, d), pair["solves"]

    full_column_rank_mod_p = guessing._full_column_rank_mod_p
    monkeypatch.setattr(guessing, "_full_column_rank_mod_p", filtered)
    monkeypatch.setattr(guessing, "nullspace", counted)
    return guess


def _fallback_tables():
    """Tables where a head solution fails on the table: a(n) = 0 fits the head of a table
    that opens with three zeros, whose (1, 0) head holds only p_0 = 0; and A214615's last
    term changed, where a(n) - a(n-1) + (n-1)^2 a(n-2) fails only at the last index, once
    in a table exactly as long as its bounds need (20 terms at (3, 3))."""
    zeros = SequenceTable(0, (0, 0, 0) + tuple(factorial(k) for k in range(27)))
    a = a214615_terms(150).terms[1:]
    changed = SequenceTable(1, a[:-1] + (a[-1] + 1,))
    needed = SequenceTable(1, a[:19] + (a[19] + 1,))
    return [(zeros, 0, 0), (zeros, 1, 0), (zeros, 2, 2), (changed, 2, 2), (changed, 3, 3), (needed, 3, 3)]


@pytest.mark.parametrize("case", range(6))
def test_guess_solves_the_residuals_where_a_head_solution_fails(monkeypatch, case):
    table, r, d = _fallback_tables()[case]
    got, solves = _spied_guess(monkeypatch)(table, r, d)
    assert solves  # the head's basis was not trusted
    expected = oracles.minimal_fits(list(table.terms), table.offset, r, d)
    assert [(_direction(p.coeffs for p in c.coeffs), c.n_min) for c in got] == [
        (_direction(rows), n_min) for rows, n_min in expected
    ]
    assert bool(got) == (case in (2, 4, 5))  # (n-3) a(n) = (n-3)^2 a(n-1); the degree-3 fits
    if case in (4, 5):
        assert got[0].order == 2 and got[0].degree == 3


def _guess_fit_tables(seed):
    """The benchmark's four kinds of 150-term tables, each with the (order, degree) of its
    recurrence and the bounds it is guessed at: its ladder, and Motzkin's (8, 8) too.  The
    order-3 recurrence's constant parts and initial terms are drawn as the benchmark draws
    them."""
    rng = random.Random(seed)
    c1, c2, c3 = rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2, 3))
    order3 = RecurrenceOperator((ONE, Polynomial((c1, -1)), Polynomial((c2, 2)), Polynomial((c3, 1))), 3)
    initial = SequenceTable(0, tuple(rng.randint(1, 9) for _ in range(3)))
    ladder = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 3), (4, 4), (5, 5), (6, 6)]
    return {
        "a214615": (SequenceTable(1, a214615_terms(150).terms[1:]), (2, 2), ladder),
        "motzkin": (_motzkin(150), (2, 1), ladder + [(8, 8)]),
        "apery": (_apery(150), (2, 3), ladder),
        "order3": (order3.unroll(initial, 149), (3, 1), ladder),
    }


@pytest.mark.parametrize("seed", range(4))
def test_guess_certifies_the_head_basis_on_the_guess_fit_tables(monkeypatch, seed):
    # Each head basis holds on its table, so no residual matrix is solved.
    guess = _spied_guess(monkeypatch)
    tables = _guess_fit_tables(seed)
    if seed:  # the fixed tables need one pass only
        tables = {"order3": tables["order3"]}
    for name, (table, (order, degree), bounds) in tables.items():
        for r, d in bounds:
            got, solves = guess(table, r, d)
            fits = order <= r and degree <= d
            assert [(c.order, c.degree) for c in got] == ([(order, degree)] if fits else []), (name, r, d)
            assert all(c.verify(table).passed for c in got)
            assert solves == [], (name, r, d)


def test_full_column_rank_mod_p_implies_an_empty_rational_nullspace():
    rng = random.Random(20261018)
    full = scaled_full = 0
    for trial in range(400):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 6)
        matrix = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        if trial % 4 == 1:  # every entry a multiple of p: rank 0 mod p
            matrix = [[P * v for v in row] for row in matrix]
        elif trial % 4 == 2:  # one row a multiple of p
            matrix[rng.randrange(nrows)] = [P * v for v in matrix[0]]
        elif trial % 4 == 3:  # entries far beyond p
            matrix = [[v * P**2 + rng.randint(-3, 3) for v in row] for row in matrix]
        got = guessing._full_column_rank_mod_p(matrix, ncols)
        assert not (got and trial % 4 == 1)
        if got:
            assert oracles.gauss_nullspace(matrix) == []
            full += 1
            scaled_full += trial % 4 != 0
    assert full >= 100 and scaled_full >= 30  # the implication is not vacuous
    # rank 2 over the rationals, 1 mod p: the filter proves nothing, the exact path decides
    unlucky = [[1, 1], [1, P + 1], [2, P + 2]]
    assert not guessing._full_column_rank_mod_p(unlucky, 2)
    assert oracles.gauss_nullspace(unlucky) == [] == nullspace(unlucky)


def test_the_filter_prime_is_a_prime_below_2_30():
    assert 0 < P < 2**30
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(P)


def test_full_column_rank_mod_p_matches_a_gauss_jordan_oracle_mod_p():
    # Unlike the implication above, this pins both answers: a filter that always says False,
    # or that decides wrongly on any kind of input, fails.
    rng = random.Random(20261020)
    answers = {kind: [] for kind in range(5)}
    for trial in range(1000):
        nrows, ncols, kind = rng.randint(1, 13), rng.randint(1, 12), trial % 5
        matrix = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        if kind == 1:  # entries beyond p^2
            matrix = [[v * P**2 + rng.randint(-P, P) for v in row] for row in matrix]
        elif kind == 2:  # some entries multiples of p
            matrix = [[P * rng.randint(-3, 3) if rng.random() < 0.3 else v for v in row] for row in matrix]
        elif kind == 3:  # repeated rows
            for _ in range(rng.randint(1, nrows)):
                matrix[rng.randrange(nrows)] = list(matrix[rng.randrange(nrows)])
        elif kind == 4:  # zero columns
            for col in rng.sample(range(ncols), rng.randint(0, min(2, ncols - 1))):
                for row in matrix:
                    row[col] = 0
        got = guessing._full_column_rank_mod_p(matrix, ncols)
        assert got == (oracles.rank_mod_p(matrix, P) == ncols), (trial, matrix)
        answers[kind].append(got)
    for got in answers.values():  # both answers, on every kind of input
        assert 30 <= sum(got) <= len(got) - 30


def test_full_column_rank_mod_p_matches_the_oracle_on_every_head_of_the_guess_fit_tables(monkeypatch):
    # Every head that the guess walk filters, on the benchmark's tables at (6, 6) and on
    # Motzkin's at (8, 8).
    full_column_rank_mod_p = guessing._full_column_rank_mod_p
    answers = []

    def checked(rows, ncols):
        rows = [list(row) for row in rows]
        got = full_column_rank_mod_p(rows, ncols)
        assert got == (oracles.rank_mod_p(rows, P) == ncols), ncols
        answers.append(got)
        return got

    monkeypatch.setattr(guessing, "_full_column_rank_mod_p", checked)
    for name, (table, _, bounds) in _guess_fit_tables(0).items():
        for r, d in [(6, 6)] + ([(8, 8)] if name == "motzkin" else []):
            assert len(guess_recurrence(table, r, d)) == 1, (name, r, d)
    assert answers.count(True) >= 30 and answers.count(False) == 5  # one fitting pair per guess
