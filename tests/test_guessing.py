import random
from fractions import Fraction
from math import factorial

import pytest

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
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        matrix = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        got = nullspace(matrix)
        expected = oracles.gauss_nullspace(matrix)
        assert len(got) == len(expected)
        # same subspace: every vector of each basis lies in the other's span
        got_lists = [[Fraction(x) for x in v] for v in got]
        for vector in got_lists:
            assert oracles.in_span(vector, expected)
        for vector in expected:
            assert oracles.in_span(vector, got_lists)
        # and the basis actually annihilates the matrix
        for vector in got:
            for row in matrix:
                assert sum(r * v for r, v in zip(row, vector)) == 0


def test_nullspace_rejects_ragged_input():
    with pytest.raises(ValueError):
        nullspace([[1, 2], [1]])
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


def test_guess_insufficient_terms_boundary():
    # order 2, degree 2 needs (2+1)(2+1) + 2 + 1 = 12 terms
    with pytest.raises(InsufficientTermsError):
        guess_recurrence(a214615_terms(10), 2, 2)
    assert guess_recurrence(a214615_terms(11), 2, 2)


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
        rec = RecurrenceOperator.from_coefficients(tuple(coeffs))
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
