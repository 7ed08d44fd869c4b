"""The entry walk: ``RecurrenceOperator.verify`` over streamed (n, a(n)) entries.

A table and a stream of its entries take the same walk, so the reference is the
independent Fraction oracle: every report and error must equal what
``oracles.verify_by_fractions`` gives on the whole table.
"""

import decimal
import random
from decimal import Decimal

import oracles
import pytest

from holoseq.bfile import BFileDocument, BFileFormatError, read_bfile, write_bfile
from holoseq.meixner import A214615_RECURRENCE, a214615_terms
from holoseq.operators import RecurrenceOperator, VerifyReport
from holoseq.polynomials import Polynomial
from holoseq.sequences import SequenceTable


def outcome(verify, *args):
    """The report of ``verify(*args)``, or the text of the ValueError it raises."""
    try:
        return verify(*args)
    except ValueError as error:
        return f"ValueError: {error}"


def walk(rec, table):
    """``verify`` of the table's entries as a one-pass stream."""
    return outcome(rec.verify, (entry for entry in table.items()))


def expected(rec, table):
    """The walk's outcome on ``table`` by the Fraction oracle."""
    start = max(rec.n_min, table.offset)
    if start > table.last_index:
        return f"ValueError: table ends at {table.last_index}, before the first checkable index {start}"
    rows = [list(p.coeffs) for p in rec.coeffs]
    _, first, last, failure = oracles.verify_by_fractions(rows, rec.n_min, table.offset, list(table.terms))
    return VerifyReport(first, last, failure)


def test_order_zero_recurrence_across_more_than_two_windows():
    # (n - 600) a(n) = 0 allows a nonzero term at 600 only.
    rec = RecurrenceOperator((Polynomial((-600, 1)),), 0)
    terms = [0] * 712
    terms[600] = 5
    table = SequenceTable(0, tuple(terms))
    assert walk(rec, table) == expected(rec, table)
    assert walk(rec, table).passed
    for at in (0, 255, 256, 512, 599, 601, len(terms) - 1):
        bad = table.replaced(at, 1)
        assert walk(rec, bad) == expected(rec, bad)
        assert walk(rec, bad).first_failure == (at, at - 600)


@pytest.mark.parametrize("n_terms", [500, 1000])
def test_first_checkable_index_past_the_first_window(n_terms):
    rec = A214615_RECURRENCE.with_n_min(600)
    table = a214615_terms(n_terms - 1)
    assert walk(rec, table) == expected(rec, table)
    if n_terms == 500:
        assert walk(rec, table) == "ValueError: table ends at 499, before the first checkable index 600"
        return
    assert walk(rec, table).n_first_checked == 600
    for at in (0, 599, 600, 601, 767, 768, 999):
        bad = table.replaced(at, table.term(at) + 1)
        assert walk(rec, bad) == expected(rec, bad)


@pytest.mark.parametrize("n_terms", [1, 2, 3, 255, 256, 257, 258, 512, 513])
def test_tables_ending_at_the_window_edges(n_terms):
    rec = A214615_RECURRENCE
    for offset in (0, 1, -2):
        table = SequenceTable(offset, a214615_terms(n_terms - 1).terms)
        assert walk(rec, table) == expected(rec, table)
        for at in {offset, offset + n_terms // 2, offset + 255, offset + 256, table.last_index}:
            if table.has(at):
                bad = table.replaced(at, table.term(at) - 3)
                assert walk(rec, bad) == expected(rec, bad)


def test_walk_matches_whole_table_verify_on_random_recurrences():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(200):
        tails = [Polynomial(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))))
                 for _ in range(rng.randint(0, 3))]
        n_min = rng.choice([rng.randint(-3, 4), rng.randint(0, 532)])
        rec = RecurrenceOperator((Polynomial.constant(1), *tails), n_min)
        offset = rng.randint(-4, 4)
        length = rng.choice([1, 2, rng.randint(3, 261), rng.randint(256, 542)])
        # Random terms below the first checkable index, then the recurrence (p_0 = 1) to the end.
        head = max(1, min(length, max(rec.n_min, offset) - offset))
        table = SequenceTable(offset, tuple(rng.randint(-9, 9) for _ in range(head)))
        table = rec.unroll(table, offset + length - 1)
        if rng.random() < 0.5:
            at = rng.randint(table.offset, table.last_index)
            table = table.replaced(at, table.term(at) + rng.choice([-1, 1]))
        got = walk(rec, table)
        assert got == outcome(rec.verify, table) == expected(rec, table), (rec.to_text(), offset, length)
        outcomes.add("error" if isinstance(got, str) else got.passed)
    assert outcomes == {"error", True, False}


@pytest.mark.parametrize(
    "indices, message",
    [
        ([*range(10), *range(11, 21)], "index 11 does not follow 9"),
        ([*range(11), *range(10, 21)], "index 10 does not follow 10"),
        ([*range(6), 4, 3], "index 4 does not follow 5"),
    ],
    ids=["gap", "repeat", "descending"],
)
def test_entries_must_be_consecutive(indices, message):
    # A gap is never renumbered into a(n) at the wrong n, not even after a failure.
    table = a214615_terms(20)
    for terms in (table, table.replaced(3, 0)):
        entries = ((n, terms.term(n)) for n in indices)
        with pytest.raises(ValueError, match=f"^{message}$"):
            A214615_RECURRENCE.verify(entries)


def test_entries_must_be_ints():
    with pytest.raises(TypeError, match="sequence terms must be ints, got 1.0"):
        A214615_RECURRENCE.verify([(0, 1), (1, 1.0)])


@pytest.mark.parametrize("term", ["1.5", "1E+1", "NaN", "Infinity"])
def test_decimal_entries_must_be_integers(term):
    with pytest.raises(TypeError, match=r"sequence terms must be ints, got Decimal\("):
        A214615_RECURRENCE.verify([(0, Decimal(1)), (1, Decimal(term))])


@pytest.mark.parametrize("at", [None, 0, 2, 300, 600])
def test_integer_decimal_entries_take_the_int_walk_in_any_caller_context(at):
    table = a214615_terms(600)
    if at is not None:
        table = table.replaced(at, table.term(at) + 1)
    entries = [(n, Decimal(str(value))) for n, value in table.items()]
    with decimal.localcontext(decimal.Context(prec=5, traps=[])) as caller:
        got = A214615_RECURRENCE.verify(entries)
        assert decimal.getcontext() is caller and not any(caller.flags.values())
    assert got == A214615_RECURRENCE.verify(table) == expected(A214615_RECURRENCE, table)
    assert got.passed == (at is None)


def test_every_window_is_read_after_a_failure():
    seen = []

    def entries():
        for n, value in a214615_terms(768).replaced(3, 0).items():
            seen.append(n)
            yield n, value

    report = A214615_RECURRENCE.verify(entries())
    assert report.first_failure[0] == 3
    assert seen == list(range(769))


def test_a_malformed_line_after_a_failure_is_still_an_error(tmp_path):
    table = a214615_terms(700).replaced(10, 0)
    path = tmp_path / "b.txt"
    write_bfile(BFileDocument(table), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[650] = "650 x1\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(BFileFormatError, match="line 651: non-integer field"):
        A214615_RECURRENCE.verify(read_bfile(path))


def test_an_empty_walk_is_an_empty_table():
    with pytest.raises(ValueError, match="a sequence table needs at least one term"):
        A214615_RECURRENCE.verify(iter(()))
