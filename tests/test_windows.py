"""The window walk: ``windows`` and ``RecurrenceOperator.verify_windows``.

Every report and error of the walk must equal those of the whole-table ``verify`` on the
same terms.
"""

import random

import pytest

from holoseq.bfile import BFileDocument, BFileFormatError, read_bfile, write_bfile
from holoseq.meixner import A214615_RECURRENCE, a214615_terms
from holoseq.operators import RecurrenceOperator
from holoseq.polynomials import Polynomial
from holoseq.sequences import _WINDOW as W
from holoseq.sequences import SequenceTable, windows


def outcome(verify, *args):
    """The report of ``verify(*args)``, or the text of the ValueError it raises."""
    try:
        return verify(*args)
    except ValueError as error:
        return f"ValueError: {error}"


def walk(rec, table):
    return outcome(rec.verify_windows, windows(table.items(), rec.order))


def whole(rec, table):
    return outcome(rec.verify, table)


@pytest.mark.parametrize("carry", [0, 1, 2, 5, W + 3])
def test_windows_carry_at_most_carry_terms_before_at_most_w_new_ones(carry):
    table = SequenceTable(-7, tuple(range(100, 100 + 3 * W + 5)))
    tables = list(windows(table.items(), carry))
    assert tables[0].offset == table.offset
    new_terms, end = [], table.offset - 1
    for part in tables:
        carried = end + 1 - part.offset
        assert carried == min(carry, end + 1 - table.offset)
        assert 1 <= len(part) - carried <= W
        assert part.terms == table.terms[part.offset - table.offset : part.last_index - table.offset + 1]
        new_terms.extend(part.terms[carried:])
        end = part.last_index
    assert tuple(new_terms) == table.terms


def test_order_zero_recurrence_across_more_than_two_windows():
    # (n - 600) a(n) = 0 allows a nonzero term at 600 only.
    rec = RecurrenceOperator((Polynomial((-600, 1)),), 0)
    terms = [0] * (2 * W + 200)
    terms[600] = 5
    table = SequenceTable(0, tuple(terms))
    assert all(len(part) <= W for part in windows(table.items(), rec.order))
    assert walk(rec, table) == whole(rec, table)
    assert walk(rec, table).passed
    for at in (0, W - 1, W, 2 * W, 599, 601, len(terms) - 1):
        bad = table.replaced(at, 1)
        assert walk(rec, bad) == whole(rec, bad)
        assert walk(rec, bad).first_failure == (at, at - 600)


@pytest.mark.parametrize("n_terms", [500, 1000])
def test_first_checkable_index_past_the_first_window(n_terms):
    rec = A214615_RECURRENCE.with_n_min(600)
    table = a214615_terms(n_terms - 1)
    assert walk(rec, table) == whole(rec, table)
    if n_terms == 500:
        assert walk(rec, table) == "ValueError: table ends at 499, before the first checkable index 600"
        return
    assert walk(rec, table).n_first_checked == 600
    for at in (0, 599, 600, 601, 767, 768, 999):
        bad = table.replaced(at, table.term(at) + 1)
        assert walk(rec, bad) == whole(rec, bad)


@pytest.mark.parametrize("n_terms", [1, 2, 3, W - 1, W, W + 1, W + 2, 2 * W, 2 * W + 1])
def test_tables_ending_at_the_window_edges(n_terms):
    rec = A214615_RECURRENCE
    for offset in (0, 1, -2):
        table = SequenceTable(offset, a214615_terms(n_terms - 1).terms)
        assert walk(rec, table) == whole(rec, table)
        for at in {offset, offset + n_terms // 2, offset + W - 1, offset + W, table.last_index}:
            if table.has(at):
                bad = table.replaced(at, table.term(at) - 3)
                assert walk(rec, bad) == whole(rec, bad)


def test_walk_matches_whole_table_verify_on_random_recurrences():
    rng = random.Random(12)
    outcomes = set()
    for _ in range(200):
        tails = [Polynomial(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))))
                 for _ in range(rng.randint(0, 3))]
        n_min = rng.choice([rng.randint(-3, 4), rng.randint(0, 2 * W + 20)])
        rec = RecurrenceOperator((Polynomial.constant(1), *tails), n_min)
        offset = rng.randint(-4, 4)
        length = rng.choice([1, 2, rng.randint(3, W + 5), rng.randint(W, 2 * W + 30)])
        # Random terms below the first checkable index, then the recurrence (p_0 = 1) to the end.
        head = max(1, min(length, max(rec.n_min, offset) - offset))
        table = SequenceTable(offset, tuple(rng.randint(-9, 9) for _ in range(head)))
        table = rec.unroll(table, offset + length - 1)
        if rng.random() < 0.5:
            at = rng.randint(table.offset, table.last_index)
            table = table.replaced(at, table.term(at) + rng.choice([-1, 1]))
        got = walk(rec, table)
        assert got == whole(rec, table), (rec.to_text(), offset, length)
        outcomes.add("error" if isinstance(got, str) else got.passed)
    assert outcomes == {"error", True, False}


def test_one_window_is_the_whole_table_verify():
    rec = A214615_RECURRENCE
    table = a214615_terms(3 * W).replaced(700, 1)
    assert rec.verify_windows([table]) == rec.verify(table)


def test_every_window_is_read_after_a_failure():
    seen = []

    def tables():
        for part in windows(a214615_terms(3 * W).replaced(3, 0).items(), 2):
            seen.append(part.last_index)
            yield part

    report = A214615_RECURRENCE.verify_windows(tables())
    assert report.first_failure[0] == 3
    assert seen[-1] == 3 * W


def test_a_malformed_line_after_a_failure_is_still_an_error(tmp_path):
    table = a214615_terms(700).replaced(10, 0)
    path = tmp_path / "b.txt"
    write_bfile(BFileDocument(table), path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[650] = "650 x1\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(BFileFormatError, match="line 651: non-integer field"):
        A214615_RECURRENCE.verify_windows(windows(read_bfile(path), 2))
