import decimal
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time
from itertools import islice
from pathlib import Path

import pytest

import holoseq
from holoseq.bfile import BFileDocument, format_bfile, write_bfile
from holoseq.sequences import SequenceTable
from holoseq import cli
from holoseq.cli import _report_json, build_parser, main
from holoseq.operators import RecurrenceOperator
from holoseq.parsing import parse_recurrence
from holoseq.polynomials import Polynomial
from holoseq.meixner import (
    A214615_INITIAL,
    A214615_RECURRENCE,
    _a214615_direct,
    a214615_terms,
    build_egf,
    egf_annihilator,
)

GOLDEN_12 = (1, 1, 0, -4, -4, 60, 160, -2000, -9840, 118160, 915200, -10900800)
REC_TEXT = "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"
ODE_TEXT = "(1+t^2)*D - (1-t)"


@pytest.fixture(autouse=True)
def caller_decimal_context():
    """Every test here runs main; the thread's decimal context must come back as it was."""
    context = decimal.getcontext()
    before = repr(context)
    yield
    assert decimal.getcontext() is context
    assert repr(context) == before


def write_golden_bfile(tmp_path, n_max=11, sid=None):
    path = tmp_path / "b214615.txt"
    write_bfile(BFileDocument(a214615_terms(n_max), sid), path)
    return path


def test_ode2rec_golden_line(capsys):
    assert main(["ode2rec", ODE_TEXT]) == 0
    assert capsys.readouterr().out.strip() == REC_TEXT


def test_ode2rec_json(capsys):
    assert main(["ode2rec", ODE_TEXT, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["text"] == REC_TEXT
    assert payload["order"] == 2
    assert payload["degree"] == 2
    assert payload["n_min"] == 2
    assert payload["coefficients"] == [["1"], ["-1"], ["1", "-2", "1"]]


def test_ode2rec_with_a_long_zero_coefficient(capsys):
    start = time.perf_counter()
    assert main(["ode2rec", "D + 0*t^100000"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.strip() == "a(n) = 0 for n >= 1"


def test_generate_terms(capsys):
    assert main(["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"{n} {v}" for n, v in enumerate(GOLDEN_12)]


def test_generate_from_ode_matches_rec(capsys):
    assert main(["generate", "--ode", ODE_TEXT, "--init", "1,1", "--to", "11"]) == 0
    out_ode = capsys.readouterr().out
    assert main(["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "11"]) == 0
    assert capsys.readouterr().out == out_ode


def test_generate_json_stringifies_big_values(capsys):
    assert main(
        ["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "60", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    table = a214615_terms(60)
    assert payload["terms"][-1] == ["60", str(table.term(60))]


def test_generate_writes_bfile(tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main(
        ["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "11", "--bfile", str(out)]
    ) == 0
    assert out.read_text() == format_bfile(BFileDocument(a214615_terms(11)))


def test_generate_rejects_rec_and_ode_together(capsys):
    code = main(["generate", "--rec", REC_TEXT, "--ode", ODE_TEXT, "--init", "1", "--to", "5"])
    assert code == 2


def test_generate_non_integer_term_is_math_failure(capsys):
    code = main(["generate", "--rec", "2*a(n) - a(n-1) = 0", "--init", "1", "--to", "4"])
    assert code == 1
    assert "not an integer" in capsys.readouterr().err


NEGATIVE_ZERO = ["generate", "--rec", "a(n) + n*a(n-1) = 0", "--init", "0", "--to", "5"]


def test_a_negative_zero_product_prints_as_zero(tmp_path, capsys):
    # -n * 0 is Decimal("-0") for n >= 2.
    zeros = "".join(f"{n} 0\n" for n in range(6))
    assert main(NEGATIVE_ZERO) == 0
    assert capsys.readouterr().out == zeros
    assert main([*NEGATIVE_ZERO, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == [[str(n), "0"] for n in range(6)]
    path = tmp_path / "zeros.txt"
    assert main([*NEGATIVE_ZERO, "--bfile", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == zeros


def random_recurrence(rng):
    """A recurrence whose p_0 is not constant and has no root at n >= 1, and every p_k a multiple
    of p_0, so that every term is an integer and every step divides by p_0(n)."""
    lead = Polynomial.constant(rng.choice([-3, -2, -1, 1, 2, 3]))
    for _ in range(rng.randint(1, 2)):
        lead = lead * Polynomial((rng.randint(0, 5), 1))
    tails = [lead * Polynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(0, 2))))
             for _ in range(rng.randint(0, 3))]
    return RecurrenceOperator((lead, *tails), len(tails))


def test_generate_bfile_equals_format_of_unroll_on_random_recurrences(tmp_path, capsys):
    rng = random.Random(16)
    path, orders = tmp_path / "b.txt", set()
    for _ in range(50):
        rec = random_recurrence(rng)
        orders.add(rec.order)
        initial = SequenceTable(0, tuple(rng.randint(-9, 9) for _ in range(max(rec.n_min, 1))))
        to = rng.randint(0, 80)
        argv = ["generate", "--rec", rec.to_text(), f"--init={','.join(map(str, initial.terms))}"]
        assert main([*argv, "--to", str(to), "--bfile", str(path)]) == 0, rec.to_text()
        expected = format_bfile(BFileDocument(rec.unroll(initial, to)))
        assert path.read_bytes() == expected.encode(), rec.to_text()
        assert rec.coeffs[0] != Polynomial.constant(1)
    assert [p.name for p in tmp_path.iterdir()] == ["b.txt"]
    assert orders == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "text, init, err",
    [
        ("2*a(n) - a(n-1) = 0", "1", "a(1) = 1/2 is not an integer"),
        ("7*a(n) - n*a(n-1) = 0 for n >= 1", str(7**100), None),  # a(120), 180 digits over 7
        ("(n-40)*a(n) - (n-40)*a(n-1) = 0", "7", "leading coefficient p_0(40) = 0; cannot solve for a(40)"),
        (REC_TEXT, "1", "initial terms end at 0 but the recurrence only holds for n >= 2"),
    ],
    ids=["non-integer", "non-integer-long", "singular", "too-few-initial-terms"],
)
def test_a_failed_generate_leaves_every_sink_as_it_was(tmp_path, capsys, text, init, err):
    """The error reads as the int unroll's, nothing is printed, and no file is written or changed."""
    with pytest.raises((ArithmeticError, ValueError)) as raised:
        parse_recurrence(text).unroll(SequenceTable(0, (int(init),)), 200)
    assert err is None or str(raised.value) == err
    code = 2 if isinstance(raised.value, ValueError) else 1
    existing = tmp_path / "existing.txt"
    existing.write_bytes(b"# A000001\n0 5\n")
    for sink in ([], ["--json"], ["--bfile", str(existing)], ["--bfile", str(tmp_path / "new.txt")]):
        assert main(["generate", "--rec", text, "--init", init, "--to", "200", *sink]) == code
        assert capsys.readouterr() == ("", f"holoseq: {raised.value}\n")
    assert existing.read_bytes() == b"# A000001\n0 5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["existing.txt"]


HOLDS_FROM_5 = "a(n) - a(n-1) = 0 for n >= 5"


@pytest.mark.parametrize(
    "text, init, to, code, expected",
    [
        (REC_TEXT, "1,1", "-1", 2, "n_max -1 is below the table offset 0"),
        (HOLDS_FROM_5, "3,1,4", "0", 0, "0 3\n"),
        (HOLDS_FROM_5, "3,1,4", "2", 0, "0 3\n1 1\n2 4\n"),
        (HOLDS_FROM_5, "3,1,4", "3", 2, "initial terms end at 2 but the recurrence only holds for n >= 5"),
        ("2*a(n) - a(n-1) = 0", "4", "5", 1, "a(3) = 1/2 is not an integer"),
    ],
    ids=["to-below-0", "first-term", "all-initial-terms", "n-min-past-the-initial-terms",
         "failure-after-solved-terms"],
)
def test_generate_streams_the_initial_terms_then_the_solved_ones_to_every_sink(
    tmp_path, capsys, text, init, to, code, expected
):
    """Each sink gets the lines printed, or on an error nothing, and the target stays as it was."""
    target, old = tmp_path / "b.txt", "# A000001\n0 5\n"
    terms = [line.split() for line in expected.splitlines()]
    for sink in ([], ["--json"], ["--bfile", str(target)]):
        target.write_text(old)
        assert main(["generate", "--rec", text, "--init", init, "--to", to, *sink]) == code
        out, err = capsys.readouterr()
        if code != 0:
            assert (out, err, target.read_text()) == ("", f"holoseq: {expected}\n", old)
        elif sink == ["--json"]:
            assert (json.loads(out)["terms"], err, target.read_text()) == (terms, "", old)
        else:
            assert (out, err, target.read_text()) == (("", "", expected) if sink else (expected, "", old))
    assert [p.name for p in tmp_path.iterdir()] == ["b.txt"]


def test_generate_into_a_missing_directory_names_the_target(tmp_path, capsys):
    target = tmp_path / "missing" / "b.txt"
    argv = ["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "5", "--bfile", str(target)]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"holoseq: [Errno 2] No such file or directory: '{target}'\n"
    assert main([*argv[:-1], str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"holoseq: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert list(tmp_path.iterdir()) == []


def test_generate_writes_through_a_pipe_and_leaves_a_symlink_a_link(tmp_path, capsys):
    expected = "".join(f"{n} {a}\n" for n, a in enumerate(GOLDEN_12[:6])).encode()
    argv = ["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "5", "--bfile"]
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*argv, str(fifo)]) == 0
    reader.join(timeout=30)  # a pipe replaced by a file never gets a writer
    assert not reader.is_alive() and received == [expected]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    real, link = tmp_path / "real.txt", tmp_path / "link.txt"
    real.write_bytes(b"0 5\n")
    link.symlink_to(real)
    assert main([*argv, str(link)]) == 0
    assert link.is_symlink() and real.read_bytes() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "link.txt", "real.txt"]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
def test_generate_and_write_bfile_keep_the_target_mode(tmp_path, capsys, mode):
    doc = BFileDocument(a214615_terms(5))
    by_cli, by_library = tmp_path / "cli.txt", tmp_path / "library.txt"
    for path in (by_cli, by_library):
        path.write_bytes(b"0 5\n")
        path.chmod(mode)
    argv = ["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "5", "--bfile", str(by_cli)]
    assert main(argv) == 0
    write_bfile(doc, by_library)
    for path in (by_cli, by_library):
        assert path.read_text() == format_bfile(doc)
        assert stat.S_IMODE(path.stat().st_mode) == mode


LOOSE = decimal.Context(prec=5, traps=[])  # rounds, traps nothing


@pytest.fixture(scope="module")
def golden_and_corrupted(tmp_path_factory):
    """A214615 through n = 2499, terms of up to about 7,400 digits, and a copy with a(2000) + 1;
    each as (table, b-file path)."""
    table = a214615_terms(2499)
    corrupted = table.replaced(2000, table.term(2000) + 1)
    directory = tmp_path_factory.mktemp("bfiles")
    paths = directory / "golden.txt", directory / "corrupted.txt"
    for path, entries in zip(paths, (table, corrupted)):
        write_bfile(BFileDocument(entries), path)
    return (table, paths[0]), (corrupted, paths[1])


def run_in_each_context(capsys, argv, written=None):
    """main(argv) in a default and in a ``LOOSE`` caller context: the same exit code, output
    and written file each time, and the caller's context back as the same object, no flag
    raised.  Returns (code, stdout, written text)."""
    results = []
    for context in (decimal.Context(), LOOSE):
        with decimal.localcontext(context) as caller:
            before = repr(caller)  # precision, traps and flags, none raised
            code = main(argv)
            assert decimal.getcontext() is caller and repr(caller) == before
        out, err = capsys.readouterr()
        results.append((code, out, err, written.read_text(encoding="utf-8") if written else None))
    assert results[0] == results[1]
    code, out, _, text = results[0]
    return code, out, text


def test_verify_is_exact_under_a_loose_caller_context(golden_and_corrupted, capsys):
    (_, path), (_, corrupted) = golden_and_corrupted
    code, out, _ = run_in_each_context(capsys, ["verify", "--rec", REC_TEXT, "--bfile", str(path)])
    assert code == 0 and "holds for n = 2..2499: PASS" in out
    argv = ["verify", "--rec", REC_TEXT, "--bfile", str(corrupted)]
    code, out, _ = run_in_each_context(capsys, argv)
    assert code == 1 and "first failure at n = 2000 (residual " in out


@pytest.mark.parametrize("sink", ["--bfile", "--json", "stdout"])
@pytest.mark.parametrize("init", [(1, 1), (1, 2)], ids=["golden", "corrupted"])
def test_generate_is_exact_under_a_loose_caller_context(tmp_path, capsys, sink, init):
    expected = format_bfile(BFileDocument(A214615_RECURRENCE.unroll(SequenceTable(0, init), 500)))
    argv = ["generate", "--rec", REC_TEXT, "--init", ",".join(map(str, init)), "--to", "500"]
    written = tmp_path / "out.txt" if sink == "--bfile" else None
    extra = {"--bfile": ["--bfile", str(written)], "--json": ["--json"], "stdout": []}[sink]
    code, out, text = run_in_each_context(capsys, argv + extra, written)
    assert code == 0
    if sink == "--bfile":
        assert (out, text) == ("", expected)
    elif sink == "--json":
        terms = [line.split() for line in expected.splitlines()]
        assert json.loads(out) == {"recurrence": REC_TEXT, "terms": terms}
    else:
        assert out == expected


@pytest.mark.parametrize("which", [0, 1], ids=["golden", "corrupted"])
def test_selfcheck_against_is_exact_under_a_loose_caller_context(golden_and_corrupted, capsys, which):
    table, entries, path = golden_and_corrupted[0][0], *golden_and_corrupted[which]
    argv = ["selfcheck", "--max-n", "2499", "--series-order", "20", "--against", str(path)]
    code, out, _ = run_in_each_context(capsys, argv)
    assert (out, code) == selfcheck_reference(table, 20, (path, entries))
    assert code == which


def test_verify_pass(tmp_path, capsys):
    path = write_golden_bfile(tmp_path)
    assert main(["verify", "--rec", REC_TEXT, "--bfile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "holds for n = 2..11: PASS" in out


def test_verify_fail_names_first_failure(tmp_path, capsys):
    table = a214615_terms(11).replaced(7, -1999)
    path = tmp_path / "bad.txt"
    write_bfile(BFileDocument(table), path)
    assert main(["verify", "--rec", REC_TEXT, "--bfile", str(path)]) == 1
    out = capsys.readouterr().out
    assert "first failure at n = 7" in out
    assert "FAIL" in out


def test_verify_json_report(tmp_path, capsys):
    path = write_golden_bfile(tmp_path)
    assert main(["verify", "--ode", ODE_TEXT, "--bfile", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "recurrence": REC_TEXT,
        "passed": True,
        "n_first_checked": 2,
        "n_last_checked": 11,
        "first_failure": None,
    }


def test_guess_golden(tmp_path, capsys):
    path = write_golden_bfile(tmp_path)
    assert main(["guess", "--bfile", str(path), "--max-order", "2", "--max-degree", "2"]) == 0
    assert capsys.readouterr().out.strip() == REC_TEXT


def test_guess_nothing_found(tmp_path, capsys):
    path = tmp_path / "primes.txt"
    path.write_text("".join(f"{i} {p}\n" for i, p in enumerate((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))))
    assert main(["guess", "--bfile", str(path), "--max-order", "1", "--max-degree", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no recurrence found" in captured.err


def test_guess_insufficient_terms_is_usage_error(tmp_path, capsys):
    path = write_golden_bfile(tmp_path, n_max=5)
    assert main(["guess", "--bfile", str(path), "--max-order", "2", "--max-degree", "2"]) == 2


def test_series_terms_default(capsys):
    assert main(["series", "--to", "11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [f"{n} {v}" for n, v in enumerate(GOLDEN_12)]


def test_series_text(capsys):
    assert main(["series", "--x0", "1", "--to", "3", "--text"]) == 0
    assert capsys.readouterr().out.strip() == "1 + 1*t + 0*t^2 - 2/3*t^3 + O(t^4)"


def test_series_non_integer_x0_terms_fail(capsys):
    assert main(["series", "--x0", "1/2", "--to", "6"]) == 1
    assert "not an integer" in capsys.readouterr().err


def test_series_zero_denominator_x0_is_usage_error(capsys):
    assert main(["series", "--x0=1/0", "--to", "3"]) == 2
    assert "zero denominator" in capsys.readouterr().err


# A value that starts with '-' after its option, or as ode2rec's TEXT, the spelling argparse
# reads anyway ("--opt=value", or "-- TEXT"), and the exit code without --json.  None of the
# values holds a space or is a number, which argparse read as values before.
NEGATIVE_VALUES = [
    (["series", "--x0", "-3/4", "--to", "3"], ["series", "--x0=-3/4", "--to", "3"], 1),
    (["series", "--x0", "-3/4", "--to", "3", "--text"], ["series", "--x0=-3/4", "--to=3", "--text"], 0),
    (["series", "--to", "-1"], ["series", "--to=-1"], 2),
    (["generate", "--ode", "-D+1", "--init", "1", "--to", "3"], ["generate", "--ode=-D+1", "--init=1", "--to=3"], 0),
    (["generate", "--rec", "-a(n)+a(n-1)+a(n-2)=0", "--init", "-1,2", "--to", "5"],
     ["generate", "--rec=-a(n)+a(n-1)+a(n-2)=0", "--init=-1,2", "--to=5"], 0),
    (["generate", "--ode", "D", "--init", "1", "--to", "-2"], ["generate", "--ode=D", "--init=1", "--to=-2"], 2),
    (["selfcheck", "--max-n", "-5"], ["selfcheck", "--max-n=-5"], 2),
    (["selfcheck", "--series-order", "-1"], ["selfcheck", "--series-order=-1"], 2),
    (["guess", "--bfile", "BFILE", "--max-order", "-1"], ["guess", "--bfile=BFILE", "--max-order=-1"], 2),
    (["guess", "--bfile", "BFILE", "--max-degree", "-1"], ["guess", "--bfile=BFILE", "--max-degree=-1"], 2),
    (["ode2rec", "-t*D+1"], ["ode2rec", "--", "-t*D+1"], 0),
]


@pytest.mark.parametrize(
    "spelled, reference, code", NEGATIVE_VALUES, ids=[" ".join(row[0]) for row in NEGATIVE_VALUES]
)
def test_a_value_starting_with_a_dash_reads_as_its_unambiguous_spelling(
    tmp_path, capsys, spelled, reference, code
):
    """Exit code, stdout and stderr are the reference's, with --json before or after the values."""
    path = str(write_golden_bfile(tmp_path, n_max=30))
    spelled, reference = ([a.replace("BFILE", path) for a in argv] for argv in (spelled, reference))
    json_reference = reference[:1] + ["--json"] + reference[1:]
    for argv, same in (
        (spelled, reference),
        (spelled[:1] + ["--json"] + spelled[1:], json_reference),
        (spelled + ["--json"], json_reference),
    ):
        expected = (main(same), capsys.readouterr())
        assert (main(argv), capsys.readouterr()) == expected
    assert main(reference) == code


def test_series_negative_order_is_usage_error(capsys):
    assert main(["series", "--to", "-1"]) == 2
    assert capsys.readouterr() == ("", "holoseq: --to must be >= 0\n")


def test_series_json_keeps_rationals(capsys):
    assert main(["series", "--x0", "1/2", "--to", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x0"] == "1/2"
    assert payload["coefficients"] == ["1", "1/2", "-3/8"]
    assert payload["terms"] is None


def test_selfcheck_small(capsys):
    assert main(["selfcheck", "--max-n", "11", "--series-order", "12"]) == 0
    out = capsys.readouterr().out
    assert "terms a(0..11): " + ", ".join(str(v) for v in GOLDEN_12) in out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_deeply_nested_text_is_a_usage_error(capsys):
    assert main(["ode2rec", "(" * 300 + "D" + ")" * 300]) == 2
    deep_rec = "(" * 300 + "a(n)" + ")" * 300 + " = a(n-1)"
    assert main(["generate", "--rec", deep_rec, "--init", "1", "--to", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("nested too deeply") == 2 and "Traceback" not in err


def test_ode2rec_claims_only_proved_indices(capsys):
    assert main(["ode2rec", "D^2 - D"]) == 0
    assert main(["ode2rec", "D"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a(n) - a(n-1) = 0 for n >= 2",
        "a(n) = 0 for n >= 1",
    ]
    # 5 + e^t: a(0) and a(1) are both initial terms now
    assert main(["generate", "--ode", "D^2 - D", "--init", "6,1", "--to", "4"]) == 0
    assert capsys.readouterr().out.split() == ["0", "6", "1", "1", "2", "1", "3", "1", "4", "1"]
    assert main(["generate", "--ode", "D^2 - D", "--init", "6", "--to", "4"]) == 2


def test_selfcheck_max_n_below_first_checkable_index(capsys):
    assert main(["selfcheck", "--max-n", "1", "--series-order", "12"]) == 2
    assert "--max-n" in capsys.readouterr().err
    assert main(["selfcheck", "--max-n", "2", "--series-order", "12"]) == 0


def test_selfcheck_against_good_bfile(tmp_path, capsys):
    path = write_golden_bfile(tmp_path, n_max=30)
    assert main(
        ["selfcheck", "--max-n", "40", "--series-order", "12", "--against", str(path)]
    ) == 0
    assert capsys.readouterr().out.count("PASS") == 5


def test_selfcheck_against_corrupted_bfile(tmp_path, capsys):
    table = a214615_terms(30).replaced(9, 118161)
    path = tmp_path / "corrupt.txt"
    write_bfile(BFileDocument(table), path)
    assert main(
        ["selfcheck", "--max-n", "40", "--series-order", "12", "--against", str(path)]
    ) == 1
    assert "FAIL" in capsys.readouterr().out


def test_selfcheck_json(capsys):
    assert main(["selfcheck", "--max-n", "11", "--series-order", "12", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert set(payload["checks"]) == {"recurrence", "unroll", "ode", "egf_terms"}


def selfcheck_reference(table, order, against=None, as_json=False):
    """selfcheck's stdout and exit code computed from whole tables.

    ``table`` stands for the direct terms a(0..max_n); ``against`` is (path, a b-file's entries).
    """
    rec, max_n = A214615_RECURRENCE, table.last_index

    def report_line(label, report):
        if report.first_failure is None:
            return f"{label} holds for n = {report.n_first_checked}..{report.n_last_checked}: PASS"
        n, residual = report.first_failure
        return f"{label} first failure at n = {n} (residual {residual}): FAIL"

    def verdict(ok):
        return "PASS" if ok else "FAIL"

    report = rec.verify(table)
    checks = [("recurrence", report_line(f"recurrence check: {rec.to_text()}", report), report.passed)]
    ok = rec.unroll(A214615_INITIAL, max_n) == table
    line = f"unroll cross-check: direct terms == recurrence unroll for n <= {max_n}: {verdict(ok)}"
    checks.append(("unroll", line, ok))
    egf = build_egf(1, order)
    ok = egf_annihilator(1).apply(egf).is_zero
    line = f"ODE check: (1+t^2)*D - (1-t) annihilates the EGF through t^{order - 1}: {verdict(ok)}"
    checks.append(("ode", line, ok))
    overlap = min(max_n, order)
    ok = egf.egf_terms().prefix(overlap) == table.prefix(overlap)
    line = f"EGF terms check: n! * [t^n] EGF == a(n) for n <= {overlap}: {verdict(ok)}"
    checks.append(("egf_terms", line, ok))
    against_report = None
    if against is not None and against[1].offset != 0:
        path, entries = against
        checks.append(("against", f"b-file check: {path} starts at index {entries.offset}, expected 0: FAIL", False))
    elif against is not None:
        path, entries = against
        against_report = rec.verify(entries)
        hi = min(entries.last_index, max_n)
        if entries.prefix(hi) != table.prefix(hi):
            checks.append(("against", f"b-file check: {path} terms differ from computed a(n): FAIL", False))
        else:
            line = report_line(f"b-file check: {path}", against_report)
            checks.append(("against", line, against_report.passed))
    passed = all(ok for _, _, ok in checks)
    if as_json:
        payload = {"passed": passed, "checks": {name: ok for name, _, ok in checks}}
        if against_report is not None:
            failure = against_report.first_failure
            payload["against_report"] = {
                "passed": against_report.passed,
                "n_first_checked": against_report.n_first_checked,
                "n_last_checked": against_report.n_last_checked,
                "first_failure": None if failure is None else {"n": failure[0], "residual": str(failure[1])},
            }
        out = json.dumps(payload, indent=2) + "\n"
    else:
        more = ", ..." if max_n >= 12 else ""
        head = ", ".join(str(v) for v in table.terms[:12])
        out = f"terms a(0..{min(max_n, 11)}): {head}{more}\n" + "".join(line + "\n" for _, line, _ in checks)
    return out, 0 if passed else 1


def run_selfcheck(capsys, max_n, order, *extra):
    argv = ["selfcheck", "--max-n", str(max_n), "--series-order", str(order), *extra]
    code = main(argv)
    return capsys.readouterr().out, code


@pytest.mark.parametrize("max_n", [2, 3, 11, 12, 255, 256, 257, 513])
def test_selfcheck_windows_match_whole_table_reference(capsys, max_n):
    table = a214615_terms(max_n)
    for order in (13, 256, 257):
        for as_json in (False, True):
            got = run_selfcheck(capsys, max_n, order, *(["--json"] if as_json else []))
            assert got == selfcheck_reference(table, order, as_json=as_json)


@pytest.mark.parametrize("at", [1, 20, 255, 256, 257])
def test_selfcheck_catches_a_corrupted_direct_term(capsys, monkeypatch, at):
    max_n, order = 513, 20
    table = a214615_terms(max_n)
    table = table.replaced(at, table.term(at) + 1)
    monkeypatch.setattr("holoseq.cli._a214615_direct", lambda: iter(table.terms))
    out, code = run_selfcheck(capsys, max_n, order)
    assert (out, code) == selfcheck_reference(table, order)
    assert code == 1
    n, residual = A214615_RECURRENCE.verify(table).first_failure
    assert f"recurrence check: {REC_TEXT} first failure at n = {n} (residual {residual}): FAIL" in out
    assert f"unroll cross-check: direct terms == recurrence unroll for n <= {max_n}: FAIL" in out
    egf_line = f"EGF terms check: n! * [t^n] EGF == a(n) for n <= {order}: "
    assert egf_line + ("FAIL" if at <= order else "PASS") in out
    assert run_selfcheck(capsys, max_n, order, "--json") == selfcheck_reference(table, order, as_json=True)


@pytest.mark.parametrize("head", [(1, 2), (2, 2), (0, 1)])
@pytest.mark.parametrize("max_n", [2, 3, 40])
def test_selfcheck_unroll_line_fails_on_direct_terms_with_a_wrong_head(capsys, monkeypatch, head, max_n):
    """Direct terms that satisfy the recurrence but start elsewhere than a(0) = a(1) = 1: the
    recurrence line passes and only the unroll line (with the EGF line) tells them apart."""
    order = 20
    table = A214615_RECURRENCE.unroll(SequenceTable(0, head), max_n)
    monkeypatch.setattr("holoseq.cli._a214615_direct", lambda: iter(table.terms))
    out, code = run_selfcheck(capsys, max_n, order)
    assert (out, code) == selfcheck_reference(table, order)
    assert code == 1
    assert f"recurrence check: {REC_TEXT} holds for n = 2..{max_n}: PASS" in out
    assert f"unroll cross-check: direct terms == recurrence unroll for n <= {max_n}: FAIL" in out
    json_out = run_selfcheck(capsys, max_n, order, "--json")
    assert json_out == selfcheck_reference(table, order, as_json=True)
    checks = json.loads(json_out[0])["checks"]
    assert (checks["recurrence"], checks["unroll"], json_out[1]) == (True, False, 1)


def test_selfcheck_walks_the_direct_terms_and_the_recurrence_once(tmp_path, capsys, monkeypatch):
    """One selfcheck reads _a214615_direct once and makes one walk of the module-level _steps,
    and never unrolls; --against adds the b-file's walk."""
    path = write_golden_bfile(tmp_path, n_max=300)
    calls = []
    direct, steps = _a214615_direct, holoseq.operators._steps

    def refused(*args):
        raise AssertionError("selfcheck unrolled the recurrence")

    monkeypatch.setattr("holoseq.cli._a214615_direct", lambda: calls.append("direct") or direct())
    monkeypatch.setattr(holoseq.operators, "_steps", lambda *args: calls.append("steps") or steps(*args))
    monkeypatch.setattr(RecurrenceOperator, "_unrolled", refused)
    assert run_selfcheck(capsys, 300, 20)[1] == 0
    assert sorted(calls) == ["direct", "steps"]
    calls.clear()
    assert run_selfcheck(capsys, 300, 20, "--against", str(path))[1] == 0
    assert sorted(calls) == ["direct", "steps", "steps"]


def test_selfcheck_against_corrupted_past_the_first_window(tmp_path, capsys):
    max_n, at = 513, 261
    table = a214615_terms(max_n)
    entries = a214615_terms(max_n + 10).replaced(at, 7)
    path = tmp_path / "corrupt.txt"
    write_bfile(BFileDocument(entries), path)
    out, code = run_selfcheck(capsys, max_n, 20, "--against", str(path))
    assert code == 1
    assert f"b-file check: {path} terms differ from computed a(n): FAIL" in out
    assert (out, code) == selfcheck_reference(table, 20, (path, entries))
    json_out = run_selfcheck(capsys, max_n, 20, "--against", str(path), "--json")
    assert json_out == selfcheck_reference(table, 20, (path, entries), as_json=True)


def test_selfcheck_against_compares_terms_only_up_to_max_n(tmp_path, capsys):
    max_n = 300
    entries = a214615_terms(562).replaced(512, 1)
    path = tmp_path / "corrupt.txt"
    write_bfile(BFileDocument(entries), path)
    out, code = run_selfcheck(capsys, max_n, 20, "--against", str(path))
    assert code == 1
    assert f"b-file check: {path} first failure at n = 512" in out
    assert (out, code) == selfcheck_reference(a214615_terms(max_n), 20, (path, entries))


# Runs one CLI call in this interpreter and prints its peak resident memory in KiB.  That is
# VmHWM, the high-water mark of this address space: on Linux ru_maxrss also counts the peak
# of the process that spawned it, because exec carries it over.
PEAK_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from holoseq.cli import main
assert main(sys.argv[2:]) == 0
with open("/proc/self/status") as status:
    print(next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")))
"""


def peak_kib(*argv):
    """The peak resident memory in KiB of ``holoseq argv``, run in a fresh interpreter."""
    src = str(Path(holoseq.__file__).resolve().parent.parent)
    child = [sys.executable, "-c", PEAK_CHILD, src, *argv]
    done = subprocess.run(child, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's /proc/self/status")
def test_selfcheck_memory_is_bounded_by_order_terms():
    """The walk holds the order (2) terms before n, so the peak barely grows with --max-n:
    by far less than the 256-term windows it once held (about 8 MiB at 10^4 terms)."""
    def selfcheck_kib(max_n):
        return peak_kib("selfcheck", "--max-n", str(max_n), "--series-order", "20")

    table_kib = sum(map(sys.getsizeof, islice(_a214615_direct(), 10_001))) / 1024
    assert selfcheck_kib(10_000) < selfcheck_kib(2) + table_kib / 32


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's /proc/self/status")
def test_bfile_write_and_verify_memory_is_bounded_by_a_window(tmp_path):
    """generate --bfile and verify --bfile hold neither the table nor its text."""
    peaks = {}
    for n_max in (2, 2499):
        path = str(tmp_path / f"b{n_max}.txt")
        peaks["generate", n_max] = peak_kib("generate", "--rec", REC_TEXT, "--init", "1,1",
                                            "--to", str(n_max), "--bfile", path)
        peaks["verify", n_max] = peak_kib("verify", "--rec", REC_TEXT, "--bfile", path)
    text_kib = (tmp_path / "b2499.txt").stat().st_size / 1024
    assert peaks["generate", 2499] < peaks["generate", 2] + text_kib / 2
    assert peaks["verify", 2499] < peaks["verify", 2] + text_kib / 2


def test_verify_reads_past_a_failure_to_a_malformed_line(tmp_path, capsys):
    path = write_golden_bfile(tmp_path, n_max=700)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[5] = "5 61\n"
    lines[650] = "650 x1\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["verify", "--rec", REC_TEXT, "--bfile", str(path)]) == 2
    assert capsys.readouterr().err == "holoseq: line 651: non-integer field in '650 x1'\n"
    lines[650] = "650 0\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert main(["verify", "--rec", REC_TEXT, "--bfile", str(path)]) == 1
    assert "first failure at n = 5 (residual 1): FAIL" in capsys.readouterr().out


def seventh_steps(first):
    """Terms of 7*a(n) - n*a(n-1) = 0 from a(0) = ``first`` up to the first n where 7 does not
    divide s(n) = n*a(n-1); there a(n) is s(n)/7 rounded toward zero, the text of the quotient
    of a Decimal division, and the terms after it are 1, 2, 3."""
    terms = [first]
    while len(terms) * terms[-1] % 7 == 0:
        terms.append(len(terms) * terms[-1] // 7)
    s = len(terms) * terms[-1]
    return (*terms, (1 if s > 0 else -1) * (abs(s) // 7), 1, 2, 3)


def text_walk_case(name, tmp_path, capsys):
    """(recurrence text, int table, b-file path) of the text-walk case ``name``."""
    path = tmp_path / f"{name}.txt"
    table = a214615_terms(600)
    rng = random.Random(name)
    if name == "generated":
        argv = ["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "600", "--bfile", str(path)]
        assert main(argv) == 0 and capsys.readouterr() == ("", "")
        return REC_TEXT, table, path
    if name == "spellings":  # +1 and 01 for 1, -0 for 0, and padded or signed later terms
        table = a214615_terms(40)
        spelled = {0: "+1", 1: "01", 2: "-0", 3: "-004", 5: "+60", 6: "0160", 7: "-02000"}
        lines = [f"{n} {spelled.get(n, a)}\n" for n, a in table.items()]
        path.write_text("".join(lines), encoding="utf-8")
        return REC_TEXT, table, path
    if name.startswith("corrupted"):
        low, high = {"corrupted_start": (0, 5), "corrupted_middle": (290, 310),
                     "corrupted_end": (595, 600)}[name]
        at = rng.randint(low, high)
        table = table.replaced(at, table.term(at) + rng.choice((-1, 1)) * rng.randint(1, 10**6))
        rec = REC_TEXT
    elif name == "offset_5":  # the two terms before n_min = 7 are read as values
        table, rec = SequenceTable(5, table.terms[5:]), REC_TEXT.replace(">= 2", ">= 7")
    elif name == "offset_5_from_5":  # nothing before the first checked index: a(5) fails
        table, rec = SequenceTable(5, table.terms[5:]), REC_TEXT
    elif name == "singular":  # p_0(2) = 0, so a(2) is free and the terms after it follow it
        table, rec = SequenceTable(0, (7, 7, *[5] * 40)), "(n-2)*a(n) - (n-2)*a(n-1) = 0"
    else:  # 7 does not divide s(n) > 0 or < 0, and the text is that of the truncated s(n)/7
        first = 7**100 if name == "sevenths_positive" else -(7**100)
        table, rec = SequenceTable(0, seventh_steps(first)), "7*a(n) - n*a(n-1) = 0 for n >= 1"
    write_bfile(BFileDocument(table), path)
    return rec, table, path


@pytest.mark.parametrize(
    "name, passes",
    [("generated", True), ("spellings", True), ("corrupted_start", False),
     ("corrupted_middle", False), ("corrupted_end", False), ("offset_5", True),
     ("offset_5_from_5", False), ("singular", True), ("sevenths_positive", False),
     ("sevenths_negative", False)],
)
def test_verify_of_the_text_gives_the_report_of_the_int_terms(tmp_path, capsys, name, passes):
    """verify reads a term that reads as the solved one without converting it; the report is
    still the library's on the same terms as ints."""
    rec_text, table, path = text_walk_case(name, tmp_path, capsys)
    rec = parse_recurrence(rec_text)
    expected = {"recurrence": rec.to_text(), **_report_json(rec.verify(table))}
    code = main(["verify", "--rec", rec_text, "--bfile", str(path), "--json"])
    assert json.loads(capsys.readouterr().out) == expected
    assert (code, expected["passed"]) == ((0, True) if passes else (1, False))


def spy_on_conversions(monkeypatch):
    """The list that each text the CLI's walk converts through ``_value`` is appended to."""
    converted = []
    walk = RecurrenceOperator._verify_entries

    def spied(self, entries, **kwargs):
        if "_value" in kwargs:
            value = kwargs["_value"]
            kwargs["_value"] = lambda text: converted.append(text) or value(text)
        return walk(self, entries, **kwargs)

    monkeypatch.setattr(RecurrenceOperator, "_verify_entries", spied)
    return converted


def test_verify_converts_only_the_terms_it_cannot_read_as_solved(tmp_path, capsys, monkeypatch):
    """On a generate-written A214615 file, verify converts a(0) and a(1), which come before the
    first checked index, and no other term; of the terms from a failure on it converts the
    failing one alone, and only reads the rest."""
    path = tmp_path / "b.txt"
    argv = ["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "2499", "--bfile", str(path)]
    assert main(argv) == 0
    converted = spy_on_conversions(monkeypatch)
    assert main(["verify", "--rec", REC_TEXT, "--bfile", str(path)]) == 0
    assert "holds for n = 2..2499: PASS" in capsys.readouterr().out
    assert converted == ["1", "1"]
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2000] = "2000 " + lines[2000].split()[1] + "1\n"
    path.write_text("".join(lines), encoding="utf-8")
    converted.clear()
    assert main(["verify", "--rec", REC_TEXT, "--bfile", str(path)]) == 1
    assert "first failure at n = 2000 (residual " in capsys.readouterr().out
    assert len(converted) == 2 + 1


def test_selfcheck_against_reads_an_offset_bfile_to_its_end(tmp_path, capsys):
    path = tmp_path / "b.txt"
    write_bfile(BFileDocument(SequenceTable(1, a214615_terms(600).terms)), path)
    argv = ["selfcheck", "--max-n", "20", "--series-order", "12", "--against", str(path)]
    assert main(argv) == 1
    assert f"b-file check: {path} starts at index 1, expected 0: FAIL" in capsys.readouterr().out
    with path.open("a", encoding="utf-8") as stream:
        stream.write("700 1\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == "holoseq: line 602: index 700 does not follow 601\n"
    write_bfile(BFileDocument(a214615_terms(1)), path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "holoseq: table ends at 1, before the first checkable index 2\n"


AGAINST_MAX_N = 300


def against_case(kind, tmp_path, capsys):
    """(int table, b-file path, stderr of an exit-2 run or None) of the --against file ``kind``,
    400 terms long unless it says otherwise, checked at --max-n AGAINST_MAX_N."""
    path = tmp_path / f"{kind}.txt"
    table = a214615_terms(399)
    init = {"generated": "1,1", "unrolled_from_2_1": "2,1", "unrolled_from_1_2": "1,2"}.get(kind)
    if init is not None:  # generate-written; from 2,1 or 1,2 the recurrence holds throughout
        argv = ["generate", "--rec", REC_TEXT, "--init", init, "--to", "399", "--bfile", str(path)]
        assert main(argv) == 0 and capsys.readouterr() == ("", "")
        init_terms = SequenceTable(0, tuple(map(int, init.split(","))))
        return A214615_RECURRENCE.unroll(init_terms, 399), path, None
    spelled = {"spelled_head": {0: "+1", 1: "01"}, "minus_zero": {2: "-0"}}.get(kind, {})
    err = None
    if kind == "corrupted_at_max_n":
        table = table.replaced(AGAINST_MAX_N, table.term(AGAINST_MAX_N) + 1)
    elif kind == "corrupted_past_max_n":
        table = table.replaced(AGAINST_MAX_N + 1, table.term(AGAINST_MAX_N + 1) - 1)
    elif kind == "a0_is_2":
        table = table.replaced(0, 2)
    elif kind == "one_term":
        table, err = a214615_terms(0), "holoseq: table ends at 0, before the first checkable index 2\n"
    elif kind == "offset_1":
        table = SequenceTable(1, table.terms)
    lines = [f"{n} {spelled.get(n, a)}\n" for n, a in table.items()]
    if kind == "malformed_after_failure":  # a(5) fails; line 101 is not a b-file line
        lines[5], lines[100] = "5 61\n", "100 x1\n"
        table, err = None, "holoseq: line 101: non-integer field in '100 x1'\n"
    path.write_text("".join(lines), encoding="utf-8")
    return table, path, err


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "kind",
    ["generated", "corrupted_at_max_n", "corrupted_past_max_n", "a0_is_2", "unrolled_from_2_1",
     "unrolled_from_1_2", "spelled_head", "minus_zero", "one_term", "offset_1",
     "malformed_after_failure"],
)
def test_selfcheck_against_each_kind_of_bfile(tmp_path, capsys, kind, as_json):
    """--against says "terms differ" exactly when a term up to --max-n is not the direct one,
    whether the head terms or a later one differ, and otherwise prints the file's report."""
    entries, path, err = against_case(kind, tmp_path, capsys)
    extra = ["--json"] if as_json else []
    code = main(["selfcheck", "--max-n", str(AGAINST_MAX_N), "--series-order", "20",
                 "--against", str(path), *extra])
    out, got_err = capsys.readouterr()
    if err is not None:
        assert (out, got_err, code) == ("", err, 2)
        return
    expected = selfcheck_reference(a214615_terms(AGAINST_MAX_N), 20, (path, entries), as_json)
    assert (out, code) == expected and got_err == ""
    assert code == (0 if kind in ("generated", "spelled_head", "minus_zero") else 1)
    if not as_json:
        differ = kind in ("corrupted_at_max_n", "a0_is_2", "unrolled_from_2_1", "unrolled_from_1_2")
        assert ("terms differ from computed a(n): FAIL" in out) == differ


def test_selfcheck_against_converts_only_the_terms_it_cannot_read_as_solved(
    tmp_path, capsys, monkeypatch
):
    """--against walks the file as verify does: on a generate-written A214615 file it converts
    a(0) and a(1), and no other term; of the terms from a failure on it converts the failing
    one alone, and only reads the rest."""
    path = tmp_path / "b.txt"
    argv = ["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "2499", "--bfile", str(path)]
    assert main(argv) == 0
    converted = spy_on_conversions(monkeypatch)
    argv = ["selfcheck", "--max-n", "2499", "--series-order", "20", "--against", str(path)]
    assert main(argv) == 0
    assert f"b-file check: {path} holds for n = 2..2499: PASS" in capsys.readouterr().out
    assert converted == ["1", "1"]
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2000] = "2000 " + lines[2000].split()[1] + "1\n"
    path.write_text("".join(lines), encoding="utf-8")
    converted.clear()
    assert main(argv) == 1
    assert f"b-file check: {path} terms differ from computed a(n): FAIL" in capsys.readouterr().out
    assert len(converted) == 2 + 1


def test_fetch_warm_cache(tmp_path, capsys):
    write_bfile(BFileDocument(a214615_terms(11), "A214615"), tmp_path / "b214615.txt")
    assert main(["fetch", "A214615", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# A214615"
    assert "11 -10900800" in out


def test_fetch_network_failure_exit_code(tmp_path, monkeypatch, capsys):
    import urllib.error
    import urllib.request

    def refuse(url, timeout):
        raise urllib.error.URLError("unreachable")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)
    assert main(["fetch", "A000045", "--cache-dir", str(tmp_path)]) == 3
    assert "offline" in capsys.readouterr().err


def test_fetch_bad_id_usage_error(tmp_path, capsys):
    assert main(["fetch", "nope", "--cache-dir", str(tmp_path)]) == 2


def test_missing_bfile_is_io_error(capsys):
    assert main(["verify", "--rec", REC_TEXT, "--bfile", "/nonexistent/x.txt"]) == 3


def test_parse_error_exit_code(capsys):
    assert main(["ode2rec", "(1+t^2*D"]) == 2
    assert "position" in capsys.readouterr().err


# Argvs that open with a subcommand's name: every subcommand, "--opt value" and "--opt=value",
# values that start with "-", --json before and after the values, and a "--" separator.
DISPATCHED = [
    ["selfcheck"],
    ["selfcheck", "--max-n", "40", "--series-order=12", "--against", "b.txt", "--json"],
    ["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", "11"],
    ["generate", "--json", "--ode=-D+1", "--init", "-1,2", "--to=5", "--bfile", "out.txt"],
    ["verify", "--rec", REC_TEXT, "--bfile", "b.txt"],
    ["verify", "--json", "--ode", ODE_TEXT, "--bfile=b.txt"],
    ["ode2rec", ODE_TEXT],
    ["ode2rec", "-t*D+1", "--json"],
    ["ode2rec", "--json", "--", "-t*D+1"],
    ["guess", "--bfile", "b.txt", "--max-order", "2", "--max-degree", "2", "--json"],
    ["guess", "--bfile=b.txt", "--max-order=-1"],
    ["series"],
    ["series", "--x0", "-3/4", "--to", "30", "--text"],
    ["series", "--json", "--x0=-3/4", "--to=0"],
    ["fetch", "A214615", "--cache-dir", "cache"],
    ["fetch", "--json", "--", "A214615"],
]


@pytest.fixture
def handed(monkeypatch):
    """The Namespaces that main hands its handler, and the number of argv parses it made: each
    subcommand's handler records its Namespace and returns 0 until the test ends."""
    commands = list(build_parser().commands.values())
    handlers = [command.get_default("handler") for command in commands]
    seen, parses = [], []
    parse_known_args = cli._Parser.parse_known_args

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
    for command in commands:
        command.set_defaults(handler=lambda args: seen.append(args) or 0)
    yield seen, parses
    for command, handler in zip(commands, handlers):
        command.set_defaults(handler=handler)


@pytest.mark.parametrize("argv", DISPATCHED, ids=[" ".join(argv) for argv in DISPATCHED])
def test_main_parses_once_into_the_namespace_of_the_whole_parse(handed, argv):
    seen, parses = handed
    assert main(argv) == 0
    assert parses == [f"holoseq {argv[0]}"]  # the subcommand's parser alone, once
    assert seen == [build_parser().parse_args(argv)]
    assert seen[0].command == argv[0]


# (argv, exit code, how the output stream opens, the last line of stderr or None): argvs that
# the whole parser reads (none, -h, an unknown name, a name's prefix, "--" before a name), and
# ones that a subcommand's parser refuses or leaves arguments of, or prints help for.
USAGE = [
    (["ode2rec", "D", "--bogus"], 2, "usage: holoseq [-h]", "holoseq: error: unrecognized arguments: --bogus"),
    (["ode2rec", "D", "D"], 2, "usage: holoseq [-h]", "holoseq: error: unrecognized arguments: D"),
    (["series", "--json", "--to", "3", "--bogus=1", "x"], 2, "usage: holoseq [-h]",
     "holoseq: error: unrecognized arguments: --bogus=1 x"),
    (["generate", "--rec", REC_TEXT, "--to", "3"], 2, "usage: holoseq generate [-h]",
     "holoseq generate: error: the following arguments are required: --init"),
    (["generate", "--bogus"], 2, "usage: holoseq generate [-h]",
     "holoseq generate: error: the following arguments are required: --init, --to"),
    ([], 2, "usage: holoseq [-h]", "holoseq: error: the following arguments are required: command"),
    (["frobnicate"], 2, "usage: holoseq [-h]", "holoseq: error: argument command: invalid choice: 'frobnicate'"),
    (["ode"], 2, "usage: holoseq [-h]", "holoseq: error: argument command: invalid choice: 'ode'"),
    (["--", "series"], 2, "usage: holoseq [-h]", "holoseq: error: argument command: invalid choice: '--'"),
    (["-h"], 0, "usage: holoseq [-h]", None),
    (["series", "-h"], 0, "usage: holoseq series [-h]", None),
]


@pytest.mark.parametrize("argv, code, opens, last", USAGE, ids=[" ".join(row[0]) or "no argv" for row in USAGE])
def test_usage_errors_and_help_print_what_the_whole_parse_prints(capsys, argv, code, opens, last):
    with pytest.raises(SystemExit) as stopped:
        build_parser().parse_args(argv)
    expected = (stopped.value.code, capsys.readouterr())
    assert (main(argv), capsys.readouterr()) == expected
    out, err = expected[1]
    assert expected[0] == code
    if last is None:  # help goes to stdout
        assert out.startswith(opens) and err == ""
    else:
        assert out == "" and err.startswith(opens)
        assert err.endswith("\n") and err.splitlines()[-1].startswith(last)


def test_usage_error_of_a_process_reads_sys_argv():
    result = subprocess.run(
        [sys.executable, "-m", "holoseq.cli", "ode2rec", "D", "--bogus"], capture_output=True, text=True
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("usage: holoseq [-h]")
    assert result.stderr.splitlines()[-1] == "holoseq: error: unrecognized arguments: --bogus"


INTEGER_OPTIONS = [
    (["generate", "--rec", REC_TEXT, "--init", "1,1"], "--to"),
    (["series"], "--to"),
    (["selfcheck"], "--max-n"),
    (["selfcheck"], "--series-order"),
    (["guess", "--bfile", "unread.txt"], "--max-order"),
    (["guess", "--bfile", "unread.txt"], "--max-degree"),
]


@pytest.mark.parametrize(
    "literal", ["\u0663", "1_0", "\uff13", "3.0", ""],
    ids=["arabic-indic", "underscore", "fullwidth", "decimal", "empty"],
)
@pytest.mark.parametrize("argv, option", INTEGER_OPTIONS, ids=[f"{a[0]}{o}" for a, o in INTEGER_OPTIONS])
def test_integer_options_accept_decimal_literals_only(capsys, argv, option, literal):
    # int() reads other scripts' digits and underscores; the options read what --init reads.
    assert main(argv + [option, literal]) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: invalid" in err and "Traceback" not in err


def test_integer_options_take_a_sign_and_spaces_as_init_does(capsys):
    assert main(["generate", "--rec", REC_TEXT, "--init", "1,1", "--to", " +3 "]) == 0
    assert capsys.readouterr().out == format_bfile(BFileDocument(a214615_terms(3)))
    assert main(["series", "--to", "\u22121"]) == 2  # a Unicode minus reads as "-"
    assert capsys.readouterr() == ("", "holoseq: --to must be >= 0\n")
    assert main(["generate", "--rec", REC_TEXT, "--init", "\u0663", "--to", "3"]) == 2


def test_pipeline_composition(tmp_path, capsys):
    # ode2rec -> generate -> verify, all through the CLI surface
    assert main(["ode2rec", ODE_TEXT]) == 0
    rec_text = capsys.readouterr().out.strip()
    out = tmp_path / "pipe.txt"
    assert main(["generate", "--rec", rec_text, "--init", "1,1", "--to", "50", "--bfile", str(out)]) == 0
    assert main(["verify", "--rec", rec_text, "--bfile", str(out)]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["guess", "--bfile", str(out), "--max-order", "2", "--max-degree", "2"]) == 0
    assert capsys.readouterr().out.strip() == rec_text


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "holoseq.cli", "ode2rec", ODE_TEXT],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == REC_TEXT


@pytest.fixture(scope="module")
def modules_loaded_by_import():
    """The modules that ``import holoseq.cli`` newly loads in a fresh ``python -I``; modules
    that start-up itself loads (``site`` may load some of those below) do not count."""
    src = Path(holoseq.__file__).resolve().parent.parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
        "import holoseq.cli\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "import json; print(json.dumps([holoseq.cli.__file__, loaded]))"
    )
    result = subprocess.run([sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    path, loaded = json.loads(result.stdout)
    assert Path(path).resolve().parent == src / "holoseq"
    return set(loaded)


@pytest.mark.parametrize(
    "module", ["dataclasses", "inspect", "urllib.request", "urllib.error", "json"]
)
def test_import_does_not_load(modules_loaded_by_import, module):
    # urllib is only needed for a download and json only for --json; dataclasses and inspect
    # cost about a third of the import.
    assert module not in modules_loaded_by_import
