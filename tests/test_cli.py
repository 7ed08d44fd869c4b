import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import holoseq
from holoseq.bfile import BFileDocument, format_bfile, write_bfile
from holoseq.sequences import _WINDOW as W
from holoseq.sequences import SequenceTable
from holoseq.cli import main
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

    ``table`` stands for the direct terms a(0..max_n); ``against`` is a b-file's entries.
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
    if against is not None:
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


@pytest.mark.parametrize("max_n", [2, W - 1, W, W + 1, 2 * W + 1])
def test_selfcheck_windows_match_whole_table_reference(capsys, max_n):
    table = a214615_terms(max_n)
    for order in (13, W, W + 1):
        for as_json in (False, True):
            got = run_selfcheck(capsys, max_n, order, *(["--json"] if as_json else []))
            assert got == selfcheck_reference(table, order, as_json=as_json)


@pytest.mark.parametrize("at", [1, 20, W - 1, W, W + 1])
def test_selfcheck_catches_a_corrupted_direct_term(capsys, monkeypatch, at):
    max_n, order = 2 * W + 1, 20
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


def test_selfcheck_against_corrupted_past_the_first_window(tmp_path, capsys):
    max_n, at = 2 * W + 1, W + 5
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
    max_n = W + 44
    entries = a214615_terms(2 * W + 50).replaced(2 * W, 1)
    path = tmp_path / "corrupt.txt"
    write_bfile(BFileDocument(entries), path)
    out, code = run_selfcheck(capsys, max_n, 20, "--against", str(path))
    assert code == 1
    assert f"b-file check: {path} first failure at n = {2 * W}" in out
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
def test_selfcheck_memory_is_bounded_by_a_window():
    def selfcheck_kib(max_n):
        return peak_kib("selfcheck", "--max-n", str(max_n), "--series-order", "20")

    table_kib = sum(map(sys.getsizeof, islice(_a214615_direct(), 10_001))) / 1024
    assert selfcheck_kib(10_000) < selfcheck_kib(2) + table_kib / 2


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux's /proc/self/status")
def test_bfile_write_and_verify_memory_is_bounded_by_a_window(tmp_path):
    """generate --bfile holds the table but never its text; verify --bfile holds neither."""
    peaks = {}
    for n_max in (2, 2499):
        path = str(tmp_path / f"b{n_max}.txt")
        peaks["generate", n_max] = peak_kib("generate", "--rec", REC_TEXT, "--init", "1,1",
                                            "--to", str(n_max), "--bfile", path)
        peaks["verify", n_max] = peak_kib("verify", "--rec", REC_TEXT, "--bfile", path)
    text_kib = (tmp_path / "b2499.txt").stat().st_size / 1024
    table_kib = sum(map(sys.getsizeof, islice(_a214615_direct(), 2500))) / 1024
    assert peaks["generate", 2499] < peaks["generate", 2] + table_kib + text_kib / 2
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


def test_unknown_subcommand_exit_code(capsys):
    assert main(["frobnicate"]) == 2


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


def test_import_does_not_load_urllib_request():
    # urllib.request is only needed for a download, and importing it costs tens of ms.
    result = subprocess.run(
        [sys.executable, "-c", "import sys, holoseq.cli; print('urllib.request' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
