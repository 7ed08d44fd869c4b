import json
import subprocess
import sys

import pytest

from holoseq.bfile import BFileDocument, format_bfile, write_bfile
from holoseq.cli import main
from holoseq.meixner import a214615_terms

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


def test_fetch_warm_cache(tmp_path, capsys):
    write_bfile(BFileDocument(a214615_terms(11), "A214615"), tmp_path / "b214615.txt")
    assert main(["fetch", "A214615", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "# A214615"
    assert "11 -10900800" in out


def test_fetch_network_failure_exit_code(tmp_path, monkeypatch, capsys):
    import urllib.error

    import holoseq.bfile as bfile_module

    def refuse(url, timeout):
        raise urllib.error.URLError("unreachable")

    monkeypatch.setattr(bfile_module, "_default_urlopen", refuse)
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
