"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import holobench
import workloads

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# The subcommands whose summed time each workload reports.
COMMANDS = {
    "egf_build": ("selfcheck", "series"),
    "terms_long": ("selfcheck", "generate", "verify"),
    "guess_fit": ("guess",),
    "many_small": ("ode2rec", "generate", "series", "guess"),
}
TINY = {
    "egf_build": {"selfcheck_n": 30, "selfcheck_order": 12, "series_to": 12, "text_to": 8},
    "terms_long": {"selfcheck_n": 60, "selfcheck_order": 5, "bfile_to": 50},
    "guess_fit": {"terms": 40, "ladder": [(1, 1), (2, 2), (3, 3)], "big": (4, 4)},
    "many_small": {"operators": 5, "ode_to": 12, "series_to": 6, "guesses": 3, "guess_terms": 20},
}


def _printed(out: str, name: str, unit: str) -> bool:
    return re.search(rf"^\s+{re.escape(name)}\s+-?[0-9.e+-]+ {re.escape(unit)}\b", out, re.M) is not None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    result = holobench.run(workload, 3, 0.01, bool(trace), TINY[workload], setup_runs=1)
    out = capsys.readouterr().out
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert _printed(out, name, unit), name
    if not trace:
        printed = {c for c in holobench.COMMANDS if _printed(out, f"{c}_s", "s")}
        assert printed == set(COMMANDS[workload])
    assert _printed(out, "failed_ratio", "ratio")
    assert result["correct"] and result["attempted"] >= 1


def test_failed_ratio_counts_a_wrong_expected_output(monkeypatch, capsys):
    terms = workloads.step(workloads.A214615, [1, 1], 10)
    right = [(str(n), str(v)) for n, v in enumerate(terms)]
    wrong = right[:5] + [("5", str(terms[5] + 1))] + right[6:]
    argv = ("generate", "--rec", workloads.A214615_SPELLINGS[0], "--init", "1,1", "--to", "10")
    tasks = [workloads.Task(argv, workloads.expect_lines(right)), workloads.Task(argv, workloads.expect_lines(wrong))]
    monkeypatch.setattr(workloads, "build", lambda *args: workloads.Workload(tasks))

    result = holobench.run("terms_long", 0, 0.01, False, setup_runs=1)

    assert result["failed"] * 2 == result["attempted"]
    assert not result["correct"]
    assert re.search(r"^\s+failed_ratio\s+0\.5 ratio$", capsys.readouterr().out, re.M)


def test_guess_check_separates_missing_from_wrong():
    terms = workloads.step(workloads.MOTZKIN, [1, 1], 40)
    check = workloads.expect_guess(0, terms, workloads.MOTZKIN, (2, 1))
    assert check(0, json.dumps({"candidates": []}), "").wrong is False
    assert check(0, json.dumps({"candidates": []}), "").problem
    bogus = {"coefficients": [["1"], ["-3"]], "n_min": 1}
    assert check(0, json.dumps({"candidates": [bogus]}), "").wrong
    good = {"coefficients": [["2", "1"], ["-1", "-2"], ["3", "-3"]], "n_min": 2}
    assert check(0, json.dumps({"candidates": [good]}), "") == workloads.Verdict(candidates=1, useful=1)
