"""Layer benchmark of A214615's terms, unroll, verify and guess; writes bench/BENCH_<label>.json.

Run from the repository root:

    python3 bench/run.py [--src DIR] [--label NAME]

It times the direct loop ``a214615_terms``, ``RecurrenceOperator.unroll`` from
a(0), a(1) and ``RecurrenceOperator.verify`` of the direct table, at n = 10^4
and 2*10^4, and checks that the three agree.  It then times
``guess_recurrence`` on the first 202 terms of A214615 and of the Motzkin
numbers at r = d = 4, 8 and 12, and on the first 202 Bell numbers, which fit
no recurrence, at r = d = 4, 6 and 8; such a row also holds the number of
candidates, every candidate must verify on the table, and the Bell rows must
have none.  Last, it runs ``holoseq selfcheck --max-n N --series-order 20`` at
N = 5000 and 15000, then ``holoseq generate --bfile`` of the first N terms of
A214615 and ``holoseq verify --bfile`` of that file at N = 300 and 5000, each
run in a fresh interpreter, one after another, and times the whole child
process; such a row also holds the median of the children's own peak resident
memory in MiB (Linux's VmHWM), every run must pass with the same output, and
every ``generate`` run must write the same bytes.  Each case runs RUNS (5)
times.  A row holds the median wall-clock seconds and the median reference
seconds: each run scaled by perfbench's REFERENCE_S over the faster of the
reference-kernel runs just before and just after it, because this kind of
shared host drifts in speed by up to half within seconds.  The rows of the
direct, unroll, verify and guess cases also hold the largest term's bit
length; the record holds the Python version and the CPU model.  The label
defaults to ``layers``.  ``--src`` names the directory holding the ``holoseq``
package to measure (default: ``src`` of this checkout), so another checkout
can be measured by the same script; the script exits if ``holoseq`` is
imported from anywhere else.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Hashable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from holobench import REFERENCE_S, cpu_model, reference_seconds  # noqa: E402

SIZES = (10_000, 20_000)
GUESS_TERMS = 202
GUESS_BOUNDS = (4, 8, 12)
BELL_BOUNDS = (4, 6, 8)
MOTZKIN = "(n+2)*a(n) - (2*n+1)*a(n-1) - 3*(n-1)*a(n-2) = 0"
SELFCHECK_SIZES = (5_000, 15_000)
SELFCHECK_ORDER = 20
BFILE_SIZES = (300, 5_000)
RUNS = 5

# One CLI call in a fresh interpreter: argv is (src dir, CLI arguments...).  The command's
# stdout is left as is; stderr ends with [exit code, holoseq.cli's file, peak RSS in KiB].
# The peak is Linux's VmHWM, the high-water mark of this address space alone: ru_maxrss
# would also count the spawning process's peak, which exec carries over on Linux.
CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import holoseq.cli
code = holoseq.cli.main(sys.argv[2:])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps([code, holoseq.cli.__file__, peak]), file=sys.stderr)
"""


def bell_numbers(count: int) -> tuple[int, ...]:
    """The first ``count`` Bell numbers, by the Bell triangle."""
    row, out = [1], [1]
    while len(out) < count:
        row = [row[-1]] + row
        for i in range(1, len(row)):
            row[i] += row[i - 1]
        out.append(row[0])
    return tuple(out)


def timed(call: Callable[[], object]) -> tuple[object, float, float]:
    """(result, wall seconds, reference seconds) of one call."""
    before = reference_seconds()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return result, wall, wall * REFERENCE_S / min(before, reference_seconds())


def measure(
    call: Callable[[], object], summary: Callable[[object], Hashable]
) -> tuple[object, list[tuple[float, float]]]:
    """The summary of RUNS calls' results, which must agree, and their (wall, reference) seconds.

    Each result is dropped once summarised, so a 2*10^4-term table is not held five times over.
    """
    summaries, runs = set(), []
    for _ in range(RUNS):
        result, wall, ref = timed(call)
        summaries.add(summary(result))
        del result
        runs.append((wall, ref))
    if len(summaries) != 1:
        raise SystemExit(f"bench: the {RUNS} runs of one case disagree")
    return summaries.pop(), runs


def cli_child(src: Path, argv: list[str], peaks: list[float]) -> str:
    """stdout of one ``holoseq argv`` that exits 0 in a child; appends its peak RSS in MiB to peaks."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src.resolve()), *argv], capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"bench: the {argv[0]} child failed:\n{done.stderr}")
    code, imported, peak_kib = json.loads(done.stderr.splitlines()[-1])
    if Path(imported).resolve().parent != (src / "holoseq").resolve():
        raise SystemExit(f"bench: the {argv[0]} child imported holoseq from {imported}, not {src}")
    if code != 0:
        raise SystemExit(f"bench: holoseq {' '.join(argv)} exited {code}:\n{done.stdout}")
    peaks.append(peak_kib / 1024)
    return done.stdout


def row(case: str, n: int, runs: list, table=None, **extra: object) -> dict:
    """One record row from the (wall, reference) seconds of a case's runs on ``table``, if any."""
    out = {
        "case": case,
        "n": n,
        **extra,
        "runs": RUNS,
        "median_wall_s": round(statistics.median(wall for wall, _ in runs), 4),
        "median_reference_s": round(statistics.median(ref for _, ref in runs), 4),
    }
    if table is not None:
        out["max_term_bits"] = max(abs(v).bit_length() for v in table.terms)
    print(json.dumps(out))
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--label", default="layers")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import holoseq
    from holoseq import (
        A214615_INITIAL,
        A214615_RECURRENCE,
        SequenceTable,
        a214615_terms,
        guess_recurrence,
        parse_recurrence,
    )
    if Path(holoseq.__file__).resolve().parent != (args.src / "holoseq").resolve():
        raise SystemExit(f"bench: imported holoseq from {holoseq.__file__}, not {args.src}")

    rows = []
    for n in SIZES:
        table = a214615_terms(n)
        cases = {
            "a214615_terms": lambda: a214615_terms(n),
            "unroll": lambda: A214615_RECURRENCE.unroll(A214615_INITIAL, n),
            "verify": lambda: A214615_RECURRENCE.verify(table),
        }
        for name, call in cases.items():
            agrees, runs = measure(call, lambda r: r.passed if name == "verify" else r == table)
            if not agrees:
                raise SystemExit(f"bench: {name} at n = {n} disagrees with a214615_terms")
            rows.append(row(name, n, runs, table))
    guess_tables = {
        "a214615": (a214615_terms(GUESS_TERMS - 1), GUESS_BOUNDS),
        "motzkin": (
            parse_recurrence(MOTZKIN).unroll(SequenceTable(0, (1, 1)), GUESS_TERMS - 1),
            GUESS_BOUNDS,
        ),
        "bell": (SequenceTable(0, bell_numbers(GUESS_TERMS)), BELL_BOUNDS),
    }
    for name, (table, bounds) in guess_tables.items():
        for bound in bounds:
            candidates, runs = measure(lambda: guess_recurrence(table, bound, bound), tuple)
            if not all(c.verify(table).passed for c in candidates):
                raise SystemExit(f"bench: a guess on {name} at r = d = {bound} fails on the table")
            if name == "bell" and candidates:
                raise SystemExit(f"bench: a guess on the Bell numbers at r = d = {bound} fits")
            extra = {"bounds": [bound, bound], "candidates": len(candidates)}
            rows.append(row(f"guess_{name}", GUESS_TERMS, runs, table, **extra))
    for n in SELFCHECK_SIZES:
        peaks: list[float] = []
        argv = ["selfcheck", "--max-n", str(n), "--series-order", str(SELFCHECK_ORDER)]
        _, runs = measure(lambda: cli_child(args.src, argv, peaks), str)
        extra = {"series_order": SELFCHECK_ORDER, "peak_rss_mib": round(statistics.median(peaks), 1)}
        rows.append(row("selfcheck", n, runs, **extra))
    with tempfile.TemporaryDirectory() as work:
        for n in BFILE_SIZES:
            path = Path(work) / f"b{n}.txt"
            rec = A214615_RECURRENCE.to_text()
            cases = {
                "generate_bfile": (
                    ["generate", "--rec", rec, "--init", "1,1", "--to", str(n - 1), "--bfile", str(path)],
                    lambda: hashlib.sha256(path.read_bytes()).hexdigest(),
                ),
                "verify_bfile": (["verify", "--rec", rec, "--bfile", str(path)], lambda: ""),
            }
            for name, (argv, written) in cases.items():
                peaks = []
                _, runs = measure(lambda: cli_child(args.src, argv, peaks) + written(), str)
                peak = round(statistics.median(peaks), 1)
                extra = {"bfile_bytes": path.stat().st_size, "peak_rss_mib": peak}
                rows.append(row(name, n, runs, **extra))
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "rows": rows,
    }
    out = Path(__file__).resolve().parent / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
