"""Layer benchmark of A214615's terms, guesses, EGF series, to_recurrence, parsing and text; writes bench/BENCH_<label>.json.

Run from the repository root:

    python3 bench/run.py [--src DIR] [--parent DIR] [--label NAME]

It times the direct loop ``a214615_terms``, ``RecurrenceOperator.unroll`` from
a(0), a(1) and ``RecurrenceOperator.verify`` of the direct table, at n = 10^4
and 2*10^4, and checks that the three agree.  It then times
``guess_recurrence`` on the first 202 terms of A214615 and of the Motzkin
numbers at r = d = 4, 8 and 12, of the Apery numbers (order 2, degree 3) at
r = d = 3 and 6, and on the first 202 Bell numbers, which fit no recurrence,
at r = d = 4, 6, 8, 10 and 12; such a row also holds the number
of candidates, every candidate must verify on the table, and the Bell rows must
have none.  It times ``guess_recurrence`` at r = d = 2 on the first N terms of
A214615 with the last one changed by 1, at N = 500, 1000 and 2000, where the
head's solution fails on the table and no recurrence fits.  Next, at N = 250, 400 and 800, it times ``build_egf(1, N)``, which
is one ``Series.exp``, and the ``Series`` kernels of the factorization it
replaced, exp(arctan t) * (1 + t^2)^(-1/2): ``Series.exp`` of arctan t and the
``Series`` product of that with (1 + t^2)^(-1/2), whose coefficients the
script writes down from the closed form C(-1/2, k) at t^(2k).  That product
cross-checks the EGF: it must equal ``build_egf(1, N)``, whose EGF terms must
equal the direct ones.  Such a row also holds the result's largest numerator
or denominator bit length.  At the same N it times the ``Series`` division of
``build_egf(1, N)`` by the dense integer series of the Fibonacci numbers,
whose quotient times the divisor must give the dividend back.  Then it times
``DifferentialOperator.to_recurrence`` of (1+t)^k*D + 1 at k = 50, 100 and 200,
which must have order k; such a row also holds the sha256 of the recurrence's
text.  It times ``to_recurrence`` of 100 seeded many_small-style operators
(perfbench's ``random_operator``), ``to_text`` of their 100 recurrences, which
must hash the same, ``parse_differential_operator`` of the 100 operator texts
with ``parse_recurrence`` of the 100 recurrences' texts (``parse_small``), 100
in-process ``holoseq.cli.main`` calls (``cli_small``): ``ode2rec --json`` of the first
33 operator texts, 33 ``series --to 0 --text``, ``generate --rec ... --to 2`` of the first
33 recurrences' texts and one usage error, ``ode2rec D --bogus``, and
100 calls of ``Series.to_text`` of ``build_egf(-3/4, N)`` at N = 30 and 250;
such a row holds the sha256 of its results' texts, one per line.  It times 100
calls of ``build_egf(-3/4, 30)``, the size of EGF that each ``series --to 30``
of the many_small workload builds, whose fields must agree across runs and
trees.  It times ``load_bfile``, with int
terms, of b-files of the first N terms of A214615 at N = 2500 and 5000, which
must give the direct terms back, and the drain of ``BFileReader`` over the
same files with ``_term=str``, the read that ``verify --bfile`` makes, whose
terms must hash the same as the files' second fields.  It times ``import
holoseq.cli`` in IMPORT_RUNS (11) fresh ``python -I`` interpreters, with the
clock inside the child around the import alone, as perfbench's ``setup_s``
does.  Last, it
runs ``holoseq selfcheck --max-n N --series-order 20`` at N = 5000 and
15000, ``holoseq series --to N`` at N = 250, 400 and 800, whose output must
be the b-file lines of the direct terms, then
``holoseq generate --bfile`` of the first N terms of A214615 and
``holoseq verify --bfile`` of that file at N = 300 and 5000, ``holoseq verify
--bfile`` at N = 5000 of a copy with one digit of a(N - 10) changed and of one
with one digit of a(10) changed, each of which must exit 1 and name that index as
the first failure, ``holoseq selfcheck --max-n
N --series-order 20 --against`` the file and its a(N - 10) copy at N = 5000, which
must pass and must exit 1 with "terms differ" respectively, and
``holoseq ode2rec '(1+t)^100*D + 1'``, ``holoseq ode2rec --json`` of a small
operator and ``holoseq series --x0=-3/4 --to 30 --text``, each run in a
fresh interpreter, one after another, and times the whole child process; such
a row also holds the median of the children's own peak resident memory in MiB
(Linux's VmHWM), every run must pass with the same output, and every
``generate`` run must write the same bytes.  Each case runs RUNS (5) times,
the import IMPORT_RUNS (11) times.  A row holds the median wall-clock seconds
and the median reference seconds: each run scaled by perfbench's REFERENCE_S
over the faster of the reference-kernel runs just before and just after it,
because this kind of shared host drifts in speed by up to half within
seconds.  The rows of the direct, unroll, verify and guess cases also hold
the largest term's bit length; the record holds the Python version and the
CPU model.  The label
defaults to ``layers``.  ``--src`` names the directory holding the ``holoseq``
package to measure (default: ``src`` of this checkout), so another checkout
can be measured by the same script; the in-process rows import that package
from its files, and the script exits if a child imports ``holoseq`` from
anywhere else.  ``--parent`` names a second such directory, the tree to
compare with: then both packages are loaded into this process under names of
their own, every case alternates between the two trees run by run, in
process and in fresh interpreters alike, so that host drift falls on both
alike, both trees must give the same results and output and write the same
bytes, and the parent's rows go to bench/BENCH_<label>_parent.json.  Each
tree is byte-compiled before any run, so that a tree copied without
``__pycache__`` is not timed compiling itself.  Only the standard library is
used.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import io
import json
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from types import ModuleType
from typing import Callable, Hashable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from holobench import REFERENCE_S, cpu_model, reference_seconds  # noqa: E402
from workloads import operator_text, random_operator  # noqa: E402

SIZES = (10_000, 20_000)
GUESS_TERMS = 202
GUESS_BOUNDS = (4, 8, 12)
APERY_BOUNDS = (3, 6)
BELL_BOUNDS = (4, 6, 8, 10, 12)
CORRUPT_GUESS_SIZES = (500, 1_000, 2_000)
SELFCHECK_SIZES = (5_000, 15_000)
SELFCHECK_ORDER = 20
SERIES_SIZES = (250, 400, 800)
BFILE_SIZES = (300, 5_000)
PARSE_SIZES = (2_500, 5_000)
CORRUPT_FROM_END = 10
EARLY_INDEX = 10
TO_RECURRENCE_POWERS = (50, 100, 200)
SMALL_OPERATORS = 100
SMALL_OPERATOR_SEED = 2023
CLI_SMALL_EACH = 33  # ode2rec, series and generate calls each, then one usage error: 100 calls
CLI_SMALL_USAGE_ERROR = ["ode2rec", "D", "--bogus"]
TEXT_SIZES = (30, 250)
TEXT_X0 = Fraction(-3, 4)
TEXT_CALLS = 100
ODE2REC_POWER = 100
SMALL_OPERATOR = "(1-2*t+3*t^2)*D^2 + (2+t-t^3)*D + (-1+t)"
RUNS = 5
IMPORT_RUNS = 11

# One CLI call in a fresh interpreter: argv is (src dir, CLI arguments...).  The command's
# stdout is left as is; stderr ends with [exit code, holoseq.cli's file, peak RSS in KiB].
# The peak is Linux's VmHWM, the high-water mark of this address space alone: ru_maxrss
# would also count the spawning process's peak, which exec carries over on Linux.
CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import holoseq.cli
code = holoseq.cli.main(sys.argv[2:])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
import json  # only now, as in IMPORT_CHILD
print(json.dumps([code, holoseq.cli.__file__, peak]), file=sys.stderr)
"""
# ``import holoseq.cli`` alone in a fresh ``python -I``, timed inside the child, as perfbench's
# setup_s is: argv is (src dir,); stdout is [seconds, holoseq.cli's file].
IMPORT_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import holoseq.cli
elapsed = time.perf_counter() - start
import json  # only now, so that the import above pays for json if holoseq.cli loads it
print(json.dumps([elapsed, holoseq.cli.__file__]))
"""


def a214615(n: int) -> tuple[int, ...]:
    """a(0..n) of A214615, by a(k+1) = a(k) - k^2 a(k-1) with a(0) = a(1) = 1."""
    out = [1, 1]
    while len(out) <= n:
        k = len(out) - 1
        out.append(out[k] - k * k * out[k - 1])
    return tuple(out[: n + 1])


def inverse_sqrt_one_plus_t2(n: int) -> list[Fraction]:
    """(1 + t^2)^(-1/2) through t^n: C(-1/2, k) = (-1)^k C(2k, k) / 4^k at t^(2k)."""
    return [Fraction((-1) ** (i // 2) * comb(i, i // 2), 2**i) if i % 2 == 0 else 0 for i in range(n + 1)]


def bell_numbers(count: int) -> tuple[int, ...]:
    """The first ``count`` Bell numbers, by the Bell triangle."""
    row, out = [1], [1]
    while len(out) < count:
        row = [row[-1]] + row
        for i in range(1, len(row)):
            row[i] += row[i - 1]
        out.append(row[0])
    return tuple(out)


def motzkin(count: int) -> tuple[int, ...]:
    """The first ``count`` Motzkin numbers, by (n+2) M(n) = (2n+1) M(n-1) + 3(n-1) M(n-2)."""
    out = [1, 1]
    while len(out) < count:
        n = len(out)
        out.append(((2 * n + 1) * out[n - 1] + 3 * (n - 1) * out[n - 2]) // (n + 2))
    return tuple(out[:count])


def apery(count: int) -> tuple[int, ...]:
    """The first ``count`` Apery numbers, sum_k C(n, k)^2 C(n+k, k)^2."""
    return tuple(sum((comb(n, k) * comb(n + k, k)) ** 2 for k in range(n + 1)) for n in range(count))


def timed(call: Callable[[], object]) -> tuple[object, float, float]:
    """(result, wall seconds, reference seconds) of one call."""
    before = reference_seconds()
    start = time.perf_counter()
    result = call()
    wall = time.perf_counter() - start
    return result, wall, wall * REFERENCE_S / min(before, reference_seconds())


def measure(
    calls: list[Callable[[], object]], summary: Callable[[object], Hashable]
) -> tuple[object, list[list[tuple[float, float]]]]:
    """The summary of RUNS results of each call, which must all agree, and each call's
    (wall, reference) seconds; the calls take turns, run by run.

    Each result is dropped once summarised, so a 2*10^4-term table is not held five times over.
    """
    summaries, runs = set(), [[] for _ in calls]
    for _ in range(RUNS):
        for call, call_runs in zip(calls, runs):
            result, wall, ref = timed(call)
            summaries.add(summary(result))
            del result
            call_runs.append((wall, ref))
    if len(summaries) != 1:
        raise SystemExit("bench: the runs of one case disagree")
    return summaries.pop(), runs


def cli_case(
    trees: list[Path], argv: list[str], written: Callable[[], str] = lambda: "", exit_code: int = 0
) -> tuple[str, list[tuple[list, float]]]:
    """The stdout and ``written()`` of ``holoseq argv`` in RUNS fresh interpreters per tree,
    which must all exit ``exit_code`` and agree, and per tree its runs and their median peak
    RSS in MiB."""
    peaks: list[list[float]] = [[] for _ in trees]
    calls = [lambda tree=tree, peak=peak: cli_child(tree, argv, peak, exit_code) + written()
             for tree, peak in zip(trees, peaks)]
    printed, runs = measure(calls, str)
    return printed, [(tree_runs, round(statistics.median(peak), 1)) for tree_runs, peak in zip(runs, peaks)]


def cli_child(src: Path, argv: list[str], peaks: list[float], exit_code: int = 0) -> str:
    """stdout of one ``holoseq argv`` that exits ``exit_code`` in a child; appends its peak RSS
    in MiB to peaks."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(src.resolve()), *argv], capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"bench: the {argv[0]} child failed:\n{done.stderr}")
    code, imported, peak_kib = json.loads(done.stderr.splitlines()[-1])
    if Path(imported).resolve().parent != (src / "holoseq").resolve():
        raise SystemExit(f"bench: the {argv[0]} child imported holoseq from {imported}, not {src}")
    if code != exit_code:
        raise SystemExit(f"bench: holoseq {' '.join(argv)} exited {code}:\n{done.stdout}")
    peaks.append(peak_kib / 1024)
    return done.stdout


def import_runs(trees: list[Path]) -> list[list[tuple[float, float]]]:
    """Per tree, the (wall, reference) seconds of ``import holoseq.cli`` in IMPORT_RUNS fresh
    ``python -I`` children, timed inside the child and scaled by the reference kernel runs
    just before and just after it; the trees take turns, run by run."""
    runs: list[list[tuple[float, float]]] = [[] for _ in trees]
    for _ in range(IMPORT_RUNS):
        for src, tree_runs in zip(trees, runs):
            before = reference_seconds()
            done = subprocess.run(
                [sys.executable, "-I", "-c", IMPORT_CHILD, str(src.resolve())], capture_output=True, text=True
            )
            if done.returncode != 0:
                raise SystemExit(f"bench: importing holoseq.cli failed:\n{done.stderr}")
            wall, imported = json.loads(done.stdout)
            if Path(imported).resolve().parent != (src / "holoseq").resolve():
                raise SystemExit(f"bench: the import child imported holoseq from {imported}, not {src}")
            tree_runs.append((wall, wall * REFERENCE_S / min(before, reference_seconds())))
    return runs


def row(case: str, n: int, runs: list, **extra: object) -> dict:
    """One record row from the (wall, reference) seconds of a case's runs."""
    out = {
        "case": case,
        "n": n,
        **extra,
        "runs": len(runs),
        "median_wall_s": round(statistics.median(wall for wall, _ in runs), 4),
        "median_reference_s": round(statistics.median(ref for _, ref in runs), 4),
    }
    print(json.dumps(out))
    return out


def add_rows(rows: list[list[dict]], case: str, n: int, runs: list[list], **extra: object) -> None:
    """Append one row per tree, from that tree's runs, to that tree's rows."""
    for tree_rows, tree_runs in zip(rows, runs):
        tree_rows.append(row(case, n, tree_runs, **extra))


def load(src: Path, name: str) -> ModuleType:
    """The ``holoseq`` package in ``src``, imported under ``name``, so that two trees' packages
    live side by side in this process; the package's own imports are all relative."""
    init = (src / "holoseq" / "__init__.py").resolve()
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def layer_rows(packages: list[ModuleType], rows: list[list[dict]]) -> None:
    """Append the in-process rows to ``rows``, one list per package.  In every case the
    packages take turns, run by run, and must give the same results."""
    for n in SIZES:
        expected = a214615(n)
        tables = [p.a214615_terms(n) for p in packages]
        cases = {
            "a214615_terms": [lambda p=p: p.a214615_terms(n) for p in packages],
            "unroll": [lambda p=p: p.A214615_RECURRENCE.unroll(p.A214615_INITIAL, n) for p in packages],
            "verify": [lambda p=p, t=t: p.A214615_RECURRENCE.verify(t) for p, t in zip(packages, tables)],
        }
        for name, calls in cases.items():
            agrees, runs = measure(calls, lambda r: r.passed if name == "verify" else r.terms == expected)
            if not agrees:
                raise SystemExit(f"bench: {name} at n = {n} disagrees with the direct terms")
            add_rows(rows, name, n, runs, max_term_bits=term_bits(expected))
    guess_tables = {
        "a214615": (a214615(GUESS_TERMS - 1), GUESS_BOUNDS),
        "motzkin": (motzkin(GUESS_TERMS), GUESS_BOUNDS),
        "apery": (apery(GUESS_TERMS), APERY_BOUNDS),
        "bell": (bell_numbers(GUESS_TERMS), BELL_BOUNDS),
    }
    for name, (terms, bounds) in guess_tables.items():
        tables = [p.SequenceTable(0, terms) for p in packages]
        for bound in bounds:
            calls = [lambda p=p, t=t: (p.guess_recurrence(t, bound, bound), t) for p, t in zip(packages, tables)]
            fits, runs = measure(calls, lambda r: tuple((c.to_text(), c.verify(r[1]).passed) for c in r[0]))
            if not all(passed for _, passed in fits):
                raise SystemExit(f"bench: a guess on {name} at r = d = {bound} fails on the table")
            if name == "bell" and fits:
                raise SystemExit(f"bench: a guess on the Bell numbers at r = d = {bound} fits")
            extra = {"bounds": [bound, bound], "candidates": len(fits), "max_term_bits": term_bits(terms)}
            add_rows(rows, f"guess_{name}", GUESS_TERMS, runs, **extra)
    for n in CORRUPT_GUESS_SIZES:
        terms = a214615(n - 1)
        tables = [p.SequenceTable(0, terms[:-1] + (terms[-1] + 1,)) for p in packages]
        calls = [lambda p=p, t=t: p.guess_recurrence(t, 2, 2) for p, t in zip(packages, tables)]
        fits, runs = measure(calls, lambda r: tuple(c.to_text() for c in r))
        if fits:
            raise SystemExit(f"bench: a guess on A214615 with its last term changed fits at {n} terms")
        extra = {"bounds": [2, 2], "candidates": 0, "max_term_bits": term_bits(tables[0].terms)}
        add_rows(rows, "guess_corrupt", n, runs, **extra)
    for n in SERIES_SIZES:
        # build_egf's former factorization exp(arctan t) * (1 + t^2)^(-1/2): its pieces time
        # Series.exp and *, and their product cross-checks build_egf.
        pieces = []
        for p in packages:
            arctan = (p.Series.one(n - 1) / p.Series.from_polynomial(p.Polynomial((1, 0, 1)), n - 1)).integral()
            exp_part, sqrt_part = arctan.exp(), p.Series(inverse_sqrt_one_plus_t2(n))
            egf = p.build_egf(1, n)
            if exp_part * sqrt_part != egf or egf.egf_terms().terms != a214615(n):
                raise SystemExit(f"bench: build_egf(1, {n}) disagrees with its factors or with the direct terms")
            pieces.append((p, arctan, exp_part, sqrt_part, egf))
        cases = {
            "series_exp": ([arctan.exp for _, arctan, *_ in pieces], exp_part),
            "series_mul": ([lambda e=e, s=s: e * s for *_, e, s, _ in pieces], egf),
            "build_egf": ([lambda p=p: p.build_egf(1, n) for p, *_ in pieces], egf),
        }
        for name, (calls, expected) in cases.items():
            agrees, runs = measure(calls, lambda r: fields(r) == fields(expected))
            if not agrees:
                raise SystemExit(f"bench: {name} at N = {n} disagrees with its untimed result")
            add_rows(rows, name, n, runs, max_coeff_bits=coeff_bits(expected))
        fibonacci = [1, 1]
        while len(fibonacci) <= n:
            fibonacci.append(fibonacci[-1] + fibonacci[-2])
        calls = [lambda egf=egf, divisor=p.Series(fibonacci): (egf / divisor, divisor, egf) for p, *_, egf in pieces]
        (_, undone, bits), runs = measure(calls, lambda r: (fields(r[0]), r[0] * r[1] == r[2], coeff_bits(r[0])))
        if not undone:
            raise SystemExit(f"bench: build_egf(1, {n}) / Fibonacci times the divisor is not the dividend")
        add_rows(rows, "series_div", n, runs, max_coeff_bits=bits)
    for k in TO_RECURRENCE_POWERS:
        calls = [p.parse_differential_operator(f"(1+t)^{k}*D + 1").to_recurrence for p in packages]
        (order, digest), runs = measure(calls, lambda r: (r.order, text_sha256(r)))
        if order != k:
            raise SystemExit(f"bench: to_recurrence of (1+t)^{k}*D + 1 has order {order}")
        add_rows(rows, "to_recurrence", k, runs, text_sha256=digest)
    rng = random.Random(SMALL_OPERATOR_SEED)
    texts = [operator_text(random_operator(rng)) for _ in range(SMALL_OPERATORS)]
    operators = [[p.parse_differential_operator(text) for text in texts] for p in packages]
    calls = [lambda ops=ops: [op.to_recurrence() for op in ops] for ops in operators]
    digest, runs = measure(calls, lambda recs: joined_sha256(rec.to_text() for rec in recs))
    add_rows(rows, "to_recurrence_small", SMALL_OPERATORS, runs, text_sha256=digest)
    recurrences = [[op.to_recurrence() for op in ops] for ops in operators]
    calls = [lambda recs=recs: [rec.to_text() for rec in recs] for recs in recurrences]
    printed, runs = measure(calls, joined_sha256)
    if printed != digest:
        raise SystemExit("bench: to_recurrence_small and recurrence_to_text hash different texts")
    add_rows(rows, "recurrence_to_text", SMALL_OPERATORS, runs, text_sha256=digest)
    rec_texts = [rec.to_text() for rec in recurrences[0]]
    calls = [lambda p=p: [p.parse_differential_operator(text) for text in texts]
             + [p.parse_recurrence(text) for text in rec_texts] for p in packages]
    digest, runs = measure(calls, lambda parsed: joined_sha256(value.to_text() for value in parsed))
    add_rows(rows, "parse_small", SMALL_OPERATORS, runs, text_sha256=digest)
    clis = [importlib.import_module(f"{p.__name__}.cli") for p in packages]
    argvs = [argv for text, rec in zip(texts, recurrences[0][:CLI_SMALL_EACH]) for argv in (
        ["ode2rec", text, "--json"],
        ["series", "--to", "0", "--text"],
        ["generate", "--rec", rec.to_text(), "--init", ",".join(["1"] * max(rec.order, rec.n_min)), "--to", "2"],
    )] + [CLI_SMALL_USAGE_ERROR]
    calls = [lambda cli=cli: [cli_output(cli, argv) for argv in argvs] for cli in clis]
    digest, runs = measure(calls, joined_sha256)
    add_rows(rows, "cli_small", len(argvs), runs, text_sha256=digest)
    for n in TEXT_SIZES:
        egfs = [p.build_egf(TEXT_X0, n) for p in packages]
        calls = [lambda egf=egf: [egf.to_text() for _ in range(TEXT_CALLS)] for egf in egfs]
        digest, runs = measure(calls, joined_sha256)
        add_rows(rows, "series_to_text", n, runs, x0=str(TEXT_X0), calls=TEXT_CALLS, text_sha256=digest)
    n = TEXT_SIZES[0]
    calls = [lambda p=p: [p.build_egf(TEXT_X0, n) for _ in range(TEXT_CALLS)] for p in packages]
    _, runs = measure(calls, lambda egfs: fields(egfs[-1]))
    bits = coeff_bits(packages[0].build_egf(TEXT_X0, n))
    add_rows(rows, "build_egf_small", n, runs, x0=str(TEXT_X0), calls=TEXT_CALLS, max_coeff_bits=bits)
    with tempfile.TemporaryDirectory() as work:
        writer = packages[0]
        for n in PARSE_SIZES:
            path, expected = Path(work) / f"b{n}.txt", a214615(n - 1)
            writer.write_bfile(writer.BFileDocument(writer.a214615_terms(n - 1)), path)
            calls = [lambda p=p: p.load_bfile(path) for p in packages]
            agrees, runs = measure(calls, lambda document: document.entries.terms == expected)
            if not agrees:
                raise SystemExit(f"bench: load_bfile of {n} terms disagrees with the direct terms")
            add_rows(rows, "bfile_parse", n, runs, bfile_bytes=path.stat().st_size,
                     max_term_bits=term_bits(expected))
            texts = joined_sha256(line.split()[1] for line in path.read_text(encoding="utf-8").splitlines())
            calls = [lambda b=p.bfile: [term for _, term in b.BFileReader(b._pieces(path), _term=str)]
                     for p in packages]
            digest, runs = measure(calls, joined_sha256)
            if digest != texts:
                raise SystemExit(f"bench: BFileReader's text terms of {n} terms differ from the file's")
            add_rows(rows, "bfile_read_text", n, runs, bfile_bytes=path.stat().st_size, text_sha256=digest)


def cli_output(cli: ModuleType, argv: list[str]) -> str:
    """The exit code, stdout and stderr of one in-process ``holoseq argv``, as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return json.dumps([code, out.getvalue(), err.getvalue()])


def fields(series) -> tuple:
    """A series' stored numerators and denominator, comparable across two trees' classes."""
    return tuple(series._nums), series._den


def text_sha256(value) -> str:
    return hashlib.sha256(value.to_text().encode()).hexdigest()


def joined_sha256(texts) -> str:
    """sha256 of the texts, one per line."""
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def term_bits(terms) -> int:
    return max(abs(v).bit_length() for v in terms)


def coeff_bits(series) -> int:
    """The largest numerator or denominator bit length of the series' coefficients."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--label", default="layers")
    args = parser.parse_args(argv)
    trees = [args.src] if args.parent is None else [args.parent, args.src]
    for tree in trees:  # so that no child compiles the package from source
        if not compileall.compile_dir(tree, quiet=1):
            raise SystemExit(f"bench: {tree} does not byte-compile")
    rows: list[list[dict]] = [[] for _ in trees]
    layer_rows([load(tree, f"holoseq_{i}") for i, tree in enumerate(trees)], rows)
    add_rows(rows, "import_cli", 1, import_runs(trees))
    for n in SELFCHECK_SIZES:
        argv = ["selfcheck", "--max-n", str(n), "--series-order", str(SELFCHECK_ORDER)]
        _, results = cli_case(trees, argv)
        for tree_rows, (runs, peak) in zip(rows, results):
            tree_rows.append(row("selfcheck", n, runs, series_order=SELFCHECK_ORDER, peak_rss_mib=peak))
    for n in SERIES_SIZES:
        printed, results = cli_case(trees, ["series", "--to", str(n)])
        if printed != "".join(f"{i} {v}\n" for i, v in enumerate(a214615(n))):
            raise SystemExit(f"bench: holoseq series --to {n} does not print the direct terms")
        for tree_rows, (runs, peak) in zip(rows, results):
            tree_rows.append(row("series", n, runs, peak_rss_mib=peak))
    with tempfile.TemporaryDirectory() as work:
        for n in BFILE_SIZES:
            path = Path(work) / f"b{n}.txt"
            rec = "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"
            cases = {
                "generate_bfile": (
                    ["generate", "--rec", rec, "--init", "1,1", "--to", str(n - 1), "--bfile", str(path)],
                    lambda: hashlib.sha256(path.read_bytes()).hexdigest(),
                ),
                "verify_bfile": (["verify", "--rec", rec, "--bfile", str(path)], lambda: ""),
            }
            for name, (argv, written) in cases.items():
                _, results = cli_case(trees, argv, written)
                for tree_rows, (runs, peak) in zip(rows, results):
                    tree_rows.append(row(name, n, runs, bfile_bytes=path.stat().st_size, peak_rss_mib=peak))
            if n == BFILE_SIZES[-1]:  # copies of the file, each with the last digit of one term changed
                copies = {}
                for name, at in (("verify_bfile_corrupt", n - CORRUPT_FROM_END), ("verify_bfile_early", EARLY_INDEX)):
                    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                    digit = lines[at][-2]
                    lines[at] = lines[at][:-2] + str((int(digit) + 1) % 10) + "\n"
                    copies[name] = corrupt = Path(work) / f"b{n}_{name}.txt"
                    corrupt.write_text("".join(lines), encoding="utf-8")
                    argv = ["verify", "--rec", rec, "--bfile", str(corrupt)]
                    printed, results = cli_case(trees, argv, exit_code=1)
                    if f"first failure at n = {at} " not in printed:
                        raise SystemExit(f"bench: verify of {corrupt.name} printed {printed!r}")
                    for tree_rows, (runs, peak) in zip(rows, results):
                        tree_rows.append(row(name, n, runs, corrupted_index=at,
                                             bfile_bytes=corrupt.stat().st_size, peak_rss_mib=peak))
                selfcheck = ["selfcheck", "--max-n", str(n), "--series-order", str(SELFCHECK_ORDER), "--against"]
                for name, against, exit_code, verdict in (
                    ("selfcheck_against", path, 0, f"holds for n = 2..{n - 1}: PASS"),
                    ("selfcheck_against_corrupt", copies["verify_bfile_corrupt"], 1, "terms differ from computed a(n): FAIL"),
                ):
                    printed, results = cli_case(trees, [*selfcheck, str(against)], exit_code=exit_code)
                    if f"b-file check: {against} {verdict}" not in printed:
                        raise SystemExit(f"bench: selfcheck --against {against.name} printed {printed!r}")
                    for tree_rows, (runs, peak) in zip(rows, results):
                        tree_rows.append(row(name, n, runs, series_order=SELFCHECK_ORDER,
                                             bfile_bytes=against.stat().st_size, peak_rss_mib=peak))
    printed, results = cli_case(trees, ["ode2rec", f"(1+t)^{ODE2REC_POWER}*D + 1"])
    digest = hashlib.sha256(printed.encode()).hexdigest()
    for tree_rows, (runs, peak) in zip(rows, results):
        tree_rows.append(row("ode2rec", ODE2REC_POWER, runs, text_sha256=digest, peak_rss_mib=peak))
    printed, results = cli_case(trees, ["ode2rec", SMALL_OPERATOR, "--json"])
    digest = hashlib.sha256(printed.encode()).hexdigest()
    for tree_rows, (runs, peak) in zip(rows, results):
        tree_rows.append(row("ode2rec_json_small", 1, runs, operator=SMALL_OPERATOR, text_sha256=digest,
                             peak_rss_mib=peak))
    n = TEXT_SIZES[0]
    printed, results = cli_case(trees, ["series", f"--x0={TEXT_X0}", "--to", str(n), "--text"])
    digest = hashlib.sha256(printed.encode()).hexdigest()
    for tree_rows, (runs, peak) in zip(rows, results):
        tree_rows.append(row("series_text", n, runs, x0=str(TEXT_X0), text_sha256=digest, peak_rss_mib=peak))
    labels = [args.label] if args.parent is None else [f"{args.label}_parent", args.label]
    for label, tree_rows in zip(labels, rows):
        record = {"label": label, "python": platform.python_version(), "cpu": cpu_model(), "rows": tree_rows}
        out = Path(__file__).resolve().parent / f"BENCH_{label}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
