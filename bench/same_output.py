"""Check that two holoseq source trees give the same CLI output on the benchmark's workloads.

Run from the repository root:

    python3 bench/same_output.py PARENT_SRC CHANGE_SRC
    python3 bench/same_output.py --python EXE SRC

Each SRC argument is a directory holding a ``holoseq`` package, such as ``src``
of two checkouts.  Each tree runs in its own child interpreter, one after the
other.  With ``--python``, one tree runs twice instead: under the interpreter
running this script and under the interpreter EXE, so that two Python versions
are compared on the same code.  The child builds the four workloads of ``perfbench/workloads.py``
(egf_build, terms_long, guess_fit and many_small) for seeds 1, 2 and 3 with
``workloads.build``, in a fresh work directory, and runs every task in order
through ``holoseq.cli.main(argv)`` in-process.  Then it runs the tasks of
``error_tasks``: each fails with one of the CLI's exit codes 1, 2 or 3,
prints a term that a Decimal product makes -0, verifies a b-file whose terms
are spelled other than as ``generate`` writes them, or sit where p_0 vanishes or
does not divide, or checks an A214615 b-file with ``selfcheck --against``, or
reads an A214615 b-file whose lines end in CRLF or CR with ``verify`` or ``guess``, or
runs a plain ``selfcheck`` at a small ``--max-n``, or guesses on tables where a solution of
a pair's head rows fails on the table, on the Apery numbers, and on A214615 scaled by a
prime that the modular filter of ``guess`` uses or used, so that every head is 0 mod it; a
failing ``generate --bfile`` targets a file that exists beforehand; then
the tasks of
``rational_tasks``, which reach the ``Fraction`` paths of ``Polynomial`` and
``Series`` that the workloads' small integer operators do not; and last the
tasks of ``bridge_tasks``, which put operators of the shapes that the
extraction treats apart (every monomial t^a D^b with b > a, D-order 0, mixed
denominators, a high t-degree) through ``ode2rec`` and ``generate --ode``, and the
tasks of ``combination_tasks``, which ``guess`` on tables whose only fit is the sum of
two basis vectors of its pair's nullspace (trees from before sums were tried return none
there, so these tasks differ from them), and last the 6,050 tasks of ``syntax_tasks``:
``ode2rec`` and ``generate --rec ... --init 1 --to 3`` of the texts of the parser-error
table in ``tests/test_parsing.py`` and of 3,000 seeded random texts over a token alphabet,
most of which exit 2 with the parser's message and position, then the 29 tasks of
``usage_tasks``, which end in argument parsing on each route of ``main``: the whole
parser's (no argv, ``-h``, an unknown name), a subcommand parser's (``-h``, a missing
required option) and the whole parser's after a subcommand parser leaves an unknown option
or an extra positional, and last the 22 tasks of ``shape_tasks``, whose canonical
recurrences print every shape of coefficient text: ``generate --rec ... --to 3 --json``
of ten recurrences and ``ode2rec`` of twelve operators.  Per task it
hashes the argv, the exit code, stdout, stderr and, for a task with
``--bfile``, the bytes of
that file as the task leaves it (or "absent"), with the work directory's path
masked in all of them; so a failed write that leaves its target other than it
was shows as a difference.  A task that raises is hashed by its exception's
type and message.  The child exits if ``holoseq`` is imported from anywhere
but its tree.

The script prints how many tasks were compared and exits 0 when every hash
agrees; otherwise it names every task whose output differs and exits 1.
Exit code 2 means a child failed, or a tree was refused.  Only perfbench's
workload builder is imported; nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from math import comb, factorial
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("egf_build", "terms_long", "guess_fit", "many_small")
SEEDS = (1, 2, 3)
MASK = "<work>"


def task_digest(cli, argv: list[str], work: Path) -> str:
    """sha256 of one task's masked argv, exit code, stdout, stderr and ``--bfile`` file."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code: object = cli.main(argv)
        except Exception as error:  # a crash is an outcome to compare, not the end of the run
            code = f"{type(error).__name__}: {error}"
    written: Optional[str] = None
    if "--bfile" in argv:
        path = Path(argv[argv.index("--bfile") + 1])
        written = "absent"
        if path.exists():
            data = path.read_bytes().replace(str(work).encode(), MASK.encode())
            written = hashlib.sha256(data).hexdigest()
    record = [argv, code, out.getvalue(), err.getvalue(), written]
    text = json.dumps(record).replace(json.dumps(str(work))[1:-1], MASK)
    return hashlib.sha256(text.encode()).hexdigest()


def error_tasks(work: Path) -> list[list[str]]:
    """CLI calls that fail with each exit code, print a -0 product, verify b-file terms that
    do not read as the solved ones (non-canonical spellings, where p_0 vanishes, where p_0 = 7
    does not divide), or check A214615 b-files with ``selfcheck --against`` (written by
    ``generate``; a term changed at or past --max-n, a(0) = 2, spelled head terms, a(2) = -0,
    one term, offset 1, a malformed line after a failing term), or read the generated
    A214615 text with CRLF and CR line breaks (``verify``, also with a(60) changed, and
    ``guess``), or run a plain ``selfcheck`` at --max-n 2, 3, 11 and 12 (the smallest walk and
    both sides of the printed "a(0..11)" edge), or ``guess`` where a solution of a pair's head
    rows fails on the table (three zeros, then factorials; A214615 at offset 1 with its last
    term changed), on 150 Apery numbers, and on 202 terms of A214615 scaled by 1,073,741,789
    or by 2^61 - 1, so that one tree or the other solves every pair exactly where the other
    filters it mod its prime, with their files in ``work``."""
    work.mkdir(parents=True)
    malformed, target, generated = work / "malformed.txt", work / "existing.txt", work / "generated.txt"
    malformed.write_text("# A214615\n0 1\n1 1\n2 0\n3 x-4\n4 -4\n", encoding="utf-8")
    target.write_text("0 1\n1 2\n", encoding="utf-8")
    texts = {
        "spelled": "0 +1\n1 01\n2 -0\n3 -004\n4 -4\n5 +60\n6 0160\n7 -02000\n",
        "spelled_wrong": "0 +1\n1 01\n2 -0\n3 -004\n4 -4\n5 +61\n6 0160\n",
        "singular": "0 7\n1 7\n2 5\n3 5\n4 5\n",
        "singular_wrong": "0 7\n1 7\n2 5\n3 6\n4 6\n",
        "sevenths": "0 7\n1 1\n2 0\n3 0\n",  # 7 does not divide s(2) = 2; 0 is its quotient
        "sevenths_negative": "0 -7\n1 -1\n2 -0\n3 0\n",  # -0 is the quotient of s(2) = -2
    }
    a = [1, 1]  # A214615 through a(120), for the selfcheck --against files
    while len(a) <= 120:
        a.append(a[-1] - (len(a) - 1) ** 2 * a[-2])
    lines = [f"{n} {v}\n" for n, v in enumerate(a)]
    against = {  # checked at --max-n 100
        "at_max_n": {100: f"100 {a[100] + 1}\n"},
        "past_max_n": {101: f"101 {a[101] - 1}\n"},
        "a0_is_2": {0: "0 2\n"},
        "head_spelled": {0: "0 +1\n", 1: "1 01\n"},
        "minus_zero": {2: "2 -0\n"},
        "malformed_after_failure": {5: "5 61\n", 50: "50 x1\n"},
    }
    for name, changed in against.items():
        texts[f"against_{name}"] = "".join(changed.get(n, line) for n, line in enumerate(lines))
    texts["against_one_term"] = "0 1\n"
    texts["against_offset_1"] = "".join(f"{n + 1} {v}\n" for n, v in enumerate(a))
    for name, text in texts.items():
        (work / f"{name}.txt").write_text(text, encoding="utf-8")
    wrong = "".join(lines[:60] + [f"60 {a[60] + 1}\n"] + lines[61:])
    breaks = {"crlf": ("".join(lines), "\r\n"), "cr": ("".join(lines), "\r"), "crlf_wrong": (wrong, "\r\n")}
    for name, (text, newline) in breaks.items():  # the text that generate writes, other line breaks
        (work / f"{name}.txt").write_text(text, encoding="utf-8", newline=newline)
    while len(a) < 202:
        a.append(a[-1] - (len(a) - 1) ** 2 * a[-2])
    apery = [sum((comb(n, k) * comb(n + k, k)) ** 2 for k in range(n + 1)) for n in range(150)]
    guesses = {  # name: (offset, terms, the (order, degree) bounds of its guesses)
        "zeros": (0, [0, 0, 0] + [factorial(k) for k in range(27)], [(1, 0), (2, 2)]),
        "last_changed": (1, a[1:150] + [a[150] + 1], [(2, 2), (3, 3)]),
        "apery": (0, apery, [(2, 3), (3, 3)]),
        # every head is 0 mod the filter's prime, 2^30 - 35, or mod the prime it had, 2^61 - 1
        "scaled_2_30": (0, [1_073_741_789 * v for v in a], [(2, 2), (4, 4)]),
        "scaled_2_61": (0, [((1 << 61) - 1) * v for v in a], [(2, 2), (4, 4)]),
    }
    for name, (offset, terms, _) in guesses.items():
        text = "".join(f"{offset + i} {v}\n" for i, v in enumerate(terms))
        (work / f"guess_{name}.txt").write_text(text, encoding="utf-8")
    a214615 = "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2"
    sevenths = ["--rec", "7*a(n) - n*a(n-1) = 0 for n >= 1", "--init", str(7**100)]
    singular = ["--rec", "(n-40)*a(n) - (n-40)*a(n-1) = 0", "--init", "7"]
    negative_zero = ["--rec", "a(n) + n*a(n-1) = 0", "--init", "0", "--to", "5"]
    vanishing, seventh = "(n-2)*a(n) - (n-2)*a(n-1) = 0", "7*a(n) - n*a(n-1) = 0 for n >= 1"
    return [
        ["verify", "--rec", a214615, "--bfile", str(malformed)],  # exit 2
        ["generate", *sevenths, "--to", "200", "--bfile", str(target)],  # exit 1 at a(120)
        ["generate", *singular, "--to", "100", "--bfile", str(target)],  # exit 1 at a(40)
        ["generate", *sevenths, "--to", "200"],
        ["generate", *singular, "--to", "100", "--json"],
        ["series", "--x0", "1/3", "--to", "8"],  # exit 1: 1! * c_1 = 1/3
        ["verify", "--rec", a214615, "--bfile", str(work / "missing.txt")],  # exit 3
        ["generate", *negative_zero, "--bfile", str(work / "missing" / "b.txt")],  # exit 3
        ["generate", *negative_zero],
        ["generate", *negative_zero, "--json"],
        ["generate", *negative_zero, "--bfile", str(work / "zeros.txt")],
        *(["verify", "--rec", a214615, "--bfile", str(work / f"{name}.txt"), *json]
          for name in ("spelled", "spelled_wrong") for json in ([], ["--json"])),
        *(["verify", "--rec", vanishing, "--bfile", str(work / f"{name}.txt")]
          for name in ("singular", "singular_wrong")),
        *(["verify", "--rec", seventh, "--bfile", str(work / f"{name}.txt")]
          for name in ("sevenths", "sevenths_negative")),
        ["generate", "--rec", a214615, "--init", "1,1", "--to", "120", "--bfile", str(generated)],
        *(["selfcheck", "--max-n", "100", "--series-order", "12", "--against", str(path), *json]
          for path in (generated, *(work / f"{name}.txt" for name in texts if name.startswith("against_")))
          for json in ([], ["--json"])),
        *(["verify", "--rec", a214615, "--bfile", str(work / f"{name}.txt"), *json]
          for name in breaks for json in ([], ["--json"])),
        ["guess", "--bfile", str(work / "crlf.txt"), "--max-order", "2", "--max-degree", "2"],
        *(["selfcheck", "--max-n", max_n, "--series-order", order, *json]
          for max_n in ("2", "3", "11", "12") for order in ("1", "12") for json in ([], ["--json"])),
        *(["guess", "--bfile", str(work / f"guess_{name}.txt"), "--max-order", str(r), "--max-degree", str(d), *json]
          for name, (_, _, bounds) in guesses.items() for r, d in bounds for json in ([], ["--json"])),
    ]


def rational_tasks() -> list[list[str]]:
    """``ode2rec`` of operators with Fraction coefficients (over different denominators, one a
    rational shifted power) or high t-degree, with and without ``--json``, and the series of
    x0 values that no workload draws, as text and as JSON lists of long fractions."""
    operators = [
        "1/2*D - 1/3*t", "(2/3 + t^2)*D^2 - t*D + 5/7", "(1+t)^40*D + 1",
        "3/5*(t-1)^2*D^2 + 3/5*t*D - 1/4*D + 2/7*t",
    ]
    return [["ode2rec", op, *json] for op in operators for json in ([], ["--json"])] + [
        ["series", "--x0=-3/4", "--to", "12", "--text"],
        ["series", "--x0=7/3", "--to", "40", "--text"],
        ["series", "--x0=-2", "--to", "60", "--json"],
        ["series", "--x0=0", "--to", "30"],
        ["series", "--x0=5/1000003", "--to", "60", "--text"],
        ["series", "--x0=5/1000003", "--to", "60", "--json"],
    ]


def bridge_tasks() -> list[list[str]]:
    """``ode2rec``, with and without ``--json``, and ``generate --ode`` of operators whose
    extraction reaches each branch of the bridge: n_min = s_max > order (``t*D^2 + D``), a
    D-order 0 operator, coefficients over denominators 2, 3 and 5 (its terms stop at a
    non-integer), and an order-60 recurrence."""
    operators = {
        "D^3 - t*D": ("1,2,3", 20),
        "t*D^2 + D": ("1", 10),
        "t^2": ("1", 10),
        "1/2*D^2 - 2/3*t*D + 3/5": ("15,15", 12),
        "(1+t)^60*D^2 + t": (",".join(["1"] * 60), 70),
    }
    return [task for op, (init, to) in operators.items() for task in (
        ["ode2rec", op], ["ode2rec", op, "--json"],
        ["generate", f"--ode={op}", "--init", init, "--to", str(to)],
    )]


def combination_tasks(work: Path) -> list[list[str]]:
    """``guess``, with and without ``--json``, on tables whose fit at the first pair that has
    one is no basis vector of the pair's nullspace: each basis vector lacks p_0 or p_r', and
    the sum of the first of each kind is the fit; with their files in ``work``."""
    work.mkdir(parents=True)
    tables = {  # name: (offset, terms, (order, degree) bounds)
        "seven": (0, (1, 0, 0, 0, 0, 0, 0, 1), (1, 1)),
        "order_3": (1, (2, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, 0), (3, 2)),
        "degree_2": (0, (0, 2, 0, 0, 2, 0, 0, 0, 0, 0, -1, -1), (2, 2)),
        "offset_3": (3, (-1, 0, 0, 0, 0, 0, 0, 0, -1, 0, 1, 0, 0), (3, 1)),
    }
    tasks = []
    for name, (offset, terms, (r, d)) in tables.items():
        path = work / f"{name}.txt"
        path.write_text("".join(f"{offset + i} {v}\n" for i, v in enumerate(terms)), encoding="utf-8")
        tasks += [["guess", "--bfile", str(path), "--max-order", str(r), "--max-degree", str(d), *json]
                  for json in ([], ["--json"])]
    return tasks


# The texts of tests/test_parsing.py's PARSE_ERRORS, one per error the parser raises with a
# position it can name, and the alphabet of the seeded random texts.
ERROR_TEXTS = (
    "t^x", "3/0*D", "3/t*D", "D - D", "a(m) = 0", "a(n*1) = 0", "a(n+k) = 0", "a(n) = a(n-1) for m >= 2",
    "a(n) = a(n-1) for n >= x", "1 + é", "1 + ٣", "(1+t^2*D", "a n", "a(n) = a(n-1) for n 2",
    "a(n)*a(n-1) = 0", "D*t", "D^2*(t+D)", "1 + x", "a(n)", "a(n) = ", "a(n) + + a(n-1) = 0", "D 1",
    "t = 1", "n^2 - 1 = 0", "a(n) - 1 = 0",
)
SYNTAX_ALPHABET = (
    "a(n)", "a(n-1)", "a(m)", "3/0", "^", "for n >= 2", "é", "٣", "−", "(", ")",
    "+", "-", "*", "=", "2", "n", "t", "D", "x",
)
SYNTAX_TEXTS, SYNTAX_SEED = 3_000, 38


def syntax_texts() -> list[str]:
    """ERROR_TEXTS, then SYNTAX_TEXTS seeded random texts of one to eight SYNTAX_ALPHABET
    tokens, each joined to the next with or without a space; two digits are always spaced,
    so that no exponent grows past one digit."""
    rng = random.Random(SYNTAX_SEED)
    texts = list(ERROR_TEXTS)
    for _ in range(SYNTAX_TEXTS):
        text = ""
        for _ in range(rng.randint(1, 8)):
            token = rng.choice(SYNTAX_ALPHABET)
            if text and (rng.random() < 0.5 or text[-1].isdigit() and token[0].isdigit()):
                text += " "
            text += token
        texts.append(text)
    return texts


def syntax_tasks() -> list[list[str]]:
    """``ode2rec`` and ``generate --rec ... --init 1 --to 3`` of each of ``syntax_texts``, most
    of which exit 2 with the parser's message and position on stderr."""
    return [task for text in syntax_texts() for task in (
        ["ode2rec", "--", text], ["generate", f"--rec={text}", "--init", "1", "--to", "3"],
    )]


def usage_tasks() -> list[list[str]]:
    """Calls that end in argument parsing, on each route of ``main``: no argv, ``-h``, ``--``
    before a name, an unknown name, a name's prefix and an option before the name (the whole
    parser reads them); each subcommand with ``-h``, and a valid call of it with an unknown
    option and with an extra positional (its parser leaves them to the whole parser); and
    ``generate`` without ``--init`` (its parser refuses it)."""
    calls = {
        "selfcheck": [], "generate": ["--rec", "a(n) = 0", "--init", "1", "--to", "3"],
        "verify": ["--rec", "a(n) = 0", "--bfile", "b.txt"], "ode2rec": ["D"],
        "guess": ["--bfile", "b.txt"], "series": [], "fetch": ["nope"],
    }
    return [[], ["-h"], ["--", "series"], ["frobnicate"], ["ode"], ["--json", "series"],
            ["generate", "--rec", "a(n) = 0", "--to", "3"], ["ode2rec", "D", "D"]] + [
        task for name, rest in calls.items()
        for task in ([name, "-h"], [name, *rest, "--bogus"], [name, *rest, "extra"])
    ]


# Recurrences, with the initial terms of their ``generate`` tasks, and operators, whose
# canonical recurrences print each shape of coefficient text.
SHAPE_RECURRENCES = (
    ("a(n) - a(n-1) = 0 for n >= 1", "1"),  # unit constants of both signs
    ("-2*a(n) + 3*a(n-1) - 5*a(n-2) = 0 for n >= 2", "0,0"),  # non-unit constants, sign flipped
    ("n*a(n) - n^2*a(n-1) = 0 for n >= 1", "1"),
    ("2*n*a(n) - 3*n^2*a(n-1) = 0 for n >= 1", "0"),
    ("3*(n+2)^2*a(n) + 5/2*(n-1)^3*a(n-1) = 0 for n >= 1", "0"),  # c*(n+b)^e over two denominators
    ("3*(n+2)^2*a(n) - 5*(n-1)^3*a(n-1) = 0 for n >= 1", "0"),
    ("(n+1)*a(n) - (n-3)*a(n-1) = 0 for n >= 1", "0"),  # (n+b) at e = 1: "(1+n)", "(3-n)"
    ("a(n) + (1+2*n-n^2)*a(n-1) - (3-n^2)*a(n-2) = 0 for n >= 2", "1,1"),  # negative leading terms
    ("a(n) - n*a(n-3) = 0 for n >= 3", "1,2,3"),  # zero coefficients between orders
    ("a(n) + 0*a(n-1) - a(n-2) = 0 for n >= 2", "1,2"),
)
SHAPE_OPERATORS = (
    "D - 1", "2*D^2 - 3*D + 5", "t*D + t", "t^2*D^2 + t*D - 2*t", "(2+3*t^2)*D^2 + 3*t*D",
    "2*D^4 - 3*D + 5*t^3*D^3 + 15*t^2*D^2 + 5*t*D", "-3*t^2*D^2 - 3*t*D + 7*t^3",
    "(1+t)*D - 2", "t*D - 1", "t^2*D^2 - D", "D^3 - t", "3/2*(t-1)^2*D^2 - t*D + 1/3",
)


def shape_tasks() -> list[list[str]]:
    """``generate --rec ... --to 3 --json`` of SHAPE_RECURRENCES and ``ode2rec`` of
    SHAPE_OPERATORS: together their canonical recurrences print unit and non-unit constants
    of both signs, n and n^2, c*(n+b)^e with e >= 2 and c other than 1, (n+b) at e = 1,
    polynomials with a negative leading term, and zero coefficients between orders."""
    return [["generate", "--rec", text, "--init", init, "--to", "3", "--json"]
            for text, init in SHAPE_RECURRENCES] + [["ode2rec", op] for op in SHAPE_OPERATORS]


def child(src: Path) -> None:
    """Print [name, digest] per task of every workload and seed, with holoseq from ``src``."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import holoseq.cli as cli
    import workloads

    if Path(cli.__file__).resolve().parent != src / "holoseq":
        raise SystemExit(f"same_output: imported holoseq from {cli.__file__}, not {src}")
    results = []
    with tempfile.TemporaryDirectory(prefix="same_output_") as scratch:
        for name in WORKLOADS:
            for seed in SEEDS:
                work = Path(scratch) / f"{name}_{seed}"
                for i, task in enumerate(workloads.build(name, seed, work).tasks):
                    argv = list(task.argv)
                    shown = " ".join(argv).replace(str(work), MASK)
                    results.append([f"{name} seed {seed} task {i}: holoseq {shown}",
                                    task_digest(cli, argv, work)])
        work = Path(scratch) / "errors"
        for i, argv in enumerate(error_tasks(work)):
            shown = " ".join(argv).replace(str(work), MASK)
            results.append([f"error task {i}: holoseq {shown}", task_digest(cli, argv, work)])
        for i, argv in enumerate(rational_tasks()):
            results.append([f"rational task {i}: holoseq {' '.join(argv)}", task_digest(cli, argv, work)])
        for i, argv in enumerate(bridge_tasks()):
            results.append([f"bridge task {i}: holoseq {' '.join(argv)}", task_digest(cli, argv, work)])
        work = Path(scratch) / "combinations"
        for i, argv in enumerate(combination_tasks(work)):
            shown = " ".join(argv).replace(str(work), MASK)
            results.append([f"combination task {i}: holoseq {shown}", task_digest(cli, argv, work)])
        for i, argv in enumerate(syntax_tasks()):
            results.append([f"syntax task {i}: holoseq {' '.join(argv)}", task_digest(cli, argv, work)])
        for i, argv in enumerate(usage_tasks()):
            results.append([f"usage task {i}: holoseq {' '.join(argv)}", task_digest(cli, argv, work)])
        for i, argv in enumerate(shape_tasks()):
            results.append([f"shape task {i}: holoseq {' '.join(argv)}", task_digest(cli, argv, work)])
    print(json.dumps(results))


def run_tree(python: str, src: Path) -> list[list[str]]:
    result = subprocess.run(
        [python, "-I", str(Path(__file__).resolve()), "--child", str(src)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if result.returncode != 0:
        print(f"same_output: the run on {src} under {python} failed:\n{result.stderr}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(result.stdout)


def main(argv: Optional[list[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 2 and args[0] == "--child":
        child(Path(args[1]).resolve())
        return 0
    if len(args) == 3 and args[0] == "--python":
        runs = [(sys.executable, args[2]), (args[1], args[2])]
    elif len(args) == 2 and not args[0].startswith("--"):
        runs = [(sys.executable, args[0]), (sys.executable, args[1])]
    else:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (run_tree(python, Path(src).resolve()) for python, src in runs)
    if [name for name, _ in parent] != [name for name, _ in change]:
        print("same_output: the two trees ran different task lists", file=sys.stderr)
        return 1
    differ = [name for (name, before), (_, after) in zip(parent, change) if before != after]
    for name in differ:
        print(f"same_output: output differs at {name}")
    compared = " and ".join(f"{src} under {python}" for python, src in runs)
    verdict = f"{len(differ)} of {len(parent)} tasks differ" if differ else f"identical over {len(parent)} tasks"
    print(f"same_output: {compared}: {verdict} ({', '.join(WORKLOADS)}; seeds {', '.join(map(str, SEEDS))}; "
          "error, rational, bridge, combination, syntax, usage and shape tasks)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
