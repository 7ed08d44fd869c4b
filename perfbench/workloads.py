"""Seeded workloads for the holoseq benchmark, and the oracles that check them.

Each workload is a list of CLI tasks.  A task is the argv handed to
``holoseq.cli.main`` plus a check that judges the exit code and captured
output against the benchmark's own arithmetic, never against a stored copy
of some earlier output:

* terms are compared with a plain-int stepping of the known recurrence;
* series coefficients are compared with M_n(x0) / n!, where M_n(x0) comes
  from the three-term Meixner recurrence run here in exact rationals;
* extracted recurrences are compared with an extraction written here;
* every guessed candidate is re-verified with the residual loop written
  here, and a guess at bounds at or above the known (order, degree) must
  return something.

Inputs depend only on the seed and the sizes.  The seed picks values that
leave the amount of work nearly unchanged (signs, constants, task order),
so different seeds are comparable runs of the same workload.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

# p_k(n) as ascending integer coefficient lists, one per k: sum_k p_k(n) a(n-k) = 0.
Recurrence = list[list[int]]


class Verdict(NamedTuple):
    """How one task went.

    ``problem`` is empty when the task did its job.  ``wrong`` says whether
    the program printed something false (or exited with the wrong code), as
    opposed to giving no answer where one exists.  Guess tasks also report
    how many candidates were printed and how many of them were the known
    minimal recurrence.
    """

    problem: str = ""
    wrong: bool = False
    candidates: int = -1
    useful: int = 0


OK = Verdict()
Check = Callable[[int, str, str], Verdict]


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    check: Check

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    tasks: list[Task]
    descriptors: dict = field(default_factory=dict)


# --- exact oracles ---------------------------------------------------------


@contextmanager
def any_digits():
    """Lift the interpreter's int<->str digit limit for the oracle's own
    conversions only, so the program under test still runs with whatever
    limit it sets itself."""
    if not hasattr(sys, "set_int_max_str_digits"):  # interpreters without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def horner(poly: Sequence[int], n: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = acc * n + c
    return acc


def step(rec: Recurrence, initial: Sequence[int], n_max: int, offset: int = 0) -> list[int]:
    """a(offset..n_max) from the initial terms; p_0(n) must divide exactly."""
    terms = list(initial)
    for n in range(offset + len(terms), n_max + 1):
        acc = sum(
            horner(rec[k], n) * terms[n - k - offset]
            for k in range(1, len(rec))
            if n - k >= offset
        )
        quotient, remainder = divmod(-acc, horner(rec[0], n))
        if remainder:
            raise ArithmeticError(f"the oracle recurrence is not integral at n = {n}")
        terms.append(quotient)
    return terms


def meixner_values(x0: Fraction, n_max: int) -> list[Fraction]:
    """M_0(x0) .. M_n_max(x0) from M_{n+1} = x M_n - n^2 M_{n-1}."""
    values = [Fraction(1), x0]
    for n in range(1, n_max):
        values.append(x0 * values[n] - n * n * values[n - 1])
    return values[: n_max + 1]


def _trim(poly: list[int]) -> list[int]:
    while poly and poly[-1] == 0:
        poly = poly[:-1]
    return poly


def canonical(rec: Sequence[Sequence[Fraction]]) -> Recurrence:
    """Integer coefficients, content 1, p_0's leading coefficient positive."""
    polys = [list(p) for p in rec]
    scale = math.lcm(*(Fraction(c).denominator for p in polys for c in p))
    ints = [_trim([int(Fraction(c) * scale) for c in p]) for p in polys]
    while ints and not ints[-1]:
        ints.pop()
    content = math.gcd(*(c for p in ints for c in p)) or 1
    sign = -1 if ints and ints[0] and ints[0][-1] < 0 else 1
    return [[sign * c // content for c in p] for p in ints]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def _poly_shift(poly: list[int], s: int) -> list[int]:
    """p(n + s), expanded."""
    out: list[int] = []
    for c in reversed(poly):
        out = _poly_add(_poly_mul(out, [s, 1]) if out else [], [c])
    return out


def egf_recurrence(operator: list[list[int]]) -> tuple[Recurrence, int]:
    """Recurrence for the EGF coefficients killed by sum_j q_j(t) D^j.

    [t^n/n!] c t^a F^(b) = c fall(n, a) a(n + b - a); weights are collected
    by shift s = b - a and reindexed at m = n + s_max.  Returns the
    canonical recurrence and its order.
    """
    weights: dict[int, list[int]] = {}
    for j, q in enumerate(operator):
        for a, c in enumerate(q):
            if c:
                fall = [c]
                for i in range(a):
                    fall = _poly_mul(fall, [-i, 1])
                weights[j - a] = _poly_add(weights.get(j - a, []), fall)
    s_max, s_min = max(weights), min(weights)
    rec = [_poly_shift(weights.get(s_max - k, []), -s_max) for k in range(s_max - s_min + 1)]
    return canonical(rec), s_max - s_min


def residual_holds(rec: Recurrence, n_min: int, offset: int, terms: Sequence[int]) -> bool:
    """sum_k p_k(n) a(n-k) = 0 wherever n >= n_min and every a(n-k) is in the table."""
    last = offset + len(terms) - 1
    start = max(n_min, offset + len(rec) - 1)
    if start > last:
        return False
    return all(
        sum(horner(p, n) * terms[n - k - offset] for k, p in enumerate(rec)) == 0
        for n in range(start, last + 1)
    )


# --- text helpers -----------------------------------------------------------


def poly_text(poly: Sequence[int], var: str) -> str:
    parts = []
    for k, c in enumerate(poly):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            power = var if k == 1 else f"{var}^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def operator_text(operator: list[list[int]]) -> str:
    """Highest derivative first, each coefficient parenthesised to the left of D."""
    parts = []
    for j in range(len(operator) - 1, -1, -1):
        if any(operator[j]):
            trailer = "" if j == 0 else ("*D" if j == 1 else f"*D^{j}")
            parts.append(f"({poly_text(operator[j], 't')}){trailer}")
    return " + ".join(parts)


def bfile_text(offset: int, terms: Sequence[int], header: str = "") -> str:
    lines = [f"# {header}"] if header else []
    lines.extend(f"{offset + i} {v}" for i, v in enumerate(terms))
    return "\n".join(lines) + "\n"


def data_lines(text: str) -> list[list[str]]:
    """The whitespace-split fields of every non-blank, non-comment line."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line.split())
    return out


_SERIES_TERM_RE = re.compile(r"([+-]) (\d+(?:/\d+)?)\*t(?:\^(\d+))?")
_SERIES_CONST_RE = re.compile(r"\s*(-?\d+(?:/\d+)?)(?= |$)")
_SERIES_ORDER_RE = re.compile(r"\+ O\(t\^(\d+)\)\s*$")


def parse_series_text(text: str) -> Optional[tuple[dict[int, Fraction], int]]:
    """Coefficients by power, and the truncation order, from "c0 + c1*t - ... + O(t^N)"."""
    order = _SERIES_ORDER_RE.search(text)
    const = _SERIES_CONST_RE.match(text)
    if order is None or const is None:
        return None
    coeffs = {0: Fraction(const.group(1))}
    for sign, mag, power in _SERIES_TERM_RE.findall(text[const.end() : order.start()]):
        value = Fraction(mag)
        coeffs[int(power or 1)] = -value if sign == "-" else value
    return coeffs, int(order.group(1)) - 1


# --- checks -----------------------------------------------------------------


def _wrong(problem: str) -> Verdict:
    return Verdict(problem, wrong=True)


def _checked(content: Callable[[str], Verdict], exit_code: int = 0) -> Check:
    """A check that wants ``exit_code`` and then judges stdout with ``content``;
    output it cannot read counts as wrong."""

    def check(code: int, out: str, err: str) -> Verdict:
        if code != exit_code:
            return _wrong(f"exit {code}, expected {exit_code}: {err.strip()[:200]}")
        try:
            return content(out)
        except (ValueError, KeyError, TypeError, IndexError) as error:
            return _wrong(f"unreadable output ({error!r})")

    return check


def expect_lines(expected: Sequence[tuple[str, str]]) -> Check:
    """Stdout lines "<n> <a(n)>" equal to ``expected``."""
    expected = [list(pair) for pair in expected]
    return _checked(
        lambda out: OK if data_lines(out) == expected else _wrong("printed terms differ from the oracle")
    )


def expect_bfile(path: Path, expected: Sequence[tuple[str, str]]) -> Check:
    """A b-file at ``path`` holding ``expected``."""
    expected = [list(pair) for pair in expected]
    return _checked(
        lambda out: OK if data_lines(path.read_text()) == expected else _wrong(f"{path.name} differs from the oracle")
    )


def expect_verify(passes: bool, bad_index: int = 0, order: int = 0) -> Check:
    """Exit 0 for a consistent b-file; exit 1 naming a first failure in the
    window of indices whose equation involves the corrupted term."""

    def content(out: str) -> Verdict:
        if passes:
            return OK
        found = re.search(r"first failure at n = (\d+)", out)
        if found is None or not bad_index <= int(found.group(1)) <= bad_index + order:
            return _wrong("verify did not locate the corrupted term")
        return OK

    return _checked(content, 0 if passes else 1)


def expect_selfcheck(first_terms: Sequence[int]) -> Check:
    """Every check PASS, and the printed leading terms right."""
    shown = ", ".join(str(v) for v in first_terms)

    def content(out: str) -> Verdict:
        if "FAIL" in out or out.count("PASS") < 4:
            return _wrong("selfcheck reported a failing check")
        found = re.search(r"terms a\(0\.\.\d+\): (.*?)(?:, \.\.\.)?$", out, re.M)
        if found is None or found.group(1) != shown:
            return _wrong("selfcheck printed wrong leading terms")
        return OK

    return _checked(content)


def expect_series_text(expected: Sequence[Fraction]) -> Check:
    """``series --text`` coefficients equal to ``expected``, truncated at its last index."""

    def content(out: str) -> Verdict:
        parsed = parse_series_text(out.strip())
        if parsed is None:
            return _wrong("unreadable series text")
        coeffs, order = parsed
        if order != len(expected) - 1 or any(coeffs.get(k, 0) != c for k, c in enumerate(expected)):
            return _wrong("series coefficients differ from M_n(x0)/n!")
        return OK

    return _checked(content)


def expect_recurrence(rec: Recurrence, order: int) -> Check:
    """ode2rec --json: the oracle's recurrence up to scale, valid from its order."""

    def content(out: str) -> Verdict:
        payload = json.loads(out)
        printed = canonical([[Fraction(c) for c in p] for p in payload["coefficients"]])
        if printed != rec or payload["n_min"] != order:
            return _wrong("extracted recurrence differs from the oracle")
        return OK

    return _checked(content)


def expect_guess(
    offset: int, terms: Sequence[int], minimal: Recurrence, bounds: tuple[int, int]
) -> Check:
    """guess --json: every candidate re-verifies within the bounds; a guess at
    bounds covering the known minimal recurrence returns something."""
    true_order, true_degree = len(minimal) - 1, max(len(p) for p in minimal) - 1
    reachable = bounds[0] >= true_order and bounds[1] >= true_degree

    def content(out: str) -> Verdict:
        candidates = json.loads(out)["candidates"]
        useful = 0
        for candidate in candidates:
            rec = canonical([[Fraction(c) for c in p] for p in candidate["coefficients"]])
            degree = max(len(p) for p in rec) - 1
            if (
                not rec[0]
                or len(rec) - 1 > bounds[0]
                or degree > bounds[1]
                or not residual_holds(rec, candidate["n_min"], offset, terms)
            ):
                return Verdict("a guessed candidate does not fit the terms", True, len(candidates))
            useful += rec == minimal
        if reachable and not candidates:
            return Verdict(
                f"no candidate at bounds {bounds} though a ({true_order},{true_degree}) "
                f"recurrence holds from offset {offset}",
                wrong=False,
                candidates=0,
            )
        return Verdict(candidates=len(candidates), useful=useful)

    return _checked(content)


# --- workloads --------------------------------------------------------------

A214615: Recurrence = [[1], [-1], [1, -2, 1]]
MOTZKIN: Recurrence = [[2, 1], [-1, -2], [3, -3]]
APERY: Recurrence = [[0, 0, 0, 1], [5, -27, 51, -34], [-1, 3, -3, 1]]
A214615_SPELLINGS = (
    "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2",
    "a(n+1) = a(n) - n^2*a(n-1) for n >= 1",
)

SIZES = {
    "egf_build": {"selfcheck_n": 500, "selfcheck_order": 250, "series_to": 250, "text_to": 150},
    "terms_long": {"selfcheck_n": 15000, "selfcheck_order": 20, "bfile_to": 2500},
    "guess_fit": {
        "terms": 150,
        "ladder": [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 3), (4, 4), (5, 5), (6, 6)],
        "big": (8, 8),
    },
    "many_small": {"operators": 300, "ode_to": 60, "series_to": 30, "guesses": 50, "guess_terms": 30},
}


def _int_series_lines(x0: int, n_max: int) -> list[tuple[str, str]]:
    return [(str(n), str(int(v))) for n, v in enumerate(meixner_values(Fraction(x0), n_max))]


def _egf_coefficients(x0: Fraction, n_max: int) -> list[Fraction]:
    return [v / math.factorial(n) for n, v in enumerate(meixner_values(x0, n_max))]


def _bits(values) -> int:
    return max(abs(int(v)).bit_length() for v in values)


def egf_build(rng: random.Random, work: Path, sizes: dict) -> Workload:
    n, order, to, text_to = (sizes[k] for k in ("selfcheck_n", "selfcheck_order", "series_to", "text_to"))
    half = Fraction(rng.choice((1, -1)), 2)
    two = rng.choice((2, -2))
    tasks = [
        Task(("series", f"--x0={x0}", "--to", str(to)), expect_lines(_int_series_lines(x0, to)))
        for x0 in (1, two, -1)
    ]
    tasks.append(
        Task(
            ("series", f"--x0={half}", "--to", str(text_to), "--text"),
            expect_series_text(_egf_coefficients(half, text_to)),
        )
    )
    rng.shuffle(tasks)
    first = step(A214615, [1, 1], min(n, 11))
    tasks.insert(
        rng.randrange(len(tasks) + 1),
        Task(
            ("selfcheck", "--max-n", str(n), "--series-order", str(order)),
            expect_selfcheck(first),
        ),
    )
    bits = max(_bits(meixner_values(Fraction(x0), to)) for x0 in (1, two))
    return Workload(tasks, {"max_term_bits": bits, "bfile_bytes": 0, "nullspace_shapes": []})


def terms_long(rng: random.Random, work: Path, sizes: dict) -> Workload:
    n, order, to = sizes["selfcheck_n"], sizes["selfcheck_order"], sizes["bfile_to"]
    terms = step(A214615, [1, 1], to)
    good, bad = work / "a214615.txt", work / "a214615_corrupt.txt"
    bad_index = to - rng.randrange(1, max(2, to // 25))
    with any_digits():
        expected = [(str(i), str(v)) for i, v in enumerate(terms)]
        wrong = str(terms[bad_index] + rng.choice((-1, 1)) * rng.randrange(1, 10))
    corrupted = [f"{i} {v}" for i, v in expected]
    corrupted[bad_index] = f"{bad_index} {wrong}"
    bad.write_text("# A214615\n" + "\n".join(corrupted) + "\n")
    rec = rng.choice(A214615_SPELLINGS)
    tasks = [
        Task(("generate", "--rec", rec, "--init", "1,1", "--to", str(to), "--bfile", str(good)),
             expect_bfile(good, expected)),
        Task(("verify", "--rec", rec, "--bfile", str(good)), expect_verify(True)),
        Task(("verify", "--rec", rec, "--bfile", str(bad)), expect_verify(False, bad_index, 2)),
    ]
    tasks.insert(
        rng.randrange(len(tasks) + 1),
        Task(("selfcheck", "--max-n", str(n), "--series-order", str(order)),
             expect_selfcheck(terms[: min(n, 11) + 1])),
    )
    nbytes = sum(len(i) + len(v) + 2 for i, v in expected)
    return Workload(tasks, {"max_term_bits": _bits(terms), "bfile_bytes": nbytes, "nullspace_shapes": []})


def _guess_tasks(
    path: Path, offset: int, terms: list[int], minimal: Recurrence, bounds: list[tuple[int, int]]
) -> list[Task]:
    return [
        Task(
            ("guess", "--bfile", str(path), "--max-order", str(r), "--max-degree", str(d), "--json"),
            expect_guess(offset, terms, minimal, (r, d)),
        )
        for r, d in bounds
    ]


def _shape(length: int, bounds: tuple[int, int]) -> tuple[int, int]:
    r, d = bounds
    return length - r, (r + 1) * (d + 1)


def guess_fit(rng: random.Random, work: Path, sizes: dict) -> Workload:
    """The ladder on A214615 (offset 1), Motzkin, Apery and a seeded order-3 recurrence.

    The order-3 recurrence keeps the growth of its leading coefficients fixed,
    so its terms have about the same size for every seed; the seed picks the
    constant parts and the initial terms.
    """
    count, ladder, big = sizes["terms"], [tuple(b) for b in sizes["ladder"]], tuple(sizes["big"])
    order3 = [[1], [rng.randint(-3, 3), -1], [rng.randint(-3, 3), 2], [rng.choice((-3, -2, -1, 1, 2, 3)), 1]]
    sources = [
        ("a214615", "A214615", 1, A214615, [1, 1]),
        ("motzkin", "A001006", 0, MOTZKIN, [1, 1]),
        ("apery", "A005259", 0, APERY, [1, 5]),
        ("order3", "", 0, order3, [rng.randint(1, 9) for _ in range(3)]),
    ]
    tasks: list[Task] = []
    shapes: set[tuple[int, int]] = set()
    bits = nbytes = 0
    for name, header, offset, rec, initial in sources:
        terms = step(rec, initial, offset + count - 1)[offset:]
        text = bfile_text(offset, terms, header)
        path = work / f"{name}.txt"
        path.write_text(text)
        bounds = ladder + ([big] if name == "motzkin" else [])
        tasks += _guess_tasks(path, offset, terms, canonical(rec), bounds)
        shapes.update(_shape(count, b) for b in bounds)
        bits, nbytes = max(bits, _bits(terms)), nbytes + len(text)
    rng.shuffle(tasks)
    return Workload(
        tasks,
        {"max_term_bits": bits, "bfile_bytes": nbytes, "nullspace_shapes": sorted(shapes)},
    )


def _random_poly(rng: random.Random, degree: int, bound: int) -> list[int]:
    return [rng.randint(-bound, bound) for _ in range(degree + 1)]


def random_operator(rng: random.Random) -> list[list[int]]:
    """q_J(t) D^J + ... + q_0(t) with J in {1, 2} and q_J(0) = +-1.

    The constant term of the top coefficient becomes the constant p_0 of the
    extracted recurrence, so p_0 = +-1 and every unroll stays integral.
    """
    top = rng.choice((1, 2))
    operator = [_random_poly(rng, 2, 3) for _ in range(top)]
    operator.append([rng.choice((1, -1))] + _random_poly(rng, 1, 2))
    return operator


def many_small(rng: random.Random, work: Path, sizes: dict) -> Workload:
    tasks: list[Task] = []
    bits = 0
    for _ in range(sizes["operators"]):
        order = 0
        while not order:  # D^J alone would give the empty recurrence a(n) = 0
            operator = random_operator(rng)
            rec, order = egf_recurrence(operator)
        text = operator_text(operator)
        initial = [rng.randint(-5, 5) for _ in range(order)]
        terms = step(rec, initial, sizes["ode_to"])
        x0 = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(2, 5))
        bits = max(bits, _bits(terms))
        tasks += [
            Task(("ode2rec", text, "--json"), expect_recurrence(rec, order)),
            Task(
                ("generate", f"--ode={text}", f"--init={','.join(map(str, initial))}",
                 "--to", str(sizes["ode_to"])),
                expect_lines([(str(n), str(v)) for n, v in enumerate(terms)]),
            ),
            Task(
                ("series", f"--x0={x0}", "--to", str(sizes["series_to"]), "--text"),
                expect_series_text(_egf_coefficients(x0, sizes["series_to"])),
            ),
        ]
    nbytes = 0
    for i in range(sizes["guesses"]):
        # Nonnegative coefficients keep p_k(n) > 0 for n >= 1, so no sequence
        # turns into zeros from some index on.
        rec = [[1]] + [[rng.randint(0, 3) for _ in range(rng.randint(1, 3))] for _ in range(rng.randint(1, 2))]
        rec[-1][-1] = rng.randint(1, 3)
        terms = step(rec, [rng.randint(1, 9) for _ in range(len(rec) - 1)], sizes["guess_terms"] - 1)
        text = bfile_text(0, terms)
        path = work / f"small{i}.txt"
        path.write_text(text)
        tasks += _guess_tasks(path, 0, terms, canonical(rec), [(2, 2)])
        nbytes += len(text)
    rng.shuffle(tasks)
    shape = _shape(sizes["guess_terms"], (2, 2))
    return Workload(
        tasks,
        {"max_term_bits": bits, "bfile_bytes": nbytes, "nullspace_shapes": [shape]},
    )


BY_NAME: dict[str, Callable[[random.Random, Path, dict], Workload]] = {
    "egf_build": egf_build,
    "terms_long": terms_long,
    "guess_fit": guess_fit,
    "many_small": many_small,
}


def build(name: str, seed: int, work: Path, sizes: Optional[dict] = None) -> Workload:
    """The workload's tasks for this seed; input files are written under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    return BY_NAME[name](random.Random(f"{name}:{seed}"), work, sizes or SIZES[name])
