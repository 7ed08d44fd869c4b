"""Command-line interface.

Exit codes: 0 success, 1 mathematical failure (a check found a
counterexample), 2 usage or parse error, 3 I/O or network error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain, islice
from typing import Optional, Sequence

from .bfile import (
    BFileDocument,
    FetchError,
    _bfile_lines,
    fetch_bfile,
    load_bfile,
    read_bfile,
    write_bfile,
)
from .guessing import guess_recurrence
from .meixner import (
    A214615_INITIAL,
    A214615_RECURRENCE,
    _a214615_direct,
    build_egf,
    egf_annihilator,
)
from .operators import RecurrenceOperator, VerifyReport
from .parsing import (
    parse_differential_operator,
    parse_recurrence,
)
from .polynomials import _lift_digit_cap, parse_integer, parse_rational
from .sequences import SequenceTable, windows
from .series import NonIntegerCoefficientError


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; each subcommand sets its ``handler``."""
    parser = argparse.ArgumentParser(
        prog="holoseq",
        description="Exact tools for P-recursive integer sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rec_or_ode = argparse.ArgumentParser(add_help=False)
    group = rec_or_ode.add_mutually_exclusive_group(required=True)
    group.add_argument("--rec", metavar="TEXT")
    group.add_argument("--ode", metavar="TEXT")

    p = sub.add_parser("selfcheck", help="cross-check the built-in A214615 pipeline")
    p.set_defaults(handler=cmd_selfcheck)
    p.add_argument("--max-n", type=int, default=500)
    p.add_argument("--series-order", type=int, default=100)
    p.add_argument("--against", metavar="BFILE", help="also check a local b-file")

    p = sub.add_parser("generate", parents=[rec_or_ode], help="unroll a recurrence into terms")
    p.set_defaults(handler=cmd_generate)
    p.add_argument("--init", required=True, metavar="CSV", help="initial terms, comma separated")
    p.add_argument("--to", type=int, required=True, metavar="N")
    p.add_argument("--bfile", metavar="PATH", help="write a b-file instead of stdout")

    p = sub.add_parser("verify", parents=[rec_or_ode], help="check a recurrence against a b-file")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("--bfile", required=True, metavar="PATH")

    p = sub.add_parser("ode2rec", help="turn a differential operator into a recurrence")
    p.set_defaults(handler=cmd_ode2rec)
    p.add_argument("operator", metavar="TEXT")

    p = sub.add_parser("guess", help="fit the minimal recurrence to the terms of a b-file")
    p.set_defaults(handler=cmd_guess)
    p.add_argument("--bfile", required=True, metavar="PATH")
    p.add_argument("--max-order", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=2)

    p = sub.add_parser("series", help="print the A214615-family EGF")
    p.set_defaults(handler=cmd_series)
    p.add_argument("--x0", default="1", metavar="RATIONAL")
    p.add_argument("--to", type=int, default=11, metavar="N")
    p.add_argument("--text", action="store_true", help="print the series, not the terms")

    p = sub.add_parser("fetch", help="download (and cache) an OEIS b-file")
    p.set_defaults(handler=cmd_fetch)
    p.add_argument("sequence_id", metavar="A-NUMBER")
    p.add_argument("--cache-dir", metavar="DIR")

    # Last in every subcommand, after its own options, as usage and help list it.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def _parse_rec_argument(rec: Optional[str], ode: Optional[str]) -> RecurrenceOperator:
    if rec is not None:
        return parse_recurrence(rec)
    assert ode is not None
    return parse_differential_operator(ode).to_recurrence()


def _report_json(report: VerifyReport) -> dict:
    failure = None
    if report.first_failure is not None:
        n, residual = report.first_failure
        failure = {"n": n, "residual": str(residual)}
    return {
        "passed": report.passed,
        "n_first_checked": report.n_first_checked,
        "n_last_checked": report.n_last_checked,
        "first_failure": failure,
    }


def _recurrence_json(rec: RecurrenceOperator) -> dict:
    return {
        "text": rec.to_text(),
        "order": rec.order,
        "degree": rec.degree,
        "n_min": rec.n_min,
        "coefficients": [[str(c) for c in p.coeffs] for p in rec.coeffs],
    }


def _terms_json(table: SequenceTable) -> list[list[str]]:
    return [[str(n), str(value)] for n, value in table.items()]


def _report_line(label: str, report: VerifyReport) -> str:
    if report.first_failure is None:
        detail = f"holds for n = {report.n_first_checked}..{report.n_last_checked}: PASS"
    else:
        n, residual = report.first_failure
        detail = f"first failure at n = {n} (residual {residual}): FAIL"
    return f"{label} {detail}"


def _check_against(path: str, max_n: int) -> tuple[tuple[str, str, bool], Optional[VerifyReport]]:
    """selfcheck's b-file check, and the whole file's report if it starts at index 0.

    The file is read to its end in any case, and its terms up to max_n are compared with a
    fresh pass of the direct terms.
    """
    rec, label, entries = A214615_RECURRENCE, f"b-file check: {path}", read_bfile(path)
    offset, first = next(entries)
    if offset != 0:
        for _ in entries:  # a malformed line further on is still an error
            pass
        return ("against", f"{label} starts at index {offset}, expected 0: FAIL", False), None
    direct, agrees = _a214615_direct(), True

    def compared():
        nonlocal agrees
        for n, value in chain([(offset, first)], entries):
            agrees = agrees and (n > max_n or value == next(direct))
            yield n, value

    report = rec.verify_windows(windows(compared(), rec.order))
    if not agrees:
        return ("against", f"{label} terms differ from computed a(n): FAIL", False), report
    return ("against", _report_line(label, report), report.passed), report


def cmd_selfcheck(args: argparse.Namespace) -> int:
    rec, max_n, order = A214615_RECURRENCE, args.max_n, args.series_order
    if max_n < rec.n_min or order < 1:
        raise ValueError(f"--max-n must be >= {rec.n_min} and --series-order >= 1")
    against, against_report = _check_against(args.against, max_n) if args.against else (None, None)
    operator, egf = egf_annihilator(1), build_egf(1, order)
    overlap = min(max_n, order)
    prefix = tuple(islice(_a214615_direct(), max(overlap, 11) + 1))
    unrolled, unroll_ok = A214615_INITIAL, True

    def unroll_compared(tables):  # the recurrence unrolled alongside, one window at a time
        nonlocal unrolled, unroll_ok
        for table in tables:
            unrolled = rec.unroll(unrolled, table.last_index)
            unroll_ok = unroll_ok and unrolled == table
            unrolled = SequenceTable(table.last_index + 1 - rec.order, unrolled.terms[-rec.order :])
            yield table
            del table

    direct = windows(enumerate(islice(_a214615_direct(), max_n + 1)), rec.order)
    report = rec.verify_windows(unroll_compared(direct))

    checks: list[tuple[str, str, bool]] = []  # (name, text line, passed)
    line = _report_line(f"recurrence check: {rec.to_text()}", report)
    checks.append(("recurrence", line, report.passed))
    line = f"unroll cross-check: direct terms == recurrence unroll for n <= {max_n}: "
    checks.append(("unroll", line + ("PASS" if unroll_ok else "FAIL"), unroll_ok))
    ok = operator.apply(egf).is_zero
    line = f"ODE check: {operator.to_text()} annihilates the EGF through t^{order - 1}: "
    checks.append(("ode", line + ("PASS" if ok else "FAIL"), ok))
    ok = egf.egf_terms().terms[: overlap + 1] == prefix[: overlap + 1]
    line = f"EGF terms check: n! * [t^n] EGF == a(n) for n <= {overlap}: "
    checks.append(("egf_terms", line + ("PASS" if ok else "FAIL"), ok))
    if against is not None:
        checks.append(against)

    passed = all(ok for _, _, ok in checks)
    if args.json:
        payload = {"passed": passed, "checks": {name: ok for name, _, ok in checks}}
        if against_report is not None:
            payload["against_report"] = _report_json(against_report)
        print(json.dumps(payload, indent=2))
    else:
        shown = ", ".join(str(v) for v in prefix[: min(max_n, 11) + 1])
        more = ", ..." if max_n >= 12 else ""
        print(f"terms a(0..{min(max_n, 11)}): {shown}{more}")
        for _, line, _ in checks:
            print(line)
    return 0 if passed else 1


def cmd_generate(args: argparse.Namespace) -> int:
    rec = _parse_rec_argument(args.rec, args.ode)
    initial = tuple(parse_integer(piece) for piece in args.init.split(","))
    table = rec.unroll(SequenceTable(0, initial), args.to)
    if args.bfile:
        write_bfile(BFileDocument(table), args.bfile)
    elif args.json:
        print(json.dumps({"recurrence": rec.to_text(), "terms": _terms_json(table)}, indent=2))
    else:
        sys.stdout.writelines(_bfile_lines(BFileDocument(table)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    rec = _parse_rec_argument(args.rec, args.ode)
    report = rec.verify_windows(windows(read_bfile(args.bfile), rec.order))
    if args.json:
        print(json.dumps({"recurrence": rec.to_text(), **_report_json(report)}, indent=2))
    else:
        print(_report_line(f"verify: {rec.to_text()}", report))
    return 0 if report.passed else 1


def cmd_ode2rec(args: argparse.Namespace) -> int:
    operator = parse_differential_operator(args.operator)
    rec = operator.to_recurrence()
    if args.json:
        print(json.dumps(_recurrence_json(rec), indent=2))
    else:
        print(rec.to_text())
    return 0


def cmd_guess(args: argparse.Namespace) -> int:
    document = load_bfile(args.bfile)
    candidates = guess_recurrence(document.entries, args.max_order, args.max_degree)
    if args.json:
        print(json.dumps({"candidates": [_recurrence_json(c) for c in candidates]}, indent=2))
    else:
        if not candidates:
            print(
                f"no recurrence found at order <= {args.max_order}, "
                f"degree <= {args.max_degree}",
                file=sys.stderr,
            )
        for candidate in candidates:
            print(candidate.to_text())
    return 0


def cmd_series(args: argparse.Namespace) -> int:
    x0 = parse_rational(args.x0)
    if args.to < 0:
        raise ValueError("--to must be >= 0")
    egf = build_egf(x0, args.to)
    if args.json:
        payload: dict = {
            "x0": str(x0),
            "order": egf.order,
            "coefficients": [str(c) for c in egf.coeffs],
        }
        try:
            payload["terms"] = _terms_json(egf.egf_terms())
        except NonIntegerCoefficientError:
            payload["terms"] = None
        print(json.dumps(payload, indent=2))
    elif args.text:
        print(egf.to_text())
    else:
        sys.stdout.writelines(_bfile_lines(BFileDocument(egf.egf_terms())))
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    document = fetch_bfile(args.sequence_id, cache_dir=args.cache_dir)
    if args.json:
        print(
            json.dumps(
                {"sequence_id": document.sequence_id, "terms": _terms_json(document.entries)},
                indent=2,
            )
        )
    else:
        sys.stdout.writelines(_bfile_lines(document))
    return 0


# Exit code by exception class, looked up along the raised error's MRO.
_EXIT_CODES = {ArithmeticError: 1, ValueError: 2, FetchError: 3, OSError: 3}


@_lift_digit_cap
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        code = exit_.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except Exception as error:
        for cls in type(error).__mro__:
            if cls in _EXIT_CODES:
                print(f"holoseq: {error}", file=sys.stderr)
                return _EXIT_CODES[cls]
        raise


if __name__ == "__main__":
    sys.exit(main())
