"""Command-line interface.

Exit codes: 0 success, 1 mathematical failure (a check found a
counterexample), 2 usage or parse error, 3 I/O or network error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .bfile import (
    BFileDocument,
    FetchError,
    fetch_bfile,
    format_bfile,
    load_bfile,
    write_bfile,
)
from .guessing import guess_recurrence
from .meixner import (
    A214615_INITIAL,
    A214615_RECURRENCE,
    a214615_terms,
    build_egf,
    egf_annihilator,
)
from .operators import RecurrenceOperator, VerifyReport
from .parsing import (
    parse_differential_operator,
    parse_recurrence,
)
from .polynomials import parse_integer, parse_rational
from .sequences import SequenceTable
from .series import NonIntegerCoefficientError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoseq",
        description="Exact tools for P-recursive integer sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selfcheck", help="cross-check the built-in A214615 pipeline")
    p.add_argument("--max-n", type=int, default=500)
    p.add_argument("--series-order", type=int, default=100)
    p.add_argument("--against", metavar="BFILE", help="also check a local b-file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("generate", help="unroll a recurrence into terms")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rec", metavar="TEXT")
    group.add_argument("--ode", metavar="TEXT")
    p.add_argument("--init", required=True, metavar="CSV", help="initial terms, comma separated")
    p.add_argument("--to", type=int, required=True, metavar="N")
    p.add_argument("--bfile", metavar="PATH", help="write a b-file instead of stdout")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="check a recurrence against a b-file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rec", metavar="TEXT")
    group.add_argument("--ode", metavar="TEXT")
    p.add_argument("--bfile", required=True, metavar="PATH")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("ode2rec", help="turn a differential operator into a recurrence")
    p.add_argument("operator", metavar="TEXT")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("guess", help="fit recurrences to the terms of a b-file")
    p.add_argument("--bfile", required=True, metavar="PATH")
    p.add_argument("--max-order", type=int, default=2)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("series", help="print the A214615-family EGF")
    p.add_argument("--x0", default="1", metavar="RATIONAL")
    p.add_argument("--to", type=int, default=11, metavar="N")
    p.add_argument("--text", action="store_true", help="print the series, not the terms")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fetch", help="download (and cache) an OEIS b-file")
    p.add_argument("sequence_id", metavar="A-NUMBER")
    p.add_argument("--cache-dir", metavar="DIR")
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


def _print_terms(table: SequenceTable) -> None:
    for n, value in table.items():
        print(f"{n} {value}")


def _terms_json(table: SequenceTable) -> list[list[str]]:
    return [[str(n), str(value)] for n, value in table.items()]


def _report_line(label: str, report: VerifyReport) -> tuple[str, bool]:
    if report.passed:
        detail = f"holds for n = {report.n_first_checked}..{report.n_last_checked}: PASS"
    else:
        n, residual = report.first_failure or (0, 0)
        detail = f"first failure at n = {n} (residual {residual}): FAIL"
    return f"{label} {detail}", report.passed


def cmd_selfcheck(args: argparse.Namespace) -> int:
    max_n = args.max_n
    order = args.series_order
    if max_n < 1 or order < 1:
        raise ValueError("--max-n and --series-order must be >= 1")
    table = a214615_terms(max_n)
    shown = ", ".join(str(v) for v in table.terms[:12])
    more = ", ..." if len(table) > 12 else ""
    results: dict[str, bool] = {}
    lines: list[str] = [f"terms a(0..{min(max_n, 11)}): {shown}{more}"]

    report = A214615_RECURRENCE.verify(table)
    line, ok = _report_line(
        f"recurrence check: {A214615_RECURRENCE.to_text()}", report
    )
    lines.append(line)
    results["recurrence"] = ok

    unrolled = A214615_RECURRENCE.unroll(A214615_INITIAL, max_n)
    ok = unrolled == table
    lines.append(
        f"unroll cross-check: direct terms == recurrence unroll for n <= {max_n}: "
        + ("PASS" if ok else "FAIL")
    )
    results["unroll"] = ok

    operator = egf_annihilator(1)
    egf = build_egf(1, order)
    residual = operator.apply(egf)
    ok = residual.is_zero
    lines.append(
        f"ODE check: {operator.to_text()} annihilates the EGF through t^{order - 1}: "
        + ("PASS" if ok else "FAIL")
    )
    results["ode"] = ok

    egf_table = egf.egf_terms()
    overlap = min(max_n, order)
    ok = egf_table.prefix(overlap) == table.prefix(overlap)
    lines.append(
        f"EGF terms check: n! * [t^n] EGF == a(n) for n <= {overlap}: "
        + ("PASS" if ok else "FAIL")
    )
    results["egf_terms"] = ok

    against_report = None
    if args.against:
        entries = load_bfile(args.against).entries
        if entries.offset != 0:
            lines.append(
                f"b-file check: {args.against} starts at index {entries.offset}, "
                "expected 0: FAIL"
            )
            results["against"] = False
        else:
            against_report = A214615_RECURRENCE.verify(entries)
            hi = min(entries.last_index, max_n)
            terms_match = entries.prefix(hi) == table.prefix(hi)
            if not terms_match:
                lines.append(
                    f"b-file check: {args.against} terms differ from computed a(n): FAIL"
                )
            else:
                line, _ = _report_line(f"b-file check: {args.against}", against_report)
                lines.append(line)
            results["against"] = against_report.passed and terms_match

    passed = all(results.values())
    if args.json:
        payload = {"passed": passed, "checks": results}
        if against_report is not None:
            payload["against_report"] = _report_json(against_report)
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
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
        _print_terms(table)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    rec = _parse_rec_argument(args.rec, args.ode)
    document = load_bfile(args.bfile)
    report = rec.verify(document.entries)
    if args.json:
        print(json.dumps({"recurrence": rec.to_text(), **_report_json(report)}, indent=2))
    else:
        line, _ = _report_line(f"verify: {rec.to_text()}", report)
        print(line)
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
        _print_terms(egf.egf_terms())
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
        sys.stdout.write(format_bfile(document))
    return 0


_HANDLERS = {
    "selfcheck": cmd_selfcheck,
    "generate": cmd_generate,
    "verify": cmd_verify,
    "ode2rec": cmd_ode2rec,
    "guess": cmd_guess,
    "series": cmd_series,
    "fetch": cmd_fetch,
}

# Exit code by exception class, looked up along the raised error's MRO.
_EXIT_CODES = {ArithmeticError: 1, ValueError: 2, FetchError: 3, OSError: 3}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        code = exit_.code
        return code if isinstance(code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except Exception as error:
        for cls in type(error).__mro__:
            if cls in _EXIT_CODES:
                print(f"holoseq: {error}", file=sys.stderr)
                return _EXIT_CODES[cls]
        raise


if __name__ == "__main__":
    sys.exit(main())
