"""Command-line interface.

Exit codes: 0 success, 1 mathematical failure (a check found a
counterexample), 2 usage or parse error, 3 I/O or network error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from decimal import Decimal, localcontext
from itertools import chain, islice
from typing import Optional, Sequence

from .bfile import (
    BFileReader,
    FetchError,
    _bfile_lines,
    _pieces,
    _write_replacing,
    fetch_bfile,
    load_bfile,
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
from .polynomials import _EXACT, _lift_digit_cap, _ratio_text, parse_integer, parse_rational
from .series import NonIntegerCoefficientError


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token with one leading '-' as a value unless it is an
    option string, so ``--x0 -3/4`` and ``ode2rec -t*D+1`` parse; argparse itself reads such a
    token as an option unless it is a number or holds a space.  Subparsers share the class."""

    commands: dict[str, argparse.ArgumentParser]  # the whole parser's subparsers, by name

    def _parse_optional(self, arg_string: str):
        one_dash = arg_string.startswith("-") and not arg_string.startswith("--")
        if one_dash and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once; each subcommand sets its ``handler``.

    Its ``commands`` maps each subcommand's name to that subcommand's parser.  ``main``
    parses an argv that opens with such a name by that parser alone; the whole parser is
    the route for every other argv and for a call that leaves arguments unrecognized.
    """
    parser = _Parser(
        prog="holoseq",
        description="Exact tools for P-recursive integer sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    rec_or_ode = argparse.ArgumentParser(add_help=False)
    group = rec_or_ode.add_mutually_exclusive_group(required=True)
    group.add_argument("--rec", metavar="TEXT")
    group.add_argument("--ode", metavar="TEXT")

    p = sub.add_parser("selfcheck", help="cross-check the built-in A214615 pipeline")
    p.set_defaults(handler=cmd_selfcheck)
    p.add_argument("--max-n", type=parse_integer, default=500)
    p.add_argument("--series-order", type=parse_integer, default=100)
    p.add_argument("--against", metavar="BFILE", help="also check a local b-file")

    p = sub.add_parser("generate", parents=[rec_or_ode], help="unroll a recurrence into terms")
    p.set_defaults(handler=cmd_generate)
    p.add_argument("--init", required=True, metavar="CSV", help="initial terms, comma separated")
    p.add_argument("--to", type=parse_integer, required=True, metavar="N")
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
    p.add_argument("--max-order", type=parse_integer, default=2)
    p.add_argument("--max-degree", type=parse_integer, default=2)

    p = sub.add_parser("series", help="print the A214615-family EGF")
    p.set_defaults(handler=cmd_series)
    p.add_argument("--x0", default="1", metavar="RATIONAL")
    p.add_argument("--to", type=parse_integer, default=11, metavar="N")
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
        "coefficients": [list(map(str, row)) for row in rec._rows],
    }


def _print_json(payload: dict) -> None:
    """The one JSON writer of the CLI; ``json`` is loaded only for ``--json``."""
    import json

    print(json.dumps(payload, indent=2))


def _report_line(label: str, report: VerifyReport) -> str:
    if report.first_failure is None:
        detail = f"holds for n = {report.n_first_checked}..{report.n_last_checked}: PASS"
    else:
        n, residual = report.first_failure
        detail = f"first failure at n = {n} (residual {residual}): FAIL"
    return f"{label} {detail}"


def _check_against(path: str, max_n: int) -> tuple[tuple[str, str, bool], Optional[VerifyReport]]:
    """selfcheck's b-file check, and the whole file's report if it starts at index 0.

    The file is read to its end in any case, as ``verify --bfile`` reads it: as checked text,
    converted only where it does not read as the solved term.  Its terms up to max_n are those
    of the direct loop exactly when a(0) = a(1) = 1 and the walk's first failure, if any, comes
    after max_n, by the argument in ``cmd_selfcheck``.
    """
    entries = iter(BFileReader(_pieces(path), _term=str))
    rec, label = A214615_RECURRENCE, f"b-file check: {path}"
    head = list(islice(entries, 2))
    offset = head[0][0]
    if offset != 0:
        for _ in entries:  # a malformed line further on is still an error
            pass
        return ("against", f"{label} starts at index {offset}, expected 0: FAIL", False), None
    report = rec._verify_entries(chain(head, entries), _value=Decimal)
    failure = report.first_failure
    if any(Decimal(a) != 1 for _, a in head) or failure is not None and failure[0] <= max_n:
        return ("against", f"{label} terms differ from computed a(n): FAIL", False), report
    return ("against", _report_line(label, report), report.passed), report


def cmd_selfcheck(args: argparse.Namespace) -> int:
    """Check the direct terms a(0..max_n) against the recurrence, the ODE and the EGF.

    The direct terms are read in one walk, and the recurrence is checked in one walk over them.
    The unroll line needs no walk of its own: p_0 = 1 makes each a(n), n >= 2, the one the two
    before it give, so terms equal the unroll of a(0) = a(1) = 1 up to max_n exactly when their
    head is (1, 1) and they satisfy the recurrence for 2 <= n <= max_n (max_n >= 2 puts both
    head terms in range).  The head compared is cut from the stream the check reads.
    """
    rec, max_n, order = A214615_RECURRENCE, args.max_n, args.series_order
    if max_n < rec.n_min or order < 1:
        raise ValueError(f"--max-n must be >= {rec.n_min} and --series-order >= 1")
    against, against_report = _check_against(args.against, max_n) if args.against else (None, None)
    operator, egf = egf_annihilator(1), build_egf(1, order)
    overlap = min(max_n, order)
    direct = islice(_a214615_direct(), max_n + 1)
    prefix = tuple(islice(direct, max(overlap, 11) + 1))
    report = rec._verify_entries(enumerate(chain(prefix, direct)))
    unroll_ok = report.passed and prefix[:2] == A214615_INITIAL.terms

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
        _print_json(payload)
    else:
        shown = ", ".join(str(v) for v in prefix[: min(max_n, 11) + 1])
        more = ", ..." if max_n >= 12 else ""
        print(f"terms a(0..{min(max_n, 11)}): {shown}{more}")
        for _, line, _ in checks:
            print(line)
    return 0 if passed else 1


def cmd_generate(args: argparse.Namespace) -> int:
    """The terms from index 0 as Decimals, which print without an int -> str."""
    rec = _parse_rec_argument(args.rec, args.ode)
    initial = [Decimal(parse_integer(piece)) for piece in args.init.split(",")]
    if args.to < 0:
        raise ValueError(f"n_max {args.to} is below the table offset 0")
    entries = islice(rec._unrolled(initial, 0), args.to + 1)
    lines = _bfile_lines((n, a or 0) for n, a in entries)  # or 0: a Decimal product can be -0
    if args.bfile:
        _write_replacing(args.bfile, lines)
    elif args.json:
        terms = [line.split() for line in lines]
        _print_json({"recurrence": rec.to_text(), "terms": terms})
    else:
        sys.stdout.writelines(list(lines))  # all or nothing, as with the other two sinks
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    rec = _parse_rec_argument(args.rec, args.ode)
    report = rec._verify_entries(BFileReader(_pieces(args.bfile), _term=str), _value=Decimal)
    if args.json:
        _print_json({"recurrence": rec.to_text(), **_report_json(report)})
    else:
        print(_report_line(f"verify: {rec.to_text()}", report))
    return 0 if report.passed else 1


def cmd_ode2rec(args: argparse.Namespace) -> int:
    operator = parse_differential_operator(args.operator)
    rec = operator.to_recurrence()
    if args.json:
        _print_json(_recurrence_json(rec))
    else:
        print(rec.to_text())
    return 0


def cmd_guess(args: argparse.Namespace) -> int:
    document = load_bfile(args.bfile)
    candidates = guess_recurrence(document.entries, args.max_order, args.max_degree)
    if args.json:
        _print_json({"candidates": [_recurrence_json(c) for c in candidates]})
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
            "coefficients": [_ratio_text(v, egf._den) for v in egf._nums],
        }
        try:
            payload["terms"] = [line.split() for line in _bfile_lines(egf.egf_terms().items())]
        except NonIntegerCoefficientError:
            payload["terms"] = None
        _print_json(payload)
    elif args.text:
        print(egf.to_text())
    else:
        sys.stdout.writelines(_bfile_lines(egf.egf_terms().items()))
    return 0


def cmd_fetch(args: argparse.Namespace) -> int:
    document = fetch_bfile(args.sequence_id, cache_dir=args.cache_dir)
    if args.json:
        terms = [line.split() for line in _bfile_lines(document.entries.items())]
        _print_json({"sequence_id": document.sequence_id, "terms": terms})
    else:
        sys.stdout.writelines(_bfile_lines(document.entries.items(), document.sequence_id))
    return 0


# Exit code by exception class, looked up along the raised error's MRO.
_EXIT_CODES = {ArithmeticError: 1, ValueError: 2, FetchError: 3, OSError: 3}


@_lift_digit_cap
def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one CLI call (``sys.argv[1:]`` if argv is None) and return its exit code.

    An argv that opens with a subcommand's name is parsed once, by that subcommand's parser,
    into the Namespace the whole parser builds: ``command`` and the subcommand's arguments.
    An argv that opens with anything else (nothing, ``-h``, ``--``, an unknown name), and a
    call whose subcommand parser leaves arguments unrecognized, goes through the whole parser,
    which prints argparse's own help, or its usage and error.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    try:
        unrecognized = True
        if command is not None:
            namespace = argparse.Namespace(command=argv[0])
            args, unrecognized = command.parse_known_args(argv[1:], namespace)
        if unrecognized:
            args = parser.parse_args(argv)
    except SystemExit as exit_:
        code = exit_.code
        return code if isinstance(code, int) else 2
    try:
        with localcontext(_EXACT):  # the Decimal terms of generate, verify and selfcheck --against
            return args.handler(args)
    except Exception as error:
        for cls in type(error).__mro__:
            if cls in _EXIT_CODES:
                print(f"holoseq: {error}", file=sys.stderr)
                return _EXIT_CODES[cls]
        raise


if __name__ == "__main__":
    sys.exit(main())
