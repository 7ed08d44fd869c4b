"""Text forms of polynomials, differential operators, and recurrences.

One tokenizer and one recursive-descent expression parser serve three
grammars that differ only in their atoms:

    polynomial:   integers, rationals p/q, the variable, + - * ^ ( )
    diff op:      polynomial atoms in t, plus D (so "(1+t^2)*D - (1-t)")
    recurrence:   polynomial atoms in n, plus a(n), a(n-2), a(n+1), an
                  optional "= <expr>" and an optional "for n >= K" clause

'*' may be omitted immediately before a(...) and D.  '/' is only allowed
between integer literals.  A unicode minus is accepted anywhere '-' is.

A parsed value maps (atom, power of the variable) to its coefficient.  The
atom is j for D^j (0 for the plain part) in an operator, the shift s of
a(n+s) (None for the plain part) in a recurrence, and None in a polynomial.
Sums merge the maps; products convolve them, adding powers and adding atoms
with None as the identity.  Each Polynomial is built once, at the end.
D and t do not commute, so no factor right of D may contain t: "D*t" and
"D*(t*D)" are rejected rather than silently reordered.  Any product of two
a(...) atoms is rejected as nonlinear.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .operators import DifferentialOperator, RecurrenceOperator
from .polynomials import Polynomial, RationalLike, _lift_digit_cap, _normalize_minus


class OperatorSyntaxError(ValueError):
    """Malformed operator/recurrence text; carries the offending position."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z]\w*)|(?P<sym>>=|[-+*/^()=])|(?P<bad>\S))"
)

_Value = dict[tuple[Optional[int], int], RationalLike]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    source = _normalize_minus(text)
    tokens: list[tuple[str, str, int]] = []
    for match in _TOKEN_RE.finditer(source):
        kind = str(match.lastgroup)
        if kind == "bad":
            raise OperatorSyntaxError(f"unexpected character {match[kind]!r}", match.start(kind))
        tokens.append((kind, match[kind], match.start(kind)))
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, text: str, mode: str, var: str):
        self.mode = mode
        self.plain: Optional[int] = 0 if mode == "ode" else None
        self.var = var
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def _take(self) -> tuple[str, str, int]:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def _match(self, kind: str, value: Optional[str] = None) -> bool:
        k, v, _ = self._peek()
        if k != kind or (value is not None and v != value):
            return False
        self.i += 1
        return True

    def _expect(self, kind: str, value: str) -> None:
        k, v, pos = self._peek()
        if k != kind or v != value:
            raise OperatorSyntaxError(f"expected {value!r}, found {v or 'end'!r}", pos)
        self.i += 1

    # value algebra ------------------------------------------------------

    @staticmethod
    def _add(u: _Value, v: _Value, sign: int) -> _Value:
        out = dict(u)
        for key, c in v.items():
            out[key] = out.get(key, 0) + sign * c
        return out

    def _mul(self, u: _Value, v: _Value, pos: int) -> _Value:
        if self.mode == "rec" and {s for s, _ in u} - {None} and {s for s, _ in v} - {None}:
            raise OperatorSyntaxError("nonlinear product of a(...) terms", pos)
        if self.mode == "ode" and any(j >= 1 for j, _ in u) and any(k >= 1 for _, k in v):
            raise OperatorSyntaxError(
                "polynomial coefficients must be written to the left of D", pos
            )
        out: _Value = {}
        for (a, i), x in u.items():
            for (b, k), y in v.items():
                key = (b if a is None else a if b is None else a + b, i + k)
                out[key] = out.get(key, 0) + x * y
        return out

    # grammar ------------------------------------------------------------

    def parse_value(self) -> _Value:
        """The expression less the one right of '=' (rec mode); too deep nesting is a syntax error."""
        try:
            value = self.parse_expression()
            if self.mode == "rec" and self._match("sym", "="):
                value = self._add(value, self.parse_expression(), -1)
        except RecursionError:
            raise OperatorSyntaxError("expression nested too deeply", self._peek()[2]) from None
        return value

    def parse_expression(self) -> _Value:
        sign = 1
        while True:
            if self._match("sym", "-"):
                sign = -sign
            elif self._match("sym", "+"):
                pass
            else:
                break
        value = self.parse_term()
        if sign < 0:
            value = self._add({}, value, -1)
        while True:
            if self._match("sym", "+"):
                value = self._add(value, self.parse_term(), 1)
            elif self._match("sym", "-"):
                value = self._add(value, self.parse_term(), -1)
            else:
                return value

    def _starts_implicit_factor(self) -> bool:
        kind, name, _ = self._peek()
        if kind != "name":
            return False
        return (self.mode == "ode" and name == "D") or (
            self.mode == "rec" and name == "a"
        )

    def parse_term(self) -> _Value:
        value = self.parse_factor()
        while True:
            _, _, pos = self._peek()
            if self._match("sym", "*"):
                value = self._mul(value, self.parse_factor(), pos)
            elif self._starts_implicit_factor():
                value = self._mul(value, self.parse_factor(), pos)
            else:
                return value

    def parse_factor(self) -> _Value:
        value = self.parse_primary()
        _, _, pos = self._peek()
        if self._match("sym", "^"):
            kind, digits, epos = self._peek()
            if kind != "int":
                raise OperatorSyntaxError("expected an integer exponent", epos)
            self._take()
            exponent = int(digits)
            result: _Value = {(self.plain, 0): 1}
            for _ in range(exponent):
                result = self._mul(result, value, pos)
            return result
        return value

    def parse_primary(self) -> _Value:
        kind, text, pos = self._take()
        if kind == "int":
            numerator = int(text)
            if self._match("sym", "/"):
                dkind, dtext, dpos = self._take()
                if dkind != "int":
                    raise OperatorSyntaxError("expected an integer denominator", dpos)
                if int(dtext) == 0:
                    raise OperatorSyntaxError("zero denominator", dpos)
                return {(self.plain, 0): Fraction(numerator, int(dtext))}
            return {(self.plain, 0): numerator}
        if kind == "sym" and text == "(":
            value = self.parse_expression()
            self._expect("sym", ")")
            return value
        if kind == "name":
            if text == self.var:
                return {(self.plain, 1): 1}
            if self.mode == "ode" and text == "D":
                return {(1, 0): 1}
            if self.mode == "rec" and text == "a":
                return self._parse_sequence_atom(pos)
            raise OperatorSyntaxError(f"unknown symbol {text!r}", pos)
        raise OperatorSyntaxError(
            f"expected a value, found {text or 'end'!r}", pos
        )

    def _parse_sequence_atom(self, pos: int) -> _Value:
        self._expect("sym", "(")
        kind, name, npos = self._take()
        if kind != "name" or name != self.var:
            raise OperatorSyntaxError(f"expected {self.var!r} inside a(...)", npos)
        shift = 0
        if not self._match("sym", ")"):
            skind, sym, spos = self._take()
            if skind != "sym" or sym not in "+-":
                raise OperatorSyntaxError("expected '+', '-' or ')' in a(...)", spos)
            okind, digits, opos = self._take()
            if okind != "int":
                raise OperatorSyntaxError("expected an integer shift in a(...)", opos)
            shift = int(digits) if sym == "+" else -int(digits)
            self._expect("sym", ")")
        return {(shift, 0): 1}

    def parse_validity_clause(self) -> Optional[int]:
        if not self._match("name", "for"):
            return None
        kind, name, pos = self._take()
        if kind != "name" or name != self.var:
            raise OperatorSyntaxError(f"expected {self.var!r} after 'for'", pos)
        self._expect("sym", ">=")
        sign = -1 if self._match("sym", "-") else 1
        kind, digits, pos = self._take()
        if kind != "int":
            raise OperatorSyntaxError("expected an integer bound", pos)
        return sign * int(digits)

    def expect_end(self) -> None:
        kind, text, pos = self._peek()
        if kind != "end":
            raise OperatorSyntaxError(f"unexpected trailing {text!r}", pos)


def _polynomials(value: _Value) -> dict[Optional[int], Polynomial]:
    """The nonzero polynomial coefficient of each atom in a parsed value."""
    rows: dict[Optional[int], list[RationalLike]] = {}
    for (atom, power), c in value.items():
        row = rows.setdefault(atom, [])
        row.extend([0] * (power + 1 - len(row)))
        row[power] += c
    polys = {atom: Polynomial(tuple(row)) for atom, row in rows.items()}
    return {atom: p for atom, p in polys.items() if not p.is_zero}


@_lift_digit_cap
def parse_polynomial(text: str, var: str = "t") -> Polynomial:
    """Parse polynomial text like "1 - t + 0*t^2" into canonical form."""
    parser = _Parser(text, "poly", var)
    value = parser.parse_value()
    parser.expect_end()
    return _polynomials(value).get(None, Polynomial())


@_lift_digit_cap
def parse_differential_operator(text: str) -> DifferentialOperator:
    """Parse operator text like "(1+t^2)*D - (1-t)"."""
    parser = _Parser(text, "ode", "t")
    value = parser.parse_value()
    parser.expect_end()
    terms = _polynomials(value)
    if not terms:
        raise OperatorSyntaxError("the zero operator has no order", 0)
    coeffs = tuple(terms.get(j, Polynomial()) for j in range(max(terms) + 1))
    return DifferentialOperator(coeffs)


@_lift_digit_cap
def parse_recurrence(text: str) -> RecurrenceOperator:
    """Parse recurrence text into canonical form.

    Accepts "a(n) - a(n-1) + (n-1)^2*a(n-2) = 0 for n >= 2" and shifted
    spellings like "a(n+1) = a(n) - n^2*a(n-1) for n >= 0"; the stated bound
    refers to the n of the text and is reindexed along with the shifts.
    Without a clause, the bound defaults to the recurrence order.
    """
    parser = _Parser(text, "rec", "n")
    value = parser.parse_value()
    valid_from = parser.parse_validity_clause()
    parser.expect_end()
    terms = _polynomials(value)
    inhomogeneous = terms.pop(None, None)
    if not terms:
        raise OperatorSyntaxError("no a(...) terms in recurrence", 0)
    if inhomogeneous is not None:
        raise OperatorSyntaxError(
            "inhomogeneous recurrences are not supported (nonzero polynomial part)", 0
        )
    return RecurrenceOperator.from_shift_weights(terms, valid_from)
