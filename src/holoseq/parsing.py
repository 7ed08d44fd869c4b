"""Text forms of polynomials, differential operators, and recurrences.

One tokenizer and one recursive-descent expression parser serve three
grammars that differ only in their atoms:

    polynomial:   integers, rationals p/q, the variable, + - * ^ ( )
    diff op:      polynomial atoms in t, plus D (so "(1+t^2)*D - (1-t)")
    recurrence:   polynomial atoms in n, plus a(n), a(n-2), a(n+1), an
                  optional "= <expr>" and an optional "for n >= K" clause

'*' may be omitted immediately before a(...) and D.  '/' is only allowed
between integer literals.  A unicode minus is accepted anywhere '-' is.

A token is a (text, position) pair, and the last one is ("", the text's
length).  Its text tells its kind: ASCII digits are an integer, a leading
letter makes a name, and the rest are symbols; a character that starts no
token, such as a non-ASCII digit, is an "unexpected character".

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


_TOKEN_RE = re.compile(r"\s*(?:([0-9]+|[A-Za-z]\w*|>=|[-+*/^()=])|(\S))")

_Value = dict[tuple[Optional[int], int], RationalLike]


def _tokenize(text: str) -> list[tuple[str, int]]:
    source = _normalize_minus(text)
    tokens: list[tuple[str, int]] = []
    for match in _TOKEN_RE.finditer(source):
        if match[2]:
            raise OperatorSyntaxError(f"unexpected character {match[2]!r}", match.start(2))
        tokens.append((match[1], match.start(1)))
    tokens.append(("", len(source)))
    return tokens


class _Parser:
    def __init__(self, text: str, mode: str, var: str):
        self.mode = mode
        self.plain: Optional[int] = 0 if mode == "ode" else None
        self.atom = {"ode": "D", "rec": "a"}.get(mode)  # the name that may follow without '*'
        self.var = var
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self) -> tuple[str, int]:
        return self.tokens[self.i]

    def _take(self) -> tuple[str, int]:
        token = self.tokens[self.i]
        self.i += 1
        return token

    def _match(self, text: str) -> bool:
        if self.tokens[self.i][0] != text:
            return False
        self.i += 1
        return True

    def _expect(self, text: str) -> None:
        found, pos = self._peek()
        if found != text:
            raise OperatorSyntaxError(f"expected {text!r}, found {found or 'end'!r}", pos)
        self.i += 1

    def _integer(self, what: str) -> int:
        text, pos = self._take()
        if not text.isdigit():
            raise OperatorSyntaxError(f"expected an integer {what}", pos)
        return int(text)

    def _variable(self, where: str) -> None:
        text, pos = self._take()
        if text != self.var:
            raise OperatorSyntaxError(f"expected {self.var!r} {where}", pos)

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
            if self.mode == "rec" and self._match("="):
                value = self._add(value, self.parse_expression(), -1)
        except RecursionError:
            raise OperatorSyntaxError("expression nested too deeply", self._peek()[1]) from None
        return value

    def parse_expression(self) -> _Value:
        sign = 1
        while self._peek()[0] in ("+", "-"):
            if self._take()[0] == "-":
                sign = -sign
        value = self.parse_term()
        if sign < 0:
            value = self._add({}, value, -1)
        while self._peek()[0] in ("+", "-"):
            sign = 1 if self._take()[0] == "+" else -1
            value = self._add(value, self.parse_term(), sign)
        return value

    def parse_term(self) -> _Value:
        value = self.parse_factor()
        while True:
            text, pos = self._peek()
            if text == "*":
                self.i += 1
            elif text != self.atom:
                return value
            value = self._mul(value, self.parse_factor(), pos)

    def parse_factor(self) -> _Value:
        value = self.parse_primary()
        pos = self._peek()[1]
        if not self._match("^"):
            return value
        result: _Value = {(self.plain, 0): 1}
        for _ in range(self._integer("exponent")):
            result = self._mul(result, value, pos)
        return result

    def parse_primary(self) -> _Value:
        text, pos = self._take()
        if text.isdigit():
            if not self._match("/"):
                return {(self.plain, 0): int(text)}
            dpos = self._peek()[1]
            denominator = self._integer("denominator")
            if denominator == 0:
                raise OperatorSyntaxError("zero denominator", dpos)
            return {(self.plain, 0): Fraction(int(text), denominator)}
        if text == "(":
            value = self.parse_expression()
            self._expect(")")
            return value
        if not text[:1].isalpha():
            raise OperatorSyntaxError(f"expected a value, found {text or 'end'!r}", pos)
        if text == self.var:
            return {(self.plain, 1): 1}
        if text == self.atom:
            return {(1, 0): 1} if self.mode == "ode" else self._parse_sequence_atom()
        raise OperatorSyntaxError(f"unknown symbol {text!r}", pos)

    def _parse_sequence_atom(self) -> _Value:
        self._expect("(")
        self._variable("inside a(...)")
        if self._match(")"):
            return {(0, 0): 1}
        sign, pos = self._take()
        if sign not in ("+", "-"):
            raise OperatorSyntaxError("expected '+', '-' or ')' in a(...)", pos)
        shift = self._integer("shift in a(...)")
        self._expect(")")
        return {(shift if sign == "+" else -shift, 0): 1}

    def parse_validity_clause(self) -> Optional[int]:
        if not self._match("for"):
            return None
        self._variable("after 'for'")
        self._expect(">=")
        sign = -1 if self._match("-") else 1
        return sign * self._integer("bound")

    def expect_end(self) -> None:
        text, pos = self._peek()
        if text:
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
