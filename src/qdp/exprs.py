"""Element and scalar expressions.

Grammar:
    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := rational | 'h' ('^' nat)? | ident ('^' nat)?
            | 'exp' '(' expr ')' | '(' expr ')' | '-' factor

Identifiers resolve against a presentation's generators; 'h' and 'exp'
are reserved.  exp() requires an argument of h-valuation >= 1.  A scalar
is an element of the presentation on no generators, so scalars parse by
the same grammar and the same arithmetic, and any identifier in them is
a syntax error.

Printing is the inverse: parse(print(e)) reproduces e exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ExpressionSyntaxError, UnknownGenerator
from .freealg import TensorElement
from .hopf import (POLY, Presentation, _mono_label, counit, element_exp,
                   multiply, normal_form)
from .series import HSeries

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*^()/]))")


class _Tokens:
    def __init__(self, src: str):
        self.src = src
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(src):
            m = _TOKEN.match(src, pos)
            if not m or m.end() == m.start():
                rest = src[pos:].lstrip()
                if rest:
                    bad = len(src) - len(rest)
                    raise ExpressionSyntaxError(
                        f"unexpected character {src[bad]!r}", bad)
                break
            if m.group(1):
                self.toks.append(("num", m.group(1), m.start(1)))
            elif m.group(2):
                self.toks.append(("ident", m.group(2), m.start(2)))
            else:
                self.toks.append(("op", m.group(3), m.start(3)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None,
                                                                  len(self.src))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)


def _parse_expr(t: _Tokens, P: Presentation) -> TensorElement:
    acc = _parse_term(t, P)
    while True:
        kind, val, _ = t.peek()
        if kind == "op" and val in "+-":
            t.next()
            rhs = _parse_term(t, P)
            acc = acc + rhs if val == "+" else acc - rhs
        else:
            return acc


def _parse_term(t: _Tokens, P: Presentation) -> TensorElement:
    acc = _parse_factor(t, P)
    while True:
        kind, val, _ = t.peek()
        if kind == "op" and val == "*":
            t.next()
            acc = multiply(acc, _parse_factor(t, P), P)
        else:
            return acc


def _parse_nat(t: _Tokens) -> int:
    kind, val, pos = t.next()
    if kind != "num":
        raise ExpressionSyntaxError("expected a natural number exponent", pos)
    return int(val)


def _parse_factor(t: _Tokens, P: Presentation) -> TensorElement:
    kind, val, pos = t.next()
    if kind == "op" and val == "-":
        return -_parse_factor(t, P)
    if kind == "op" and val == "(":
        inner = _parse_expr(t, P)
        t.expect_op(")")
        return inner
    if kind == "num":
        num = Fraction(int(val))
        k2, v2, _ = t.peek()
        if k2 == "op" and v2 == "/":
            t.next()
            k3, v3, p3 = t.next()
            if k3 != "num":
                raise ExpressionSyntaxError("expected a denominator", p3)
            if int(v3) == 0:
                raise ExpressionSyntaxError("zero denominator", p3)
            num /= int(v3)
        return P.unit(num)
    if kind == "ident" and val == "exp":
        t.expect_op("(")
        inner = _parse_expr(t, P)
        t.expect_op(")")
        return element_exp(inner, P)
    if kind == "ident" and val == "h":
        k2, v2, _ = t.peek()
        k = 1
        if k2 == "op" and v2 == "^":
            t.next()
            k = _parse_nat(t)
        return P.unit().scaled(HSeries.h_power(k, P.h_order))
    if kind == "ident":
        if val not in P.gen_index:
            if not P.generators:
                raise ExpressionSyntaxError(
                    f"identifier {val!r} not allowed in a scalar expression",
                    pos)
            raise UnknownGenerator(
                f"{val!r} is not a generator of {P.name!r} "
                f"(generators: {', '.join(P.generators)})")
        k2, v2, _ = t.peek()
        if k2 == "op" and v2 == "^":
            t.next()
            return normal_form((P.gen_index[val],) * _parse_nat(t), P)
        return P.gen(val)
    raise ExpressionSyntaxError("expected a factor", pos)


def _run_parser(src: str, P: Presentation) -> TensorElement:
    t = _Tokens(src)
    out = _parse_expr(t, P)
    kind, _, pos = t.peek()
    if kind is not None:
        raise ExpressionSyntaxError("trailing input", pos)
    return out


def parse_element(src: str, P: Presentation) -> TensorElement:
    """Parse an element expression over P's generators, normal-formed."""
    return _run_parser(src, P).truncate(P.h_order, P.degree_cap)


def parse_scalar(src: str, order: int) -> HSeries:
    """Parse a generator-free expression into a truncated series: an
    element of the algebra on no generators, read off by the counit."""
    P = Presentation("scalars", POLY, [], order, None, {}, {}, {}, {})
    return counit(_run_parser(src, P), P)


# -- printing (fixed point of the parser) ----------------------------------------


def scalar_to_expr(s: HSeries) -> str:
    if s.is_zero():
        return "0"
    parts = []
    for k, c in s.items():
        bits = []
        if c != 1 or k == 0:
            bits.append(str(c))
        if k == 1:
            bits.append("h")
        elif k > 1:
            bits.append(f"h^{k}")
        parts.append("*".join(bits))
    return " + ".join(parts)


def element_to_expr(a: TensorElement, P: Presentation) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for (m,), c in a.sorted_terms():
        cs = scalar_to_expr(c)
        ms = _mono_label(P.generators, m)
        if m.is_identity():
            parts.append(f"({cs})" if ("+" in cs or "*" in cs) else cs)
        elif cs == "1":
            parts.append(ms)
        elif "+" in cs:
            parts.append(f"({cs})*{ms}")
        else:
            parts.append(f"{cs}*{ms}")
    return " + ".join(parts)
