"""Recursive-descent parser for the HES text format.

One grammar covers formulas and integer expressions, so each token is
read once (see README for the full description):

    hes         := equation+
    equation    := IDENT IDENT* ("=v" | "=u") formula ";"
    formula     := disj
    disj        := conj ("\\/" conj)*
    conj        := atom ("/\\" atom)*
    atom        := sum [CMP sum]             (CMP: >= <= < > = !=)
    sum         := product (("+" | "-") product)*
    product     := application ("*" application)*
    application := primary primary*          (an argument never starts with "-")
    primary     := IDENT | INT | "-" INT | "true" | "false" | "(" formula ")"
                 | ("forall" | "exists") IDENT "." formula
                 | "\\" IDENT+ "." formula

Every level yields a formula or an integer expression.  An operand of
"+", "-", "*" or a comparison must be an integer expression, and a bare
identifier there becomes an integer variable; elsewhere it stays a
variable whose sort the type checker decides.  A binder's body extends
maximally to the right.
Comparison sugar is desugared at parse time into ">="-only atoms;
subtraction desugars to e1 + (-1)*e2.  "#" starts a line comment.
The first equation must be "Main" with no parameters; its body becomes the
entry formula of the Hes.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .syntax import (
    And, App, Equation, Exists, FALSE, Forall, Formula, Hes, INT, IntExpr,
    IntVar, Lit, Mu, Node, Nu, Or, Plus, Times, TRUE, Var, canon_ge, lambdas,
    set_field, shift_expr,
)


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: set[str], found: str):
        self.line = line
        self.col = col
        self.expected = set(expected)
        self.found = found
        exp = ", ".join(sorted(self.expected))
        super().__init__(f"{line}:{col}: expected {exp}, found {found}")


class NestingTooDeep(ParseError):
    """The input nests formulas or parentheses deeper than ``MAX_NESTING``.
    Never backtracked over: no other reading of the input nests less."""


# a level costs up to nine Python frames, so the parser stays well inside
# the interpreter's default recursion limit of 1000, also when called from
# deep in a caller's stack
MAX_NESTING = 64


class _Tok(Node):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        set_field(self, "kind", kind)
        set_field(self, "text", text)
        set_field(self, "line", line)
        set_field(self, "col", col)


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<sym>=v|=u|\\/|/\\|>=|<=|!=|[<>=.;()+\-*\\])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"forall", "exists", "true", "false"}


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, col, {"token"}, repr(text[pos]))
        kind = m.lastgroup
        s = m.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and s in _KEYWORDS:
                kind = s
            toks.append(_Tok(kind, s, line, col))
        nl = s.count("\n")
        if nl:
            line += nl
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
        pos = m.end()
    toks.append(_Tok("eof", "<eof>", line, col))
    return toks


_CMP = {">=", "<=", "<", ">", "=", "!="}


def _plus(a: IntExpr, b: IntExpr) -> IntExpr:
    """Literal arithmetic folds at parse time so atoms stay canonical
    (a trailing +0 would evaporate under atom normalization)."""
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value + b.value)
    if isinstance(b, Lit) and b.value == 0:
        return a
    return Plus(a, b)


def _times(a: IntExpr, b: IntExpr) -> IntExpr:
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value * b.value)
    return Times(a, b)


_ARGUMENT_START = {"ident", "int", "true", "false"}


def _integer(t: _Tok, e: Union[Formula, IntExpr]) -> IntExpr:
    """``e``, read from token ``t`` on, where the grammar needs an integer:
    a bare identifier becomes an integer variable."""
    if isinstance(e, Var):
        return IntVar(e.name)
    if not isinstance(e, IntExpr):
        raise ParseError(t.line, t.col, {"integer expression"}, t.text)
    return e


def _formula(t: _Tok, e: Union[Formula, IntExpr]) -> Formula:
    """``e``, read from token ``t`` on, where the grammar needs a formula."""
    if isinstance(e, IntExpr):
        raise ParseError(t.line, t.col, {"formula"}, t.text)
    return e


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        # the tokens of names read outside every local binder, checked
        # against the equation names at the end of the input
        self.free: list[_Tok] = []
        self.scope: list[str] = []
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: Optional[str] = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            raise ParseError(t.line, t.col, {text or kind}, t.text)
        return self.next()

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def eat_sym(self, s: str) -> bool:
        if self.at_sym(s):
            self.next()
            return True
        return False

    def fail(self, expected: set[str]):
        t = self.peek()
        raise ParseError(t.line, t.col, expected, t.text)

    def nested(self) -> Union[Formula, IntExpr]:
        """``disj()`` one nesting level down."""
        if self.depth == MAX_NESTING:
            t = self.peek()
            raise NestingTooDeep(t.line, t.col, {f"at most {MAX_NESTING} nesting levels"}, t.text)
        self.depth += 1
        try:
            return self.disj()
        finally:
            self.depth -= 1

    # -- toplevel ----------------------------------------------------------

    def parse_hes(self) -> Hes:
        equations, names = [], []
        while self.peek().kind != "eof":
            names.append(self.peek())
            equations.append(self.equation())
        if not equations:
            self.fail({"equation"})
        first = equations[0]
        if first.name != "Main" or first.params:
            t = self.toks[0]
            raise ParseError(t.line, t.col, {"Main (entry equation, no parameters)"}, first.name)
        defined: set[str] = set()
        for t in names:
            if t.text in defined:
                raise ParseError(t.line, t.col, {"distinct equation names"}, t.text)
            defined.add(t.text)
        defined.remove("Main")
        for t in self.free:
            if t.text not in defined:
                raise ParseError(t.line, t.col, {"defined name"}, t.text)
        return Hes(tuple(equations[1:]), first.body)

    def equation(self) -> Equation:
        name = self.expect("ident").text
        params = []
        while self.peek().kind == "ident":
            params.append((self.next().text, None))
        t = self.peek()
        if t.kind == "sym" and t.text in ("=v", "=u"):
            self.next()
        else:
            self.fail({"=v", "=u"})
        sign = Nu if t.text == "=v" else Mu
        saved = len(self.scope)
        self.scope.extend(p for p, _ in params)
        body = self.formula()
        del self.scope[saved:]
        self.expect("sym", ";")
        return Equation(name, tuple(params), sign, body)

    # -- formulas and integer expressions -----------------------------------
    #
    # Each level returns a formula or an integer expression, whichever the
    # tokens it read make; ``_integer`` and ``_formula`` demand one kind
    # where the grammar needs it.

    def formula(self) -> Formula:
        return _formula(self.peek(), self.nested())

    def disj(self) -> Union[Formula, IntExpr]:
        t = self.peek()
        ops = [self.conj()]
        while self.eat_sym("\\/"):
            ops[0] = _formula(t, ops[0])
            ops.append(_formula(self.peek(), self.conj()))
        return ops[0] if len(ops) == 1 else Or(*ops)

    def conj(self) -> Union[Formula, IntExpr]:
        t = self.peek()
        ops = [self.atom()]
        while self.eat_sym("/\\"):
            ops[0] = _formula(t, ops[0])
            ops.append(_formula(self.peek(), self.atom()))
        return ops[0] if len(ops) == 1 else And(*ops)

    def atom(self) -> Union[Formula, IntExpr]:
        t = self.peek()
        lhs = self.sum()
        op = self.peek()
        if op.kind != "sym" or op.text not in _CMP:
            return lhs
        lhs = _integer(t, lhs)
        self.next()
        return self._comparison(op.text, lhs, _integer(self.peek(), self.sum()))

    @staticmethod
    def _comparison(op: str, l: IntExpr, r: IntExpr) -> Formula:
        if op == ">=":
            return canon_ge(l, r)
        if op == "<=":
            return canon_ge(r, l)
        if op == ">":
            return canon_ge(l, shift_expr(r, 1))
        if op == "<":
            return canon_ge(r, shift_expr(l, 1))
        if op == "=":
            return And(canon_ge(l, r), canon_ge(r, l))
        if op == "!=":
            return Or(canon_ge(l, shift_expr(r, 1)), canon_ge(r, shift_expr(l, 1)))
        raise AssertionError(op)

    def sum(self) -> Union[Formula, IntExpr]:
        t = self.peek()
        terms = [self.product()]
        while (op := self.peek()).kind == "sym" and op.text in ("+", "-"):
            terms[0] = _integer(t, terms[0])
            self.next()
            r = _integer(self.peek(), self.product())
            if op.text == "-":
                # e1 - e2 is e1 + (-1)*e2; a literal subtrahend folds
                r = Lit(-r.value) if isinstance(r, Lit) else Times(Lit(-1), r)
            if type(terms[0]) is not Plus:
                terms[0] = _plus(terms[0], r)
            elif not (isinstance(r, Lit) and r.value == 0):
                # as _plus, on a sum that is built once at the end
                terms.append(r)
        return terms[0] if len(terms) == 1 else Plus(*terms)

    def product(self) -> Union[Formula, IntExpr]:
        t = self.peek()
        factors = [self.application()]
        while self.eat_sym("*"):
            factors[0] = _integer(t, factors[0])
            r = _integer(self.peek(), self.application())
            if type(factors[0]) is not Times:
                factors[0] = _times(factors[0], r)
            else:
                factors.append(r)
        return factors[0] if len(factors) == 1 else Times(*factors)

    def application(self) -> Union[Formula, IntExpr]:
        t = self.peek()
        head = self.primary()
        args = []
        while self.peek().kind in _ARGUMENT_START or self.at_sym("("):
            head = _formula(t, head)
            args.append(self.primary())
        return App(head, *args) if args else head

    def primary(self) -> Union[Formula, IntExpr]:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            if t.text not in self.scope:
                self.free.append(t)
            return Var(t.text)
        if t.kind == "int":
            self.next()
            return Lit(int(t.text))
        if t.kind in ("true", "false"):
            self.next()
            return TRUE if t.kind == "true" else FALSE
        if t.kind == "sym" and t.text == "-" and self.toks[self.pos + 1].kind == "int":
            self.next()
            return Lit(-int(self.next().text))
        if self.eat_sym("("):
            e = self.nested()
            self.expect("sym", ")")
            return e
        if t.kind in ("forall", "exists") or self.at_sym("\\"):
            # a quantifier or lambda; its body extends maximally to the right
            self.next()
            params = [self.expect("ident").text]
            while t.kind == "sym" and self.peek().kind == "ident":
                params.append(self.next().text)
            self.expect("sym", ".")
            self.scope.extend(params)
            body = self.formula()
            del self.scope[len(self.scope) - len(params):]
            if t.kind == "sym":
                return lambdas([(p, None) for p in params], body)
            return (Forall if t.kind == "forall" else Exists)(params[0], INT, body)
        self.fail({"identifier", "integer", "("})


def parse_hes(text: str) -> Hes:
    return _Parser(text).parse_hes()


def parse_formula(text: str) -> Formula:
    """Parse a single formula; free names are allowed."""
    p = _Parser(text)
    f = p.formula()
    p.expect("eof")
    return f
