"""Recursive-descent parser for the HES text format.

Grammar sketch (see README for the full description):

    hes      := equation+
    equation := IDENT IDENT* ("=v" | "=u") formula ";"
    formula  := "forall" IDENT "." formula
              | "exists" IDENT "." formula
              | "\\" IDENT+ "." formula
              | disj
    disj     := conj ("\\/" conj)*
    conj     := atom ("/\\" atom)*
    atom     := iexpr CMP iexpr          (CMP: >= <= < > = !=)
              | app
    app      := primary+
    primary  := IDENT | INT | "true" | "false" | "(" term ")"

Comparison sugar is desugared at parse time into ">="-only atoms;
subtraction desugars to e1 + (-1)*e2.  "#" starts a line comment.
The first equation must be "Main" with no parameters; its body becomes the
entry formula of the Hes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Union

from .syntax import (
    Abs, And, App, AppInt, Equation, Exists, FALSE, Forall, Formula, Hes,
    IntExpr, IntVar, Lit, Or, Plus, Sign, Times, TRUE, Var, canon_ge,
    inc_expr,
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


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


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


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        # (name, line, col, frozenset of locally bound names) for scope check
        self.occurrences: list[tuple[str, int, int, frozenset[str]]] = []
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

    def deeper(self, parse):
        """``parse()`` one nesting level down."""
        if self.depth == MAX_NESTING:
            t = self.peek()
            raise NestingTooDeep(t.line, t.col, {f"at most {MAX_NESTING} nesting levels"}, t.text)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    # -- toplevel ----------------------------------------------------------

    def parse_hes(self) -> Hes:
        equations = []
        while self.peek().kind != "eof":
            equations.append(self.equation())
        if not equations:
            self.fail({"equation"})
        first = equations[0]
        if first.name != "Main" or first.params:
            t = self.toks[0]
            raise ParseError(t.line, t.col, {"Main (entry equation, no parameters)"}, first.name)
        rest = tuple(equations[1:])
        defined = {eq.name for eq in rest}
        if len(defined) != len(rest):
            seen: set[str] = set()
            for eq in rest:
                if eq.name in seen:
                    raise ParseError(1, 1, {"distinct equation names"}, eq.name)
                seen.add(eq.name)
        for name, line, col, local in self.occurrences:
            if name not in local and name not in defined:
                raise ParseError(line, col, {"defined name"}, name)
        if "Main" in {o[0] for o in self.occurrences}:
            for name, line, col, local in self.occurrences:
                if name == "Main" and name not in local:
                    raise ParseError(line, col, {"non-recursive Main"}, name)
        return Hes(rest, first.body)

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
        sign = Sign.NU if t.text == "=v" else Sign.MU
        saved = len(self.scope)
        self.scope.extend(p for p, _ in params)
        body = self.formula()
        del self.scope[saved:]
        self.expect("sym", ";")
        return Equation(name, tuple(params), sign, body)

    # -- formulas ----------------------------------------------------------

    def formula(self) -> Formula:
        return self.deeper(self._formula)

    def _formula(self) -> Formula:
        t = self.peek()
        if t.kind in ("forall", "exists"):
            self.next()
            var = self.expect("ident").text
            self.expect("sym", ".")
            self.scope.append(var)
            body = self.formula()
            self.scope.pop()
            return Forall(var, body) if t.kind == "forall" else Exists(var, body)
        if self.at_sym("\\"):
            self.next()
            params = [self.expect("ident").text]
            while self.peek().kind == "ident":
                params.append(self.next().text)
            self.expect("sym", ".")
            self.scope.extend(params)
            body = self.formula()
            del self.scope[len(self.scope) - len(params):]
            for p in reversed(params):
                body = Abs(p, None, body)
            return body
        return self.disj()

    def _at_binder(self) -> bool:
        t = self.peek()
        return t.kind in ("forall", "exists") or self.at_sym("\\")

    def disj(self) -> Formula:
        f = self.conj()
        while self.eat_sym("\\/"):
            # a binder as the last operand extends maximally to the right
            f = Or(f, self.formula() if self._at_binder() else self.conj())
        return f

    def conj(self) -> Formula:
        f = self.atom()
        while self.eat_sym("/\\"):
            f = And(f, self.formula() if self._at_binder() else self.atom())
        return f

    def atom(self) -> Formula:
        mark = self.pos
        occ_mark = len(self.occurrences)
        try:
            lhs = self.iexpr()
            t = self.peek()
            if t.kind == "sym" and t.text in _CMP:
                self.next()
                rhs = self.iexpr()
                return self._comparison(t.text, lhs, rhs)
        except NestingTooDeep:
            raise
        except ParseError:
            pass
        self.pos = mark
        del self.occurrences[occ_mark:]
        return self.application()

    @staticmethod
    def _comparison(op: str, l: IntExpr, r: IntExpr) -> Formula:
        if op == ">=":
            return canon_ge(l, r)
        if op == "<=":
            return canon_ge(r, l)
        if op == ">":
            return canon_ge(l, inc_expr(r))
        if op == "<":
            return canon_ge(r, inc_expr(l))
        if op == "=":
            return And(canon_ge(l, r), canon_ge(r, l))
        if op == "!=":
            return Or(canon_ge(l, inc_expr(r)), canon_ge(r, inc_expr(l)))
        raise AssertionError(op)

    def application(self) -> Formula:
        head = self.primary()
        if isinstance(head, IntExpr):
            # a bare integer expression is not a formula
            self.fail({"formula"})
        while True:
            t = self.peek()
            if t.kind in ("ident", "int", "true", "false") or self.at_sym("("):
                arg = self.primary()
                head = AppInt(head, arg) if isinstance(arg, IntExpr) else App(head, arg)
            else:
                return head

    def primary(self) -> Union[Formula, IntExpr]:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            self.occurrences.append((t.text, t.line, t.col, frozenset(self.scope)))
            return Var(t.text)
        if t.kind == "int":
            self.next()
            return Lit(int(t.text))
        if t.kind == "true":
            self.next()
            return TRUE
        if t.kind == "false":
            self.next()
            return FALSE
        if self.at_sym("("):
            self.next()
            term = self.term()
            self.expect("sym", ")")
            return term
        self.fail({"identifier", "integer", "("})

    def term(self) -> Union[Formula, IntExpr]:
        """Inside parentheses: a formula, or a bare integer expression used
        as an application argument."""
        mark = self.pos
        occ_mark = len(self.occurrences)
        try:
            f = self.formula()
            if self.at_sym(")"):
                return f
        except NestingTooDeep:
            raise
        except ParseError:
            pass
        self.pos = mark
        del self.occurrences[occ_mark:]
        e = self.iexpr()
        if not self.at_sym(")"):
            self.fail({")"})
        return e

    # -- integer expressions -----------------------------------------------

    def iexpr(self) -> IntExpr:
        e = self.iterm()
        while True:
            if self.eat_sym("+"):
                e = _plus(e, self.iterm())
            elif self.eat_sym("-"):
                # e1 - e2 is e1 + (-1)*e2; a literal subtrahend folds
                t = self.iterm()
                e = _plus(e, Lit(-t.value) if isinstance(t, Lit) else Times(Lit(-1), t))
            else:
                return e

    def iterm(self) -> IntExpr:
        e = self.ifactor()
        while self.eat_sym("*"):
            e = _times(e, self.ifactor())
        return e

    def ifactor(self) -> IntExpr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Lit(int(t.text))
        if t.kind == "sym" and t.text == "-" and self.toks[self.pos + 1].kind == "int":
            self.next()
            return Lit(-int(self.next().text))
        if t.kind == "ident":
            self.next()
            self.occurrences.append((t.text, t.line, t.col, frozenset(self.scope)))
            return IntVar(t.text)
        if self.at_sym("("):
            self.next()
            e = self.deeper(self.iexpr)
            self.expect("sym", ")")
            return e
        self.fail({"integer expression"})


def parse_hes(text: str) -> Hes:
    return _Parser(text).parse_hes()


def parse_formula(text: str) -> Formula:
    """Parse a single closed-ish formula (test/REPL convenience)."""
    p = _Parser(text)
    f = p.formula()
    p.expect("eof")
    return f
