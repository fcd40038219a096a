"""Pretty-printer for the HES text format.

Deterministic: the same Hes always prints to the same bytes, and the output
re-parses to a structurally identical Hes.  Internal absolute-value nodes
are refused -- they must never reach a backend or a file.
"""

from __future__ import annotations

from .syntax import (
    Abs, And, App, Exists, Forall, Formula, Ge, Hes, IntAbs, IntExpr,
    IntVar, Lit, Mu, Nu, Or, Plus, Times, Var,
)


class PrintError(Exception):
    pass


# formula precedence levels: binder 0, \/ 1, /\ 2, atom/app 3
_BINDER, _OR, _AND, _APP = 0, 1, 2, 3


def _fmt_formula(f: Formula, ctx: int) -> str:
    t = type(f)
    if t is Var:
        return f.name
    if t is App:
        s = " ".join([_fmt_formula(f.head, _APP), *[
            _fmt_int(a, _IATOM) if isinstance(a, IntExpr) else _fmt_formula(a, _APP + 1)
            for a in f.args
        ]])
        return f"({s})" if ctx > _APP else s
    if t is Ge:
        s = f"{_fmt_int(f.lhs, _PLUS)} >= {_fmt_int(f.rhs, _PLUS)}"
        return f"({s})" if ctx > _APP else s
    if t is Or or t is And:
        level, op = (_OR, " \\/ ") if t is Or else (_AND, " /\\ ")
        first, *rest = f.children
        s = op.join([_fmt_formula(first, level), *[_fmt_formula(g, level + 1) for g in rest]])
        return f"({s})" if ctx > level else s
    if t is Abs or t is Forall or t is Exists:
        lead = "\\" if t is Abs else "forall " if t is Forall else "exists "
        s = f"{lead}{f.name}. {_fmt_formula(f.body, _BINDER)}"
        return f"({s})" if ctx > _BINDER else s
    if t is Mu or t is Nu:
        raise PrintError(
            "fixpoint binders have no concrete syntax; convert to an HES first"
        )
    raise PrintError(f"cannot print {f!r}")


# int precedence: + 0, * 1, atom 2
_PLUS, _TIMES, _IATOM = 0, 1, 2


def _fmt_int(e: IntExpr, ctx: int) -> str:
    t = type(e)
    if t is Lit:
        s = str(e.value)
        return f"({s})" if e.value < 0 and ctx >= _IATOM else s
    if t is IntVar:
        return e.name
    if t is Plus or t is Times:
        # the first child prints bare; later ones nest only through
        # parentheses
        first, *rest = e.children
        prec = _PLUS if t is Plus else _TIMES
        parts = [_fmt_int(first, prec)]
        for r in rest:
            if t is Times:
                parts.append(f" * {_fmt_int(r, _IATOM)}")
            elif type(r) is Times and len(r.children) == 2 and r.children[0] == Lit(-1):
                parts.append(f" - {_fmt_int(r.children[1], _TIMES + 1)}")
            elif type(r) is Lit and r.value < 0:
                parts.append(f" - {-r.value}")
            else:
                parts.append(f" + {_fmt_int(r, _TIMES)}")
        s = "".join(parts)
        return f"({s})" if ctx > prec else s
    if t is IntAbs:
        raise PrintError("absolute-value node survived to printing")
    raise PrintError(f"cannot print {e!r}")


def print_formula(f: Formula) -> str:
    return _fmt_formula(f, _BINDER)


def print_hes(h: Hes) -> str:
    lines = [f"Main =v {print_formula(h.entry)};"]
    for eq in h.equations:
        params = "".join(f" {p}" for p, _ in eq.params)
        sign = "=u" if eq.sign is Mu else "=v"
        lines.append(f"{eq.name}{params} {sign} {print_formula(eq.body)};")
    return "\n".join(lines) + "\n"
