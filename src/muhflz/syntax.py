"""Core AST for HFL(Z): formulas, integer expressions, simple types, and
hierarchical equation systems (HES).

All nodes are immutable; passes build new trees.  Binder uniqueness is not
guaranteed by construction -- run ``alpha_normalize`` before any pass that
substitutes under binders.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Union


# ---------------------------------------------------------------------------
# Simple types


class SimpleType:
    """Base class for simple types: Int, Prop, or Arrow."""


@dataclass(frozen=True)
class IntType(SimpleType):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class PropType(SimpleType):
    def __str__(self) -> str:
        return "prop"


@dataclass(frozen=True)
class Arrow(SimpleType):
    arg: SimpleType
    ret: SimpleType

    def __str__(self) -> str:
        a = str(self.arg)
        if isinstance(self.arg, Arrow):
            a = f"({a})"
        return f"{a} -> {self.ret}"


INT = IntType()
PROP = PropType()


def is_predicate_type(ty: SimpleType) -> bool:
    return isinstance(ty, (PropType, Arrow))


def arity(ty: SimpleType) -> int:
    n = 0
    while isinstance(ty, Arrow):
        n += 1
        ty = ty.ret
    return n


def order(ty: SimpleType) -> int:
    if isinstance(ty, Arrow):
        return max(order(ty.ret), order(ty.arg) + 1)
    return 0


def arg_types(ty: SimpleType) -> list[SimpleType]:
    out = []
    while isinstance(ty, Arrow):
        out.append(ty.arg)
        ty = ty.ret
    return out


def arrow(args: list[SimpleType], ret: SimpleType) -> SimpleType:
    for a in reversed(args):
        ret = Arrow(a, ret)
    return ret


# ---------------------------------------------------------------------------
# Integer expressions


class IntExpr:
    """Base class for integer expressions."""


@dataclass(frozen=True)
class Lit(IntExpr):
    value: int


@dataclass(frozen=True)
class IntVar(IntExpr):
    name: str


@dataclass(frozen=True)
class Plus(IntExpr):
    lhs: IntExpr
    rhs: IntExpr


@dataclass(frozen=True)
class Times(IntExpr):
    lhs: IntExpr
    rhs: IntExpr


@dataclass(frozen=True)
class IntAbs(IntExpr):
    """Absolute value |e|.  Internal to the transformation pipeline; never
    part of anything handed to a backend or the printer."""

    arg: IntExpr


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    """Base class for HFL(Z) formulas."""


@dataclass(frozen=True)
class Var(Formula):
    name: str


@dataclass(frozen=True)
class Or(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class And(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class Mu(Formula):
    name: str
    ty: Optional[SimpleType]
    body: Formula


@dataclass(frozen=True)
class Nu(Formula):
    name: str
    ty: Optional[SimpleType]
    body: Formula


@dataclass(frozen=True)
class Abs(Formula):
    param: str
    ty: Optional[SimpleType]
    body: Formula


@dataclass(frozen=True)
class App(Formula):
    fn: Formula
    arg: Formula


@dataclass(frozen=True)
class AppInt(Formula):
    fn: Formula
    arg: IntExpr


@dataclass(frozen=True)
class Ge(Formula):
    lhs: IntExpr
    rhs: IntExpr


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


TRUE = Ge(Lit(0), Lit(0))
FALSE = Ge(Lit(0), Lit(1))


# ---------------------------------------------------------------------------
# Hierarchical equation systems


class Sign(Enum):
    MU = "mu"
    NU = "nu"


@dataclass(frozen=True)
class Equation:
    name: str
    params: tuple[tuple[str, Optional[SimpleType]], ...]
    sign: Sign
    body: Formula


@dataclass(frozen=True)
class Hes:
    """Ordered fixpoint equations plus an entry formula.  Earlier equations
    bind outermost."""

    equations: tuple[Equation, ...]
    entry: Formula

    def equation(self, name: str) -> Equation:
        for eq in self.equations:
            if eq.name == name:
                return eq
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Traversal helpers


def int_free_vars(e: IntExpr) -> set[str]:
    match e:
        case Lit():
            return set()
        case IntVar(name):
            return {name}
        case Plus(l, r) | Times(l, r):
            return int_free_vars(l) | int_free_vars(r)
        case IntAbs(a):
            return int_free_vars(a)
    raise TypeError(f"not an IntExpr: {e!r}")


def free_vars(f: Formula) -> set[str]:
    match f:
        case Var(name):
            return {name}
        case Or(l, r) | And(l, r):
            return free_vars(l) | free_vars(r)
        case Mu(name, _, body) | Nu(name, _, body):
            return free_vars(body) - {name}
        case Abs(param, _, body):
            return free_vars(body) - {param}
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case AppInt(fn, arg):
            return free_vars(fn) | int_free_vars(arg)
        case Ge(l, r):
            return int_free_vars(l) | int_free_vars(r)
        case Forall(var, body) | Exists(var, body):
            return free_vars(body) - {var}
    raise TypeError(f"not a Formula: {f!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    match f:
        case Or(l, r) | And(l, r):
            yield from subformulas(l)
            yield from subformulas(r)
        case Mu(_, _, body) | Nu(_, _, body) | Abs(_, _, body):
            yield from subformulas(body)
        case App(fn, arg):
            yield from subformulas(fn)
            yield from subformulas(arg)
        case AppInt(fn, _):
            yield from subformulas(fn)
        case Forall(_, body) | Exists(_, body):
            yield from subformulas(body)


def contains_mu(f: Formula) -> bool:
    return any(isinstance(g, Mu) for g in subformulas(f))


def int_exprs(f: Formula) -> Iterator[IntExpr]:
    for g in subformulas(f):
        match g:
            case AppInt(_, e):
                yield e
            case Ge(l, r):
                yield l
                yield r


def contains_int_abs(e: IntExpr) -> bool:
    match e:
        case IntAbs():
            return True
        case Plus(l, r) | Times(l, r):
            return contains_int_abs(l) or contains_int_abs(r)
        case _:
            return False


def formula_has_int_abs(f: Formula) -> bool:
    return any(contains_int_abs(e) for e in int_exprs(f))


# ---------------------------------------------------------------------------
# Substitution and renaming


class NameSupply:
    """Deterministic fresh-name source.  Seed it with every name already in
    use; fresh names reuse the base and append _2, _3, ..."""

    def __init__(self, taken: Optional[set[str]] = None):
        self.taken: set[str] = set(taken) if taken else set()

    def fresh(self, base: str) -> str:
        base = base.rstrip("0123456789").rstrip("_") or base
        if base not in self.taken:
            self.taken.add(base)
            return base
        n = 2
        while f"{base}_{n}" in self.taken:
            n += 1
        name = f"{base}_{n}"
        self.taken.add(name)
        return name

    def reserve(self, name: str) -> None:
        self.taken.add(name)


def names_in_formula(f: Formula) -> set[str]:
    out: set[str] = set()
    for g in subformulas(f):
        match g:
            case Var(name):
                out.add(name)
            case Mu(name, _, _) | Nu(name, _, _):
                out.add(name)
            case Abs(param, _, _):
                out.add(param)
            case Forall(var, _) | Exists(var, _):
                out.add(var)
            case AppInt(_, e):
                out.update(int_free_vars(e))
            case Ge(l, r):
                out.update(int_free_vars(l))
                out.update(int_free_vars(r))
    return out


def names_in_hes(h: Hes) -> set[str]:
    out = names_in_formula(h.entry)
    for eq in h.equations:
        out.add(eq.name)
        out.update(p for p, _ in eq.params)
        out.update(names_in_formula(eq.body))
    return out


def rename_int(e: IntExpr, mapping: dict[str, IntExpr]) -> IntExpr:
    match e:
        case Lit():
            return e
        case IntVar(name):
            return mapping.get(name, e)
        case Plus(l, r):
            return Plus(rename_int(l, mapping), rename_int(r, mapping))
        case Times(l, r):
            return Times(rename_int(l, mapping), rename_int(r, mapping))
        case IntAbs(a):
            return IntAbs(rename_int(a, mapping))
    raise TypeError(f"not an IntExpr: {e!r}")


def substitute(f: Formula, mapping: dict[str, Union[Formula, IntExpr]]) -> Formula:
    """Substitution over alpha-normalized terms.  Integer variables may be
    mapped to IntExprs; predicate variables to Formulas.  Callers must have
    made binders globally unique (``alpha_normalize``) -- a binder that
    would capture a free name of an inserted term raises instead of
    silently capturing."""

    if not mapping:
        return f
    inserted_free: set[str] = set()
    for v in mapping.values():
        inserted_free |= free_vars(v) if isinstance(v, Formula) else int_free_vars(v)

    def go(f: Formula, m: dict) -> Formula:
        if not m:
            return f
        im = {k: v for k, v in m.items() if isinstance(v, IntExpr)}

        def bind(name, body, rebuild):
            if name in inserted_free:
                raise ValueError(f"capture of {name!r}: alpha-normalize first")
            m2 = {k: v for k, v in m.items() if k != name}
            return rebuild(name, go(body, m2))

        match f:
            case Var(name):
                v = m.get(name)
                if v is None:
                    return f
                if isinstance(v, IntExpr):
                    raise ValueError(f"int expression substituted at formula position: {name}")
                return v
            case Or(l, r):
                return Or(go(l, m), go(r, m))
            case And(l, r):
                return And(go(l, m), go(r, m))
            case Mu(name, ty, body):
                return bind(name, body, lambda n, b: Mu(n, ty, b))
            case Nu(name, ty, body):
                return bind(name, body, lambda n, b: Nu(n, ty, b))
            case Abs(param, ty, body):
                return bind(param, body, lambda n, b: Abs(n, ty, b))
            case App(fn, arg):
                if isinstance(arg, Var) and isinstance(m.get(arg.name), IntExpr):
                    return AppInt(go(fn, m), m[arg.name])
                return App(go(fn, m), go(arg, m))
            case AppInt(fn, arg):
                return AppInt(go(fn, m), rename_int(arg, im))
            case Ge(l, r):
                return Ge(rename_int(l, im), rename_int(r, im))
            case Forall(var, body):
                return bind(var, body, lambda n, b: Forall(n, b))
            case Exists(var, body):
                return bind(var, body, lambda n, b: Exists(n, b))
        raise TypeError(f"not a Formula: {f!r}")

    return go(f, dict(mapping))


def refresh_binders(f: Formula, supply: NameSupply) -> Formula:
    """Rename every binder in ``f`` to a fresh name from ``supply``.  Used
    when a term is duplicated (inlining) to keep global binder uniqueness."""

    return alpha_normalize_formula(f, supply)


def alpha_normalize_formula(
    f: Formula, supply: NameSupply, env: Optional[dict[str, str]] = None
) -> Formula:
    """Rename binders so every bound name is globally unique (first
    occurrence keeps its spelling).  Idempotent."""

    env = env or {}

    def go(f: Formula, env: dict[str, str]) -> Formula:
        def bind(name, body, rebuild):
            new = supply.fresh(name)
            b = go(body, {**env, name: new})
            return rebuild(new, b)

        match f:
            case Var(name):
                return Var(env.get(name, name))
            case Or(l, r):
                return Or(go(l, env), go(r, env))
            case And(l, r):
                return And(go(l, env), go(r, env))
            case Mu(name, ty, body):
                return bind(name, body, lambda n, b: Mu(n, ty, b))
            case Nu(name, ty, body):
                return bind(name, body, lambda n, b: Nu(n, ty, b))
            case Abs(param, ty, body):
                return bind(param, body, lambda n, b: Abs(n, ty, b))
            case App(fn, arg):
                return App(go(fn, env), go(arg, env))
            case AppInt(fn, arg):
                imap = {k: IntVar(v) for k, v in env.items()}
                return AppInt(go(fn, env), rename_int(arg, imap))
            case Ge(l, r):
                imap = {k: IntVar(v) for k, v in env.items()}
                return Ge(rename_int(l, imap), rename_int(r, imap))
            case Forall(var, body):
                return bind(var, body, lambda n, b: Forall(n, b))
            case Exists(var, body):
                return bind(var, body, lambda n, b: Exists(n, b))
        raise TypeError(f"not a Formula: {f!r}")

    return go(f, env)


def alpha_normalize(h: Hes) -> Hes:
    """Alpha-normalize a whole HES: equation names are kept (they are
    top-level and pairwise distinct), parameters and inner binders are made
    globally unique."""

    supply = NameSupply({eq.name for eq in h.equations})
    new_eqs = []
    for eq in h.equations:
        env: dict[str, str] = {}
        params = []
        for p, ty in eq.params:
            np = supply.fresh(p)
            env[p] = np
            params.append((np, ty))
        body = alpha_normalize_formula(eq.body, supply, env)
        new_eqs.append(Equation(eq.name, tuple(params), eq.sign, body))
    entry = alpha_normalize_formula(h.entry, supply, {})
    return Hes(tuple(new_eqs), entry)


# ---------------------------------------------------------------------------
# Canonical comparison atoms
#
# ">=" is the only primitive comparison, so negation needs a "+1" on one
# side.  Atoms are kept in a normal form -- trailing literals stripped off
# the right side (or off the left when the right is a literal) -- which
# makes double negation structural: dualize is then an involution on
# everything the parser and the transformation produce.


def shift_expr(e: IntExpr, k: int) -> IntExpr:
    """e + k, folding into a trailing literal."""
    if k == 0:
        return e
    match e:
        case Lit(n):
            return Lit(n + k)
        case Plus(a, Lit(n)):
            return a if n + k == 0 else Plus(a, Lit(n + k))
        case _:
            return Plus(e, Lit(k))


def inc_expr(e: IntExpr) -> IntExpr:
    return shift_expr(e, 1)


def canon_ge(l: IntExpr, r: IntExpr) -> Ge:
    while True:
        if isinstance(l, Lit) and isinstance(r, Lit):
            return TRUE if l.value >= r.value else FALSE
        match r:
            case Plus(b, Lit(k)):
                l, r = shift_expr(l, -k), b
                continue
            case Lit(n):
                match l:
                    case Plus(a, Lit(k)):
                        l, r = a, Lit(n - k)
                        continue
        return Ge(l, r)


def neg_ge(l: IntExpr, r: IntExpr) -> Ge:
    """The complement of l >= r, i.e. r >= l + 1, canonicalized."""
    return canon_ge(r, shift_expr(l, 1))


# ---------------------------------------------------------------------------
# Application spines


def spine(f: Formula) -> tuple[Formula, list[Union[Formula, IntExpr]]]:
    """Decompose nested applications into (head, [args])."""
    args: list[Union[Formula, IntExpr]] = []
    while True:
        match f:
            case App(fn, arg):
                args.append(arg)
                f = fn
            case AppInt(fn, arg):
                args.append(arg)
                f = fn
            case _:
                args.reverse()
                return f, args


def apply_spine(head: Formula, args: list[Union[Formula, IntExpr]]) -> Formula:
    for a in args:
        head = AppInt(head, a) if isinstance(a, IntExpr) else App(head, a)
    return head
