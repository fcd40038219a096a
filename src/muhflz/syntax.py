"""Core AST for HFL(Z): formulas, integer expressions, simple types, and
hierarchical equation systems (HES).

All nodes are immutable; passes build new trees.  Binder uniqueness is not
guaranteed by construction.  ``replace_free`` is the one way to replace a
variable, and it renames nothing: where a binder could capture what it
inserts, rename first (``alpha_normalize``, or ``alpha_normalize_formula``
on what is inserted).

``map_children`` is the one place that knows each node's child formulas
and the binder that scopes them: a rewrite handles the nodes it cares
about and hands every other node to it.  Trees are persistent: a node
whose children all come back unchanged is returned as it is, so a
rewrite's result shares every subtree it did not change with its input,
and one object may sit at several positions of a tree (or of several
trees).  Code that keys anything by ``id()`` of a node therefore keys the
subtree, not the position.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Union


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


def map_children(
    f: Formula, go: Callable[[Formula, Optional[dict]], Formula], env: Optional[dict] = None
) -> Formula:
    """Rebuild ``f`` from ``go(child, env)`` for each child formula, left to
    right.  Under a binder ``env`` (when given) is extended with the bound
    name and its type, Int for a quantifier; integer expressions are kept
    as they are.

    Sharing: when every child comes back as the very object it was, ``f``
    itself is returned, so a rewrite copies only the nodes on the paths to
    what it changed and shares every other subtree with its input."""
    t = type(f)
    if t is Or or t is And:
        l, r = go(f.lhs, env), go(f.rhs, env)
        return f if l is f.lhs and r is f.rhs else t(l, r)
    if t is App:
        fn, arg = go(f.fn, env), go(f.arg, env)
        return f if fn is f.fn and arg is f.arg else App(fn, arg)
    if t is AppInt:
        fn = go(f.fn, env)
        return f if fn is f.fn else AppInt(fn, f.arg)
    if t is Abs:
        body = go(f.body, env if env is None else {**env, f.param: f.ty})
        return f if body is f.body else Abs(f.param, f.ty, body)
    if t is Mu or t is Nu:
        body = go(f.body, env if env is None else {**env, f.name: f.ty})
        return f if body is f.body else t(f.name, f.ty, body)
    if t is Forall or t is Exists:
        body = go(f.body, env if env is None else {**env, f.var: INT})
        return f if body is f.body else t(f.var, body)
    if t is Var or t is Ge:
        return f
    raise TypeError(f"not a Formula: {f!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every node of ``f`` in pre-order, left child first.  An explicit
    stack, so each node is yielded once, not through all its ancestors."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        match g:
            case Or(l, r) | And(l, r) | App(l, r):
                stack.append(r)
                stack.append(l)
            case Mu(_, _, body) | Nu(_, _, body) | Abs(_, _, body):
                stack.append(body)
            case AppInt(fn, _):
                stack.append(fn)
            case Forall(_, body) | Exists(_, body):
                stack.append(body)


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
# Replacement and renaming


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


def rename_int(e: IntExpr, mapping: dict[str, str]) -> IntExpr:
    """Rename the integer variables of ``e`` by ``mapping``; an expression
    with nothing to rename is returned as it is."""
    t = type(e)
    if t is IntVar:
        new = mapping.get(e.name)
        return e if new is None else IntVar(new)
    if t is Plus or t is Times:
        l, r = rename_int(e.lhs, mapping), rename_int(e.rhs, mapping)
        return e if l is e.lhs and r is e.rhs else t(l, r)
    if t is IntAbs:
        a = rename_int(e.arg, mapping)
        return e if a is e.arg else IntAbs(a)
    if t is Lit:
        return e
    raise TypeError(f"not an IntExpr: {e!r}")


def replace_free(f: Formula, name: str, make: Callable[[], Formula]) -> Formula:
    """Replace every free occurrence of the variable ``name`` in ``f`` by
    ``make()``, called once per occurrence, left to right.  A binder that
    rebinds ``name`` is kept as it is, and so is every subtree without a
    free occurrence.  Nothing is renamed: the caller keeps the names that
    ``make`` inserts clear of the binders of ``f``."""
    t = type(f)
    if t is Var:
        return make() if f.name == name else f
    if (
        (t is Mu or t is Nu) and f.name == name
        or t is Abs and f.param == name
        or (t is Forall or t is Exists) and f.var == name
    ):
        return f
    return map_children(f, lambda g, _: replace_free(g, name, make))


def alpha_normalize_formula(
    f: Formula, supply: NameSupply, env: Optional[dict[str, str]] = None
) -> Formula:
    """Rename every binder to ``supply.fresh`` of its name, and its bound
    occurrences with it; ``env`` maps names renamed by an enclosing scope.
    Binders are rebuilt; any other node with nothing to rename is kept as
    it is."""

    def go(f: Formula, env: dict[str, str]) -> Formula:
        t = type(f)
        if t is Var:
            new = env.get(f.name)
            return f if new is None else Var(new)
        if t is AppInt:
            fn, arg = go(f.fn, env), rename_int(f.arg, env)
            return f if fn is f.fn and arg is f.arg else AppInt(fn, arg)
        if t is Ge:
            l, r = rename_int(f.lhs, env), rename_int(f.rhs, env)
            return f if l is f.lhs and r is f.rhs else Ge(l, r)
        if t is Mu or t is Nu:
            new = supply.fresh(f.name)
            return t(new, f.ty, go(f.body, {**env, f.name: new}))
        if t is Abs:
            new = supply.fresh(f.param)
            return Abs(new, f.ty, go(f.body, {**env, f.param: new}))
        if t is Forall or t is Exists:
            new = supply.fresh(f.var)
            return t(new, go(f.body, {**env, f.var: new}))
        return map_children(f, go, env)

    return go(f, env or {})


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


def peel(
    body: Formula, want: list[SimpleType], supply: NameSupply
) -> tuple[list[tuple[str, SimpleType]], Formula]:
    """Split ``body`` into one leading parameter binder per type in
    ``want`` and the residue.  Where ``body`` is not a lambda spine that
    long, a fresh parameter from ``supply`` is applied to the residue
    instead."""
    binders: list[tuple[str, SimpleType]] = []
    rest = body
    for ty in want:
        match rest:
            case Abs(p, pt, b):
                binders.append((p, pt if pt is not None else ty))
                rest = b
            case _:
                z = supply.fresh("z")
                binders.append((z, ty))
                rest = AppInt(rest, IntVar(z)) if isinstance(ty, IntType) else App(rest, Var(z))
    return binders, rest


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
