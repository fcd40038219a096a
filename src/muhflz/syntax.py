"""Core AST for HFL(Z): formulas, integer expressions, simple types, and
hierarchical equation systems (HES).

All nodes are immutable; passes build new trees.  Every node, like every
other record in muhflz, is a ``Node``: a slotted class with no instance
``__dict__`` whose ``__setattr__`` and ``__delattr__`` raise
``AttributeError``, so a field is stored once, by ``__init__`` through
``set_field``, and never changed.  Binder uniqueness is not guaranteed by
construction.  ``replace_free`` is the one way to replace a
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

``lambdas`` and ``apply_vars`` are the only builders of lambda spines and
of applications to bound variables.  Eta-expansion is the two together:
apply fresh variables by type, then bind them in new lambdas; ``peel``
does it where a body has fewer leading lambdas than its type has
parameters.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# Immutable records


class Node:
    """Base of every immutable record in muhflz.  A subclass declares its
    fields as ``__slots__`` and stores them in a plain ``__init__`` with
    ``set_field``; ``Node`` supplies the rest, built once per class and
    with no generated code: ``__match_args__`` (the fields, in order),
    equality (same class, equal fields), ``hash`` (the hash of the field
    tuple), a ``Class(field=value, ...)`` repr, and guards that raise
    ``AttributeError`` on assigning or deleting an attribute."""

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__match_args__ = cls.__slots__
        if len(names) > 1:
            cls._fields = attrgetter(*names)
        elif names:
            get = attrgetter(*names)
            cls._fields = staticmethod(lambda node: (get(node),))
        else:
            cls._fields = staticmethod(lambda node: ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, past the guards
        return self.__class__, self._fields(self)


# stores one field of a Node under construction; a module-level name, so
# that an ``__init__`` pays one global lookup per field
set_field = object.__setattr__


# ---------------------------------------------------------------------------
# Simple types


class SimpleType(Node):
    """Base class for simple types: Int, Prop, or Arrow."""

    __slots__ = ()


class IntType(SimpleType):
    __slots__ = ()

    def __str__(self) -> str:
        return "int"


class PropType(SimpleType):
    __slots__ = ()

    def __str__(self) -> str:
        return "prop"


class Arrow(SimpleType):
    __slots__ = ("arg", "ret")

    def __init__(self, arg: SimpleType, ret: SimpleType):
        set_field(self, "arg", arg)
        set_field(self, "ret", ret)

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


class IntExpr(Node):
    """Base class for integer expressions."""

    __slots__ = ()


class Lit(IntExpr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        set_field(self, "value", value)


class IntVar(IntExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Plus(IntExpr):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: IntExpr, rhs: IntExpr):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class Times(IntExpr):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: IntExpr, rhs: IntExpr):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class IntAbs(IntExpr):
    """Absolute value |e|.  Internal to the transformation pipeline; never
    part of anything handed to a backend or the printer."""

    __slots__ = ("arg",)

    def __init__(self, arg: IntExpr):
        set_field(self, "arg", arg)


# ---------------------------------------------------------------------------
# Formulas


class Formula(Node):
    """Base class for HFL(Z) formulas."""

    __slots__ = ()


class Var(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Or(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class And(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class Mu(Formula):
    __slots__ = ("name", "ty", "body")

    def __init__(self, name: str, ty: Optional[SimpleType], body: Formula):
        set_field(self, "name", name)
        set_field(self, "ty", ty)
        set_field(self, "body", body)


class Nu(Formula):
    __slots__ = ("name", "ty", "body")

    def __init__(self, name: str, ty: Optional[SimpleType], body: Formula):
        set_field(self, "name", name)
        set_field(self, "ty", ty)
        set_field(self, "body", body)


class Abs(Formula):
    __slots__ = ("param", "ty", "body")

    def __init__(self, param: str, ty: Optional[SimpleType], body: Formula):
        set_field(self, "param", param)
        set_field(self, "ty", ty)
        set_field(self, "body", body)


class App(Formula):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Formula, arg: Formula):
        set_field(self, "fn", fn)
        set_field(self, "arg", arg)


class AppInt(Formula):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Formula, arg: IntExpr):
        set_field(self, "fn", fn)
        set_field(self, "arg", arg)


class Ge(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: IntExpr, rhs: IntExpr):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class Forall(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        set_field(self, "var", var)
        set_field(self, "body", body)


class Exists(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        set_field(self, "var", var)
        set_field(self, "body", body)


TRUE = Ge(Lit(0), Lit(0))
FALSE = Ge(Lit(0), Lit(1))


# ---------------------------------------------------------------------------
# Hierarchical equation systems


class Sign(Enum):
    MU = "mu"
    NU = "nu"


class Equation(Node):
    __slots__ = ("name", "params", "sign", "body")

    def __init__(
        self,
        name: str,
        params: tuple[tuple[str, Optional[SimpleType]], ...],
        sign: Sign,
        body: Formula,
    ):
        set_field(self, "name", name)
        set_field(self, "params", params)
        set_field(self, "sign", sign)
        set_field(self, "body", body)


class Hes(Node):
    """Ordered fixpoint equations plus an entry formula.  Earlier equations
    bind outermost."""

    __slots__ = ("equations", "entry")

    def __init__(self, equations: tuple[Equation, ...], entry: Formula):
        set_field(self, "equations", equations)
        set_field(self, "entry", entry)

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


# ---------------------------------------------------------------------------
# Lambda spines and eta-expansion


def lambdas(binders: Sequence[tuple[str, Optional[SimpleType]]], body: Formula) -> Formula:
    """``body`` under one lambda per ``(name, type)`` binder, the first
    outermost."""
    for n, ty in reversed(binders):
        body = Abs(n, ty, body)
    return body


def apply_vars(head: Formula, binders: Iterable[tuple[str, SimpleType]]) -> Formula:
    """``head`` applied to the variable of each ``(name, type)`` binder in
    order: an integer variable where the type is Int."""
    for n, ty in binders:
        head = AppInt(head, IntVar(n)) if isinstance(ty, IntType) else App(head, Var(n))
    return head


def peel(
    body: Formula, want: list[SimpleType], supply: NameSupply
) -> tuple[list[tuple[str, SimpleType]], Formula]:
    """Split ``body`` into one leading parameter binder per type in
    ``want`` and the residue.  Where ``body`` is not a lambda spine that
    long, fresh parameters ``z`` from ``supply`` are applied to the residue
    instead."""
    binders: list[tuple[str, SimpleType]] = []
    while len(binders) < len(want) and isinstance(body, Abs):
        binders.append((body.param, body.ty if body.ty is not None else want[len(binders)]))
        body = body.body
    pads = [(supply.fresh("z"), ty) for ty in want[len(binders):]]
    return binders + pads, apply_vars(body, pads)


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
