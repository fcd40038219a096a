"""Core AST for HFL(Z): formulas, integer expressions, simple types, and
hierarchical equation systems (HES).

All nodes are immutable; passes build new trees.  Every node, like every
other record in muhflz, is a ``Node``: a slotted class with no instance
``__dict__`` whose ``__setattr__`` and ``__delattr__`` raise
``AttributeError``, so a field is stored once, by ``__init__`` through
``set_field``, and never changed.  Binder uniqueness is not guaranteed by
construction.  ``replace_free`` is the one way to replace a
variable, and it renames nothing: where a binder could capture what it
inserts, rename first with ``alpha_normalize_formula``, as closing does
(``convert``).

Every binder is ``(name, ty, body)``: the bound ``name``, its type
``ty`` (None until typechecking) and the ``body`` it scopes.  ``BINDERS``
names the five binder classes, ``Abs``, ``Mu``, ``Nu``, ``Forall`` and
``Exists``; a quantifier's ``ty`` is Int.  So each walker has one binder
case, and a class pattern on a binder gives all three fields or none.  A
fixpoint's sign is its binder class, ``Mu`` or ``Nu``, and an equation's
``sign`` is that class too.

Every associative chain is one node.  A ``\\/`` or ``/\\`` chain is one
``Or`` or ``And`` and a sum or product one ``Plus`` or ``Times``, each with
a tuple of ``children``: the constructor merges a first operand of the
same class, which is the left-nested chain the parser reads.  An
application spine is one ``App`` of a head to a tuple of ``args``, each a
formula or an integer expression; a head that is itself an ``App`` is
merged.

``map_children`` is the one place that knows each node's child formulas
and the binder that scopes them: a rewrite handles the nodes it cares
about and hands every other node to it.  ``int_nodes`` is to integer
expressions what ``map_children`` is to formulas: the one place that knows
an integer node's operands, so each integer walker is a loop over it.
Trees are persistent: a node whose children all come back unchanged is
returned as it is, so a rewrite's result shares every subtree it did not
change with its input, and one object may sit at several positions of a
tree (or of several trees).  Code that keys anything by ``id()`` of a node
therefore keys the subtree, not the position.

``lambdas`` and ``apply_vars`` are the only builders of lambda spines and
of applications to bound variables.  Eta-expansion is the two together:
apply fresh variables by type, then bind them in new lambdas; ``peel``
does it where a body has fewer leading lambdas than its type has
parameters.
"""

from __future__ import annotations

from operator import attrgetter, is_
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
    ``AttributeError`` on assigning or deleting an attribute.  ``Or``,
    ``And``, ``Plus`` and ``Times`` take their operands, not their one
    field ``children``, and merge a first operand of their own class;
    ``App`` takes its head and then its arguments."""

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


def json_text(v, indent: str = "") -> str:
    """``v`` as ``json.dumps(v, indent=2)`` writes it, a ``Node`` record
    as an object of its fields in slot order.  The standard library's
    indenting encoder is built of nested functions that name one another,
    a reference cycle on every call; this writes the layout itself and
    hands the library only the leaves and the string keys, which it writes
    without one."""
    import json

    if isinstance(v, Node):
        v = {name: getattr(v, name) for name in v.__slots__}
    inner = indent + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [f"{inner}{json.dumps(k)}: {json_text(x, inner)}" for k, x in v.items()]
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        items = [inner + json_text(x, inner) for x in v]
        return "[\n" + ",\n".join(items) + f"\n{indent}]"
    return json.dumps(v)


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
# Associative chains


def _chain_init(self, *operands: Node):
    """Two or more operands; ``Plus(Plus(a, b), c)`` is ``Plus(a, b, c)``."""
    if len(operands) < 2:
        raise TypeError(f"{type(self).__name__} needs two or more operands")
    if type(operands[0]) is type(self):
        operands = operands[0].children + operands[1:]
    set_field(self, "children", operands)


def _chain_reduce(self):
    return self.__class__, self.children


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
    __slots__ = ("children",)
    __init__ = _chain_init
    __reduce__ = _chain_reduce


class Times(IntExpr):
    __slots__ = ("children",)
    __init__ = _chain_init
    __reduce__ = _chain_reduce


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


def _binder_init(self, name: str, ty: Optional[SimpleType], body: Formula):
    """The bound ``name``, its type ``ty`` (None until typechecking, Int
    for a quantifier) and the ``body`` it scopes."""
    set_field(self, "name", name)
    set_field(self, "ty", ty)
    set_field(self, "body", body)


class Var(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Or(Formula):
    __slots__ = ("children",)
    __init__ = _chain_init
    __reduce__ = _chain_reduce


class And(Formula):
    __slots__ = ("children",)
    __init__ = _chain_init
    __reduce__ = _chain_reduce


class Mu(Formula):
    __slots__ = ("name", "ty", "body")
    __init__ = _binder_init


class Nu(Formula):
    __slots__ = ("name", "ty", "body")
    __init__ = _binder_init


class Abs(Formula):
    __slots__ = ("name", "ty", "body")
    __init__ = _binder_init


class App(Formula):
    """``head`` applied to one or more arguments, each a formula or an
    integer expression; ``App(App(f, a), b)`` is ``App(f, a, b)``."""

    __slots__ = ("head", "args")

    def __init__(self, head: Formula, *args: Union[Formula, IntExpr]):
        if not args:
            raise TypeError("App needs one or more arguments")
        if type(head) is App:
            head, args = head.head, head.args + args
        set_field(self, "head", head)
        set_field(self, "args", args)

    def __reduce__(self):
        return App, (self.head, *self.args)


class Ge(Formula):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: IntExpr, rhs: IntExpr):
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)


class Forall(Formula):
    __slots__ = ("name", "ty", "body")
    __init__ = _binder_init


class Exists(Formula):
    __slots__ = ("name", "ty", "body")
    __init__ = _binder_init


BINDERS = (Abs, Mu, Nu, Forall, Exists)

TRUE = Ge(Lit(0), Lit(0))
FALSE = Ge(Lit(0), Lit(1))


# ---------------------------------------------------------------------------
# Hierarchical equation systems


class Equation(Node):
    """An equation's ``sign`` is ``Mu`` (``=u``, least) or ``Nu`` (``=v``,
    greatest): the binder class it closes into."""

    __slots__ = ("name", "params", "sign", "body")

    def __init__(
        self,
        name: str,
        params: tuple[tuple[str, Optional[SimpleType]], ...],
        sign: type[Mu] | type[Nu],
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


def int_nodes(e: IntExpr) -> list[IntExpr]:
    """Every node of ``e`` in pre-order, left operand first; read in
    reverse, each node comes after its operands.  An explicit stack, as in
    ``subformulas``, so a sum or product of any length needs no recursion."""
    out, stack = [], [e]
    while stack:
        e = stack.pop()
        out.append(e)
        t = type(e)
        if t is Plus or t is Times:
            stack.extend(reversed(e.children))
        elif t is IntAbs:
            stack.append(e.arg)
        elif t is not IntVar and t is not Lit:
            raise TypeError(f"not an IntExpr: {e!r}")
    return out


def int_free_vars(e: IntExpr) -> set[str]:
    return {n.name for n in int_nodes(e) if type(n) is IntVar}


def free_vars(f: Formula) -> set[str]:
    t = type(f)
    if t is Var:
        return {f.name}
    if t is Or or t is And:
        return set().union(*map(free_vars, f.children))
    if t is App:
        return free_vars(f.head).union(*[
            int_free_vars(a) if isinstance(a, IntExpr) else free_vars(a) for a in f.args
        ])
    if t is Ge:
        return int_free_vars(f.lhs) | int_free_vars(f.rhs)
    if t in BINDERS:
        return free_vars(f.body) - {f.name}
    raise TypeError(f"not a Formula: {f!r}")


def map_children(
    f: Formula, go: Callable[[Formula, Optional[dict]], Formula], env: Optional[dict] = None
) -> Formula:
    """Rebuild ``f`` from ``go(child, env)`` for each child formula, left to
    right.  Under a binder ``env`` (when given) is extended with the bound
    name and its type; integer expressions are kept as they are.

    Sharing: when every child comes back as the very object it was, ``f``
    itself is returned, so a rewrite copies only the nodes on the paths to
    what it changed and shares every other subtree with its input."""
    t = type(f)
    if t is Or or t is And:
        cs = [go(c, env) for c in f.children]
        return f if all(map(is_, cs, f.children)) else t(*cs)
    if t is App:
        head = go(f.head, env)
        args = [a if isinstance(a, IntExpr) else go(a, env) for a in f.args]
        return f if head is f.head and all(map(is_, args, f.args)) else App(head, *args)
    if t in BINDERS:
        body = go(f.body, env if env is None else {**env, f.name: f.ty})
        return f if body is f.body else t(f.name, f.ty, body)
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
        t = type(g)
        if t is Or or t is And:
            stack.extend(reversed(g.children))
        elif t is App:
            stack.extend([a for a in reversed(g.args) if not isinstance(a, IntExpr)])
            stack.append(g.head)
        elif t in BINDERS:
            stack.append(g.body)


def contains_mu(f: Formula) -> bool:
    return any(isinstance(g, Mu) for g in subformulas(f))


def contains_int_abs(e: IntExpr) -> bool:
    return any(type(n) is IntAbs for n in int_nodes(e))


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
        t = type(g)
        if t is Var or t in BINDERS:
            out.add(g.name)
        elif t is App or t is Ge:
            for e in g.args if t is App else (g.lhs, g.rhs):
                if isinstance(e, IntExpr):
                    out.update(int_free_vars(e))
    return out


def rename_int(e: IntExpr, mapping: dict[str, str]) -> IntExpr:
    """Rename the integer variables of ``e`` by ``mapping``; an expression
    with nothing to rename is returned as it is."""
    done: list[IntExpr] = []
    for n in reversed(int_nodes(e)):
        t = type(n)
        if t is IntVar:
            new = mapping.get(n.name)
            done.append(n if new is None else IntVar(new))
        elif t is Plus or t is Times:
            cs = [done.pop() for _ in n.children]
            done.append(n if all(map(is_, cs, n.children)) else t(*cs))
        elif t is IntAbs:
            a = done.pop()
            done.append(n if a is n.arg else IntAbs(a))
        else:  # Lit
            done.append(n)
    return done[0]


def replace_free(f: Formula, name: str, make: Callable[[], Formula]) -> Formula:
    """Replace every free occurrence of the variable ``name`` in ``f`` by
    ``make()``, called once per occurrence, left to right.  A binder that
    rebinds ``name`` is kept as it is, and so is every subtree without a
    free occurrence.  Nothing is renamed: the caller keeps the names that
    ``make`` inserts clear of the binders of ``f``."""
    t = type(f)
    if t is Var:
        return make() if f.name == name else f
    if t in BINDERS and f.name == name:
        return f
    return map_children(f, lambda g, _: replace_free(g, name, make))


def alpha_normalize_formula(
    f: Formula, supply: NameSupply, env: Optional[dict[str, str]] = None
) -> Formula:
    """Rename every binder to ``supply.fresh`` of its name, and its bound
    occurrences with it; ``env`` maps names renamed by an enclosing scope.
    Binders are rebuilt; any other node with nothing to rename is kept as
    it is."""
    t = type(f)
    env = env or {}
    if t is Var:
        new = env.get(f.name)
        return f if new is None else Var(new)
    if t is App:
        head = alpha_normalize_formula(f.head, supply, env)
        args = [
            rename_int(a, env) if isinstance(a, IntExpr)
            else alpha_normalize_formula(a, supply, env)
            for a in f.args
        ]
        return f if head is f.head and all(map(is_, args, f.args)) else App(head, *args)
    if t is Ge:
        l, r = rename_int(f.lhs, env), rename_int(f.rhs, env)
        return f if l is f.lhs and r is f.rhs else Ge(l, r)
    if t in BINDERS:
        new = supply.fresh(f.name)
        return t(new, f.ty, alpha_normalize_formula(f.body, supply, {**env, f.name: new}))
    return map_children(f, lambda g, e: alpha_normalize_formula(g, supply, e), env)


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
    order: an integer variable where the type is Int.  ``head`` itself
    where there are no binders."""
    args = [IntVar(n) if isinstance(ty, IntType) else Var(n) for n, ty in binders]
    return App(head, *args) if args else head


def peel(
    body: Formula, want: list[SimpleType], supply: NameSupply
) -> tuple[list[tuple[str, SimpleType]], Formula]:
    """Split ``body`` into one leading parameter binder per type in
    ``want`` and the residue.  Where ``body`` is not a lambda spine that
    long, fresh parameters ``z`` from ``supply`` are applied to the residue
    instead."""
    binders: list[tuple[str, SimpleType]] = []
    while len(binders) < len(want) and isinstance(body, Abs):
        binders.append((body.name, body.ty if body.ty is not None else want[len(binders)]))
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


def _split_lit(e: IntExpr) -> tuple[IntExpr, int]:
    """``(a, n)`` where ``e`` is a sum ``a + n`` whose last child is the
    literal ``n``, else ``(e, 0)``."""
    if type(e) is Plus and type(e.children[-1]) is Lit:
        *init, last = e.children
        return (init[0] if len(init) == 1 else Plus(*init)), last.value
    return e, 0


def shift_expr(e: IntExpr, k: int) -> IntExpr:
    """e + k, folding into a trailing literal."""
    if k == 0:
        return e
    if isinstance(e, Lit):
        return Lit(e.value + k)
    a, n = _split_lit(e)
    return a if n + k == 0 else Plus(a, Lit(n + k))


def canon_ge(l: IntExpr, r: IntExpr) -> Ge:
    while True:
        if isinstance(l, Lit) and isinstance(r, Lit):
            return TRUE if l.value >= r.value else FALSE
        b, k = _split_lit(r)
        if b is not r:
            l, r = shift_expr(l, -k), b
            continue
        if isinstance(r, Lit):
            a, k = _split_lit(l)
            if a is not l:
                l, r = a, Lit(r.value - k)
                continue
        return Ge(l, r)


def neg_ge(l: IntExpr, r: IntExpr) -> Ge:
    """The complement of l >= r, i.e. r >= l + 1, canonicalized."""
    return canon_ge(r, shift_expr(l, 1))
