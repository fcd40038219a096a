"""Simple-type checking and inference for HES.

The concrete syntax carries no type annotations, so checking is inference:
every parameter and equation name gets a type variable, constraints are
collected along the standard rules (T-Var .. T-Mult), and unification
solves them.  Annotations already present on binders (programmatically
constructed formulas) are unified with the inferred types, so inconsistent
annotations are rejected.

The pass makes two walks over each equation body and the entry:

- ``infer`` returns types only and builds no tree.  It records the type of
  each binder (lambda, mu, nu) in a list, in visiting order; it does not
  key them by node identity, because one unannotated node object may sit
  at two positions with different types.  An application whose function
  type already resolves to an arrow takes its argument and result types
  from that arrow instead of making fresh variables.
- ``finalize`` visits the binders in the same order, puts each one's
  resolved type on it, and normalizes applications: an argument that is a
  bare variable of integer type becomes an ``IntVar`` argument, so later
  passes can rely on the formula/integer split being type-correct.  It is
  the only walk that builds nodes, and every node it leaves alone is
  returned as it is (``map_children``), so typechecking an already-typed
  system returns its equation bodies and entry themselves.
"""

from __future__ import annotations

from operator import is_
from typing import Optional

from .syntax import (
    Abs, And, App, Arrow, Equation, Exists, Forall, Formula, Ge, Hes,
    INT, IntExpr, IntType, IntVar, Mu, Nu, Or, PROP, PropType, SimpleType,
    Var, arg_types, arrow, int_nodes, is_predicate_type, map_children,
    set_field,
)


# the rule each node is checked under
_RULE = {
    Or: "T-Or", And: "T-And", Abs: "T-Abs", Mu: "T-Mu", Nu: "T-Nu",
    Forall: "T-Forall", Exists: "T-Exists",
}


class TypeCheckError(Exception):
    def __init__(self, rule: str, message: str):
        self.rule = rule
        super().__init__(f"[{rule}] {message}")


class _TyVar(SimpleType):
    """Inference-only placeholder; resolved away before the pass returns.
    Equal only to itself."""

    __slots__ = ("id",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, id: int):
        set_field(self, "id", id)

    def __str__(self) -> str:
        return f"'t{self.id}"


class _Unifier:
    def __init__(self):
        self.subst: dict[int, SimpleType] = {}
        self.counter = 0

    def fresh(self) -> _TyVar:
        self.counter += 1
        return _TyVar(self.counter)

    def find(self, ty: SimpleType) -> SimpleType:
        while isinstance(ty, _TyVar) and ty.id in self.subst:
            ty = self.subst[ty.id]
        return ty

    def resolve(self, ty: SimpleType, default: SimpleType = INT) -> SimpleType:
        ty = self.find(ty)
        if isinstance(ty, Arrow):
            return Arrow(self.resolve(ty.arg), self.resolve(ty.ret, PROP))
        if isinstance(ty, _TyVar):
            # underdetermined position: Int (e.g. an unused parameter), or
            # Prop as an arrow's result (e.g. a parameter applied only inside
            # an unused argument), the only result a predicate type allows.
            # The choice is recorded, so that every later occurrence of the
            # variable resolves the same way.
            self.subst[ty.id] = default
            return default
        return ty

    def occurs(self, v: _TyVar, ty: SimpleType) -> bool:
        ty = self.find(ty)
        if isinstance(ty, _TyVar):
            return ty.id == v.id
        if isinstance(ty, Arrow):
            return self.occurs(v, ty.arg) or self.occurs(v, ty.ret)
        return False

    def unify(self, a: SimpleType, b: SimpleType, rule: str, what: str) -> None:
        if a is b:
            return
        a, b = self.find(a), self.find(b)
        if a is b:
            return
        if isinstance(a, _TyVar):
            if self.occurs(a, b):
                raise TypeCheckError(rule, f"infinite type for {what}")
            self.subst[a.id] = b
            return
        if isinstance(b, _TyVar):
            self.unify(b, a, rule, what)
            return
        if isinstance(a, IntType) and isinstance(b, IntType):
            return
        if isinstance(a, PropType) and isinstance(b, PropType):
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.arg, b.arg, rule, what)
            self.unify(a.ret, b.ret, rule, what)
            return
        raise TypeCheckError(rule, f"{what}: cannot unify {a} with {b}")


class _Checker:
    def __init__(self):
        self.u = _Unifier()
        # the type of every Abs/Mu/Nu binder in the order infer visits
        # them, which is the order finalize visits them in
        self.binder_types: list[SimpleType] = []
        self.finalized = 0

    def next_binder(self) -> SimpleType:
        """The resolved type of the next binder finalize visits."""
        ty = self.u.resolve(self.binder_types[self.finalized])
        self.finalized += 1
        return ty

    def check_int(self, e: IntExpr, env: dict[str, SimpleType]) -> None:
        try:
            nodes = int_nodes(e)
        except TypeError as err:
            raise TypeCheckError("T-Int", str(err)) from None
        for n in nodes:
            if type(n) is IntVar:
                ty = env.get(n.name)
                if ty is None:
                    raise TypeCheckError("T-Var", f"unbound variable {n.name}")
                self.u.unify(ty, INT, "T-Var", n.name)

    def infer(self, f: Formula, env: dict[str, SimpleType]) -> SimpleType:
        """The type of ``f`` under ``env``, up to the unifier's current
        substitution.  Builds no tree."""
        u = self.u
        t = type(f)
        if t is Var:
            ty = env.get(f.name)
            if ty is None:
                raise TypeCheckError("T-Var", f"unbound variable {f.name}")
            return ty
        if t is App:
            ty = self.infer(f.head, env)
            for a in f.args:
                ft, is_int = u.find(ty), isinstance(a, IntExpr)
                rule = "T-AppInt" if is_int else "T-App"
                if type(ft) is Arrow:
                    argty, ty = ft.arg, ft.ret
                else:
                    argty, ty = INT if is_int else u.fresh(), u.fresh()
                    u.unify(ft, Arrow(argty, ty), rule, "function position")
                if is_int:
                    u.unify(argty, INT, rule, "function position")
                    self.check_int(a, env)
                else:
                    u.unify(argty, self.infer(a, env), rule, "argument")
            return ty
        if t is Or or t is And:
            rule = _RULE[t]
            # as the binary chain: two operands inferred before either is unified
            first, second, *rest = f.children
            lt, rt = self.infer(first, env), self.infer(second, env)
            u.unify(lt, PROP, rule, "left operand")
            u.unify(rt, PROP, rule, "right operand")
            for g in rest:
                u.unify(self.infer(g, env), PROP, rule, "right operand")
            return PROP
        if t is Ge:
            self.check_int(f.lhs, env)
            self.check_int(f.rhs, env)
            return PROP
        if t is Abs or t is Mu or t is Nu:
            ty: SimpleType = f.ty if f.ty is not None else u.fresh()
            self.binder_types.append(ty)
            bt = self.infer(f.body, {**env, f.name: ty})
            if t is Abs:
                return Arrow(ty, bt)
            u.unify(ty, bt, _RULE[t], f"fixpoint variable {f.name} and its body")
            return ty
        if t is Forall or t is Exists:
            rule = _RULE[t]
            u.unify(f.ty, INT, rule, f"quantified variable {f.name}")
            bt = self.infer(f.body, {**env, f.name: INT})
            u.unify(bt, PROP, rule, "quantifier body")
            return PROP
        raise TypeCheckError("T-Var", f"not a formula: {f!r}")

    def finalize(self, f: Formula, env: dict[str, SimpleType]) -> Formula:
        """Put the resolved type on every binder and make every bare
        variable argument of integer type an ``IntVar``.  ``env`` holds
        resolved types.  A node that needs neither is returned as it is
        (``map_children``)."""
        t = type(f)
        if t is Abs or t is Mu or t is Nu:
            ty, rule = self.next_binder(), _RULE[t]
            what = f"parameter {f.name}" if t is Abs else f"fixpoint {f.name}"
            if t is not Abs and not is_predicate_type(ty):
                raise TypeCheckError(rule, f"{what} has type {ty}, not a predicate type")
            _validate(ty, rule, what)
            body = self.finalize(f.body, {**env, f.name: ty})
            return f if body is f.body and ty == f.ty else t(f.name, ty, body)
        if t is App:
            args = [
                IntVar(a.name) if type(a) is Var and type(env[a.name]) is IntType else a
                for a in f.args
            ]
            if not all(map(is_, args, f.args)):
                f = App(f.head, *args)
        return map_children(f, self.finalize, env)


def _validate(ty: SimpleType, rule: str, what: str) -> None:
    """Int must never be the return of an Arrow."""
    if isinstance(ty, Arrow):
        _validate(ty.arg, rule, what)
        ret = ty.ret
        if isinstance(ret, IntType):
            raise TypeCheckError(rule, f"{what}: arrow returning int is not a predicate type")
        _validate(ret, rule, what)


def typecheck(h: Hes) -> Hes:
    """Infer and annotate simple types for every equation/binder of ``h``.

    Returns a new Hes with annotated binders and normalized application
    arguments; raises TypeCheckError (tagged with the violated rule) otherwise.
    """
    c = _Checker()
    u = c.u
    eq_types: dict[str, SimpleType] = {}
    eq_params: dict[str, list[tuple[str, SimpleType]]] = {}
    for eq in h.equations:
        if eq.name in eq_types:
            raise TypeCheckError("T-Var", f"duplicate equation {eq.name}")
        params = [(p, ty if ty is not None else u.fresh()) for p, ty in eq.params]
        eq_params[eq.name] = params
        eq_types[eq.name] = arrow([pty for _, pty in params], PROP)

    for eq in h.equations:
        bt = c.infer(eq.body, {**eq_types, **dict(eq_params[eq.name])})
        u.unify(bt, PROP, _RULE[eq.sign], f"body of {eq.name}")

    et = c.infer(h.entry, eq_types)
    try:
        u.unify(et, PROP, "T-Entry", "entry formula")
    except TypeCheckError:
        raise TypeCheckError("T-Entry", f"entry formula must have type prop, got {u.resolve(et)}")

    # resolving an equation's type resolves its parameter types in order,
    # so the defaults recorded are those of resolving them one by one
    resolved = {n: u.resolve(t) for n, t in eq_types.items()}
    new_eqs = []
    for eq in h.equations:
        rparams = tuple(zip([p for p, _ in eq.params], arg_types(resolved[eq.name])))
        for p, pty in rparams:
            _validate(pty, "T-Abs", f"parameter {p} of {eq.name}")
        body = c.finalize(eq.body, {**resolved, **dict(rparams)})
        new_eqs.append(Equation(eq.name, rparams, eq.sign, body))
    entry = c.finalize(h.entry, resolved)
    return Hes(tuple(new_eqs), entry)


def formula_type(f: Formula, env: Optional[dict[str, SimpleType]] = None) -> SimpleType:
    """Type of an already-annotated formula (binders must carry types)."""
    env = env or {}
    match f:
        case Var(name):
            if name not in env:
                raise TypeCheckError("T-Var", f"unbound variable {name}")
            return env[name]
        case Or() | And() | Ge() | Forall() | Exists():
            return PROP
        case Abs(name, ty, body) | Mu(name, ty, body) | Nu(name, ty, body):
            if ty is None:
                raise TypeCheckError(_RULE[type(f)], f"missing annotation on {name}")
            return Arrow(ty, formula_type(body, {**env, name: ty})) if type(f) is Abs else ty
        case App(head, args):
            ft = formula_type(head, env)
            for a in args:
                if not isinstance(ft, Arrow):
                    rule = "T-AppInt" if isinstance(a, IntExpr) else "T-App"
                    raise TypeCheckError(rule, f"application of non-function {ft}")
                ft = ft.ret
            return ft
    raise TypeCheckError("T-Var", f"not a formula: {f!r}")
