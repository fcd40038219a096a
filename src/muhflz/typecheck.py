"""Simple-type checking and inference for HES.

The concrete syntax carries no type annotations, so checking is inference:
every parameter and equation name gets a type variable, constraints are
collected along the standard rules (T-Var .. T-Mult), and unification
solves them.  Annotations already present on binders (programmatically
constructed formulas) are unified with the inferred types, so inconsistent
annotations are rejected.

Besides annotating binders, the pass normalizes applications: an argument
that is a bare variable of integer type moves from ``App`` to ``AppInt``
with an ``IntVar`` argument, so later passes can rely on the
formula/integer split being type-correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    Abs, And, App, AppInt, Arrow, Equation, Exists, Forall, Formula, Ge, Hes,
    INT, IntAbs, IntExpr, IntType, IntVar, Lit, Mu, Nu, Or, Plus, PROP,
    PropType, SimpleType, Times, Var, is_predicate_type, map_children,
)


class TypeCheckError(Exception):
    def __init__(self, rule: str, message: str):
        self.rule = rule
        super().__init__(f"[{rule}] {message}")


@dataclass(eq=False)
class _TyVar(SimpleType):
    """Inference-only placeholder; resolved away before the pass returns."""

    id: int

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

    def check_int(self, e: IntExpr, env: dict[str, SimpleType]) -> IntExpr:
        match e:
            case Lit():
                return e
            case IntVar(name):
                if name not in env:
                    raise TypeCheckError("T-Var", f"unbound variable {name}")
                self.u.unify(env[name], INT, "T-Var", name)
                return e
            case Plus(l, r):
                return Plus(self.check_int(l, env), self.check_int(r, env))
            case Times(l, r):
                return Times(self.check_int(l, env), self.check_int(r, env))
            case IntAbs(a):
                return IntAbs(self.check_int(a, env))
        raise TypeCheckError("T-Int", f"not an integer expression: {e!r}")

    def check(self, f: Formula, env: dict[str, SimpleType]) -> tuple[Formula, SimpleType]:
        u = self.u
        match f:
            case Var(name):
                if name not in env:
                    raise TypeCheckError("T-Var", f"unbound variable {name}")
                return f, env[name]
            case Or(l, r):
                lf, lt = self.check(l, env)
                rf, rt = self.check(r, env)
                u.unify(lt, PROP, "T-Or", "left operand")
                u.unify(rt, PROP, "T-Or", "right operand")
                return Or(lf, rf), PROP
            case And(l, r):
                lf, lt = self.check(l, env)
                rf, rt = self.check(r, env)
                u.unify(lt, PROP, "T-And", "left operand")
                u.unify(rt, PROP, "T-And", "right operand")
                return And(lf, rf), PROP
            case Ge(l, r):
                return Ge(self.check_int(l, env), self.check_int(r, env)), PROP
            case Forall(var, body):
                bf, bt = self.check(body, {**env, var: INT})
                u.unify(bt, PROP, "T-Or", "quantifier body")
                return Forall(var, bf), PROP
            case Exists(var, body):
                bf, bt = self.check(body, {**env, var: INT})
                u.unify(bt, PROP, "T-Or", "quantifier body")
                return Exists(var, bf), PROP
            case Abs(param, ann, body):
                pty: SimpleType = ann if ann is not None else u.fresh()
                bf, bt = self.check(body, {**env, param: pty})
                return Abs(param, pty, bf), Arrow(pty, bt)
            case Mu(name, ann, body) | Nu(name, ann, body):
                rule = "T-Mu" if isinstance(f, Mu) else "T-Nu"
                xty: SimpleType = ann if ann is not None else u.fresh()
                bf, bt = self.check(body, {**env, name: xty})
                u.unify(xty, bt, rule, f"fixpoint variable {name} and its body")
                ctor = Mu if isinstance(f, Mu) else Nu
                return ctor(name, xty, bf), xty
            case App(fn, arg):
                ff, ft = self.check(fn, env)
                argty = u.fresh()
                retty = u.fresh()
                u.unify(ft, Arrow(argty, retty), "T-App", "function position")
                af, at_ = self.check(arg, env)
                u.unify(argty, at_, "T-App", "argument")
                return App(ff, af), retty
            case AppInt(fn, arg):
                ff, ft = self.check(fn, env)
                retty = u.fresh()
                u.unify(ft, Arrow(INT, retty), "T-AppInt", "function position")
                af = self.check_int(arg, env)
                return AppInt(ff, af), retty
        raise TypeCheckError("T-Var", f"not a formula: {f!r}")

    def finalize(self, f: Formula, env: dict[str, SimpleType]) -> Formula:
        """Resolve type variables on binders and move integer-typed bare
        variables from App to AppInt."""
        u = self.u
        match f:
            case Abs(param, ty, body):
                rty = u.resolve(ty)
                _validate(rty, "T-Abs", f"parameter {param}")
                return Abs(param, rty, self.finalize(body, {**env, param: rty}))
            case Mu(name, ty, body) | Nu(name, ty, body):
                rule = "T-Mu" if isinstance(f, Mu) else "T-Nu"
                rty = u.resolve(ty)
                if not is_predicate_type(rty):
                    raise TypeCheckError(rule, f"fixpoint {name} has type {rty}, not a predicate type")
                _validate(rty, rule, f"fixpoint {name}")
                return type(f)(name, rty, self.finalize(body, {**env, name: rty}))
            case App(fn, arg):
                ffn = self.finalize(fn, env)
                if isinstance(arg, Var):
                    aty = u.resolve(env[arg.name]) if arg.name in env else None
                    if isinstance(aty, IntType):
                        return AppInt(ffn, IntVar(arg.name))
                return App(ffn, self.finalize(arg, env))
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

    Returns a new Hes with annotated binders and normalized App/AppInt
    nodes; raises TypeCheckError (tagged with the violated rule) otherwise.
    """
    c = _Checker()
    u = c.u
    eq_types: dict[str, SimpleType] = {}
    for eq in h.equations:
        if eq.name in eq_types:
            raise TypeCheckError("T-Var", f"duplicate equation {eq.name}")
        params = [(p, ty if ty is not None else u.fresh()) for p, ty in eq.params]
        ret: SimpleType = PROP
        for p, pty in reversed(params):
            ret = Arrow(pty, ret)
        eq_types[eq.name] = ret

    checked_bodies: dict[str, tuple[Formula, list[tuple[str, SimpleType]]]] = {}
    for eq in h.equations:
        ty = eq_types[eq.name]
        params = []
        t = ty
        for p, _ in eq.params:
            assert isinstance(t, Arrow)
            params.append((p, t.arg))
            t = t.ret
        env = {**eq_types, **dict(params)}
        bf, bt = c.check(eq.body, env)
        u.unify(bt, PROP, "T-Mu" if eq.sign.value == "mu" else "T-Nu", f"body of {eq.name}")
        checked_bodies[eq.name] = (bf, params)

    ef, et = c.check(h.entry, dict(eq_types))
    try:
        u.unify(et, PROP, "T-Entry", "entry formula")
    except TypeCheckError:
        raise TypeCheckError("T-Entry", f"entry formula must have type prop, got {u.resolve(et)}")

    new_eqs = []
    for eq in h.equations:
        bf, params = checked_bodies[eq.name]
        rparams = tuple((p, u.resolve(pty)) for p, pty in params)
        env = {**{n: u.resolve(t) for n, t in eq_types.items()}, **dict(rparams)}
        for p, pty in rparams:
            _validate(pty, "T-Abs", f"parameter {p} of {eq.name}")
        body = c.finalize(bf, env)
        new_eqs.append(Equation(eq.name, rparams, eq.sign, body))
    entry = c.finalize(ef, {n: u.resolve(t) for n, t in eq_types.items()})
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
        case Abs(param, ty, body):
            if ty is None:
                raise TypeCheckError("T-Abs", f"missing annotation on {param}")
            return Arrow(ty, formula_type(body, {**env, param: ty}))
        case Mu(name, ty, _) | Nu(name, ty, _):
            if ty is None:
                raise TypeCheckError("T-Mu", f"missing annotation on {name}")
            return ty
        case App(fn, _):
            ft = formula_type(fn, env)
            if not isinstance(ft, Arrow):
                raise TypeCheckError("T-App", f"application of non-function {ft}")
            return ft.ret
        case AppInt(fn, _):
            ft = formula_type(fn, env)
            if not isinstance(ft, Arrow):
                raise TypeCheckError("T-AppInt", f"application of non-function {ft}")
            return ft.ret
    raise TypeCheckError("T-Var", f"not a formula: {f!r}")
