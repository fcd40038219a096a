"""Random well-typed closed Prop HES instances for the property suites.

Instances are small by construction: depth <= 4, at most two fixpoint
definitions, types of order <= 2 drawn from a fixed pool.  Bodies mix
comparisons, boolean connectives, quantifiers and (sometimes guarded)
recursive calls, so a healthy fraction of instances exercises the
least-fixpoint machinery without escaping small windows.
"""

from __future__ import annotations

import random

from muhflz.syntax import (
    Abs, And, App, Arrow, Equation, Exists, Forall, Formula, Ge, Hes,
    INT, IntExpr, IntVar, Lit, Mu, Nu, Or, Plus, PROP, SimpleType, Times, Var,
    arg_types, canon_ge,
)
from muhflz.typecheck import typecheck

_PRED_TYPES = [
    Arrow(INT, PROP),
    Arrow(INT, Arrow(INT, PROP)),
    Arrow(Arrow(INT, PROP), PROP),
]


def _plus(a: IntExpr, b: IntExpr) -> IntExpr:
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value + b.value)
    if isinstance(b, Lit) and b.value == 0:
        return a
    return Plus(a, b)


def _times(a: IntExpr, b: IntExpr) -> IntExpr:
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value * b.value)
    return Times(a, b)


def _gen_iexpr(rng: random.Random, ints: list[str], depth: int) -> IntExpr:
    roll = rng.random()
    if depth <= 0 or roll < 0.35 or not ints:
        if ints and rng.random() < 0.7:
            return IntVar(rng.choice(ints))
        return Lit(rng.randint(-2, 2))
    if roll < 0.75:
        return _plus(_gen_iexpr(rng, ints, depth - 1), _gen_iexpr(rng, ints, depth - 1))
    return _times(Lit(rng.choice([-1, 1, 2])), _gen_iexpr(rng, ints, depth - 1))


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh = 0

    def name(self, base: str) -> str:
        self.fresh += 1
        return f"{base}{self.fresh}"

    def prop(self, env: dict[str, SimpleType], depth: int) -> Formula:
        rng = self.rng
        ints = [n for n, t in env.items() if t is INT or isinstance(t, type(INT))]
        preds = [(n, t) for n, t in env.items() if isinstance(t, Arrow)]
        choices = ["cmp", "cmp"]
        if depth > 0:
            choices += ["and", "or", "quant"]
            if preds:
                choices += ["call", "call"]
        pick = rng.choice(choices)
        if pick == "cmp":
            # canonical atoms: the same shape the parser produces
            return canon_ge(_gen_iexpr(rng, ints, 1), _gen_iexpr(rng, ints, 1))
        if pick == "and":
            return And(self.prop(env, depth - 1), self.prop(env, depth - 1))
        if pick == "or":
            return Or(self.prop(env, depth - 1), self.prop(env, depth - 1))
        if pick == "quant":
            v = self.name("q")
            body = self.prop({**env, v: INT}, depth - 1)
            return Forall(v, INT, body) if rng.random() < 0.5 else Exists(v, INT, body)
        name, ty = rng.choice(preds)
        out: Formula = Var(name)
        for aty in arg_types(ty):
            if aty is INT or isinstance(aty, type(INT)):
                out = App(out, _gen_iexpr(rng, ints, 1))
            else:
                out = App(out, self.pred_arg(env, aty, depth - 1))
        return out

    def pred_arg(self, env: dict[str, SimpleType], ty: Arrow, depth: int) -> Formula:
        rng = self.rng
        matching = [n for n, t in env.items() if t == ty]
        if matching and rng.random() < 0.5:
            return Var(rng.choice(matching))
        params = arg_types(ty)
        names = [self.name("a") for _ in params]
        inner = dict(env)
        inner.update(zip(names, params))
        body = self.prop(inner, max(depth, 0))
        for n, t in reversed(list(zip(names, params))):
            body = Abs(n, t, body)
        return body


def random_instance(seed: int, *, max_depth: int = 4) -> Hes:
    rng = random.Random(seed)
    g = _Gen(rng)
    n_eqs = rng.choice([0, 1, 1, 1, 2, 2])
    sigs = []
    for i in range(n_eqs):
        n_params = rng.choice([1, 1, 2])
        params = []
        for _ in range(n_params):
            if rng.random() < 0.75:
                params.append((g.name("x"), INT))
            else:
                params.append((g.name("p"), Arrow(INT, PROP)))
        ty: SimpleType = PROP
        for _, pt in reversed(params):
            ty = Arrow(pt, ty)
        sigs.append((f"X{i + 1}", params, ty))

    eq_env = {name: ty for name, _, ty in sigs}
    equations = []
    for name, params, ty in sigs:
        env = {**eq_env, **dict(params)}
        body = g.prop(env, max_depth - 1)
        int_params = [p for p, t in params if t is INT]
        if int_params and rng.random() < 0.75:
            # guarded self-recursion keeps a good share of instances
            # meaningful: base case or recurse on a shifted argument
            v = rng.choice(int_params)
            base = canon_ge(Lit(rng.randint(-1, 1)), IntVar(v)) if rng.random() < 0.5 else canon_ge(
                IntVar(v), Lit(rng.randint(-1, 1))
            )
            rec: Formula = Var(name)
            for p, t in params:
                if p == v:
                    rec = App(rec, Plus(IntVar(p), Lit(rng.choice([-1, 1]))))
                elif t is INT:
                    rec = App(rec, IntVar(p))
                else:
                    rec = App(rec, Var(p))
            body = Or(base, And(body, rec) if rng.random() < 0.3 else rec)
        sign = Mu if rng.random() < 0.6 else Nu
        equations.append(Equation(name, tuple(params), sign, body))

    entry = g.prop(eq_env, max_depth - 1)
    if equations and rng.random() < 0.85:
        # make sure the entry actually exercises an equation
        name, params, ty = rng.choice(sigs)
        call: Formula = Var(name)
        for _, pt in params:
            if pt is INT:
                call = App(call, _gen_iexpr(rng, [], 1))
            else:
                call = App(call, g.pred_arg(eq_env, pt, 1))
        entry = call if rng.random() < 0.6 else Or(entry, call)
    h = Hes(tuple(equations), entry)
    return typecheck(h)


def instances(count: int, *, start: int = 0, max_depth: int = 4):
    """Deterministic stream of typechecked instances."""
    for seed in range(start, start + count):
        yield seed, random_instance(seed, max_depth=max_depth)
