"""Formula-to-formula rewrites: dualization, eta-expansion of partially
applied least-fixpoint predicates, quantifier desugaring, the elimination
of least fixpoints by counter-guarded greatest fixpoints with extra
integer arguments, and the removal of absolute values.

The least-fixpoint elimination works on the closed, inlined formula (not
equation-by-equation): a least fixpoint referenced from another equation
must have its counter threaded through that equation, which only the
nested-binder view gets right.  Every rewrite here is formula to formula;
``driver.prepare`` and ``driver.approximate`` chain them into the
pipeline, and ``convert.formula_to_hes`` lifts an approximation into
equations only for an external solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .syntax import (
    Abs, And, App, AppInt, Arrow, Equation, Exists, Forall, Formula, Ge, Hes,
    INT, IntAbs, IntExpr, IntType, IntVar, Lit, Mu, NameSupply, Nu, Or, Plus,
    PROP, Sign, SimpleType, Times, Var, apply_spine, arg_types, arrow,
    canon_ge, contains_int_abs, formula_has_int_abs, free_vars,
    int_free_vars, map_children, names_in_formula, neg_ge, peel,
    replace_free, shift_expr, spine,
)
from .tags import TAG_INT, TagDerivation, TagInt, TagPred, TaggedArg
from .typecheck import formula_type


class PartialMuApplication(Exception):
    """A least-fixpoint predicate occurred with fewer arguments than its
    arity; run eta-expansion first."""


class AbsInIllegalPosition(Exception):
    """An absolute value survived outside an argument position."""


@dataclass(frozen=True)
class ApproxParams:
    """One approximation attempt: (c, d) scale the unfolding budgets,
    (c_extra, d_extra) the companion arguments, and ``counters`` is the
    number of unfolding counters per least fixpoint."""

    c: int
    d: int
    c_extra: int
    d_extra: int
    counters: int = 1

    def __post_init__(self):
        if min(self.c, self.d, self.c_extra, self.d_extra) < 0:
            raise ValueError("coefficients must be non-negative")
        if self.counters < 1:
            raise ValueError("at least one counter")


# ---------------------------------------------------------------------------
# Dualization


def dualize(f: Formula) -> Formula:
    """De Morgan dual: mu/nu, and/or, forall/exists swapped and atoms
    complemented.  An involution on the canonical atoms produced by the
    parser and the transformation pipeline; always a semantic complement."""
    match f:
        case Or(l, r):
            return And(dualize(l), dualize(r))
        case And(l, r):
            return Or(dualize(l), dualize(r))
        case Ge(l, r):
            return neg_ge(l, r)
        case Mu(n, ty, b):
            return Nu(n, ty, dualize(b))
        case Nu(n, ty, b):
            return Mu(n, ty, dualize(b))
        case Forall(v, b):
            return Exists(v, dualize(b))
        case Exists(v, b):
            return Forall(v, dualize(b))
    return map_children(f, lambda g, _: dualize(g))


def dual_hes(h: Hes) -> Hes:
    eqs = tuple(
        Equation(
            eq.name,
            eq.params,
            Sign.NU if eq.sign is Sign.MU else Sign.MU,
            dualize(eq.body),
        )
        for eq in h.equations
    )
    return Hes(eqs, dualize(h.entry))


# ---------------------------------------------------------------------------
# Eta-expansion of partially applied least-fixpoint predicates


def eta_expand_mu_partials(f: Formula) -> Formula:
    """Wrap every under-applied occurrence of a least-fixpoint predicate
    (a mu binder or a variable bound by one) in lambdas so that the
    occurrence becomes syntactically fully applied.  Requires a typed
    formula."""

    supply = NameSupply(names_in_formula(f))

    def wrap(t: Formula, missing: list[SimpleType]) -> Formula:
        names = [supply.fresh("y") for _ in missing]
        body = t
        for n, ty in zip(names, missing):
            body = AppInt(body, IntVar(n)) if isinstance(ty, IntType) else App(body, Var(n))
        for n, ty in reversed(list(zip(names, missing))):
            body = Abs(n, ty, body)
        return body

    def go_head(g: Formula, env, mu_vars) -> Formula:
        """Spine heads are rebuilt without the standalone-occurrence wrap;
        the spine itself decides whether it is under-applied."""
        match g:
            case Mu(n, ty, b):
                return Mu(n, ty, go(b, {**env, n: ty}, mu_vars | {n}))
            case Var():
                return g
            case _:
                return go(g, env, mu_vars)

    def go(g: Formula, env: dict[str, SimpleType], mu_vars: set[str]) -> Formula:
        match g:
            case App() | AppInt():
                head, args = spine(g)
                head2 = go_head(head, env, mu_vars)
                args2 = [
                    a if isinstance(a, IntExpr) else go(a, env, mu_vars) for a in args
                ]
                rebuilt = apply_spine(head2, args2)
                headed_mu = isinstance(head, Mu) or (
                    isinstance(head, Var) and head.name in mu_vars
                )
                if headed_mu:
                    ty = formula_type(head, env)
                    missing = arg_types(ty)[len(args):]
                    if missing:
                        return wrap(rebuilt, missing)
                return rebuilt
            case Var(name):
                if name in mu_vars:
                    missing = arg_types(env[name])
                    if missing:
                        return wrap(g, missing)
                return g
            case Mu(n, ty, b):
                out = Mu(n, ty, go(b, {**env, n: ty}, mu_vars | {n}))
                missing = arg_types(ty)
                if missing:
                    return wrap(out, missing)
                return out
        return map_children(g, lambda h, env: go(h, env, mu_vars), env)

    return go(f, {}, set())


# ---------------------------------------------------------------------------
# Quantifier desugaring (for backends without native quantifiers)


def desugar_quantifiers(f: Formula) -> Formula:
    """Replace quantifiers by fixpoint predicates walking the integer line
    in both directions: universal by a greatest fixpoint, existential by a
    least fixpoint."""

    supply = NameSupply(names_in_formula(f))
    qty = Arrow(Arrow(INT, PROP), PROP)

    def encode(is_forall: bool, var: str, body: Formula) -> Formula:
        q = supply.fresh("Q")
        p = supply.fresh("p")
        x = supply.fresh("x")
        here = AppInt(Var(p), Lit(0))
        down = App(
            Var(q), Abs(x, INT, AppInt(Var(p), Plus(IntVar(x), Lit(-1))))
        )
        x2 = supply.fresh("x")
        up = App(
            Var(q), Abs(x2, INT, AppInt(Var(p), Plus(IntVar(x2), Lit(1))))
        )
        if is_forall:
            walker: Formula = Nu(q, qty, Abs(p, Arrow(INT, PROP), And(here, And(down, up))))
        else:
            walker = Mu(q, qty, Abs(p, Arrow(INT, PROP), Or(here, Or(down, up))))
        return App(walker, Abs(var, INT, body))

    def go(g: Formula, _=None) -> Formula:
        match g:
            case Forall(v, b):
                return encode(True, v, go(b))
            case Exists(v, b):
                return encode(False, v, go(b))
        return map_children(g, go)

    return go(f)


# ---------------------------------------------------------------------------
# Least-fixpoint elimination


def _tr_param_types(params: tuple[TaggedArg, ...]) -> list[SimpleType]:
    out: list[SimpleType] = []
    for p in params:
        if isinstance(p, TagInt):
            out.append(INT)
        else:
            inner = arrow(_tr_param_types(p.params), PROP)
            if p.tag:
                out.append(INT)
            out.append(inner)
    return out


def _tr_pred_type(params: tuple[TaggedArg, ...]) -> SimpleType:
    return arrow(_tr_param_types(params), PROP)


class _Eliminator:
    def __init__(self, der: TagDerivation, params: ApproxParams, supply: NameSupply):
        self.der = der
        self.p = params
        self.supply = supply

    # -- tagged views -------------------------------------------------------

    def view(self, f: Formula) -> tuple[TaggedArg, ...]:
        """Use-side tagged parameter list of a predicate-typed subterm."""
        match f:
            case Var(name):
                t = self.der.binder.get(name)
                return t.params if isinstance(t, TagPred) else ()
            case Abs(p, _, b):
                t = self.der.binder[p]
                return (t,) + self.view(b)
            case App(fn, _) | AppInt(fn, _):
                return self.view(fn)[1:]
            case Nu(n, _, _):
                t = self.der.binder[n]
                return t.params if isinstance(t, TagPred) else ()
            case Mu(n, _, _):
                return self.der.mu_outer[n]
            case _:
                return ()

    # -- budget expressions ---------------------------------------------------

    def _scaled(self, c: int, term: IntExpr) -> Optional[IntExpr]:
        if c == 0:
            return None
        if c == 1:
            return term
        return Times(Lit(c), term)

    def _fold(self, d: int, terms: list[Optional[IntExpr]]) -> IntExpr:
        acc: Optional[IntExpr] = None
        for t in terms:
            if t is not None:
                acc = t if acc is None else Plus(acc, t)
        if acc is None:
            return Lit(d)
        return shift_expr(acc, d)

    def scope_terms(self, c: int, names, delta: dict) -> list[Optional[IntExpr]]:
        """Contributions of in-scope variables: c*|x| for integers, c*v_x
        for companion-carrying predicates."""
        out = []
        for n in sorted(names):
            entry = delta.get(n)
            if entry is None:
                continue
            t, comp = entry
            if isinstance(t, TagInt):
                out.append(self._scaled(c, IntAbs(IntVar(n))))
            elif t.tag and comp is not None:
                out.append(self._scaled(c, IntVar(comp)))
        return out

    def companion_expr(self, arg: Formula, delta: dict) -> IntExpr:
        """The extra integer passed alongside a T-tagged argument."""
        return self._fold(
            self.p.d_extra, self.scope_terms(self.p.c_extra, free_vars(arg), delta)
        )

    # -- the transformation ---------------------------------------------------

    def tr(self, f: Formula, delta: dict) -> Formula:
        match f:
            case App() | AppInt():
                head, args = spine(f)
                if isinstance(head, Mu):
                    return self.tr_mu(head, args, delta)
                return self.tr_spine(head, args, delta)
            case Mu():
                return self.tr_mu(f, [], delta)
            case Forall(v, b):
                return Forall(v, self.tr(b, {**delta, v: (TAG_INT, None)}))
            case Exists(v, b):
                return Exists(v, self.tr(b, {**delta, v: (TAG_INT, None)}))
            case Abs():
                return self.tr_abs(f, delta)
            case Nu():
                return self.tr_nu(f, delta)
        return map_children(f, self.tr, delta)

    def tr_abs(self, f: Abs, delta: dict) -> Formula:
        t = self.der.binder[f.param]
        if isinstance(t, TagInt):
            body = self.tr(f.body, {**delta, f.param: (TAG_INT, None)})
            return Abs(f.param, INT, body)
        if t.tag:
            comp = self.supply.fresh(f"v_{f.param}")
            body = self.tr(f.body, {**delta, f.param: (t, comp)})
            return Abs(comp, INT, Abs(f.param, _tr_pred_type(t.params), body))
        body = self.tr(f.body, {**delta, f.param: (t, None)})
        return Abs(f.param, _tr_pred_type(t.params), body)

    def tr_spine(self, head: Formula, args: list, delta: dict) -> Formula:
        positions = self.view(head)
        out = self.tr(head, delta)
        for i, a in enumerate(args):
            if isinstance(a, IntExpr):
                out = AppInt(out, a)
                continue
            pos = positions[i] if i < len(positions) else None
            if isinstance(pos, TagPred) and pos.tag:
                out = AppInt(out, self.companion_expr(a, delta))
            out = App(out, self.tr(a, delta))
        return out

    def tr_nu(self, f: Nu, delta: dict) -> Formula:
        t = self.der.binder[f.name]
        assert isinstance(t, TagPred)
        if t.tag:
            comp = self.supply.fresh(f"v_{f.name}")
            body = self.tr(f.body, {**delta, f.name: (t, comp)})
            body = AppInt(Abs(comp, INT, body), self.companion_expr(f, delta))
        else:
            body = self.tr(f.body, {**delta, f.name: (t, None)})
        return Nu(f.name, _tr_pred_type(t.params), body)

    # -- least fixpoints -------------------------------------------------------

    def tr_mu(self, node: Mu, args: list, delta: dict) -> Formula:
        name = node.name
        inner = self.der.binder[name]
        assert isinstance(inner, TagPred)
        outer = self.der.mu_outer[name]
        n_params = len(outer)
        if len(args) != n_params:
            raise PartialMuApplication(
                f"least fixpoint {name} applied to {len(args)} of {n_params} arguments"
            )

        # transformed arguments and their companion expressions
        comp_exprs: list[Optional[IntExpr]] = []
        tr_args: list = []
        for a, pos in zip(args, outer):
            if isinstance(a, IntExpr):
                comp_exprs.append(None)
                tr_args.append(a)
            else:
                assert isinstance(pos, TagPred)
                if not pos.tag and not self.der.all_f:
                    raise ValueError(
                        f"derivation left a predicate argument of {name} untagged"
                    )
                comp_exprs.append(
                    self.companion_expr(a, delta) if pos.tag else None
                )
                tr_args.append(self.tr(a, delta))

        # initial unfolding budget, over the fully applied occurrence:
        # |x| for every integer variable free in it, v_x for companion-
        # carrying predicates referenced by the body, and the companion
        # expression of every predicate argument
        occ_fvs = set(free_vars(node))
        for a in args:
            occ_fvs |= int_free_vars(a) if isinstance(a, IntExpr) else free_vars(a)
        terms: list[Optional[IntExpr]] = []
        for x in sorted(occ_fvs):
            entry = delta.get(x)
            if entry is not None and isinstance(entry[0], TagInt):
                terms.append(self._scaled(self.p.c, IntAbs(IntVar(x))))
        for x in sorted(free_vars(node)):
            entry = delta.get(x)
            if entry is None:
                continue
            t, comp = entry
            if isinstance(t, TagPred) and t.tag and comp is not None:
                terms.append(self._scaled(self.p.c, IntVar(comp)))
        for ce in comp_exprs:
            if ce is not None:
                terms.append(self._scaled(self.p.c, ce))
        budget = self._fold(self.p.d, terms)

        # transform the body under the inner tagging
        comp_binder = self.supply.fresh(f"v_{name}") if inner.tag else None
        body = self.tr(node.body, {**delta, name: (inner, comp_binder)})
        binders, rest = peel(body, _tr_param_types(inner.params), self.supply)

        k = self.p.counters
        counters = [self.supply.fresh(f"u{i}") for i in reversed(range(k))]
        if k == 1:
            u = counters[0]
            step = AppInt(Var(name), Plus(IntVar(u), Lit(-1)))
            rest = replace_free(rest, name, lambda: step)
            rest = And(canon_ge(IntVar(u), Lit(1)), self._let_companion(comp_binder, node, delta, rest))
        else:
            rest = replace_free(
                rest, name, lambda: self._chooser(name, counters, inner, delta)
            )
            guarded = self._let_companion(comp_binder, node, delta, rest)
            for u in reversed(counters):
                guarded = And(canon_ge(IntVar(u), Lit(0)), guarded)
            rest = guarded

        for p, ty in reversed(binders):
            rest = Abs(p, ty, rest)
        for u in reversed(counters):
            rest = Abs(u, INT, rest)
        core_ty = arrow([INT] * k + _tr_param_types(inner.params), PROP)
        core: Formula = Nu(name, core_ty, rest)

        # the occurrence: initial budget(s), then the arguments
        for _ in range(k):
            core = AppInt(core, budget)
        for a, ce, pos_inner in zip(tr_args, comp_exprs, inner.params):
            if isinstance(a, IntExpr):
                core = AppInt(core, a)
                continue
            if isinstance(pos_inner, TagPred) and pos_inner.tag:
                assert ce is not None
                core = AppInt(core, ce)
            core = App(core, a)
        return core

    def _let_companion(
        self, comp: Optional[str], node: Mu, delta: dict, body: Formula
    ) -> Formula:
        if comp is None:
            return body
        return AppInt(Abs(comp, INT, body), self.companion_expr(node, delta))

    def _chooser(
        self, name: str, counters: list[str], inner: TagPred, delta: dict
    ) -> Formula:
        """The multi-counter recursion chooser: decrement one counter and
        reset all lower ones, universally quantified with a shared lower
        bound over the current counters and new argument magnitudes."""
        k = len(counters)
        fresh_params: list[tuple[str, Optional[str], TaggedArg]] = []
        for pos in inner.params:
            if isinstance(pos, TagInt):
                fresh_params.append((self.supply.fresh("y"), None, pos))
            else:
                y = self.supply.fresh("y")
                c = self.supply.fresh(f"v_{y}") if pos.tag else None
                fresh_params.append((y, c, pos))

        # magnitudes of the new arguments: |y| for ints, companions for
        # tagged predicates
        mags: list[Optional[IntExpr]] = []
        for y, c, pos in fresh_params:
            if isinstance(pos, TagInt):
                mags.append(self._scaled(self.p.c, IntAbs(IntVar(y))))
            elif c is not None:
                mags.append(self._scaled(self.p.c, IntVar(c)))
        counter_terms = [self._scaled(self.p.c, IntVar(u)) for u in counters]
        reset_bound = self._fold(self.p.d, counter_terms + mags)

        def call(counter_exprs: list[IntExpr]) -> Formula:
            out: Formula = Var(name)
            for e in counter_exprs:
                out = AppInt(out, e)
            for y, c, pos in fresh_params:
                if isinstance(pos, TagInt):
                    out = AppInt(out, IntVar(y))
                else:
                    if isinstance(pos, TagPred) and pos.tag:
                        out = AppInt(out, IntVar(c))
                    out = App(out, Var(y))
            return out

        disjuncts: list[Formula] = []
        for j in range(k):  # j = 0 decrements the highest counter
            dec_idx = j
            resets = [self.supply.fresh("r") for _ in range(k - 1 - j)]
            exprs: list[IntExpr] = []
            for i, u in enumerate(counters):
                if i < dec_idx:
                    exprs.append(IntVar(u))
                elif i == dec_idx:
                    exprs.append(Plus(IntVar(u), Lit(-1)))
            exprs.extend(IntVar(r) for r in resets)
            body = call(exprs)
            if resets:
                # the shared lower bound may mention |y'| terms; premises
                # are comparisons, so expand the sign combinations here
                bounds = sign_bounds(reset_bound)
                prem: Optional[Formula] = None
                for r in resets:
                    for b in bounds:
                        ng = neg_ge(IntVar(r), b)
                        prem = ng if prem is None else Or(prem, ng)
                body = Or(prem, body)
                for r in reversed(resets):
                    body = Forall(r, body)
            disjuncts.append(body)
        out = disjuncts[-1]
        for d in reversed(disjuncts[:-1]):
            out = Or(d, out)
        for y, c, pos in reversed(fresh_params):
            if isinstance(pos, TagInt):
                out = Abs(y, INT, out)
            else:
                out = Abs(y, _tr_pred_type(pos.params), out)
                if c is not None:
                    out = Abs(c, INT, out)
        return out


def transform_formula(
    f: Formula, der: TagDerivation, params: ApproxParams
) -> Formula:
    """Counter-guarded elimination of least fixpoints on a normalized
    formula; output may contain absolute values (see eliminate_abs)."""
    supply = NameSupply(names_in_formula(f))
    return _Eliminator(der, params, supply).tr(f, {})


# ---------------------------------------------------------------------------
# Absolute-value elimination


def _split_abs(e: IntExpr) -> tuple[list[tuple[int, IntExpr]], list[IntExpr]]:
    """Decompose a budget expression into absolute-value terms (with their
    literal coefficients) and the remaining summands.  A literal factor is
    distributed over the sum it scales, as in ``2*(2*|x| + 2)`` -- a scaled
    companion that holds an absolute value."""
    absterms: list[tuple[int, IntExpr]] = []
    rest: list[IntExpr] = []

    def walk(t: IntExpr, k: int):
        match t:
            case Plus(l, r):
                walk(l, k)
                walk(r, k)
            case IntAbs(a):
                absterms.append((k, a))
            case Times(Lit(c), u) | Times(u, Lit(c)) if contains_int_abs(u):
                walk(u, k * c)
            case _ if contains_int_abs(t):
                raise AbsInIllegalPosition(f"non-linear absolute value in {t!r}")
            case Lit(n):
                rest.append(Lit(k * n))
            case _:
                rest.append(t if k == 1 else Times(Lit(k), t))

    walk(e, 1)
    return absterms, rest


def sign_bounds(e: IntExpr) -> list[IntExpr]:
    """All sign combinations of the absolute-value terms of ``e``: every
    expression in the result is a lower bound, and their maximum equals
    ``e``.  A single element (``e`` itself) when there is nothing to
    expand."""
    absterms, rest = _split_abs(e)
    if not absterms:
        return [e]
    out = []
    for signs in itertools.product((1, -1), repeat=len(absterms)):
        acc: Optional[IntExpr] = None
        for s, (c, a) in zip(signs, absterms):
            coeff = c * s
            term = a if coeff == 1 else Times(Lit(coeff), a)
            acc = term if acc is None else Plus(acc, term)
        for t in rest:
            # a trailing literal folds, keeping the bound canonical
            if isinstance(t, Lit) and acc is not None:
                acc = shift_expr(acc, t.value)
            else:
                acc = t if acc is None else Plus(acc, t)
        out.append(acc if acc is not None else Lit(0))
    return out


def eliminate_abs(f: Formula) -> Formula:
    """Replace each application argument containing absolute values with a
    universally quantified integer bounded below by every sign combination
    of the absolute-value terms.  Sound because such arguments only feed
    positions that are monotone in the argument (unfolding budgets and
    companions).  Requires a typed formula (lambda-wrapping non-Prop
    applications needs arities)."""

    supply = NameSupply(names_in_formula(f))

    def rewrite_spine(head: Formula, args: list, env: dict) -> Formula:
        head2 = go(head, env)
        args2 = [a if isinstance(a, IntExpr) else go(a, env) for a in args]
        pending: list[tuple[str, IntExpr]] = []
        final_args: list = []
        for a in args2:
            if isinstance(a, IntExpr) and contains_int_abs(a):
                u = supply.fresh("u")
                pending.append((u, a))
                final_args.append(IntVar(u))
            else:
                final_args.append(a)
        if not pending:
            return apply_spine(head2, final_args)

        ty = formula_type(apply_spine(head, args), env)
        pads = [(supply.fresh("q"), t) for t in arg_types(ty)]
        inner: Formula = apply_spine(head2, final_args)
        for q, t in pads:
            inner = AppInt(inner, IntVar(q)) if isinstance(t, IntType) else App(inner, Var(q))
        for u, e in reversed(pending):
            prem: Optional[Formula] = None
            for b in sign_bounds(e):
                ng = neg_ge(IntVar(u), b)
                prem = ng if prem is None else Or(prem, ng)
            inner = Forall(u, Or(prem, inner)) if prem is not None else inner
        for q, t in reversed(pads):
            inner = Abs(q, t, inner)
        return inner

    def go(g: Formula, env: dict) -> Formula:
        match g:
            case App() | AppInt():
                head, args = spine(g)
                return rewrite_spine(head, args, env)
            case Ge(l, r) if contains_int_abs(l) or contains_int_abs(r):
                raise AbsInIllegalPosition(f"absolute value in comparison {g!r}")
        return map_children(g, go, env)

    out = go(f, {})
    if formula_has_int_abs(out):
        raise AbsInIllegalPosition("absolute value survived elimination")
    return out
