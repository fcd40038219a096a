"""Formula-to-formula rewrites: dualization, eta-expansion of partially
applied least-fixpoint predicates, quantifier desugaring, the elimination
of least fixpoints by counter-guarded greatest fixpoints with extra
integer arguments, and the removal of absolute values.

The least-fixpoint elimination works on the closed, inlined formula (not
equation-by-equation): a least fixpoint referenced from another equation
must have its counter threaded through that equation, which only the
nested-binder view gets right.  Every rewrite here is formula to formula;
``driver.prepare`` and ``driver.approximate`` chain them into the
pipeline.  ``backend.lower`` is the one step that only external solvers
need: it desugars an approximation's quantifiers when the solver lacks
them and lifts the result into equations.

In the least-fixpoint elimination each construction has one helper.
``_Eliminator.companion`` makes every companion binder (the integer that
travels with a T-tagged predicate), ``bind`` extends the scope with a
binder and its companion, and ``let_companion`` binds a companion to its
value.  ``_apply_tagged`` applies a head to arguments with their
companions, and ``_tr_type`` is a binder's type after elimination.
``magnitude`` is the budget term c*|x| of an integer or c*v_x of a
companion, and ``_forall_at_least`` quantifies a budget or a counter reset
under its sign-bound premise.  Every lambda spine and every application
to bound variables, eta-expansion included, is built by ``syntax.lambdas``
and ``syntax.apply_vars``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from .syntax import (
    Abs, And, App, AppInt, Arrow, Equation, Exists, Forall, Formula, Ge, Hes,
    INT, IntAbs, IntExpr, IntVar, Lit, Mu, NameSupply, Node, Nu, Or, Plus,
    PROP, Sign, SimpleType, Times, Var, apply_spine, apply_vars, arg_types,
    arrow, canon_ge, contains_int_abs, formula_has_int_abs, free_vars,
    int_free_vars, lambdas, map_children, names_in_formula, neg_ge, peel,
    replace_free, set_field, shift_expr, spine,
)
from .tags import TAG_INT, TagDerivation, TagInt, TagPred, TaggedArg
from .typecheck import formula_type


class PartialMuApplication(Exception):
    """A least-fixpoint predicate occurred with fewer arguments than its
    arity; run eta-expansion first."""


class AbsInIllegalPosition(Exception):
    """An absolute value survived outside an argument position."""


class ApproxParams(Node):
    """One approximation attempt: (c, d) scale the unfolding budgets,
    (c_extra, d_extra) the companion arguments, and ``counters`` is the
    number of unfolding counters per least fixpoint."""

    __slots__ = ("c", "d", "c_extra", "d_extra", "counters")

    def __init__(self, c: int, d: int, c_extra: int, d_extra: int, counters: int = 1):
        if min(c, d, c_extra, d_extra) < 0:
            raise ValueError("coefficients must be non-negative")
        if counters < 1:
            raise ValueError("at least one counter")
        set_field(self, "c", c)
        set_field(self, "d", d)
        set_field(self, "c_extra", c_extra)
        set_field(self, "d_extra", d_extra)
        set_field(self, "counters", counters)


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
    occurrence becomes syntactically fully applied.  The arity is read off
    the mu's type annotation; a binder that rebinds the name ends the
    mu's scope."""

    supply = NameSupply(names_in_formula(f))

    def go(g: Formula, mus: dict[str, SimpleType]) -> Formula:
        t = type(g)
        if t is App or t is AppInt or t is Var or t is Mu:
            # a lone variable or mu is a spine without arguments
            head, args = spine(g)
            ty = None
            if type(head) is Mu:
                ty = head.ty
                head = Mu(head.name, ty, go(head.body, {**mus, head.name: ty}))
            elif type(head) is Var:
                ty = mus.get(head.name)
            else:
                head = go(head, mus)
            out = apply_spine(head, [a if isinstance(a, IntExpr) else go(a, mus) for a in args])
            if ty is None:
                return out
            ys = [(supply.fresh("y"), a) for a in arg_types(ty)[len(args):]]
            return lambdas(ys, apply_vars(out, ys))
        if t is Abs or t is Nu or t is Forall or t is Exists:
            bound = g.param if t is Abs else g.name if t is Nu else g.var
            if bound in mus:
                mus = {n: ty for n, ty in mus.items() if n != bound}
        return map_children(g, lambda h, _: go(h, mus))

    return go(f, {})


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


def _carries(t: TaggedArg) -> bool:
    """Whether a binder or argument of tagged type ``t`` has a companion."""
    return isinstance(t, TagPred) and t.tag


def _tr_type(t: TaggedArg) -> SimpleType:
    """The type of a binder of tagged type ``t`` after elimination; its
    companion, if any, is bound just before it."""
    return INT if isinstance(t, TagInt) else arrow(_tr_param_types(t.params), PROP)


def _tr_param_types(params: tuple[TaggedArg, ...]) -> list[SimpleType]:
    out: list[SimpleType] = []
    for p in params:
        if _carries(p):
            out.append(INT)
        out.append(_tr_type(p))
    return out


def _apply_tagged(head: Formula, args: list) -> Formula:
    """``head`` applied to ``(argument, companion)`` pairs in order; a
    companion that is not None is passed just before its argument."""
    flat: list = []
    for a, comp in args:
        if comp is not None:
            flat.append(comp)
        flat.append(a)
    return apply_spine(head, flat)


class _Eliminator:
    """The scope ``delta`` maps each bound name to its tagged type and the
    name of its companion binder (None if it has none)."""

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

    # -- binders and companions -----------------------------------------------

    def companion(self, name: str, t: TaggedArg) -> Optional[str]:
        """A fresh companion binder for a binder ``name`` of tagged type
        ``t``, or None if ``t`` carries no companion."""
        return self.supply.fresh(f"v_{name}") if _carries(t) else None

    def bind(self, name: str, t: TaggedArg, delta: dict) -> tuple[Optional[str], dict]:
        """The companion binder of ``name`` and the scope extended by it."""
        comp = self.companion(name, t)
        return comp, {**delta, name: (t, comp)}

    def let_companion(
        self, comp: Optional[str], f: Formula, delta: dict, body: Formula
    ) -> Formula:
        """``body`` with ``comp``, if any, bound to the companion value of ``f``."""
        if comp is None:
            return body
        return AppInt(Abs(comp, INT, body), self.companion_expr(f, delta))

    # -- budget expressions ---------------------------------------------------

    def _scaled(self, c: int, term: IntExpr) -> Optional[IntExpr]:
        if c == 0:
            return None
        if c == 1:
            return term
        return Times(Lit(c), term)

    def _fold(self, d: int, terms: list[Optional[IntExpr]]) -> IntExpr:
        present = [t for t in terms if t is not None]
        return shift_expr(functools.reduce(Plus, present), d) if present else Lit(d)

    def magnitude(self, c: int, name: str, t: TaggedArg, comp: Optional[str]) -> Optional[IntExpr]:
        """c*|x| for an integer ``x``, c*v_x for a predicate with companion
        ``v_x``, nothing for a predicate without one."""
        if isinstance(t, TagInt):
            return self._scaled(c, IntAbs(IntVar(name)))
        return None if comp is None else self._scaled(c, IntVar(comp))

    def scope_terms(self, c: int, names, delta: dict, kind: type = TaggedArg) -> list:
        """The magnitudes of the in-scope variables among ``names`` whose
        tagged type is a ``kind``, by name."""
        return [
            self.magnitude(c, n, *delta[n])
            for n in sorted(names)
            if n in delta and isinstance(delta[n][0], kind)
        ]

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
                out = self.tr(head, delta)
                return _apply_tagged(out, self.tr_args(args, self.view(head), delta))
            case Mu():
                return self.tr_mu(f, [], delta)
            case Forall(v, b) | Exists(v, b):
                _, scope = self.bind(v, TAG_INT, delta)
                return type(f)(v, self.tr(b, scope))
            case Abs(p, _, b):
                t = self.der.binder[p]
                comp, scope = self.bind(p, t, delta)
                out = Abs(p, _tr_type(t), self.tr(b, scope))
                return out if comp is None else Abs(comp, INT, out)
            case Nu(n, _, b):
                t = self.der.binder[n]
                comp, scope = self.bind(n, t, delta)
                return Nu(n, _tr_type(t), self.let_companion(comp, f, delta, self.tr(b, scope)))
        return map_children(f, self.tr, delta)

    def tr_args(self, args: list, positions, delta: dict) -> list:
        """Each argument transformed, paired with its companion value where
        its position carries one."""
        out = []
        for a, pos in zip(args, itertools.chain(positions, itertools.repeat(None))):
            if isinstance(a, IntExpr):
                out.append((a, None))
            else:
                comp = self.companion_expr(a, delta) if _carries(pos) else None
                out.append((self.tr(a, delta), comp))
        return out

    # -- least fixpoints -------------------------------------------------------

    def tr_mu(self, node: Mu, args: list, delta: dict) -> Formula:
        name = node.name
        inner = self.der.binder[name]
        outer = self.der.mu_outer[name]
        if len(args) != len(outer):
            raise PartialMuApplication(
                f"least fixpoint {name} applied to {len(args)} of {len(outer)} arguments"
            )
        # every predicate argument is T-tagged on the use side (unless all_f)
        tr_args = self.tr_args(args, outer, delta)

        # initial unfolding budget, over the fully applied occurrence:
        # |x| for every integer variable free in it, v_x for companion-
        # carrying predicates referenced by the body, and the companion
        # expression of every predicate argument
        c = self.p.c
        occ_fvs = set(free_vars(node))
        for a in args:
            occ_fvs |= int_free_vars(a) if isinstance(a, IntExpr) else free_vars(a)
        budget = self._fold(
            self.p.d,
            self.scope_terms(c, occ_fvs, delta, TagInt)
            + self.scope_terms(c, free_vars(node), delta, TagPred)
            + [self._scaled(c, ce) for _, ce in tr_args if ce is not None],
        )

        # transform the body under the inner tagging
        comp, scope = self.bind(name, inner, delta)
        binders, rest = peel(self.tr(node.body, scope), _tr_param_types(inner.params), self.supply)

        k = self.p.counters
        counters = [self.supply.fresh(f"u{i}") for i in reversed(range(k))]
        if k == 1:
            step = AppInt(Var(name), Plus(IntVar(counters[0]), Lit(-1)))
            rest = replace_free(rest, name, lambda: step)
            guards = [canon_ge(IntVar(counters[0]), Lit(1))]
        else:
            rest = replace_free(rest, name, lambda: self._chooser(name, counters, inner))
            guards = [canon_ge(IntVar(u), Lit(0)) for u in counters]
        rest = self.let_companion(comp, node, delta, rest)
        for g in reversed(guards):
            rest = And(g, rest)
        rest = lambdas([(u, INT) for u in counters] + binders, rest)
        core = Nu(name, arrow([INT] * k + _tr_param_types(inner.params), PROP), rest)

        # the occurrence: initial budget(s), then the arguments, each with
        # its companion where the inner tagging takes one
        return _apply_tagged(core, [(budget, None)] * k + [
            (a, ce if _carries(pos) else None) for (a, ce), pos in zip(tr_args, inner.params)
        ])

    def _chooser(self, name: str, counters: list[str], inner: TagPred) -> Formula:
        """The multi-counter recursion chooser: decrement one counter and
        reset all lower ones, universally quantified with a shared lower
        bound over the current counters and new argument magnitudes."""
        fresh_params = []
        for pos in inner.params:
            y = self.supply.fresh("y")
            fresh_params.append((y, pos, self.companion(y, pos)))
        c = self.p.c
        reset_bound = self._fold(
            self.p.d,
            [self._scaled(c, IntVar(u)) for u in counters]
            + [self.magnitude(c, y, pos, comp) for y, pos, comp in fresh_params],
        )

        disjuncts: list[Formula] = []
        for j in range(len(counters)):  # j = 0 decrements the highest counter
            resets = [self.supply.fresh("r") for _ in range(len(counters) - 1 - j)]
            exprs = [IntVar(u) for u in counters[:j]] + [Plus(IntVar(counters[j]), Lit(-1))]
            exprs += [IntVar(r) for r in resets]
            body = _apply_tagged(Var(name), [(e, None) for e in exprs] + [
                (IntVar(y), None) if isinstance(pos, TagInt)
                else (Var(y), None if comp is None else IntVar(comp))
                for y, pos, comp in fresh_params
            ])
            if resets:
                body = _forall_at_least(resets, reset_bound, body)
            disjuncts.append(body)
        out = disjuncts[-1]
        for d in reversed(disjuncts[:-1]):
            out = Or(d, out)
        binders = []
        for y, pos, comp in fresh_params:
            if comp is not None:
                binders.append((comp, INT))
            binders.append((y, _tr_type(pos)))
        return lambdas(binders, out)


def transform_formula(der: TagDerivation, params: ApproxParams) -> Formula:
    """Counter-guarded elimination of least fixpoints on the normalized
    ``der.formula``; output may contain absolute values (see eliminate_abs)."""
    supply = NameSupply(names_in_formula(der.formula))
    return _Eliminator(der, params, supply).tr(der.formula, {})


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


def _forall_at_least(names: list[str], e: IntExpr, body: Formula) -> Formula:
    """``body`` for every value of each of ``names`` that is at least ``e``:
    the premise ``u < b`` for each name ``u`` and sign bound ``b`` of ``e``,
    one disjunction under one universal per name."""
    bounds = sign_bounds(e)
    prem = functools.reduce(Or, [neg_ge(IntVar(u), b) for u in names for b in bounds])
    out: Formula = Or(prem, body)
    for u in reversed(names):
        out = Forall(u, out)
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
        inner = apply_vars(apply_spine(head2, final_args), pads)
        for u, e in reversed(pending):
            inner = _forall_at_least([u], e, inner)
        return lambdas(pads, inner)

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
