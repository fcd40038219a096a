"""Conversion between the equation view (Hes) and the nested-binder view
(Formula).

``hes_to_formula`` inlines equations bottom-up: the last equation is turned
into a fixpoint binder and substituted into every earlier body and the
entry, so earlier equations end up binding outermost.  Since substitution
duplicates definitions that are used in several places, every inserted copy
has its binders refreshed to keep global uniqueness.

``formula_to_hes`` is the inverse direction: every fixpoint binder is
lambda-lifted into a named equation, with enclosing lambda- and
quantifier-bound variables added as leading parameters.
"""

from __future__ import annotations

from .syntax import (
    Abs, AppInt, Arrow, Equation, Formula, Hes, IntType, IntVar, Mu,
    NameSupply, Nu, PROP, Sign, SimpleType, Var, alpha_normalize,
    alpha_normalize_formula, arg_types, free_vars, map_children,
    names_in_formula, names_in_hes, peel, substitute,
)


class IllFormed(Exception):
    pass


def _equation_type(eq: Equation) -> SimpleType:
    ty: SimpleType = PROP
    for _, pty in reversed(eq.params):
        if pty is None:
            raise IllFormed(f"equation {eq.name} is untyped; run typecheck first")
        ty = Arrow(pty, ty)
    return ty


def hes_to_formula(h: Hes) -> Formula:
    """Close the equation system into a single formula, earlier equations
    binding outermost."""

    h = alpha_normalize(h)
    supply = NameSupply(names_in_hes(h))
    defined = {eq.name for eq in h.equations}
    for eq in h.equations:
        undef = (free_vars(eq.body) - {p for p, _ in eq.params}) - defined
        if undef:
            raise IllFormed(f"equation {eq.name} references undefined {sorted(undef)}")
    undef = free_vars(h.entry) - defined
    if undef:
        raise IllFormed(f"entry references undefined {sorted(undef)}")

    bodies = {eq.name: eq.body for eq in h.equations}
    entry = h.entry
    for eq in reversed(h.equations):
        body = bodies.pop(eq.name)
        for p, pty in reversed(eq.params):
            body = Abs(p, pty, body)
        ctor = Mu if eq.sign is Sign.MU else Nu
        closed = ctor(eq.name, _equation_type(eq), body)

        def inline(target: Formula) -> Formula:
            if eq.name not in free_vars(target):
                return target
            return substitute(target, {eq.name: alpha_normalize_formula(closed, supply)})

        bodies = {n: inline(b) for n, b in bodies.items()}
        entry = inline(entry)
    return entry


def formula_to_hes(f: Formula, entry_name_hint: str = "Main") -> Hes:
    """Lambda-lift every fixpoint binder of a closed, typed formula into an
    equation.  Captured lambda/quantifier variables become extra leading
    parameters; equation order follows the traversal (outer fixpoints
    first), preserving nesting priority."""

    supply = NameSupply(names_in_formula(f) | {entry_name_hint})
    f = alpha_normalize_formula(f, supply)
    equations: list[Equation] = []

    def lift(g: Formula, env: dict[str, SimpleType]) -> Formula:
        match g:
            case Abs(_, None, _) | Mu(_, None, _) | Nu(_, None, _):
                raise IllFormed("formula_to_hes requires a typed formula")
            case Mu(name, ty, body) | Nu(name, ty, body):
                captured = sorted(free_vars(g) & set(env))
                taken = {e.name for e in equations if e is not None}
                eqname = name if name not in taken else supply.fresh(name)
                # occurrences of the fixpoint variable (and the lifted
                # definition itself) take the captured variables first
                head: Formula = Var(eqname)
                for c in captured:
                    head = AppInt(head, IntVar(c)) if isinstance(env[c], IntType) else App(head, Var(c))
                # reserve the slot now: outer fixpoints must precede the
                # ones lifted out of their bodies
                slot = len(equations)
                equations.append(None)  # type: ignore[arg-type]
                body2 = substitute(body, {name: head}) if name in free_vars(body) else body
                body2 = lift(body2, env)
                # peel the parameter lambdas of the fixpoint's own type
                binders, rest = peel(body2, arg_types(ty), supply)
                params = [(c, env[c]) for c in captured] + binders
                sign = Sign.MU if isinstance(g, Mu) else Sign.NU
                equations[slot] = Equation(eqname, tuple(params), sign, rest)
                return head
        return map_children(g, lift, env)

    entry = lift(f, {})
    return Hes(tuple(equations), entry)
