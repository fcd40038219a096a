"""Conversion between the equation view (Hes) and the nested-binder view
(Formula).

``hes_to_formula`` inlines equations bottom-up: the last equation is turned
into a fixpoint binder and inserted into every earlier body and the entry,
so earlier equations end up binding outermost.  Each target gets one copy
with freshly named binders, and every occurrence in that target shares it.
So binder names are unique per copy, not across the whole formula: two
binders with the same name are two positions of one subtree (or of equal
ones), which is what the name-keyed tags of ``tags`` rely on.

``formula_to_hes`` is the inverse direction: every fixpoint binder is
lambda-lifted into a named equation, with enclosing lambda- and
quantifier-bound variables added as leading parameters.
"""

from __future__ import annotations

from .syntax import (
    Abs, App, AppInt, Arrow, Equation, Formula, Hes, IntType, IntVar, Mu,
    NameSupply, Nu, PROP, Sign, SimpleType, Var, alpha_normalize,
    alpha_normalize_formula, arg_types, free_vars, map_children,
    names_in_formula, names_in_hes, peel, replace_free,
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
            copy = alpha_normalize_formula(closed, supply)
            return replace_free(target, eq.name, lambda: copy)

        bodies = {n: inline(b) for n, b in bodies.items()}
        entry = inline(entry)
    return entry


def formula_to_hes(f: Formula, entry_name_hint: str = "Main") -> Hes:
    """Lambda-lift every fixpoint binder of a closed, typed formula into an
    equation.  Captured lambda/quantifier variables become extra leading
    parameters; equation order follows the traversal (outer fixpoints
    first), preserving nesting priority."""

    supply = NameSupply(names_in_formula(f) | {entry_name_hint})
    # every binder gets a fresh name, so fixpoint names are unique and each
    # can name its equation
    f = alpha_normalize_formula(f, supply)
    equations: list[Equation] = []
    heads: dict[str, Formula] = {}

    def lift(g: Formula, env: dict[str, SimpleType]) -> Formula:
        match g:
            case Var(name) if name in heads:
                return heads[name]
            case Abs(_, None, _) | Mu(_, None, _) | Nu(_, None, _):
                raise IllFormed("formula_to_hes requires a typed formula")
            case Mu(name, ty, body) | Nu(name, ty, body):
                # free in g once each enclosing fixpoint is replaced by its head
                fvs = free_vars(g)
                for n in fvs & heads.keys():
                    fvs |= free_vars(heads[n])
                captured = sorted(fvs & set(env))
                # occurrences of the fixpoint variable (and the lifted
                # definition itself) take the captured variables first
                head: Formula = Var(name)
                for c in captured:
                    head = AppInt(head, IntVar(c)) if isinstance(env[c], IntType) else App(head, Var(c))
                heads[name] = head
                # reserve the slot now: outer fixpoints must precede the
                # ones lifted out of their bodies
                slot = len(equations)
                equations.append(None)  # type: ignore[arg-type]
                # peel the parameter lambdas of the fixpoint's own type
                binders, rest = peel(lift(body, env), arg_types(ty), supply)
                params = [(c, env[c]) for c in captured] + binders
                sign = Sign.MU if isinstance(g, Mu) else Sign.NU
                equations[slot] = Equation(name, tuple(params), sign, rest)
                return head
        return map_children(g, lift, env)

    entry = lift(f, {})
    return Hes(tuple(equations), entry)
