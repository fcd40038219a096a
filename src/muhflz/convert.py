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
    Abs, Equation, Formula, Hes, Mu, NameSupply, Nu, PROP, Sign, SimpleType,
    Var, alpha_normalize, alpha_normalize_formula, apply_vars, arg_types,
    arrow, free_vars, lambdas, map_children, names_in_formula, names_in_hes,
    peel, replace_free,
)


class IllFormed(Exception):
    pass


def _equation_type(eq: Equation) -> SimpleType:
    types = [pty for _, pty in eq.params]
    if None in types:
        raise IllFormed(f"equation {eq.name} is untyped; run typecheck first")
    return arrow(types, PROP)


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
        body = lambdas(eq.params, bodies.pop(eq.name))
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


def formula_to_hes(f: Formula) -> Hes:
    """Lambda-lift every fixpoint binder of a closed, typed formula into an
    equation.  Captured lambda/quantifier variables become extra leading
    parameters; equation order follows the traversal (outer fixpoints
    first), preserving nesting priority."""

    supply = NameSupply(names_in_formula(f) | {"Main"})
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
                captured = [(c, env[c]) for c in sorted(fvs & set(env))]
                # occurrences of the fixpoint variable (and the lifted
                # definition itself) take the captured variables first
                head = heads[name] = apply_vars(Var(name), captured)
                # reserve the slot now: outer fixpoints must precede the
                # ones lifted out of their bodies
                slot = len(equations)
                equations.append(None)  # type: ignore[arg-type]
                # peel the parameter lambdas of the fixpoint's own type
                binders, rest = peel(lift(body, env), arg_types(ty), supply)
                params = captured + binders
                sign = Sign.MU if isinstance(g, Mu) else Sign.NU
                equations[slot] = Equation(name, tuple(params), sign, rest)
                return head
        return map_children(g, lift, env)

    entry = lift(f, {})
    return Hes(tuple(equations), entry)
