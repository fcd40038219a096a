"""Conversion between the equation view (Hes) and the nested-binder view
(Formula).

``hes_to_formula`` first renames the system apart with one ``NameSupply``:
each equation's parameters and body, as one closed lambda, then the entry go
through ``alpha_normalize_formula``, which keeps the equation names.  It
then inlines equations bottom-up: the last equation is turned into a
fixpoint binder and inserted into every earlier body and the entry, so
earlier equations end up binding outermost.  Each target gets one copy
with freshly named binders, made at its first occurrence, and every
occurrence in that target shares it; a target without one is kept as it is.
So binder names are unique per copy, not across the whole formula: two
binders with the same name are two positions of one subtree (or of equal
ones), which is what the name-keyed tags of ``tags`` rely on.

``formula_to_hes`` is the inverse direction: every fixpoint binder is
lambda-lifted into a named equation, with enclosing lambda- and
quantifier-bound variables added as leading parameters.
"""

from __future__ import annotations

import functools

from .syntax import (
    Abs, Equation, Formula, Hes, Mu, NameSupply, Nu, PROP, SimpleType,
    Var, alpha_normalize_formula, apply_vars, arg_types, arrow, free_vars,
    lambdas, map_children, names_in_formula, peel, replace_free,
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

    defined = {eq.name for eq in h.equations}
    for eq in h.equations:
        undef = (free_vars(eq.body) - {p for p, _ in eq.params}) - defined
        if undef:
            raise IllFormed(f"equation {eq.name} references undefined {sorted(undef)}")
    undef = free_vars(h.entry) - defined
    if undef:
        raise IllFormed(f"entry references undefined {sorted(undef)}")

    supply = NameSupply(defined)
    bodies = {
        eq.name: alpha_normalize_formula(lambdas(eq.params, eq.body), supply)
        for eq in h.equations
    }
    entry = alpha_normalize_formula(h.entry, supply)
    for eq in reversed(h.equations):
        closed = eq.sign(eq.name, _equation_type(eq), bodies.pop(eq.name))

        def inline(target: Formula) -> Formula:
            copy = functools.cache(lambda: alpha_normalize_formula(closed, supply))
            return replace_free(target, eq.name, copy)

        bodies = {n: inline(b) for n, b in bodies.items()}
        entry = inline(entry)
    return entry


def formula_to_hes(f: Formula) -> Hes:
    """Lambda-lift every fixpoint binder of a closed, typed formula into an
    equation.  Captured lambda/quantifier variables become extra leading
    parameters; equation order follows the traversal (outer fixpoints
    first), preserving nesting priority."""

    supply = NameSupply(names_in_formula(f) | {"Main"})
    lifter = _Lifter(supply)
    # every binder gets a fresh name, so fixpoint names are unique and each
    # can name its equation
    entry = lifter.lift(alpha_normalize_formula(f, supply), {})
    return Hes(tuple(lifter.equations), entry)


class _Lifter:
    """The equations lifted so far, in order, and the head that replaces
    each lifted fixpoint variable."""

    def __init__(self, supply: NameSupply):
        self.supply = supply
        self.equations: list[Equation] = []
        self.heads: dict[str, Formula] = {}

    def lift(self, g: Formula, env: dict[str, SimpleType]) -> Formula:
        heads, equations = self.heads, self.equations
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
                binders, rest = peel(self.lift(body, env), arg_types(ty), self.supply)
                params = captured + binders
                equations[slot] = Equation(name, tuple(params), type(g), rest)
                return head
        return map_children(g, self.lift, env)
