"""Tagged-type inference: decides which predicate argument positions carry
an extra integer companion.

A tagged argument type is either Int or a pair of a tagged predicate type
and a tag T/F; T means "values at this position travel with a companion
integer summarizing their magnitude".  Inference computes the least
tagging (fewest T, pointwise for the order F < T) satisfying:

* at every least-fixpoint binder, every predicate-typed argument position
  of the binder's own type is T on the use side, and every predicate
  variable free in its body is T (the unfolding budget must be computable
  from in-scope companions);
* argument positions whose tag is T force T on the free predicate
  variables of every argument placed there;
* applications equate the predicate parts (all inner tags) of argument
  and parameter; no subtyping coercions exist, matching an implementation
  that drops the subsumption rule.

Constraints are equalities plus monotone T-forcing, so a least solution
always exists; ``TagInferenceError`` is kept as a defensive signal only.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    Abs, And, App, AppInt, Exists, Forall, Formula, Ge, INT, IntType,
    Mu, Node, Nu, Or, PROP, SimpleType, Var, arg_types, arrow, free_vars,
    set_field,
)


class TagInferenceError(Exception):
    pass


# ---------------------------------------------------------------------------
# Resolved tagged types


class TaggedArg(Node):
    """A tagged argument type: TagInt, or TagPred(params, tag)."""

    __slots__ = ()

    def erase(self) -> SimpleType:
        raise NotImplementedError


class TagInt(TaggedArg):
    __slots__ = ()

    def erase(self) -> SimpleType:
        return INT


class TagPred(TaggedArg):
    __slots__ = ("params", "tag")  # tag: True = T (companion present)

    def __init__(self, params: tuple[TaggedArg, ...], tag: bool):
        set_field(self, "params", params)
        set_field(self, "tag", tag)

    def erase(self) -> SimpleType:
        return arrow([p.erase() for p in self.params], PROP)


TAG_INT = TagInt()


class TagDerivation(Node):
    """Tags for one normalized formula: the formula itself, a tagged
    argument type per binder name, and per least-fixpoint binder the
    use-side argument types (identical to the binder's own up to outermost
    tags).  Binder names are unique within one inlined copy, not across
    the formula: binders that share a name are equal subtrees, one copy at
    several positions (see ``convert``), and the last one walked sets the
    entry for the name."""

    __slots__ = ("formula", "binder", "mu_outer", "all_f")

    def __init__(
        self,
        formula: Formula,
        binder: dict[str, TaggedArg],
        mu_outer: dict[str, tuple[TaggedArg, ...]],
        all_f: bool = False,
    ):
        set_field(self, "formula", formula)
        set_field(self, "binder", binder)
        set_field(self, "mu_outer", mu_outer)
        set_field(self, "all_f", all_f)

    def to_json(self) -> str:
        import json

        def enc(t: TaggedArg):
            if isinstance(t, TagInt):
                return "int"
            return {"tag": "T" if t.tag else "F", "params": [enc(p) for p in t.params]}

        payload = {
            "binders": {n: enc(t) for n, t in sorted(self.binder.items())},
            "mu_use_side": {
                n: [enc(t) for t in ts] for n, ts in sorted(self.mu_outer.items())
            },
            "all_f": self.all_f,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Inference machinery: union-find cells plus implication edges


class _Cell:
    __slots__ = ("parent", "forced")

    def __init__(self):
        self.parent: Optional[_Cell] = None
        self.forced = False

    def find(self) -> "_Cell":
        c = self
        while c.parent is not None:
            c = c.parent
        # path compression
        d = self
        while d.parent is not None:
            d.parent, d = c, d.parent
        return c


def _union(a: _Cell, b: _Cell):
    ra, rb = a.find(), b.find()
    if ra is rb:
        return
    rb.parent = ra
    ra.forced = ra.forced or rb.forced


class _Tree:
    """Inference-time tagged argument type: int leaf or (cell, params)."""

    __slots__ = ("is_int", "cell", "params")

    def __init__(self, is_int: bool, cell: Optional[_Cell], params: list):
        self.is_int = is_int
        self.cell = cell
        self.params = params

    @staticmethod
    def for_type(ty: SimpleType) -> "_Tree":
        if isinstance(ty, IntType):
            return _Tree(True, None, [])
        return _Tree(False, _Cell(), [_Tree.for_type(a) for a in arg_types(ty)])


def _unify_arg(a: _Tree, b: _Tree):
    """Full equality of tagged argument types, outermost tags included."""
    if a.is_int != b.is_int:
        raise TagInferenceError("tag tree shape mismatch")
    if a.is_int:
        return
    _union(a.cell, b.cell)
    _unify_pred(a.params, b.params)


def _unify_pred(ps: list, qs: list):
    """Equality of tagged predicate types (parameter lists)."""
    if len(ps) != len(qs):
        raise TagInferenceError("tag tree arity mismatch")
    for p, q in zip(ps, qs):
        _unify_arg(p, q)


class _Inference:
    def __init__(self):
        self.binder: dict[str, _Tree] = {}
        self.mu_outer: dict[str, list[_Tree]] = {}
        # (cell, cells-to-force-when-cell-is-T)
        self.edges: list[tuple[_Cell, list[_Cell]]] = []

    def outer_cells(self, names, env: dict[str, _Tree]) -> list[_Cell]:
        out = []
        for n in sorted(names):
            t = env.get(n)
            if t is not None and not t.is_int:
                out.append(t.cell)
        return out

    def walk(self, f: Formula, env: dict[str, _Tree]) -> list:
        """Returns the predicate view (parameter trees) of ``f``."""
        match f:
            case Var(name):
                return env[name].params
            case Or(l, r) | And(l, r):
                self.walk(l, env)
                self.walk(r, env)
                return []
            case Ge():
                return []
            case Forall(v, body) | Exists(v, body):
                self.walk(body, {**env, v: _Tree(True, None, [])})
                return []
            case Abs(param, pty, body):
                tree = _Tree.for_type(pty)
                self.binder[param] = tree
                rest = self.walk(body, {**env, param: tree})
                return [tree] + rest
            case App(fn, arg):
                fview = self.walk(fn, env)
                if not fview:
                    raise TagInferenceError("application of a non-predicate")
                pos = fview[0]
                aview = self.walk(arg, env)
                if pos.is_int:
                    raise TagInferenceError("predicate argument at int position")
                _unify_pred(pos.params, aview)
                fv = free_vars(arg)
                self.edges.append((pos.cell, self.outer_cells(fv, env)))
                return fview[1:]
            case AppInt(fn, _):
                fview = self.walk(fn, env)
                if not fview or not fview[0].is_int:
                    raise TagInferenceError("integer argument at predicate position")
                return fview[1:]
            case Nu(name, ty, body):
                tree = _Tree.for_type(ty)
                self.binder[name] = tree
                bview = self.walk(body, {**env, name: tree})
                _unify_pred(tree.params, bview)
                return tree.params
            case Mu(name, ty, body):
                inner = _Tree.for_type(ty)
                self.binder[name] = inner
                bview = self.walk(body, {**env, name: inner})
                _unify_pred(inner.params, bview)
                # use-side argument types: raw-equal to the inner ones
                outer = []
                for p in inner.params:
                    if p.is_int:
                        outer.append(p)
                    else:
                        o = _Tree(False, _Cell(), p.params)
                        o.cell.forced = True  # applied arguments are free in the body
                        outer.append(o)
                self.mu_outer[name] = outer
                # every free predicate variable of the body must carry a
                # companion so the unfolding budget can mention it
                for c in self.outer_cells(free_vars(f), env):
                    c.forced = True
                return outer
        raise TagInferenceError(f"not a formula: {f!r}")

    def propagate(self):
        changed = True
        while changed:
            changed = False
            for cell, targets in self.edges:
                if cell.find().forced:
                    for t in targets:
                        r = t.find()
                        if not r.forced:
                            r.forced = True
                            changed = True

    def resolve(self, t: _Tree, all_f: bool) -> TaggedArg:
        """The tagged type of ``t``; with ``all_f`` every tag is F."""
        if t.is_int:
            return TAG_INT
        params = tuple(self.resolve(p, all_f) for p in t.params)
        return TagPred(params, not all_f and t.cell.find().forced)


def infer_tags_formula(f: Formula, all_f: bool = False) -> TagDerivation:
    """Tag inference over a typed, alpha-normalized, closed formula.  With
    ``all_f`` every tag is F: no position carries a companion."""
    inf = _Inference()
    view = inf.walk(f, {})
    if view:
        raise TagInferenceError("tag inference expects a Prop-typed formula")
    inf.propagate()
    return TagDerivation(
        f,
        {n: inf.resolve(t, all_f) for n, t in inf.binder.items()},
        {n: tuple(inf.resolve(t, all_f) for t in ts) for n, ts in inf.mu_outer.items()},
        all_f=all_f,
    )
