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
always exists.  ``TagInferenceError`` refuses a formula that is not closed
(every name must belong to a binder) and is otherwise a defensive signal.
"""

from __future__ import annotations

from typing import Optional

from .syntax import (
    Abs, And, App, Exists, Forall, Formula, Ge, INT, IntExpr, IntType,
    Mu, Node, Nu, Or, PROP, SimpleType, Var, arg_types, arrow, free_vars,
    int_free_vars, json_text, set_field,
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
    """Tags for one normalized, closed formula: the formula itself, a
    tagged argument type per binder name (``TAG_INT`` for a quantified
    variable), and ``mus``, the names of its least-fixpoint binders, each
    of whose use sides ``use_side`` reads off its binder.  Binder names are
    unique within one inlined copy, not across the formula: binders that
    share a name are equal subtrees, one copy at several positions (see
    ``convert``), and the last one walked sets the entry for the name.
    Every name of a closed formula belongs to a binder, so ``binder`` holds
    every name in ``formula``: every schedule row's approximation seeds its
    fresh names with it."""

    __slots__ = ("formula", "binder", "mus", "all_f")

    def __init__(
        self,
        formula: Formula,
        binder: dict[str, TaggedArg],
        mus: frozenset[str],
        all_f: bool = False,
    ):
        set_field(self, "formula", formula)
        set_field(self, "binder", binder)
        set_field(self, "mus", mus)
        set_field(self, "all_f", all_f)

    def use_side(self, mu: str) -> tuple[TaggedArg, ...]:
        """The argument types at a use of the least fixpoint ``mu``: its
        binder's parameters, each predicate position's outer tag T unless
        ``all_f``, as an applied argument's companion feeds the budget."""
        return tuple(
            p if isinstance(p, TagInt) else TagPred(p.params, not self.all_f)
            for p in self.binder[mu].params
        )

    def to_json(self) -> str:
        # each object's keys in sorted order, as approx_digests.json hashes them
        return json_text({
            "all_f": self.all_f,
            "binders": {n: _tag_json(t) for n, t in sorted(self.binder.items())},
            "mu_use_side": {
                n: [_tag_json(t) for t in self.use_side(n)] for n in sorted(self.mus)
            },
        })


def _tag_json(t: TaggedArg):
    if isinstance(t, TagInt):
        return "int"
    return {"params": [_tag_json(p) for p in t.params], "tag": "T" if t.tag else "F"}


# ---------------------------------------------------------------------------
# Inference machinery: tag trees that are their own union-find nodes, plus
# implication edges


class _Tree:
    """Inference-time tagged argument type: an int leaf, or a predicate
    tree with its parameter trees.  A predicate tree is also a union-find
    node for its outermost tag: ``parent`` links it towards its root, and
    the root's ``forced`` says whether the tag is T."""

    __slots__ = ("is_int", "params", "parent", "forced")

    def __init__(self, is_int: bool, params: list):
        self.is_int = is_int
        self.params = params
        self.parent: Optional[_Tree] = None
        self.forced = False

    @staticmethod
    def for_type(ty: SimpleType) -> "_Tree":
        if isinstance(ty, IntType):
            return _Tree(True, [])
        return _Tree(False, [_Tree.for_type(a) for a in arg_types(ty)])

    def find(self) -> "_Tree":
        r = self
        while r.parent is not None:
            r = r.parent
        # path compression
        t = self
        while t.parent is not None:
            t.parent, t = r, t.parent
        return r


def _unify_arg(a: _Tree, b: _Tree):
    """Full equality of tagged argument types, outermost tags included."""
    if a.is_int != b.is_int:
        raise TagInferenceError("tag tree shape mismatch")
    if a.is_int:
        return
    ra, rb = a.find(), b.find()
    if ra is not rb:
        rb.parent = ra
        ra.forced = ra.forced or rb.forced
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
        self.mus: set[str] = set()
        # (tree, trees-to-force-when-tree-is-T)
        self.edges: list[tuple[_Tree, list[_Tree]]] = []

    def outer_preds(self, names, env: dict[str, _Tree]) -> list[_Tree]:
        out = []
        for n in sorted(names):
            t = env.get(n)
            if t is not None and not t.is_int:
                out.append(t)
        return out

    def force(self, names, env: dict[str, _Tree]):
        """Tags T every predicate variable among ``names``."""
        for t in self.outer_preds(names, env):
            t.find().forced = True

    @staticmethod
    def bound(names: set[str], env: dict[str, _Tree]):
        """Refuses a name that no enclosing binder binds."""
        if not names <= env.keys():
            raise TagInferenceError(f"free variable {min(names - env.keys())}")

    def walk(self, f: Formula, env: dict[str, _Tree]) -> list:
        """Returns the predicate view (parameter trees) of ``f``."""
        match f:
            case Var(name):
                self.bound({name}, env)
                return env[name].params
            case Or(children) | And(children):
                for g in children:
                    self.walk(g, env)
                return []
            case Ge(l, r):
                self.bound(int_free_vars(l) | int_free_vars(r), env)
                return []
            case Abs(name, ty, body) | Forall(name, ty, body) | Exists(name, ty, body):
                # a quantifier's view is its Prop body's: none
                tree = self.binder[name] = _Tree.for_type(ty)
                rest = self.walk(body, {**env, name: tree})
                return [tree, *rest] if type(f) is Abs else rest
            case App(head, args):
                fview = self.walk(head, env)
                for i, arg in enumerate(args):
                    if isinstance(arg, IntExpr):
                        if i >= len(fview) or not fview[i].is_int:
                            raise TagInferenceError("integer argument at predicate position")
                        self.bound(int_free_vars(arg), env)
                        continue
                    if i >= len(fview):
                        raise TagInferenceError("application of a non-predicate")
                    pos = fview[i]
                    aview = self.walk(arg, env)
                    if pos.is_int:
                        raise TagInferenceError("predicate argument at int position")
                    _unify_pred(pos.params, aview)
                    if type(head) is Mu:
                        # a use-side position of a least fixpoint is T
                        self.force(free_vars(arg), env)
                    else:
                        self.edges.append((pos, self.outer_preds(free_vars(arg), env)))
                return fview[len(args):]
            case Mu(name, ty, body) | Nu(name, ty, body):
                inner = self.binder[name] = _Tree.for_type(ty)
                _unify_pred(inner.params, self.walk(body, {**env, name: inner}))
                if type(f) is Mu:
                    self.mus.add(name)
                    # every free predicate variable of the body must carry a
                    # companion so the unfolding budget can mention it
                    self.force(free_vars(f), env)
                return inner.params
        raise TagInferenceError(f"not a formula: {f!r}")

    def propagate(self):
        changed = True
        while changed:
            changed = False
            for tree, targets in self.edges:
                if tree.find().forced:
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
        return TagPred(params, not all_f and t.find().forced)


def infer_tags_formula(f: Formula, all_f: bool = False) -> TagDerivation:
    """Tag inference over a typed, alpha-normalized, closed formula; a free
    variable raises ``TagInferenceError``.  With ``all_f`` every tag is F:
    no position carries a companion."""
    inf = _Inference()
    view = inf.walk(f, {})
    if view:
        raise TagInferenceError("tag inference expects a Prop-typed formula")
    inf.propagate()
    return TagDerivation(
        f,
        {n: inf.resolve(t, all_f) for n, t in inf.binder.items()},
        frozenset(inf.mus),
        all_f=all_f,
    )
