"""Bounded-domain reference evaluator for HFL(Z).

Semantics over a finite integer window [lo, hi]:

* arithmetic and comparisons are exact over Z;
* quantifiers range over the window;
* function spaces are the monotone maps over window-enumerated arguments,
  materialized as tables when a value has to be enumerated or compared;
* recursive fixpoints are computed by local (demand-driven) Kleene
  iteration: only the argument tuples actually queried get table entries,
  so higher-order fixpoints whose full argument space is astronomically
  large stay cheap as long as the reachable configuration space is small;
* a non-recursive fixpoint is its body: it makes no instance, and its
  integer arguments are exact, like those of a lambda.

Where the window boundary is crossed:

* indexing a materialized table outside the window raises ``RangeEscape``
  in strict mode (clamping mode clamps to the nearest bound);
* an out-of-window argument to a recursive least-fixpoint predicate
  evaluates to False -- the recursion is descending out of the window and
  a least fixpoint truncates at bottom.  The greatest-fixpoint side keeps
  the escape: truncating at top would let a bounded run report validity
  the unbounded semantics may not have.

Validity verdicts are therefore relative to the window; no claim about
unbounded Z-validity is made here.

Nothing walks the formula before evaluation starts: what evaluation needs
to know about a node is worked out the first time it reaches the node and
kept on the context (``_EvalContext.facts_of``).  Each function value
caches one forced table, whose escaping entries are ``_ESC``.
"""

from __future__ import annotations

import functools
import time
import weakref
from enum import Enum
from typing import Optional, Union

from .syntax import (
    Abs, And, App, AppInt, Arrow, Exists, Forall, Formula, Ge, INT, IntAbs,
    IntExpr, IntType, IntVar, Lit, Mu, Nu, Or, Plus, PROP, PropType,
    Node, SimpleType, Times, Var, arg_types, arrow, free_vars, set_field,
)
from .typecheck import TypeCheckError, formula_type


class RangeEscape(Exception):
    """A value crossed the finite-domain boundary in strict mode."""


class IterationCap(Exception):
    """Defensive resource bound; carries a reason ('step-cap',
    'enumeration', 'deadline', ...)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class Domain(Node):
    __slots__ = ("lo", "hi", "strict")

    def __init__(self, lo: int, hi: int, strict: bool = True):
        if lo > hi:
            raise ValueError("empty domain")
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)
        set_field(self, "strict", strict)

    def values(self) -> range:
        return range(self.lo, self.hi + 1)


class BoundedResult(Enum):
    VALID = "valid"
    INVALID = "invalid"
    RANGE_ESCAPE = "range_escape"


class _Esc:
    """Sentinel for a forced table entry whose computation left the window:
    two values escaping at the same points are identified.  Applying a
    table at such an entry raises RangeEscape."""

    __slots__ = ()

    def __repr__(self):
        return "<esc>"


_ESC = _Esc()


# ---------------------------------------------------------------------------
# Semantic values


class Table:
    """Canonical, extensional function value: one entry per element of the
    enumerated argument type, in enumeration order.  Interned, so equality
    is identity."""

    __slots__ = ("ty", "arg_ty", "entries", "_hash", "__weakref__")

    def __init__(self, ty: Arrow, entries: tuple):
        self.ty = ty
        self.arg_ty = ty.arg
        self.entries = entries
        self._hash = hash((id(ty), entries))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

    def __repr__(self):
        return f"Table({self.ty}, {self.entries!r})"


def _reach(values, base: tuple = ()) -> tuple:
    """The fixpoint instances reachable from ``values``, each once, after
    those of ``base``.  Where only one of ``base`` and the values' own
    tuples is non-empty, that tuple is returned as it is."""
    out = base
    for w in values:
        if isinstance(w, _Intensional) and w.reach and w.reach is not out:
            out = tuple(dict.fromkeys(out + w.reach)) if out else w.reach
    return out


class _Intensional:
    """A function value held as syntax plus captured values.  ``key_table``
    caches its one forced table and ``reach`` (the fixpoint instances it
    captures) is computed on first use.  Both are exact because captured
    environments and argument tuples are never mutated after
    construction."""

    __slots__ = ("_reach", "key_table")


class Closure(_Intensional):
    """``names`` are the free variables of ``body`` other than ``param``,
    sorted, shared by every closure of one abstraction; ``vals`` holds the
    captured values in that order."""

    __slots__ = ("param", "body", "names", "vals", "ty")

    def __init__(self, param, body, names: tuple, vals: tuple, ty):
        self._reach = self.key_table = None
        self.param = param
        self.body = body
        self.names = names
        self.vals = vals
        self.ty = ty

    @property
    def reach(self) -> tuple:
        r = self._reach
        if r is None:
            r = self._reach = _reach(self.vals)
        return r


class FixPartial(_Intensional):
    __slots__ = ("inst", "args")

    def __init__(self, inst: "_FixInstance", args: tuple):
        self._reach = self.key_table = None
        self.inst = inst
        self.args = args

    @property
    def ty(self) -> SimpleType:
        return arrow(self.inst.param_tys[len(self.args):], PROP)

    @property
    def reach(self) -> tuple:
        r = self._reach
        if r is None:
            inst = self.inst
            r = self._reach = _reach(self.args, (inst, *inst.env_reach))
        return r


SemValue = Union[bool, int, Table, Closure, FixPartial]


# ---------------------------------------------------------------------------
# Enumeration of types over a window (shared across evaluations)

# held weakly: a table no live value refers to can never be looked up by
# identity again, so a long-lived process keeps only the tables in use
_INTERN: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

_ENUM_LIMIT = 1 << 15
_ENUM_ARG_LIMIT = 600
# (type, window) pairs whose enumeration is kept, least recently used out
_ENUM_CACHE_SIZE = 32


def intern_table(ty: Arrow, dom: Domain, entries: tuple) -> Table:
    key = (ty, dom.lo, dom.hi, entries)
    t = _INTERN.get(key)
    if t is None:
        t = Table(ty, entries)
        _INTERN[key] = t
    return t


def value_leq(ty: SimpleType, a, b) -> bool:
    """The pointwise order of the semantic lattice (Int is discrete)."""
    if isinstance(ty, IntType):
        return a == b
    if isinstance(ty, PropType):
        return (not a) or b
    assert isinstance(ty, Arrow)
    return all(value_leq(ty.ret, x, y) for x, y in zip(a.entries, b.entries))


class _Enumeration:
    """The values of one type over one window, in enumeration order, and
    their positions, indexed on first use."""

    __slots__ = ("values", "_index")

    def __init__(self, values: list):
        self.values = values
        self._index = None

    @property
    def index(self) -> dict:
        if self._index is None:
            self._index = {v: i for i, v in enumerate(self.values)}
        return self._index


@functools.lru_cache(maxsize=_ENUM_CACHE_SIZE)
def _enumeration(ty: SimpleType, lo: int, hi: int) -> Optional[_Enumeration]:
    """The cached enumeration of ``ty`` over ``lo..hi``; None when it is too
    big, so that the refusal is cached and evicted with the rest."""
    try:
        return _Enumeration(_enumerate(ty, Domain(lo, hi)))
    except IterationCap:
        return None


def enumerate_type(ty: SimpleType, dom: Domain) -> list:
    """All semantic values of ``ty`` over the window; function types are
    restricted to monotone tables (all maps are monotone when the argument
    order is discrete)."""
    e = _enumeration(ty, dom.lo, dom.hi)
    if e is None:
        raise IterationCap("enumeration")
    return e.values


def enum_index(ty: SimpleType, dom: Domain) -> dict:
    e = _enumeration(ty, dom.lo, dom.hi)
    if e is None:
        raise IterationCap("enumeration")
    return e.index


def _enumerate(ty: SimpleType, dom: Domain) -> list:
    if isinstance(ty, IntType):
        return list(dom.values())
    if isinstance(ty, PropType):
        return [False, True]
    assert isinstance(ty, Arrow)
    args = enumerate_type(ty.arg, dom)
    if len(args) > _ENUM_ARG_LIMIT:
        raise IterationCap("enumeration")
    rets = enumerate_type(ty.ret, dom)
    if isinstance(ty.arg, IntType) and len(rets) ** len(args) > _ENUM_LIMIT:
        # discrete argument order: the count is exact, fail fast
        raise IterationCap("enumeration")
    n = len(args)
    below = [
        [j for j in range(n) if j != i and value_leq(ty.arg, args[j], args[i])]
        for i in range(n)
    ]
    above = [
        [j for j in range(n) if j != i and value_leq(ty.arg, args[i], args[j])]
        for i in range(n)
    ]
    out: list = []
    entries: list = [None] * n

    def assign(i: int):
        if len(out) > _ENUM_LIMIT:
            raise IterationCap("enumeration")
        if i == n:
            out.append(intern_table(ty, dom, tuple(entries)))
            return
        for r in rets:
            ok = all(
                entries[j] is None or value_leq(ty.ret, entries[j], r)
                for j in below[i]
            ) and all(
                entries[j] is None or value_leq(ty.ret, r, entries[j])
                for j in above[i]
            )
            if ok:
                entries[i] = r
                assign(i + 1)
                entries[i] = None

    assign(0)
    return out


def table_index(dom: Domain, arg_ty: SimpleType, k) -> Optional[int]:
    """The position of the canonical key ``k`` in a table over ``arg_ty``;
    None for a function key outside the enumerated universe."""
    if isinstance(k, bool):
        return 1 if k else 0
    if isinstance(k, int):
        return k - dom.lo
    return enum_index(arg_ty, dom).get(k)


# ---------------------------------------------------------------------------
# Evaluation context


class _EvalContext:
    def __init__(
        self,
        dom: Domain,
        step_limit: int = 20_000_000,
        deadline: Optional[float] = None,
    ):
        self.dom = dom
        self.steps = 0
        self.step_limit = step_limit
        self.deadline = deadline
        self.instances: dict = {}
        self.forced_partials: dict = {}
        # per node, what evaluation needs beyond its fields (``facts_of``);
        # keyed by id(), as the formulas evaluated here outlive the context
        self.facts: dict[int, tuple] = {}

    def tick(self):
        self.steps += 1
        if self.steps >= self.step_limit:
            raise IterationCap("step-cap")
        if self.deadline is not None and self.steps % 4096 == 0:
            if time.monotonic() > self.deadline:
                raise IterationCap("deadline")

    def facts_of(self, f: Union[Abs, Mu, Nu], env: dict) -> tuple:
        """Work out and record the static facts of ``f`` the first time
        evaluation reaches it: for an ``Abs`` the sorted names its closures
        capture and their type, for a ``Mu``/``Nu`` whether it is recursive
        and the sorted names its instance is keyed by."""
        if f.ty is None:
            raise ValueError("evaluator needs typed binders; run typecheck")
        free = free_vars(f.body)
        if isinstance(f, Abs):
            names = tuple(sorted(free - {f.param}))
            tys = {}
            for n in names:
                v = env[n]
                tys[n] = PROP if isinstance(v, bool) else INT if isinstance(v, int) else v.ty
            try:
                got = (names, formula_type(f, tys))
            except TypeCheckError as e:
                raise ValueError(f"evaluator needs typed binders: {e}") from None
        else:
            got = (f.name in free, tuple(sorted(free - {f.name})))
        self.facts[id(f)] = got
        return got

    # -- window crossings ----------------------------------------------------

    def clip_int(self, n: int) -> int:
        if self.dom.lo <= n <= self.dom.hi:
            return n
        if self.dom.strict:
            raise RangeEscape(f"{n} outside [{self.dom.lo}, {self.dom.hi}]")
        return min(max(n, self.dom.lo), self.dom.hi)

    # -- canonical keys -------------------------------------------------------

    def force_table(self, v, ty: Optional[SimpleType] = None) -> Table:
        """Extensional table of a closure or partial application.  An
        entry whose computation escapes the window is recorded as
        ``_ESC``."""
        if v.key_table is not None:
            return v.key_table
        # values are rebuilt on every body evaluation: cache by content (a
        # closure's captured names are fixed by its body)
        if isinstance(v, Closure):
            cache_key = (id(v.body), *map(self.config_key, v.vals))
        else:
            cache_key = (id(v.inst), *map(self.config_key, v.args))
        t = self.forced_partials.get(cache_key)
        if t is None:
            ty = ty if ty is not None else v.ty
            assert isinstance(ty, Arrow), f"cannot force {ty}"
            entries = []
            for a in enumerate_type(ty.arg, self.dom):
                try:
                    entries.append(self.config_key(apply_value(self, v, a), ty.ret))
                except RangeEscape:
                    entries.append(_ESC)
            t = intern_table(ty, self.dom, tuple(entries))
            self.forced_partials[cache_key] = t
        v.key_table = t
        return t

    def config_key(self, v, ty: Optional[SimpleType] = None):
        """Identity of a value for fixpoint tables and memo keys.  Values
        not touching an in-flight fixpoint are forced extensionally; the
        rest are keyed by their syntax and environment."""
        if isinstance(v, bool):
            return v
        if isinstance(v, int):
            return self.clip_int(v)
        if isinstance(v, Table):
            return v
        # an in-flight key depends on which instances are mid-solve right
        # now, so it is rebuilt on every call and never cached
        if any(i.mid_solve for i in v.reach):
            if isinstance(v, Closure):
                return (
                    "clo",
                    id(v.body),
                    tuple(zip(v.names, map(self.config_key, v.vals))),
                )
            assert isinstance(v, FixPartial)
            return ("fixp", id(v.inst), tuple(self.config_key(a) for a in v.args))
        return self.force_table(v, ty)

    def stamp(self, values, skip=None) -> tuple:
        """The versions of the in-flight instances ``values`` reach, other
        than ``skip``: what a result computed from them depends on."""
        vers = {
            (id(i), i.version)
            for v in values if isinstance(v, _Intensional)
            for i in v.reach if i.mid_solve and i is not skip
        }
        return tuple(sorted(vers)) if vers else ()

    def instance(self, node, names: tuple, env: dict) -> "_FixInstance":
        """The one instance of ``node`` keyed by ``env`` at ``names``.  When
        an in-flight instance its environment reaches has moved on, it
        restarts in place; mid-solve, it answers with its current iterate
        and the enclosing solve's next pass restarts it."""
        env = {n: env[n] for n in names}
        key = (id(node), tuple((n, self.config_key(env[n])) for n in names))
        stamp = self.stamp(env.values())
        inst = self.instances.get(key)
        if inst is None:
            inst = self.instances[key] = _FixInstance(self, node, env, stamp)
        elif inst.stamp != stamp and not inst.mid_solve:
            inst.restart(stamp)
        return inst


# ---------------------------------------------------------------------------
# Fixpoint instances


class _FixInstance:
    """One recursive fixpoint node under one environment key.  It maps each
    argument key to its current value (``asg``) and keeps the argument
    tuples behind its keys (``argvals``) for ``solve`` to re-evaluate.  A
    non-recursive fixpoint has no instance: ``eval_formula`` evaluates it
    as its body, so its integer arguments are exact.

    A version never enters a key.  ``stamp`` holds the versions of the
    in-flight instances the environment reaches, and ``stamps`` those each
    entry's arguments reach.  When a stamp moves, the instance restarts in
    place (``restart``) or the entry is re-initialised, so keys that
    capture the instance stay the same while the values behind them are
    recomputed.

    Nothing an instance holds leads back to it or to its context: the
    context is held weakly and ``env_reach`` leaves the instance out, so a
    finished evaluation is freed by reference counting once ``evaluate``
    has cleared the argument tuples (which may capture the instance)."""

    __slots__ = (
        "_ctx", "env", "sign", "name", "body", "param_tys", "arity",
        "asg", "argvals", "stamps", "stamp", "version", "mid_solve",
        "_env_reach",
    )

    def __init__(self, ctx: _EvalContext, node, env: dict, stamp: tuple):
        self._ctx = weakref.ref(ctx)
        self.env = env
        self.sign = "mu" if isinstance(node, Mu) else "nu"
        self.name = node.name
        self.body = node.body
        self.param_tys = arg_types(node.ty)
        self.arity = len(self.param_tys)
        self.asg: dict = {}
        self.argvals: dict = {}
        self.stamps: dict = {}
        self.stamp = stamp
        self.version = 0
        self.mid_solve = False
        self._env_reach = None

    def restart(self, stamp: tuple):
        """Forget every entry: what a fresh instance would hold."""
        self.asg.clear()
        self.argvals.clear()
        self.stamps.clear()
        self.version += 1
        self.stamp = stamp

    @property
    def ctx(self) -> _EvalContext:
        return self._ctx()

    @property
    def env_reach(self) -> tuple:
        """The instances this instance's environment reaches.  The
        environment predates the instance, so the instance is not among
        them."""
        r = self._env_reach
        if r is None:
            r = self._env_reach = _reach(self.env.values())
        return r

    def full_query(self, values: tuple) -> bool:
        ctx = self.ctx
        try:
            key = tuple(map(ctx.config_key, values, self.param_tys))
        except RangeEscape:
            if self.sign == "mu":
                # descending out of the window: a least fixpoint bottoms out
                return False
            raise
        # an entry whose arguments capture a fixpoint that is still being
        # solved must not survive that fixpoint's updates
        stamp = ctx.stamp(values, self)
        if key not in self.asg or self.stamps[key] != stamp:
            self.asg[key] = self.sign == "nu"
            self.argvals[key] = values
            self.stamps[key] = stamp
            self.version += 1
        if self.mid_solve:
            return self.asg[key]
        self.solve()
        return self.asg[key]

    def eval_entry(self, key) -> bool:
        """The body applied to the arguments of entry ``key``.  The
        recursive occurrence queries through a partial when applied, and a
        nullary occurrence is just the current iterate."""
        ctx = self.ctx
        self_ref = self.asg[key] if self.arity == 0 else FixPartial(self, ())
        v = eval_formula(ctx, self.body, {**self.env, self.name: self_ref})
        for a in self.argvals[key]:
            v = apply_value(ctx, v, a)
        assert isinstance(v, bool)
        return v

    def solve(self):
        ctx = self.ctx
        self.mid_solve = True
        try:
            passes = 0
            while True:
                passes += 1
                if passes > 4 * len(self.asg) + 64:
                    raise IterationCap("fixpoint-passes")
                if len(self.asg) > 300_000:
                    raise IterationCap("fixpoint-keys")
                # a new, re-initialised or updated entry moves the version
                before = self.version
                for key in list(self.asg):
                    ctx.tick()
                    nv = self.eval_entry(key)
                    if nv != self.asg[key]:
                        self.asg[key] = nv
                        self.version += 1
                if self.version == before:
                    return
        finally:
            self.mid_solve = False


# ---------------------------------------------------------------------------
# The evaluator proper


def apply_value(ctx: _EvalContext, f, a):
    ctx.tick()
    # clamping mode is a total finite-domain semantics: integers clamp to
    # the window when bound (strict mode keeps arithmetic exact instead
    # and escapes at representation boundaries)
    if not ctx.dom.strict and isinstance(a, int) and not isinstance(a, bool):
        a = ctx.clip_int(a)
    if isinstance(f, Closure):
        env = dict(zip(f.names, f.vals))
        env[f.param] = a
        return eval_formula(ctx, f.body, env)
    if isinstance(f, FixPartial):
        args = f.args + (a,)
        if len(args) == f.inst.arity:
            return f.inst.full_query(args)
        return FixPartial(f.inst, args)
    if isinstance(f, Table):
        idx = table_index(ctx.dom, f.arg_ty, ctx.config_key(a, f.arg_ty))
        if idx is None:
            raise RangeEscape("argument outside the enumerated universe")
        entry = f.entries[idx]
        if entry is _ESC:
            raise RangeEscape("table entry left the window")
        return entry
    raise TypeError(f"cannot apply {f!r}")


def eval_int(ctx: _EvalContext, e: IntExpr, env: dict) -> int:
    match e:
        case Lit(v):
            return v
        case IntVar(name):
            v = env[name]
            assert isinstance(v, int)
            return v
        case Plus(l, r):
            return eval_int(ctx, l, env) + eval_int(ctx, r, env)
        case Times(l, r):
            return eval_int(ctx, l, env) * eval_int(ctx, r, env)
        case IntAbs(a):
            return abs(eval_int(ctx, a, env))
    raise TypeError(f"not an IntExpr: {e!r}")


def eval_formula(ctx: _EvalContext, f: Formula, env: dict):
    ctx.tick()
    match f:
        case Var(name):
            return env[name]
        case Or(l, r):
            if eval_formula(ctx, l, env) is True:
                return True
            return eval_formula(ctx, r, env) is True
        case And(l, r):
            if eval_formula(ctx, l, env) is False:
                return False
            return eval_formula(ctx, r, env) is True
        case Ge(l, r):
            return eval_int(ctx, l, env) >= eval_int(ctx, r, env)
        case Forall(var, body):
            env2 = dict(env)
            for n in ctx.dom.values():
                env2[var] = n
                if eval_formula(ctx, body, env2) is False:
                    return False
            return True
        case Exists(var, body):
            env2 = dict(env)
            for n in ctx.dom.values():
                env2[var] = n
                if eval_formula(ctx, body, env2) is True:
                    return True
            return False
        case Abs(param, _, body):
            names, ty = ctx.facts.get(id(f)) or ctx.facts_of(f, env)
            return Closure(param, body, names, tuple([env[n] for n in names]), ty)
        case App(fn, arg):
            fv = eval_formula(ctx, fn, env)
            av = eval_formula(ctx, arg, env)
            return apply_value(ctx, fv, av)
        case AppInt(fn, arg):
            fv = eval_formula(ctx, fn, env)
            return apply_value(ctx, fv, eval_int(ctx, arg, env))
        case Mu(_, _, body) | Nu(_, _, body):
            recursive, names = ctx.facts.get(id(f)) or ctx.facts_of(f, env)
            if not recursive:
                # the fixpoint is its body
                return eval_formula(ctx, body, env)
            inst = ctx.instance(f, names, env)
            if inst.arity == 0:
                return inst.full_query(())
            return FixPartial(inst, ())
    raise TypeError(f"not a Formula: {f!r}")


# ---------------------------------------------------------------------------
# Public API


def make_context(
    dom: Domain,
    *,
    step_limit: int = 20_000_000,
    deadline: Optional[float] = None,
) -> _EvalContext:
    """A fresh context for evaluating formulas with ``eval_formula``.  It
    walks no formula: what evaluation needs to know about a node is worked
    out the first time evaluation reaches it."""
    return _EvalContext(dom, step_limit=step_limit, deadline=deadline)


def evaluate(
    f: Formula,
    dom: Domain = Domain(-4, 4),
    *,
    step_limit: int = 20_000_000,
    deadline: Optional[float] = None,
) -> SemValue:
    """Denotation of the closed formula ``f`` over the window.  Prop
    results are bools, Int results ints, predicate results canonical
    ``Table``s.  Raises RangeEscape where a predicate's table has an entry
    that left the window."""

    # a module-level call: the benchmark tracer and the tests wrap make_context
    ctx = make_context(dom, step_limit=step_limit, deadline=deadline)
    try:
        v = eval_formula(ctx, f, {})
        if isinstance(v, _Intensional):
            v = ctx.force_table(v)
        if isinstance(v, Table) and _ESC in v.entries:
            raise RangeEscape("table entry left the window")
        return v
    finally:
        # argument tuples may capture partial applications of their own
        # instance; without them the context is acyclic and is freed as
        # soon as the caller lets go of it
        for inst in ctx.instances.values():
            inst.argvals.clear()


def check_validity_bounded(
    f: Formula,
    dom: Domain,
    *,
    step_limit: int = 20_000_000,
    deadline: Optional[float] = None,
) -> BoundedResult:
    """Valid iff the closed Prop formula evaluates to true over the window.
    RangeEscape is reported as its own outcome; callers must treat it as
    inconclusive, never as Invalid."""

    try:
        v = evaluate(f, dom, step_limit=step_limit, deadline=deadline)
    except RangeEscape:
        return BoundedResult.RANGE_ESCAPE
    assert isinstance(v, bool)
    return BoundedResult.VALID if v else BoundedResult.INVALID
