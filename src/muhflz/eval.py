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

Work is counted in steps, which ``step_limit`` caps: one per formula node
visited (a whole chain or spine is one node), one per argument applied and
one per entry a fixpoint solver pass re-evaluates.

Nothing walks the formula before evaluation starts: what evaluation needs
to know about a node is worked out the first time it reaches the node and
kept on the context (``_EvalContext.facts_of``).  A function value is
code plus the values it holds, and ``_EvalContext.key`` keys it by both.
The context caches each forced table under that key, in
``forced_partials``; an escaping entry is ``_ESC``.  A table is a plain
value, equal to any table with the same argument type and entries, and the
context enumerates each type at most once.  Nothing outlives an evaluation:
this module keeps no state of its own, and makes no reference cycle, so
reference counting frees an evaluation's context, instances and tables
when it returns.  No nested function here names itself, which would make
its closure a cycle (``_TableSearch`` recurses as a method); tier-1
checks both, in ``tests/test_nested_cycles.py`` and the cyclic-garbage
tests of ``tests/test_driver.py``.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Optional, Union

from .syntax import (
    Abs, And, App, Arrow, Exists, Forall, Formula, Ge, IntExpr,
    IntType, IntVar, Lit, Mu, Nu, Or, Plus, PropType, Node, SimpleType,
    Times, Var, arg_types, free_vars, int_nodes, set_field,
)


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
    """Extensional function value: its argument type and one entry per
    value of that type, in enumeration order.  A plain value: two tables
    are equal when both parts are.  The result type is left out, as every
    place that compares tables compares values of one static type."""

    __slots__ = ("arg_ty", "entries", "_hash")

    def __init__(self, arg_ty: SimpleType, entries: tuple):
        self.arg_ty = arg_ty
        self.entries = entries
        self._hash = hash((arg_ty, entries))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Table:
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self.entries == other.entries
            and self.arg_ty == other.arg_ty
        )

    def __repr__(self):
        return f"Table({self.arg_ty}, {self.entries!r})"


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
    """A function value: code plus the values it holds (``held``).
    ``reach``, the fixpoint instances it can reach, is computed on first
    use; it is exact because ``held`` is never changed after
    construction."""

    __slots__ = ("held", "_reach")

    @property
    def reach(self) -> tuple:
        r = self._reach
        if r is None:
            # a partial application also reaches its instance and what the
            # instance's environment reaches
            base = (self.inst, *self.inst.env_reach) if isinstance(self, FixPartial) else ()
            r = self._reach = _reach(self.held, base)
        return r


class Closure(_Intensional):
    """Its code is ``param`` and ``body``.  ``names`` are the free
    variables of ``body`` other than ``param``, sorted, shared by every
    closure of one abstraction; ``held`` holds their values in that
    order.  ``arg_ty`` is the type of ``param``, all its table needs."""

    __slots__ = ("param", "arg_ty", "body", "names")

    def __init__(self, param, arg_ty, body, names: tuple, held: tuple):
        self._reach = None
        self.held = held
        self.param = param
        self.arg_ty = arg_ty
        self.body = body
        self.names = names


class FixPartial(_Intensional):
    """Its code is ``inst``; ``held`` holds the arguments applied so far."""

    __slots__ = ("inst",)

    def __init__(self, inst: "_FixInstance", held: tuple):
        self._reach = None
        self.held = held
        self.inst = inst

    @property
    def arg_ty(self) -> SimpleType:
        return self.inst.param_tys[len(self.held)]


SemValue = Union[bool, int, Table, Closure, FixPartial]


# ---------------------------------------------------------------------------
# Enumeration of types over a window

_ENUM_LIMIT = 1 << 15
_ENUM_ARG_LIMIT = 600


def value_leq(ty: SimpleType, a, b) -> bool:
    """The pointwise order of the semantic lattice (Int is discrete)."""
    if isinstance(ty, IntType):
        return a == b
    if isinstance(ty, PropType):
        return (not a) or b
    assert isinstance(ty, Arrow)
    return all(value_leq(ty.ret, x, y) for x, y in zip(a.entries, b.entries))


def _enumerate(ctx: "_EvalContext", ty: SimpleType) -> list:
    if isinstance(ty, IntType):
        return list(ctx.dom.values())
    if isinstance(ty, PropType):
        return [False, True]
    assert isinstance(ty, Arrow)
    args = ctx.enumeration(ty.arg)[0]
    if len(args) > _ENUM_ARG_LIMIT:
        raise IterationCap("enumeration")
    rets = ctx.enumeration(ty.ret)[0]
    if isinstance(ty.arg, IntType) and len(rets) ** len(args) > _ENUM_LIMIT:
        # discrete argument order: the count is exact, fail fast
        raise IterationCap("enumeration")
    search = _TableSearch(ty, args, rets)
    search.assign(0)
    return search.out


class _TableSearch:
    """The monotone tables of an arrow type, found by backtracking: each
    argument's entry is chosen in turn, in the order of ``rets``, so that
    it is consistent with the entries already chosen for the arguments
    below and above it."""

    def __init__(self, ty: Arrow, args: list, rets: list):
        n = len(args)
        self.ty, self.rets = ty, rets
        self.below = [
            [j for j in range(n) if j != i and value_leq(ty.arg, args[j], args[i])]
            for i in range(n)
        ]
        self.above = [
            [j for j in range(n) if j != i and value_leq(ty.arg, args[i], args[j])]
            for i in range(n)
        ]
        self.entries: list = [None] * n
        self.out: list = []

    def assign(self, i: int):
        ty, entries, out = self.ty, self.entries, self.out
        if len(out) > _ENUM_LIMIT:
            raise IterationCap("enumeration")
        if i == len(entries):
            out.append(Table(ty.arg, tuple(entries)))
            return
        for r in self.rets:
            ok = all(
                entries[j] is None or value_leq(ty.ret, entries[j], r)
                for j in self.below[i]
            ) and all(
                entries[j] is None or value_leq(ty.ret, r, entries[j])
                for j in self.above[i]
            )
            if ok:
                entries[i] = r
                self.assign(i + 1)
                entries[i] = None


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
        # per type, its values and their positions (``enumeration``), or
        # None where there are too many
        self.enumerations: dict = {}
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

    def facts_of(self, f: Union[Abs, Mu, Nu]) -> tuple:
        """Work out and record the static facts of ``f`` the first time
        evaluation reaches it: for an ``Abs`` a 1-tuple of the sorted names
        its closures hold, for a ``Mu``/``Nu`` whether it is recursive and
        the sorted names its instance holds.  Never empty, so a cached
        entry is truthy."""
        if f.ty is None:
            raise ValueError("evaluator needs typed binders; run typecheck")
        free = free_vars(f.body)
        names = tuple(sorted(free - {f.name}))
        got = (names,) if isinstance(f, Abs) else (f.name in free, names)
        self.facts[id(f)] = got
        return got

    def enumeration(self, ty: SimpleType) -> tuple[list, dict]:
        """All semantic values of ``ty`` over the window, in enumeration
        order, and the position of each, worked out once per context.
        Function types are restricted to monotone tables (all maps are
        monotone when the argument order is discrete).  Raises
        IterationCap when they are too many, and remembers that too."""
        try:
            e = self.enumerations[ty]
        except KeyError:
            try:
                values = _enumerate(self, ty)
                e = values, {v: i for i, v in enumerate(values)}
            except IterationCap:
                e = None
            self.enumerations[ty] = e
        if e is None:
            raise IterationCap("enumeration")
        return e

    # -- window crossings ----------------------------------------------------

    def clip_int(self, n: int) -> int:
        if self.dom.lo <= n <= self.dom.hi:
            return n
        if self.dom.strict:
            raise RangeEscape(f"{n} outside [{self.dom.lo}, {self.dom.hi}]")
        return min(max(n, self.dom.lo), self.dom.hi)

    # -- canonical keys -------------------------------------------------------

    def key(self, v) -> tuple:
        """A function value's key: its code, then the keys of the values it
        holds.  A closure's code is its body and parameter, not its lambda
        node, which rewrites rebuild around a shared body."""
        code = (id(v.body), v.param) if isinstance(v, Closure) else (id(v.inst),)
        return (*code, *map(self.config_key, v.held))

    def force_table(self, v) -> Table:
        """Extensional table of a closure or partial application, cached
        under its key.  An entry whose computation escapes the window is
        recorded as ``_ESC``."""
        key = self.key(v)
        t = self.forced_partials.get(key)
        if t is None:
            entries = []
            for a in self.enumeration(v.arg_ty)[0]:
                try:
                    entries.append(self.config_key(apply_value(self, v, a)))
                except RangeEscape:
                    entries.append(_ESC)
            t = self.forced_partials[key] = Table(v.arg_ty, tuple(entries))
        return t

    def config_key(self, v):
        """Identity of a value for fixpoint tables and memo keys.  Values
        not touching an in-flight fixpoint are keyed by their forced table;
        the rest by ``key``."""
        if isinstance(v, bool):
            return v
        if isinstance(v, int):
            return self.clip_int(v)
        if isinstance(v, Table):
            return v
        # an in-flight key depends on which instances are mid-solve right
        # now, so it is rebuilt on every call and never cached
        if any(i.mid_solve for i in v.reach):
            return self.key(v)
        return self.force_table(v)

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
        """The one instance of ``node`` holding ``env`` at ``names``, keyed
        as a value is: its node, then the keys of what it holds.  When an
        in-flight instance its environment reaches has moved on, it
        restarts in place; mid-solve, it answers with its current iterate
        and the enclosing solve's next pass restarts it."""
        env = {n: env[n] for n in names}
        key = (id(node), *map(self.config_key, env.values()))
        stamp = self.stamp(env.values())
        inst = self.instances.get(key)
        if inst is None:
            inst = self.instances[key] = _FixInstance(node, env, stamp)
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
    context is passed to each method that evaluates, and ``env_reach``
    leaves the instance out, so a finished evaluation is freed by
    reference counting once ``evaluate`` has cleared the argument tuples
    (which may capture the instance)."""

    __slots__ = (
        "env", "sign", "name", "body", "param_tys", "arity",
        "asg", "argvals", "stamps", "stamp", "version", "mid_solve",
        "_env_reach",
    )

    def __init__(self, node, env: dict, stamp: tuple):
        self.env = env
        self.sign = type(node)
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
    def env_reach(self) -> tuple:
        """The instances this instance's environment reaches.  The
        environment predates the instance, so the instance is not among
        them."""
        r = self._env_reach
        if r is None:
            r = self._env_reach = _reach(self.env.values())
        return r

    def full_query(self, ctx: _EvalContext, values: tuple) -> bool:
        try:
            key = tuple(map(ctx.config_key, values))
        except RangeEscape:
            if self.sign is Mu:
                # descending out of the window: a least fixpoint bottoms out
                return False
            raise
        # an entry whose arguments capture a fixpoint that is still being
        # solved must not survive that fixpoint's updates
        stamp = ctx.stamp(values, self)
        if key not in self.asg or self.stamps[key] != stamp:
            self.asg[key] = self.sign is Nu
            self.argvals[key] = values
            self.stamps[key] = stamp
            self.version += 1
        if self.mid_solve:
            return self.asg[key]
        self.solve(ctx)
        return self.asg[key]

    def eval_entry(self, ctx: _EvalContext, key) -> bool:
        """The body applied to the arguments of entry ``key``.  The
        recursive occurrence queries through a partial when applied, and a
        nullary occurrence is just the current iterate."""
        self_ref = self.asg[key] if self.arity == 0 else FixPartial(self, ())
        v = eval_formula(ctx, self.body, {**self.env, self.name: self_ref})
        for a in self.argvals[key]:
            v = apply_value(ctx, v, a)
        assert isinstance(v, bool)
        return v

    def solve(self, ctx: _EvalContext):
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
                    nv = self.eval_entry(ctx, key)
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
        env = dict(zip(f.names, f.held))
        env[f.param] = a
        return eval_formula(ctx, f.body, env)
    if isinstance(f, FixPartial):
        held = f.held + (a,)
        if len(held) == f.inst.arity:
            return f.inst.full_query(ctx, held)
        return FixPartial(f.inst, held)
    if isinstance(f, Table):
        # None for a function outside the enumerated universe
        idx = ctx.enumeration(f.arg_ty)[1].get(ctx.config_key(a))
        if idx is None:
            raise RangeEscape("argument outside the enumerated universe")
        entry = f.entries[idx]
        if entry is _ESC:
            raise RangeEscape("table entry left the window")
        return entry
    raise TypeError(f"cannot apply {f!r}")


def eval_int(ctx: _EvalContext, e: IntExpr, env: dict) -> int:
    vals: list[int] = []
    for n in reversed(int_nodes(e)):
        t = type(n)
        if t is Lit:
            vals.append(n.value)
        elif t is IntVar:
            v = env[n.name]
            assert isinstance(v, int)
            vals.append(v)
        elif t is Plus:
            s = 0
            for _ in n.children:
                s += vals.pop()
            vals.append(s)
        elif t is Times:
            s = 1
            for _ in n.children:
                s *= vals.pop()
            vals.append(s)
        else:  # IntAbs: int_nodes admits no other node
            vals.append(abs(vals.pop()))
    return vals[0]


def eval_formula(ctx: _EvalContext, f: Formula, env: dict):
    ctx.tick()
    t = type(f)
    if t is Var:
        return env[f.name]
    if t is App:
        v = eval_formula(ctx, f.head, env)
        for a in f.args:
            a = eval_int(ctx, a, env) if isinstance(a, IntExpr) else eval_formula(ctx, a, env)
            v = apply_value(ctx, v, a)
        return v
    if t is Or or t is And:
        # the first deciding operand ends it
        decides = t is Or
        for g in f.children:
            if (eval_formula(ctx, g, env) is True) is decides:
                return decides
        return not decides
    if t is Ge:
        return eval_int(ctx, f.lhs, env) >= eval_int(ctx, f.rhs, env)
    if t is Forall or t is Exists:
        # a counterexample decides a Forall, a witness an Exists
        decides = t is Exists
        env2 = dict(env)
        for n in ctx.dom.values():
            env2[f.name] = n
            if eval_formula(ctx, f.body, env2) is decides:
                return decides
        return not decides
    if t is Abs:
        (names,) = ctx.facts.get(id(f)) or ctx.facts_of(f)
        return Closure(f.name, f.ty, f.body, names, tuple([env[n] for n in names]))
    if t is Mu or t is Nu:
        recursive, names = ctx.facts.get(id(f)) or ctx.facts_of(f)
        if not recursive:
            # the fixpoint is its body
            return eval_formula(ctx, f.body, env)
        inst = ctx.instance(f, names, env)
        if inst.arity == 0:
            return inst.full_query(ctx, ())
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
    results are bools, Int results ints, predicate results
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
