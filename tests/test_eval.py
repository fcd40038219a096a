import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SUCC_PRED, gc_off, tracked_fix_instances
from gen import instances, random_instance
import muhflz.eval
from muhflz.convert import hes_to_formula
from muhflz.eval import (
    BoundedResult, Closure, Domain, IterationCap, RangeEscape, Table, _ESC,
    apply_value, check_validity_bounded, eval_formula, evaluate,
    make_context, value_leq,
)
from muhflz.syntax import (
    Abs, And, App, Arrow, Exists, Forall, Ge, INT, IntVar, Lit, Mu,
    Nu, Or, Plus, PROP, SimpleType, Var,
)
from muhflz.parser import parse_hes
from muhflz.transform import dualize
from muhflz.typecheck import typecheck


def is_monotone_table(t: Table, ret: SimpleType, dom: Domain) -> bool:
    # a table carries its argument type only, so the result type is given
    args = make_context(dom).enumeration(t.arg_ty)[0]
    n = len(args)
    for i in range(n):
        for j in range(n):
            if value_leq(t.arg_ty, args[i], args[j]) and not value_leq(
                ret, t.entries[i], t.entries[j]
            ):
                return False
    return True


def _countdown_mu():
    # least predicate with x = \y. y=0 \/ x(y-1): equivalent to \y. y >= 0
    return Mu(
        "x",
        Arrow(INT, PROP),
        Abs(
            "y",
            INT,
            Or(
                And(Ge(IntVar("y"), Lit(0)), Ge(Lit(0), IntVar("y"))),
                App(Var("x"), Plus(IntVar("y"), Lit(-1))),
            ),
        ),
    )


def test_countdown_mu_matches_closed_form():
    dom = Domain(-8, 8)
    mu = _countdown_mu()
    for y in dom.values():
        got = evaluate(App(mu, Lit(y)), dom=dom)
        assert got == (y >= 0), f"disagrees with closed form at {y}"


def test_nullary_fixpoints():
    assert evaluate(Mu("p", PROP, Var("p"))) is False
    assert evaluate(Nu("p", PROP, Var("p"))) is True


def test_prefix_conjunction_nu():
    # greatest x with x(p) = p(0) and x(\y. p(y+1)): all shifted prefixes,
    # i.e. "p holds from 0 upward" on the window
    ty = Arrow(Arrow(INT, PROP), PROP)
    nu = Nu(
        "x",
        ty,
        Abs(
            "p",
            Arrow(INT, PROP),
            And(
                App(Var("p"), Lit(0)),
                App(Var("x"), Abs("y", INT, App(Var("p"), Plus(IntVar("y"), Lit(1))))),
            ),
        ),
    )
    dom = Domain(-4, 4)
    assert evaluate(App(nu, Abs("y", INT, Ge(IntVar("y"), Lit(0)))), dom=dom) is True
    assert evaluate(App(nu, Abs("y", INT, Ge(IntVar("y"), Lit(1)))), dom=dom) is False


def test_quantifiers_range_over_window():
    f = Exists("x", INT, Ge(IntVar("x"), Lit(5)))
    assert evaluate(f, dom=Domain(0, 8)) is True
    assert evaluate(f, dom=Domain(0, 4)) is False


def test_strict_escape_vs_clamp():
    # a greatest fixpoint chasing an ever-growing argument: the argument
    # leaves the window, which escapes in strict mode; clamping mode pins
    # it to the upper bound and the self-loop stays true
    climb = App(
        Nu(
            "x",
            Arrow(INT, PROP),
            Abs("y", INT, App(Var("x"), Plus(IntVar("y"), Lit(1)))),
        ),
        Lit(0),
    )
    assert check_validity_bounded(climb, Domain(0, 4)) is BoundedResult.RANGE_ESCAPE
    assert evaluate(climb, dom=Domain(0, 4, strict=False)) is True


def test_mu_descent_out_of_window_is_false():
    # the recursion at y = -1 descends past any window; a least fixpoint
    # truncates at bottom rather than escaping
    mu = _countdown_mu()
    assert evaluate(App(mu, Lit(-1)), dom=Domain(-8, 8)) is False


def test_monotone_enumeration():
    dom = Domain(-2, 2)
    ctx = make_context(dom)
    tables = ctx.enumeration(Arrow(PROP, PROP))[0]
    assert len(tables) == 3  # (F,F), (F,T), (T,T) but never (T,F)
    for t in tables:
        assert is_monotone_table(t, PROP, dom)
    ints = ctx.enumeration(Arrow(INT, PROP))[0]
    assert len(ints) == 2 ** 5  # discrete argument: all maps are monotone


def test_produced_tables_are_monotone():
    dom = Domain(-2, 2)
    count = 0
    for seed, h in instances(60):
        f = hes_to_formula(h)
        try:
            v = evaluate(f, dom=dom, step_limit=200_000)
        except (RangeEscape, IterationCap):
            continue
        count += 1
        assert isinstance(v, bool)
    assert count >= 30


def test_function_results_pass_monotonicity_check():
    dom = Domain(-2, 2)
    fn = Abs(
        "p",
        Arrow(INT, PROP),
        Or(App(Var("p"), Lit(0)), App(Var("p"), Lit(1))),
    )
    v = evaluate(fn, dom=dom)
    assert isinstance(v, Table)
    assert is_monotone_table(v, PROP, dom)


def test_kleene_result_is_a_fixpoint():
    # re-evaluating every solved entry must not change anything, also in a
    # higher-order fixpoint whose table arguments are closures: "p holds
    # somewhere from 0 upward", mu x. \p. p 0 \/ x (\y. p (y+1))
    pred = Arrow(INT, PROP)
    somewhere = Mu(
        "x",
        Arrow(pred, PROP),
        Abs(
            "p",
            pred,
            Or(
                App(Var("p"), Lit(0)),
                App(Var("x"), Abs("y", INT, App(Var("p"), Plus(IntVar("y"), Lit(1))))),
            ),
        ),
    )
    cases = (
        (App(_countdown_mu(), Lit(4)), Domain(-6, 6)),
        (App(somewhere, Abs("y", INT, Ge(IntVar("y"), Lit(3)))), Domain(-4, 4)),
    )
    for f, dom in cases:
        ctx = make_context(dom)
        assert eval_formula(ctx, f, {}) is True
        for inst in ctx.instances.values():
            for key in list(inst.asg):
                assert inst.eval_entry(ctx, key) == inst.asg[key]
    (inst,) = ctx.instances.values()
    assert len(inst.asg) > 1
    for key, args in inst.argvals.items():
        assert isinstance(key[0], Table) and isinstance(args[0], Closure)


def _hes(text: str):
    return hes_to_formula(typecheck(parse_hes(text)))


def test_non_recursive_instances_keep_nothing():
    # a non-recursive fixpoint is its body: Succ, Pred and Call make no
    # instance and are applied as lambdas, so only All and F are instances.
    # Every forced table equals the one cached under the key of a closure
    # those instances were queried with, and each entry is the closure's
    # direct application, escaped where that escapes.
    f = _hes(SUCC_PRED)
    for dom in (Domain(0, 4), Domain(0, 4, strict=False)):
        ctx = make_context(dom)
        assert eval_formula(ctx, f, {}) is True
        insts = list(ctx.instances.values())
        assert sorted((i.name.rsplit("_", 1)[0], i.sign) for i in insts) == [
            ("All", Nu), ("F", Mu),
        ]
        forced = set(ctx.forced_partials.values())
        closures = {
            id(v): v for i in insts for values in i.argvals.values()
            for v in values if isinstance(v, Closure)
        }
        # nothing is in flight now, so each key finds its forced table
        tables = [(v, ctx.forced_partials[ctx.key(v)]) for v in closures.values()]
        assert forced and {t for _, t in tables} == forced
        for v, t in tables:
            for a, entry in zip(ctx.enumeration(t.arg_ty)[0], t.entries):
                try:
                    direct = apply_value(ctx, v, a)
                except RangeEscape:
                    direct = _ESC
                assert entry == direct
                assert dom.strict or entry is not _ESC


def test_forced_key_table_of_a_partial_is_direct_evaluation():
    # Succ applied to \k. k 4 is a closure.  A non-recursive G keys
    # nothing, so no instance is made and no table is forced.  A recursive
    # G keys its closure argument by the table forced under the closure's
    # key, whose entries are its direct applications, escaped where they
    # escape: in strict mode, applied to a table the closure reads it at 5,
    # outside the window, where the query with \y. y >= 1 itself gave True.
    program = r"""
Main =v (\s. s (\k. k 4) (\y. y >= 1) /\ G (s (\k. k 4))) Succ;
G p =v p (\y. y >= 1){};
Succ x k =v x (\y. k (y + 1));
"""
    dom = Domain(0, 4)
    f = _hes(program.format(""))
    ctx = make_context(dom)
    assert eval_formula(ctx, f, {}) is True
    assert not ctx.instances and not ctx.forced_partials

    f = _hes(program.format(r" /\ G p"))
    ctx = make_context(dom)
    assert eval_formula(ctx, f, {}) is True
    (g,) = ctx.instances.values()
    ((key, (p,)),) = g.argvals.items()
    assert isinstance(p, Closure)
    (t,) = key
    assert t is ctx.forced_partials[ctx.key(p)]
    for a, entry in zip(ctx.enumeration(t.arg_ty)[0], t.entries):
        try:
            direct = apply_value(ctx, p, a)
        except RangeEscape:
            direct = _ESC
        assert entry is direct


def test_closures_equal_on_the_window_are_not_shared():
    # \y. y >= 5 and \y. y >= 6 are both False on 0..4, but Succ applies
    # them at 5, outside the window: the first conjunct holds and the
    # second does not
    f = _hes(r"""
Main =v Succ (\k. k 4) (\y. y >= 5) /\ Succ (\k. k 4) (\y. y >= 6);
Succ x k =v x (\y. k (y + 1));
""")
    assert check_validity_bounded(f, Domain(0, 4)) is BoundedResult.INVALID


def test_lambdas_sharing_a_body_do_not_share_a_table():
    # \x. x >= y and \y. x >= y share one body object but bind different
    # parameters, so with the other variable at 3 one is x >= 3 and the
    # other 3 >= y.  Both hold only the value 3: a table cached by body and
    # held values alone was shared, and the disjunction read False though
    # its second disjunct alone is True.
    B = Ge(IntVar("x"), IntVar("y"))
    P = Arrow(INT, PROP)
    R = Nu("R", Arrow(P, PROP), Abs("p", P, And(App(Var("p"), Lit(0)), App(Var("R"), Var("p")))))
    first = App(Abs("y", INT, App(R, Abs("x", INT, B))), Lit(3))
    second = App(Abs("x", INT, App(R, Abs("y", INT, B))), Lit(3))
    assert evaluate(second, Domain(0, 4)) is True
    assert evaluate(Or(first, second), Domain(0, 4)) is True
    assert evaluate(Or(second, first), Domain(0, 4)) is True


def test_fixpoint_argument_of_a_non_recursive_fixpoint_is_not_forced():
    # H is queried once: its argument Succ is applied, never tabulated
    # over the whole space of its arguments
    f = _hes(r"""
Main =v H Succ;
H s =v s (\k. k 4) (\y. y >= 1) /\ G (s (\k. k 4));
G p =v p (\y. y >= 1);
Succ x k =v x (\y. k (y + 1));
""")
    ctx = make_context(Domain(0, 4), step_limit=10_000)
    assert eval_formula(ctx, f, {}) is True
    assert not ctx.forced_partials


def test_non_recursive_fixpoint_arguments_are_exact():
    # a non-recursive fixpoint is its body, so its integer argument outside
    # the window is exact, as a lambda's is, for a least and a greatest
    # fixpoint alike; clamping mode clamps it to the window
    for sign in "uv":
        f = _hes(f"Main =v P 9; P x ={sign} x >= 9;")
        assert check_validity_bounded(f, Domain(0, 4)) is BoundedResult.VALID
        assert evaluate(f, dom=Domain(0, 4, strict=False)) is False


# Y's environment reaches X, which is in flight whenever Y is evaluated
NESTED_IN_FLIGHT = r"Main =v X (\a. a + a >= 0); X p ={} X Y; Y x ={} X Y {};"
NU_NU = NESTED_IN_FLIGHT.format("v", "v", r"/\ -1 * x - 1 >= -1 * x")


def test_nested_fixpoint_restarts_in_place():
    # X is stored under its argument Y, an instance of a nested fixpoint.
    # When X moves on, that instance restarts under the same identity, so
    # the key X stores for it stays the same and X converges.  A fresh copy
    # per version of X gave a new key each time, and X never converged.
    # X p =u X Y is false everywhere; with X a greatest fixpoint, Y's first
    # disjunct is true everywhere.
    cases = (
        (NU_NU, True),
        (NESTED_IN_FLIGHT.format("u", "v", r"/\ -1 * x - 1 >= -1 * x"), False),
        (NESTED_IN_FLIGHT.format("v", "u", r"\/ x >= 2"), True),
    )
    for text, want in cases:
        f = _hes(text)
        for lo, hi in ((-3, 3), (0, 4)):
            for strict in (True, False):
                ctx = make_context(Domain(lo, hi, strict), step_limit=20_000)
                assert eval_formula(ctx, f, {}) is want
                assert len(ctx.instances) <= 2
                assert ctx.steps < 100


@pytest.mark.parametrize("seed, want", [
    # its fixpoints used to be copied per version without end
    pytest.param(492, BoundedResult.INVALID, id="gen492"),
    # the non-recursive X1 x1 x2 =u x2 + x1 >= 2 is applied to 2 and 4,
    # outside the window, and is true: its integer arguments are exact
    pytest.param(376, BoundedResult.VALID, id="gen376"),
])
def test_gen492_is_decided(seed, want):
    f = hes_to_formula(random_instance(seed))
    got = check_validity_bounded(f, Domain(-3, 3), step_limit=10_000)
    assert got is want


def test_one_context_enumerates_each_type_once(monkeypatch):
    # an evaluation enumerates a type once, however many tables it forces
    # or indexes over it, equal types built apart included, and remembers
    # a refusal of a type with too many values too
    enumerated = []
    enumerate_ = muhflz.eval._enumerate

    def recording(ctx, ty):
        enumerated.append(ty)
        return enumerate_(ctx, ty)

    monkeypatch.setattr(muhflz.eval, "_enumerate", recording)
    ctx = make_context(Domain(-2, 2))
    at_n = [Abs("p", Arrow(INT, PROP), App(Var("p"), Lit(n))) for n in (0, 1)]
    at = [ctx.force_table(eval_formula(ctx, f, {})) for f in at_n]
    ge0 = eval_formula(ctx, Abs("y", INT, Ge(IntVar("y"), Lit(0))), {})
    assert [apply_value(ctx, t, ge0) for t in at] == [True, True]
    assert sorted(map(str, enumerated)) == ["int", "int -> prop", "prop"]

    enumerated.clear()
    ctx = make_context(Domain(-8, 8))
    for _ in range(2):
        with pytest.raises(IterationCap, match="enumeration"):
            ctx.enumeration(Arrow(INT, PROP))
    assert sorted(map(str, enumerated)) == ["int", "int -> prop", "prop"]


def test_nothing_is_kept_at_module_level():
    # an evaluation leaves the module as it found it, and the module holds
    # no cache or table of its own to keep anything in
    f = Abs("p", Arrow(INT, PROP), App(Var("p"), Lit(0)))
    before = dict(vars(muhflz.eval))
    assert isinstance(evaluate(f, dom=Domain(-2, 2)), Table)
    assert vars(muhflz.eval) == before
    for name, v in before.items():
        if not name.startswith("__"):
            assert not isinstance(v, (dict, list, set, weakref.WeakValueDictionary)), name
            assert not hasattr(v, "cache_info"), name


def test_a_forced_table_is_found_among_the_enumerated():
    # \y. y >= 0, forced, is a table of its own, equal to one of the
    # enumerated tables of int -> prop but not that object.  Indexing a
    # table over int -> prop finds it by equality, so the forced table can
    # be an argument; were tables equal only by identity, it would be
    # outside the enumerated universe and escape.
    pred = Arrow(INT, PROP)
    ctx = make_context(Domain(-2, 2))
    t = ctx.force_table(eval_formula(ctx, Abs("y", INT, Ge(IntVar("y"), Lit(0))), {}))
    assert t.entries == (False, False, True, True, True)
    values, index = ctx.enumeration(pred)
    assert t in index
    assert values[index[t]] == t and values[index[t]] is not t
    at0 = ctx.force_table(eval_formula(ctx, Abs("p", pred, App(Var("p"), Lit(0))), {}))
    assert apply_value(ctx, at0, t) is True


def test_context_freed_when_evaluation_ends(eval_contexts):
    # a finished evaluation holds no reference cycle, so reference counting
    # frees its context and instances on return, also when it ends in a cap
    # or a window escape
    f = hes_to_formula(typecheck(parse_hes(SUCC_PRED)))
    # X's argument captures X itself
    self_capturing = hes_to_formula(typecheck(parse_hes(
        r"Main =v X (\y. y >= 2); X p =u p 0 \/ X (\y. p (y + 1) \/ X p);"
    )))
    nested = hes_to_formula(typecheck(parse_hes(NU_NU)))
    climb = App(
        Nu("x", Arrow(INT, PROP), Abs("y", INT, App(Var("x"), Plus(IntVar("y"), Lit(1))))),
        Lit(0),
    )
    with gc_off():
        before = tracked_fix_instances()
        assert check_validity_bounded(f, Domain(0, 4)) is BoundedResult.VALID
        assert check_validity_bounded(self_capturing, Domain(-3, 3)) is BoundedResult.VALID
        assert check_validity_bounded(nested, Domain(-3, 3)) is BoundedResult.VALID
        assert check_validity_bounded(climb, Domain(0, 4)) is BoundedResult.RANGE_ESCAPE
        try:
            check_validity_bounded(f, Domain(0, 4), step_limit=2_000)
        except IterationCap:
            pass
        else:
            raise AssertionError("the step cap must stop the evaluation")
        assert len(eval_contexts) == 5
        assert all(r() is None for r in eval_contexts)
        assert tracked_fix_instances() == before
        assert gc.collect() == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000))
def test_duality_complements(seed):
    h = random_instance(seed)
    f = hes_to_formula(h)
    dom = Domain(-3, 3)
    try:
        a = check_validity_bounded(f, dom, step_limit=200_000)
        b = check_validity_bounded(dualize(f), dom, step_limit=200_000)
    except IterationCap:
        return
    if BoundedResult.RANGE_ESCAPE in (a, b):
        return
    assert (a is BoundedResult.VALID) == (b is BoundedResult.INVALID)


_X, _Y, _Z = IntVar("x"), IntVar("y"), IntVar("z")
_FALSE, _TRUE = Ge(Lit(0), Lit(1)), Ge(Lit(1), Lit(0))

# (formula, value, steps) under the cost model: one step per formula node
# visited and one per application of a value; an integer argument costs
# nothing beyond its application
COST_MODEL = {
    # the Or, then each atom up to the first true one: 1 + 3
    "three_way_or": (Or(_FALSE, _FALSE, _TRUE), True, 4),
    # the App and the head λ, then per argument an application and the
    # next node (a λ, a λ, the atom): 2 + 3 * 2
    "three_argument_closure": (
        App(Abs("x", INT, Abs("y", INT, Abs("z", INT, Ge(Plus(_X, _Y), _Z)))),
            Lit(1), Lit(2), Lit(3)),
        True,
        8,
    ),
    # on 0..4 the first counterexample to x <= 1 is x = 2: 1 + 3 bodies
    "forall_first_counterexample": (Forall("x", INT, Ge(Lit(1), _X)), False, 4),
    # on 0..4 the first witness of x >= 3 is x = 3: 1 + 4 bodies
    "exists_first_witness": (Exists("x", INT, Ge(_X, Lit(3))), True, 5),
}


@pytest.mark.parametrize("case", COST_MODEL)
def test_one_step_per_node_and_per_application(case):
    f, value, steps = COST_MODEL[case]
    ctx = make_context(Domain(0, 4))
    assert eval_formula(ctx, f, {}) is value
    assert ctx.steps == steps


def test_iteration_cap_is_defensive():
    f = App(_countdown_mu(), Lit(4))
    with pytest.raises(IterationCap):
        evaluate(f, dom=Domain(-6, 6), step_limit=10)


def test_concurrent_style_isolation():
    # separate evaluations share nothing mutable: interleaved calls with
    # distinct inputs agree with isolated calls
    dom = Domain(-5, 5)
    f1 = App(_countdown_mu(), Lit(3))
    f2 = App(_countdown_mu(), Lit(-2))
    assert evaluate(f1, dom=dom) is True
    assert evaluate(f2, dom=dom) is False
    assert evaluate(f1, dom=dom) is True


@pytest.mark.parametrize("f", [
    Abs("y", None, Ge(IntVar("y"), Lit(0))),
    Abs("x", INT, Abs("y", None, Ge(IntVar("y"), IntVar("x")))),
    App(Mu("x", None, Abs("y", INT, App(Var("x"), IntVar("y")))), Lit(0)),
    App(Nu("x", None, Abs("y", INT, Ge(IntVar("y"), Lit(0)))), Lit(0)),
], ids=["abs", "abs_in_abs", "mu", "nu"])
def test_untyped_binder_reached_is_a_value_error(f):
    with pytest.raises(ValueError, match="typed binders"):
        evaluate(f, dom=Domain(0, 4))


def _escapes_above_2(*params):
    # \params. \y. y <= 2 \/ N (y + 10), with N a recursive greatest
    # fixpoint: for y >= 3 its argument leaves 0..4 and N's key escapes
    n = Nu("n", Arrow(INT, PROP), Abs("z", INT, App(Var("n"), Plus(IntVar("z"), Lit(1)))))
    f = Abs("y", INT, Or(Ge(Lit(2), IntVar("y")), App(n, Plus(IntVar("y"), Lit(10)))))
    for p in reversed(params):
        f = Abs(p, INT, f)
    return f


def test_predicate_result_with_an_escaping_entry_is_a_range_escape():
    with pytest.raises(RangeEscape):
        evaluate(_escapes_above_2(), dom=Domain(0, 4))


def test_predicate_result_keeps_escapes_of_nested_tables():
    t = evaluate(_escapes_above_2("x"), dom=Domain(0, 4))
    assert isinstance(t, Table)
    for inner in t.entries:
        assert isinstance(inner, Table)
        assert inner.entries == (True, True, True, _ESC, _ESC)
