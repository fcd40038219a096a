import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_fixture_names, fixture_text
from gen import instances, random_instance
from muhflz.convert import formula_to_hes, hes_to_formula
from muhflz.eval import (
    BoundedResult, Domain, IterationCap, check_validity_bounded, evaluate,
)
from muhflz.parser import parse_formula, parse_hes
from muhflz.printer import print_hes
from muhflz.syntax import (
    Abs, And, App, AppInt, Arrow, Exists, FALSE, Forall, Ge, INT, IntAbs,
    IntVar, Lit, Mu, Nu, Or, PROP, Plus, Sign, TRUE, Times, Var, contains_mu,
    formula_has_int_abs, free_vars, spine, subformulas,
)
from muhflz.driver import approximate, prepare
from muhflz.tags import infer_tags_formula
from muhflz.transform import (
    AbsInIllegalPosition, ApproxParams, PartialMuApplication, dual_hes,
    dualize, desugar_quantifiers, eliminate_abs, eta_expand_mu_partials,
    sign_bounds, transform_formula,
)
from muhflz.typecheck import typecheck

DOM3 = Domain(-3, 3)


# ---------------------------------------------------------------------------
# dualize


@pytest.mark.parametrize("name", all_fixture_names())
def test_dualize_involution_on_fixtures(name):
    h = parse_hes(fixture_text(name))
    assert dualize(dualize(h.entry)) == h.entry
    for eq in h.equations:
        assert dualize(dualize(eq.body)) == eq.body


def test_dualize_false_atom_is_true_atom():
    d = dualize(FALSE)
    assert d == TRUE
    assert evaluate(d) is True


def test_dualize_swaps_everything():
    f = parse_formula("forall x. x >= 0 /\\ exists y. y >= x")
    d = dualize(f)
    assert isinstance(d, Exists) and isinstance(d.body, Or)
    assert isinstance(d.body.rhs, Forall)


def test_dual_hes_flips_signs():
    h = parse_hes(fixture_text("countdown.hes"))
    d = dual_hes(h)
    assert d.equations[0].sign is Sign.NU


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4000))
def test_dualize_involution_generated(seed):
    h = random_instance(seed)
    f = hes_to_formula(h)
    assert dualize(dualize(f)) == f


# ---------------------------------------------------------------------------
# eta expansion


def test_partial_application_gets_wrapped():
    h = typecheck(parse_hes(fixture_text("partial_apply.hes")))
    f = eta_expand_mu_partials(hes_to_formula(h))
    # somewhere G is applied to a lambda whose body fully applies F
    wrapped = [
        g
        for g in subformulas(f)
        if isinstance(g, App) and isinstance(g.arg, Abs)
    ]
    assert wrapped, "the partially applied least fixpoint must be eta-wrapped"


def test_fully_applied_is_fixed_point():
    h = typecheck(parse_hes(fixture_text("countdown.hes")))
    f = hes_to_formula(h)
    assert eta_expand_mu_partials(f) == f


def test_binder_that_rebinds_a_mu_name_ends_its_scope():
    # mu X. \x. x >= 0 \/ (\X. X) X (x - 1), applied to 3: the outer X is
    # the least fixpoint and is expanded; inside \X the name is the lambda's
    # parameter, which stays as it is
    pred = Arrow(INT, PROP)
    rebind = Abs("X", pred, Var("X"))
    step = AppInt(App(rebind, Var("X")), Plus(IntVar("x"), Lit(-1)))
    f = AppInt(Mu("X", pred, Abs("x", INT, Or(Ge(IntVar("x"), Lit(0)), step))), Lit(3))
    g = eta_expand_mu_partials(f)
    head, args = spine(g.fn.body.body.rhs)
    assert head is rebind
    assert isinstance(args[0], Abs) and args[0].body == AppInt(Var("X"), IntVar(args[0].param))
    assert check_validity_bounded(g, DOM3) == check_validity_bounded(f, DOM3)


def test_arity_three_partial_agrees_with_original():
    text = (
        "Main =v G (F 1 2);\n"
        "G p =v p 0;\n"
        "F a b c =u a + b + c <= 0 \\/ F (a - 1) b c;\n"
    )
    h = typecheck(parse_hes(text))
    f = hes_to_formula(h)
    g = eta_expand_mu_partials(f)
    assert g != f
    dom = Domain(-3, 3)
    assert check_validity_bounded(f, dom) == check_validity_bounded(g, dom)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4000))
def test_eta_preserves_semantics(seed):
    h = random_instance(seed)
    f = hes_to_formula(h)
    try:
        a = check_validity_bounded(f, DOM3, step_limit=200_000)
        b = check_validity_bounded(eta_expand_mu_partials(f), DOM3, step_limit=200_000)
    except IterationCap:
        return
    if BoundedResult.RANGE_ESCAPE in (a, b):
        return
    assert a == b


# ---------------------------------------------------------------------------
# quantifier desugaring


def typecheck_formula(f):
    from muhflz.syntax import Hes

    return typecheck(Hes((), f)).entry


def test_desugared_has_no_quantifiers():
    f = parse_formula("forall x. x >= 0 \\/ 0 >= x")
    g = desugar_quantifiers(typecheck_formula(f))
    assert not any(isinstance(s, (Forall, Exists)) for s in subformulas(g))


def test_desugared_forall_agrees_under_clamping():
    f = typecheck_formula(parse_formula("forall x. x >= 0 \\/ 0 >= x"))
    dom = Domain(-4, 4, strict=False)
    assert evaluate(f, dom=dom) is True
    assert evaluate(desugar_quantifiers(f), dom=dom) is True


def test_quantifier_free_unchanged():
    f = typecheck_formula(parse_formula("1 >= 0 /\\ 0 >= 0"))
    assert desugar_quantifiers(f) == f


def test_desugared_exists_needs_the_witness_in_window():
    f = typecheck_formula(parse_formula("exists x. x >= 5"))
    g = desugar_quantifiers(f)
    assert check_validity_bounded(g, Domain(0, 8, strict=False)) is BoundedResult.VALID
    assert check_validity_bounded(g, Domain(0, 4, strict=False)) is BoundedResult.INVALID


# ---------------------------------------------------------------------------
# least-fixpoint elimination


def _transformed(text_or_name, params, fixture=True):
    text = fixture_text(text_or_name) if fixture else text_or_name
    h = typecheck(parse_hes(text))
    return formula_to_hes(approximate(prepare(h), params))


def test_countdown_step_one_valid():
    out = _transformed("countdown.hes", ApproxParams(1, 1, 1, 1))
    f = hes_to_formula(typecheck(out))
    assert check_validity_bounded(f, Domain(-6, 6)) is BoundedResult.VALID


def test_fib_has_leading_counter():
    out = _transformed("fib_termination.hes", ApproxParams(1, 1, 1, 1))
    eq = [e for e in out.equations if e.name.startswith("Fib")][0]
    assert eq.sign is Sign.NU
    assert eq.params[0][1] == INT  # the unfolding counter leads
    text = print_hes(out)
    assert ">= 1" in text  # the counter guard


def test_succ_chain_matches_companion_shape():
    out = _transformed("succ_chain_pure.hes", ApproxParams(1, 1, 1, 1))
    text = print_hes(out)
    # the level predicate gains a companion that is threaded through the
    # recursive call and scaled into F's budget
    all_eq = [e for e in out.equations if e.name.startswith("All")][0]
    assert [t for _, t in all_eq.params[:1]] == [INT]
    # two-layer budget c*(c'*v + d') + d with c=c'=d=d'=1 folds to v + 2
    assert "+ 2)" in text
    succ = [e for e in out.equations if e.name.startswith("Succ")][0]
    assert len(succ.params) == 2  # untagged: no companions added


def test_ackermann_two_counter_shape():
    h = typecheck(parse_hes(fixture_text("ackermann.hes")))
    out = formula_to_hes(approximate(prepare(h), ApproxParams(1, 1, 1, 1, counters=2)))
    ack = [e for e in out.equations if e.name.startswith("Ack")][0]
    assert [t for _, t in ack.params[:2]] == [INT, INT]
    text = print_hes(out)
    assert "forall" in text  # quantified resets
    assert ">= 0" in text  # multi-counter guards
    # the chooser decrements one counter or resets the lower one
    assert "- 1" in text


def test_nu_only_and_typed_on_fixtures():
    for name in all_fixture_names():
        h = typecheck(parse_hes(fixture_text(name)))
        out = formula_to_hes(approximate(prepare(h), ApproxParams(1, 2, 1, 1)))
        for eq in out.equations:
            assert eq.sign is Sign.NU, f"{name}: mu equation survived"
        f = hes_to_formula(typecheck(out))
        assert not contains_mu(f)
        assert not formula_has_int_abs(f)


def test_eta_precondition_enforced():
    # hand the transformer the raw inlined formula (eta pass skipped): the
    # partial application of the least fixpoint must be rejected, never
    # silently mis-approximated
    h = typecheck(parse_hes(fixture_text("partial_apply.hes")))
    f = hes_to_formula(h)
    with pytest.raises(PartialMuApplication):
        transform_formula(infer_tags_formula(f), ApproxParams(1, 1, 1, 1))


def test_degenerate_nullary_mu():
    from muhflz.syntax import Hes

    h = typecheck(Hes((), Mu("p", PROP, Var("p"))))
    tags = prepare(h)
    out = transform_formula(tags, ApproxParams(1, 2, 1, 1))
    assert not contains_mu(out)
    # counter still added; the budget is the constant d
    assert check_validity_bounded(eliminate_abs(out), Domain(-4, 4)) is BoundedResult.INVALID


# ---------------------------------------------------------------------------
# absolute-value elimination


def test_abs_form_and_quantified_form_agree():
    h = typecheck(parse_hes(fixture_text("partial_apply.hes")))
    tags = prepare(h)
    direct = transform_formula(tags, ApproxParams(1, 1, 1, 1))
    assert formula_has_int_abs(direct)
    noabs = eliminate_abs(direct)
    assert not formula_has_int_abs(noabs)
    dom = Domain(-3, 3)
    a = check_validity_bounded(direct, dom)
    b = check_validity_bounded(noabs, dom)
    if a is not BoundedResult.RANGE_ESCAPE:
        assert a == b


def test_two_variable_budget_expands_four_bounds():
    h = typecheck(parse_hes(fixture_text("partial_apply.hes")))
    out = formula_to_hes(approximate(prepare(h), ApproxParams(1, 2, 1, 1)))
    text = print_hes(out)
    # |x| and |y| in one budget: four sign combinations guard the counter
    entry_line = text.splitlines()[0]
    assert entry_line.count(">= u") == 4


def test_constant_budget_introduces_no_quantifier():
    out = _transformed(
        "Main =v F 0;\nF x =u x = 0 \\/ F (x - 1);\n", ApproxParams(0, 3, 0, 1), fixture=False
    )
    text = print_hes(out)
    assert "forall" not in text
    assert "F 3 0" in text  # the literal budget is passed directly


def _int_value(e, env):
    match e:
        case Lit(n):
            return n
        case IntVar(x):
            return env[x]
        case IntAbs(a):
            return abs(_int_value(a, env))
        case Plus(l, r):
            return _int_value(l, env) + _int_value(r, env)
        case Times(l, r):
            return _int_value(l, env) * _int_value(r, env)


_X, _V = IntVar("x"), IntVar("v")


@pytest.mark.parametrize(
    "e",
    [
        Times(Lit(2), IntAbs(_X)),
        # a companion holding |x|, scaled at a c=2 row
        Times(Lit(2), Plus(Times(Lit(2), IntAbs(_X)), Lit(2))),
        Plus(Times(Plus(IntAbs(_X), _V), Lit(3)), Lit(1)),
    ],
    ids=["scaled_abs", "scaled_companion", "factor_on_the_right"],
)
def test_sign_bounds_maximum_is_the_expression(e):
    bounds = sign_bounds(e)
    for x in range(-5, 6):
        for v in (-2, 0, 3):
            env = {"x": x, "v": v}
            assert max(_int_value(b, env) for b in bounds) == _int_value(e, env)


def test_non_linear_abs_still_rejected():
    with pytest.raises(AbsInIllegalPosition):
        sign_bounds(Times(_V, Plus(IntAbs(_X), Lit(1))))


def test_leftover_abs_rejected():
    from muhflz.syntax import Ge, Hes, IntAbs

    bad = Ge(IntAbs(IntVar("x")), Lit(0))
    with pytest.raises(AbsInIllegalPosition):
        eliminate_abs(typecheck(Hes((), Forall("x", bad))).entry)


# ---------------------------------------------------------------------------
# property suites (smaller mirrors of the acceptance runs)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3000))
def test_transform_output_nu_only_generated(seed):
    h = random_instance(seed)
    tags = prepare(h)
    try:
        out = transform_formula(tags, ApproxParams(1, 2, 1, 1))
    except PartialMuApplication:
        pytest.fail("eta expansion should have removed every partial")
    assert not contains_mu(out)
