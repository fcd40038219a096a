import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_fixture_names, fixture_text
from gen import random_instance
from muhflz.convert import IllFormed, formula_to_hes, hes_to_formula
from muhflz.driver import approximate, prepare
from muhflz.eval import BoundedResult, Domain, IterationCap, check_validity_bounded
from muhflz.parser import parse_hes
from muhflz.syntax import (
    Abs, App, AppInt, Arrow, Equation, Ge, Hes, INT, IntVar, Lit, Mu, Nu, Or,
    And, PROP, Sign, Var, alpha_normalize, contains_mu, subformulas,
)
from muhflz.transform import ApproxParams
from muhflz.typecheck import typecheck


def test_single_equation_inlines_to_mu():
    h = typecheck(parse_hes("Main =v F 3;\nF x =u x = 0 \\/ F (x - 1);\n"))
    f = hes_to_formula(h)
    assert isinstance(f, AppInt) and f.arg == Lit(3)
    assert isinstance(f.fn, Mu)
    assert isinstance(f.fn.body, Abs)


def test_two_level_nesting_outer_first():
    # the outer equation's fixpoint must enclose the inner one
    h = typecheck(parse_hes(fixture_text("inner_outer_loop.hes")))
    f = hes_to_formula(h)
    nus = [g for g in subformulas(f) if isinstance(g, Nu)]
    assert nus, "outer greatest fixpoint missing"
    outer = nus[0]
    assert any(isinstance(g, Mu) for g in subformulas(outer.body)), (
        "inner least fixpoint must sit inside the outer binder"
    )


def test_no_fixpoints_gives_empty_equations():
    f = typecheck(Hes((), Ge(Lit(1), Lit(0)))).entry
    h = formula_to_hes(f)
    assert h.equations == ()
    assert h.entry == f


def test_round_trip_inverse_of_inlining():
    h = typecheck(parse_hes("Main =v F 3;\nF x =u x = 0 \\/ F (x - 1);\n"))
    f = hes_to_formula(h)
    h2 = formula_to_hes(f)
    assert len(h2.equations) == 1
    assert h2.equations[0].sign is Sign.MU
    f2 = hes_to_formula(typecheck(h2))
    dom = Domain(-4, 4)
    assert check_validity_bounded(f, dom) == check_validity_bounded(f2, dom)


def test_lambda_lifting_adds_captured_parameter():
    # a least fixpoint under a lambda that captures the lambda's variable
    inner = Mu(
        "L",
        Arrow(INT, PROP),
        Abs(
            "y",
            INT,
            Or(
                And(Ge(IntVar("y"), IntVar("x")), Ge(IntVar("x"), IntVar("y"))),
                AppInt(Var("L"), IntVar("y")),
            ),
        ),
    )
    f = Abs("x", INT, AppInt(inner, Lit(0)))
    wrapped = typecheck(Hes((), AppInt(f, Lit(0)))).entry
    h = formula_to_hes(wrapped)
    (eq,) = h.equations
    assert len(eq.params) == 2  # captured x plus the original y
    assert eq.params[0][1] == INT
    f2 = hes_to_formula(typecheck(h))
    dom = Domain(-4, 4)
    assert check_validity_bounded(wrapped, dom) == check_validity_bounded(f2, dom)


def test_undefined_equation_reference_rejected():
    bad = Hes(
        (Equation("F", (("x", None),), Sign.MU, App(Var("G"), Var("x"))),),
        AppInt(Var("F"), Lit(0)),
    )
    with pytest.raises(IllFormed):
        hes_to_formula(bad)


@pytest.mark.parametrize("name", all_fixture_names())
def test_fixture_inlining_closes_the_formula(name):
    from muhflz.syntax import free_vars

    h = typecheck(parse_hes(fixture_text(name)))
    f = hes_to_formula(h)
    assert free_vars(f) == set()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4000))
def test_inline_lift_semantic_round_trip(seed):
    # the approximations at the first two schedule rows are what the
    # built-in backend evaluates directly and an external solver receives
    # lifted into equations: both views must agree
    h = random_instance(seed)
    tags = prepare(h)
    inputs = [hes_to_formula(h)] + [
        approximate(tags, ApproxParams(1, 2, 1, 1, k)) for k in (1, 2)
    ]
    dom = Domain(-4, 4)
    for f in inputs:
        try:
            a = check_validity_bounded(f, dom, step_limit=200_000)
            b = check_validity_bounded(
                hes_to_formula(typecheck(formula_to_hes(f))), dom, step_limit=200_000
            )
        except IterationCap:
            continue
        if BoundedResult.RANGE_ESCAPE in (a, b):
            continue
        assert a == b


def test_alpha_normalize_idempotent_on_fixtures():
    for name in all_fixture_names():
        h = parse_hes(fixture_text(name))
        once = alpha_normalize(h)
        assert alpha_normalize(once) == once
