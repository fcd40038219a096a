import pytest
from hypothesis import given, settings, strategies as st

import muhflz.convert
from conftest import all_fixture_names, fixture_text
from gen import instances, random_instance
from muhflz.convert import IllFormed, formula_to_hes, hes_to_formula
from muhflz.driver import approximate, prepare
from muhflz.eval import BoundedResult, Domain, IterationCap, check_validity_bounded
from muhflz.parser import parse_hes
from muhflz.syntax import (
    Abs, App, Arrow, BINDERS, Equation, Ge, Hes, INT, IntVar, Lit, Mu, Nu,
    Or, And, Forall, NameSupply, PROP, Var, contains_mu, free_vars,
    names_in_formula, peel, subformulas,
)
from muhflz.printer import print_hes
from muhflz.transform import ApproxParams, dual_hes
from muhflz.typecheck import typecheck


def test_single_equation_inlines_to_mu():
    h = typecheck(parse_hes("Main =v F 3;\nF x =u x = 0 \\/ F (x - 1);\n"))
    f = hes_to_formula(h)
    assert isinstance(f, App) and f.args == (Lit(3),)
    assert isinstance(f.head, Mu)
    assert isinstance(f.head.body, Abs)


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
    assert h2.equations[0].sign is Mu
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
                App(Var("L"), IntVar("y")),
            ),
        ),
    )
    f = Abs("x", INT, App(inner, Lit(0)))
    wrapped = typecheck(Hes((), App(f, Lit(0)))).entry
    h = formula_to_hes(wrapped)
    (eq,) = h.equations
    assert len(eq.params) == 2  # captured x plus the original y
    assert eq.params[0][1] == INT
    f2 = hes_to_formula(typecheck(h))
    dom = Domain(-4, 4)
    assert check_validity_bounded(wrapped, dom) == check_validity_bounded(f2, dom)


def test_undefined_equation_reference_rejected():
    bad = Hes(
        (Equation("F", (("x", None),), Mu, App(Var("G"), Var("x"))),),
        App(Var("F"), Lit(0)),
    )
    with pytest.raises(IllFormed):
        hes_to_formula(bad)


@pytest.mark.parametrize("name", all_fixture_names())
def test_fixture_inlining_closes_the_formula(name):
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


def _renamed(monkeypatch, h):
    """What ``hes_to_formula(h)`` renames ``h`` to before it inlines: the
    system with each equation's parameters and body renamed, as one closed
    lambda, and its entry renamed; and the names its supply then holds."""
    made = []
    real = muhflz.convert.alpha_normalize_formula

    def spy(f, supply, env=None):
        made.append((real(f, supply, env), set(supply.taken)))
        return made[-1][0]

    with monkeypatch.context() as m:
        m.setattr(muhflz.convert, "alpha_normalize_formula", spy)
        hes_to_formula(h)
    # the first calls rename each equation, then the entry; copies follow
    n = len(h.equations)
    eqs = []
    for eq, (closed, _) in zip(h.equations, made):
        params, body = peel(closed, [ty for _, ty in eq.params], NameSupply())
        eqs.append(Equation(eq.name, tuple(params), eq.sign, body))
    entry, taken = made[n]
    return Hes(tuple(eqs), entry), taken


def test_alpha_normalize_idempotent_on_fixtures(monkeypatch):
    for name in all_fixture_names():
        once, _ = _renamed(monkeypatch, typecheck(parse_hes(fixture_text(name))))
        assert _renamed(monkeypatch, once)[0] == once


def test_lifting_passes_captured_variables_through_an_enclosing_head():
    # Z uses X, whose head takes the quantified y: Z must take y as well
    f = Forall("y", INT, Nu("X", PROP, And(
        Ge(IntVar("y"), Lit(0)), Nu("Z", PROP, And(Var("X"), Var("Z")))
    )))
    h = formula_to_hes(f)
    assert print_hes(h) == (
        "Main =v forall y_2. X_2 y_2;\n"
        "X_2 y_2 =v y_2 >= 0 /\\ Z_2 y_2;\n"
        "Z_2 y_2 =v X_2 y_2 /\\ Z_2 y_2;\n"
    )
    typecheck(h)


def test_lifting_captures_a_predicate_variable():
    pred = Arrow(INT, PROP)
    f = App(
        Abs("p", pred, Nu("X", PROP, And(App(Var("p"), Lit(0)), Var("X")))),
        Abs("y", INT, Ge(IntVar("y"), Lit(0))),
    )
    h = formula_to_hes(f)
    (eq,) = h.equations
    assert eq.params == (("p_2", pred),)
    dom = Domain(-2, 2)
    f2 = hes_to_formula(typecheck(h))
    assert check_validity_bounded(f, dom) == check_validity_bounded(f2, dom)


def test_inlining_makes_one_copy_per_target():
    # Main uses X2 twice, one use nested in the other's argument, and X1
    # is inlined into Main after X2: both uses must stay one object
    h = typecheck(parse_hes(
        "Main =v X2 (\\a. X2 (\\b. b >= a) (a + 1)) 0 \\/ X1 (\\c. c >= 0);\n"
        "X1 p =v p (-1);\n"
        "X2 p x =u -1 >= x \\/ X2 p (x + 1);\n"
    ))
    f = hes_to_formula(h)
    uses = [g for g in subformulas(f) if isinstance(g, Mu)]
    assert len(uses) == 2
    assert uses[0] is uses[1]


@pytest.mark.parametrize("name", all_fixture_names())
def test_inlining_walks_free_variables_only_to_check_names(monkeypatch, name):
    # one free-variable walk per equation body and one of the entry, for the
    # undefined-name checks; a copy is made when its first occurrence is met
    h = typecheck(parse_hes(fixture_text(name)))
    calls = []
    real = muhflz.convert.free_vars
    monkeypatch.setattr(muhflz.convert, "free_vars", lambda f: (calls.append(f), real(f))[1])
    hes_to_formula(h)
    assert len(calls) == len(h.equations) + 1


def test_normalizing_takes_every_name_that_closing_must_avoid(monkeypatch):
    # hes_to_formula's copies draw from the supply that renamed the system:
    # every equation, parameter and binder name, so every name of the system
    hs = [h for _, h in instances(100)]
    hs += [typecheck(parse_hes(fixture_text(n))) for n in all_fixture_names()]
    for h in hs:
        for g in (h, dual_hes(h)):
            g, taken = _renamed(monkeypatch, g)
            names = names_in_formula(g.entry).union(*[
                {eq.name, *[p for p, _ in eq.params]} | names_in_formula(eq.body)
                for eq in g.equations
            ])
            assert taken == names


def test_binders_that_share_a_name_are_equal_subtrees():
    # the tag derivation keys binders by name
    hs = [h for _, h in instances(200)]
    hs += [typecheck(parse_hes(fixture_text(n))) for n in all_fixture_names()]
    binders = shared = 0
    for h in hs:
        for g in (h, dual_hes(h)):
            first = {}
            for node in subformulas(hes_to_formula(g)):
                if isinstance(node, BINDERS):
                    binders += 1
                    if node.name in first:
                        assert node == first[node.name], node.name
                        shared += 1
                    else:
                        first[node.name] = node
    assert binders > 1_000 and shared > 200
