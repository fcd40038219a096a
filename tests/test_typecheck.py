import pytest

from conftest import all_fixture_names, fixture_text
from gen import instances
from muhflz.parser import parse_hes
from muhflz.syntax import (
    Abs, And, App, Arrow, Equation, Exists, Forall, Ge, Hes, INT, IntVar,
    Lit, Mu, Nu, PROP, TRUE, Var,
)
from muhflz.typecheck import TypeCheckError, formula_type, typecheck


def _hes(entry, *eqs):
    return Hes(tuple(eqs), entry)


def test_fixpoint_variable_and_body_must_agree():
    # mu x^{int->prop}. x 1 is ill-typed: x 1 has type prop, not int->prop
    bad = _hes(App(Mu("x", Arrow(INT, PROP), App(Var("x"), Lit(1))), Var("Z")))
    bad = Hes((Equation("Z", (), Nu, Ge(Lit(0), Lit(0))),), bad.entry)
    with pytest.raises(TypeCheckError) as e:
        typecheck(bad)
    assert e.value.rule in ("T-Mu", "T-App")


def test_formula_in_an_integer_position_is_t_int():
    # only a programmatic Hes can hold one: the parser demands an integer
    bad = _hes(Ge(Var("x"), Lit(0)))
    with pytest.raises(TypeCheckError) as e:
        typecheck(bad)
    assert e.value.rule == "T-Int"
    assert "Var(name='x')" in str(e.value)


@pytest.mark.parametrize("q, rule", [("forall", "T-Forall"), ("exists", "T-Exists")], ids=["forall", "exists"])
def test_a_quantifier_body_is_checked_under_its_own_rule(q, rule):
    with pytest.raises(TypeCheckError) as e:
        typecheck(parse_hes(f"Main =v {q} x. (\\y. y >= x);\n"))
    assert str(e.value) == f"[{rule}] quantifier body: cannot unify 't1 -> prop with prop"


@pytest.mark.parametrize("q, rule", [(Forall, "T-Forall"), (Exists, "T-Exists")], ids=["forall", "exists"])
def test_a_quantified_variable_is_an_integer(q, rule):
    # only a programmatic Hes can give a quantifier another type
    with pytest.raises(TypeCheckError) as e:
        typecheck(_hes(q("x", PROP, Ge(Lit(0), Lit(0)))))
    assert str(e.value) == f"[{rule}] quantified variable x: cannot unify prop with int"


def test_fib_gets_expected_type():
    h = typecheck(parse_hes(fixture_text("fib_termination.hes")))
    eq = h.equation("Fib")
    tys = [t for _, t in eq.params]
    assert tys == [INT, Arrow(INT, PROP)]


def test_entry_must_be_prop():
    bad = _hes(Var("F"), Equation("F", (("x", None),), Nu, Ge(IntVar("x"), Lit(0))))
    with pytest.raises(TypeCheckError) as e:
        typecheck(bad)
    assert "entry" in str(e.value)


def test_integer_variable_arguments_normalize_to_appint():
    h = typecheck(parse_hes("Main =v forall w. F w;\nF y =u y >= 0;\n"))
    call = h.entry.body
    assert isinstance(call, App)
    assert call.args == (IntVar("w"),)


def test_annotations_are_checked():
    good = _hes(
        App(Abs("p", Arrow(INT, PROP), App(Var("p"), Lit(0))), Var("Q")),
        Equation("Q", (("y", None),), Nu, Ge(IntVar("y"), Lit(0))),
    )
    typecheck(good)
    bad = _hes(
        App(Abs("p", INT, App(Var("p"), Lit(0))), Var("Q")),
        Equation("Q", (("y", None),), Nu, Ge(IntVar("y"), Lit(0))),
    )
    with pytest.raises(TypeCheckError):
        typecheck(bad)


def test_unbound_variable():
    # scope checking normally happens at parse time; programmatic trees
    # still get a typed error
    with pytest.raises(TypeCheckError):
        typecheck(_hes(Var("nope")))


@pytest.mark.parametrize(
    "h, message",
    [
        (parse_hes("Main =v F (\\y. y >= 0);\nF x =v x x;\n"), "[T-App] infinite type for argument"),
        # the rest only a programmatic Hes can hold: the parser scopes
        # names, gives each equation a predicate type and refuses a
        # repeated equation name
        (_hes(Ge(IntVar("n"), Lit(0))), "[T-Var] unbound variable n"),
        (
            _hes(App(Abs("n", None, TRUE), Mu("X", None, Var("X")))),
            "[T-Mu] fixpoint X has type int, not a predicate type",
        ),
        (
            _hes(TRUE, Equation("F", (("f", Arrow(INT, INT)),), Nu, TRUE)),
            "[T-Abs] parameter f of F: arrow returning int is not a predicate type",
        ),
        (
            _hes(Var("F"), Equation("F", (), Nu, TRUE), Equation("F", (), Mu, TRUE)),
            "[T-Var] duplicate equation F",
        ),
    ],
    ids=["occurs_check", "unbound_int", "fixpoint_not_predicate", "arrow_to_int", "duplicate"],
)
def test_ill_typed_system_names_its_rule(h, message):
    with pytest.raises(TypeCheckError) as e:
        typecheck(h)
    assert str(e.value) == message


def test_formula_type_on_annotated_tree():
    h = typecheck(parse_hes(fixture_text("succ_chain_pure.hes")))
    eq = h.equation("Succ")
    env = {n: t for n, t in eq.params}
    env["Succ"] = Arrow(eq.params[0][1], Arrow(eq.params[1][1], PROP))
    assert formula_type(eq.body, env) == PROP


@pytest.mark.parametrize("binder,rule", [(Mu, "T-Mu"), (Nu, "T-Nu")], ids=["mu", "nu"])
def test_formula_type_names_the_rule_of_an_unannotated_fixpoint(binder, rule):
    with pytest.raises(TypeCheckError) as e:
        formula_type(binder("X", None, TRUE))
    assert str(e.value) == f"[{rule}] missing annotation on X"


def test_typecheck_idempotent():
    # an already-typed system comes back equal, its equation bodies and
    # entry as the very objects it was given
    hs = [typecheck(parse_hes(fixture_text(n))) for n in all_fixture_names()]
    hs += [h for _, h in instances(200)]
    for h in hs:
        again = typecheck(h)
        assert again == h
        assert again.entry is h.entry
        assert all(a.body is b.body for a, b in zip(again.equations, h.equations))


@pytest.mark.parametrize(
    "text, message",
    [
        ("Main =v (\\x. x >= 0) /\\ true;\n", "[T-And] left operand: cannot unify 't1 -> prop with prop"),
        ("Main =v true \\/ true \\/ (\\x. x >= 0);\n", "[T-Or] right operand: cannot unify 't1 -> prop with prop"),
        # the first two operands are unified only after both are inferred,
        # each later operand right after it is inferred
        (
            "Main =v F (\\y. y >= 0);\nF X =v X /\\ X 1;\n",
            "[T-And] left operand: cannot unify int -> 't2 with prop",
        ),
        (
            "Main =v F (\\y. y >= 0);\nF X =v X /\\ true /\\ X 1;\n",
            "[T-AppInt] function position: cannot unify prop with int -> 't2",
        ),
    ],
)
def test_junction_operands_are_checked_in_order(text, message):
    with pytest.raises(TypeCheckError) as e:
        typecheck(parse_hes(text))
    assert str(e.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("Main =v F 1 F;\nF x p =v p x;\n", "[T-App] argument: cannot unify prop with 't2 -> prop"),
        (
            "Main =v X 1 2;\nX y =v y >= 0;\n",
            "[T-AppInt] function position: cannot unify prop with int -> 't2",
        ),
        (
            "Main =v F (\\y. y >= 0);\nF X =v X 1 /\\ X true;\n",
            "[T-App] argument: cannot unify int with prop",
        ),
    ],
)
def test_application_arguments_are_checked_in_order(text, message):
    with pytest.raises(TypeCheckError) as e:
        typecheck(parse_hes(text))
    assert str(e.value) == message


def test_binder_types_follow_visiting_order():
    # one unannotated lambda object at two positions with different types
    lam = Abs("g", None, Var("g"))
    defs = parse_hes("Main =v P1 0;\nP1 x =v x >= 0;\nP2 x y =v x >= y;\n").equations
    first = App(App(lam, Var("P1")), Lit(0))
    second = App(App(App(lam, Var("P2")), Lit(0)), Lit(0))
    h = typecheck(Hes(defs, And(first, second)))
    left, right = h.entry.children
    assert left.head.ty == Arrow(INT, PROP)
    assert right.head.ty == Arrow(INT, Arrow(INT, PROP))


@pytest.mark.parametrize(
    "text, name",
    [
        # printed tests/gen.py instances 456, 539 and 1266: a predicate
        # parameter applied only inside the equation's own recursive call
        (
            "Main =v exists q4. (0 >= 1 \\/ q4 >= q4 + q4) /\\ q4 + q4 >= -1;\n"
            "X1 p1 =u X1 (\\a3. p1 (-2));\n"
            "X2 x2 =u x2 >= -1 \\/ X2 (x2 - 1);\n",
            "X1",
        ),
        ("Main =v exists q3. -2 + q3 >= 2;\nX1 p1 =u X1 (\\a2. p1 (-1));\n", "X1"),
        (
            "Main =v X1 (\\a7. a7 >= 0 /\\ 2 * a7 >= a7);\n"
            "X1 p1 =u X1 (\\a3. 1 * a3 >= a3 + a3);\n"
            "X2 p2 =u X2 (\\a4. p2 (a4 + a4));\n",
            "X2",
        ),
    ],
)
def test_unconstrained_result_defaults_to_prop(text, name):
    h = typecheck(parse_hes(text))
    (_, pty), = h.equation(name).params
    assert pty == Arrow(INT, PROP)
    assert typecheck(h) == h
