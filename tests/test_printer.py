import hashlib
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES, all_fixture_names, fixture_text
from gen import instances
from muhflz.convert import formula_to_hes, hes_to_formula
from muhflz.parser import parse_formula, parse_hes
from muhflz.printer import PrintError, print_formula, print_hes
from muhflz.syntax import (
    Abs, And, App, Equation, Forall, Ge, Hes, INT, IntAbs, IntVar, Lit,
    Mu, Nu, Or, Plus, PROP, Times, Var,
)
from muhflz.transform import desugar_quantifiers
from muhflz.typecheck import typecheck


def test_deterministic_output():
    text = fixture_text("fib_termination.hes")
    assert print_hes(parse_hes(text)) == print_hes(parse_hes(text))
    # nor does the output depend on the string hash seed
    for emit, name in (("dual", "fib_termination"), ("nu", "countdown"), ("tags", "countdown")):
        emitted = [
            subprocess.run(
                [sys.executable, "-m", "muhflz.cli", "--emit", emit, str(FIXTURES / f"{name}.hes")],
                capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed}, check=True,
            ).stdout
            for seed in ("1", "2")
        ]
        assert emitted[0] == emitted[1] and emitted[0], (emit, name)


def test_lambda_syntax():
    h = Hes((), App(Var("G"), Abs("x", None, Ge(IntVar("x"), Lit(0)))))
    h = Hes((Equation("G", (("p", None),), Nu, App(Var("p"), Var("p"))),), h.entry)
    out = print_hes(h)
    assert "\\x. x >= 0" in out


def test_internal_abs_node_refused():
    bad = Hes((), App(Var("F"), IntAbs(IntVar("x"))))
    bad = Hes((Equation("F", (("y", None),), Nu, Ge(IntVar("y"), Lit(0))),), bad.entry)
    with pytest.raises(PrintError):
        print_hes(bad)


def test_fixpoint_binder_has_no_concrete_syntax():
    with pytest.raises(PrintError):
        print_formula(Mu("x", PROP, Var("x")))


def test_subtraction_resugars():
    h = parse_hes("Main =v F (x0 - 1);\nF y =v y >= 0;\n".replace("x0", "1"))
    # 1 - 1 folds to a literal at parse time; check the general var case
    h2 = parse_hes("Main =v G;\nG =v forall x. F (x - 1);\nF y =v y >= 0;\n")
    assert "x - 1" in print_hes(h2)


x, y, z, w = IntVar("x"), IntVar("y"), IntVar("z"), IntVar("w")

# each integer shape the parser builds, with the text it prints as
INT_SHAPES = [
    (Plus(Plus(x, y), z), "x + y + z"),
    (Plus(x, Plus(y, z)), "x + (y + z)"),
    (Plus(x, Times(Lit(-1), y)), "x - y"),
    (Plus(Plus(x, Times(Lit(-1), y)), Times(Lit(-1), z)), "x - y - z"),
    (Plus(x, Times(Lit(-1), Plus(y, Times(Lit(-1), z)))), "x - (y - z)"),
    (Plus(x, Times(Lit(-1), Times(y, z))), "x - (y * z)"),
    (Plus(x, Times(Lit(2), y)), "x + 2 * y"),
    (Times(Times(x, y), z), "x * y * z"),
    (Times(x, Times(y, z)), "x * (y * z)"),
    (Times(Plus(x, y), z), "(x + y) * z"),
    (Times(Lit(2), Plus(x, Lit(-1))), "2 * (x - 1)"),
    (Times(Lit(-1), x), "-1 * x"),
    (Lit(-3), "-3"),
    (Plus(x, Lit(-3)), "x - 3"),
    (Plus(Lit(-3), x), "-3 + x"),
    (Times(Lit(-3), x), "-3 * x"),
    (Times(x, Lit(-3)), "x * (-3)"),
    # a product that starts with -1 but has three factors is not a "- e"
    (Plus(y, Times(Times(Lit(-1), x), z)), "y + -1 * x * z"),
]


@pytest.mark.parametrize("e, text", INT_SHAPES, ids=[t for _, t in INT_SHAPES])
def test_integer_shape_prints_and_reparses(e, text):
    # as the left side of a comparison, and as an application argument
    ge, app = Ge(e, w), App(Var("F"), e)
    assert print_formula(ge) == f"{text} >= w"
    assert print_formula(app) == f"F ({text})"
    assert parse_formula(f"{text} >= w") == ge
    assert parse_formula(f"F ({text})") == app


def test_literal_argument_prints_bare_unless_negative():
    assert print_formula(App(Var("F"), Lit(3))) == "F 3"
    assert parse_formula("F 3") == App(Var("F"), Lit(3))


a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
x_ge_y, y_ge_x = Ge(x, y), Ge(y, x)
x_gt_y, y_gt_x = Ge(Plus(x, Lit(-1)), y), Ge(Plus(y, Lit(-1)), x)
all_x = Forall("x", INT, Ge(x, Lit(0)))

# each junction shape, with the text it prints as
JUNCTION_SHAPES = [
    (Or(Or(a, b), c), "a \\/ b \\/ c"),
    (Or(a, Or(b, c)), "a \\/ (b \\/ c)"),
    (And(And(a, b), c), "a /\\ b /\\ c"),
    (And(a, And(b, c)), "a /\\ (b /\\ c)"),
    (Or(Or(And(a, b), c), d), "a /\\ b \\/ c \\/ d"),
    (Or(And(a, b), And(c, d)), "a /\\ b \\/ c /\\ d"),
    (And(And(a, Or(b, c)), d), "a /\\ (b \\/ c) /\\ d"),
    (And(Or(a, b), Or(c, d)), "(a \\/ b) /\\ (c \\/ d)"),
    # "=" is a conjunction and "!=" a disjunction of two atoms
    (And(And(x_ge_y, y_ge_x), a), "x >= y /\\ y >= x /\\ a"),
    (And(And(a, And(x_ge_y, y_ge_x)), b), "a /\\ (x >= y /\\ y >= x) /\\ b"),
    (Or(Or(x_gt_y, y_gt_x), a), "x - 1 >= y \\/ y - 1 >= x \\/ a"),
    (Or(Or(a, Or(x_gt_y, y_gt_x)), b), "a \\/ (x - 1 >= y \\/ y - 1 >= x) \\/ b"),
    # a binder reaches as far right as it can, so it is parenthesized
    (Or(Or(all_x, a), b), "(forall x. x >= 0) \\/ a \\/ b"),
    (Or(Or(a, all_x), b), "a \\/ (forall x. x >= 0) \\/ b"),
    (And(a, all_x), "a /\\ (forall x. x >= 0)"),
]


@pytest.mark.parametrize("f, text", JUNCTION_SHAPES, ids=[t for _, t in JUNCTION_SHAPES])
def test_junction_shape_prints_and_reparses(f, text):
    assert print_formula(f) == text
    assert parse_formula(text) == f


def test_sugar_reads_as_its_junction():
    assert parse_formula("x = y /\\ a") == And(And(x_ge_y, y_ge_x), a)
    assert parse_formula("a /\\ x = y /\\ b") == And(And(a, And(x_ge_y, y_ge_x)), b)
    assert parse_formula("x != y \\/ a") == Or(Or(x_gt_y, y_gt_x), a)
    assert parse_formula("a \\/ x != y \\/ b") == Or(Or(a, Or(x_gt_y, y_gt_x)), b)


def test_desugared_walker_prints_right_nested():
    h = typecheck(parse_hes("Main =v forall x. exists y. x + y >= 0;\n"))
    text = print_hes(formula_to_hes(desugar_quantifiers(hes_to_formula(h))))
    assert text == (
        "Main =v Q_3 (\\x_8. Q_4 (\\y_2. x_8 + y_2 >= 0));\n"
        "Q_3 p_3 =v p_3 0 /\\ (Q_3 (\\x_6. p_3 (x_6 - 1)) /\\ Q_3 (\\x_7. p_3 (x_7 + 1)));\n"
        "Q_4 p_4 =u p_4 0 \\/ (Q_4 (\\x_9. p_4 (x_9 - 1)) \\/ Q_4 (\\x_10. p_4 (x_10 + 1)));\n"
    )
    assert print_hes(parse_hes(text)) == text


f, g, F, G = Var("f"), Var("g"), Var("F"), Var("G")
x_ge_0 = Ge(x, Lit(0))

# each application shape: its source text, what it parses to, and the text
# that prints as
APP_SHAPES = [
    ("f a b", App(App(f, a), b), "f a b"),
    ("(f a) b", App(App(f, a), b), "f a b"),
    ("(f a b) c", App(App(App(f, a), b), c), "f a b c"),
    ("f (g a) b", App(App(f, App(g, a)), b), "f (g a) b"),
    ("f (a b)", App(f, App(a, b)), "f (a b)"),
    ("F (x + 1) y", App(App(F, Plus(x, Lit(1))), Var("y")), "F (x + 1) y"),
    ("F (-3) x", App(App(F, Lit(-3)), Var("x")), "F (-3) x"),
    ("(\\x. x >= 0) 3", App(Abs("x", None, x_ge_0), Lit(3)), "(\\x. x >= 0) 3"),
    (
        "f (\\x. g x) 2",
        App(App(f, Abs("x", None, App(g, Var("x")))), Lit(2)),
        "f (\\x. g x) 2",
    ),
    ("F x \\/ G y z", Or(App(F, Var("x")), App(App(G, Var("y")), Var("z"))), "F x \\/ G y z"),
]


@pytest.mark.parametrize("source, f, text", APP_SHAPES, ids=[s for s, _, _ in APP_SHAPES])
def test_application_shape_prints_and_reparses(source, f, text):
    assert parse_formula(source) == f
    assert print_formula(f) == text
    assert parse_formula(text) == f


# tests/gen.py instances 0..1259: the benchmark's corpus and external seeds
GENERATED = "gen0-1259"
# sha256 over their printed texts, in seed order; recorded before print_hes
# moved from class patterns to type dispatch, whose output must not change
GENERATED_SHA256 = "aa7196e3b9ada2d7fdfdec50c1ce7a05065c304cabb65be9e6038d92c4daa6e6"


@pytest.mark.parametrize("name", [*all_fixture_names(), GENERATED])
def test_print_parse_print_stable(name):
    if name == GENERATED:
        hs = [h for _, h in instances(1260)]
    else:
        hs = [parse_hes(fixture_text(name))]
    texts = [print_hes(h) for h in hs]
    for once in texts:
        assert print_hes(parse_hes(once)) == once
    if name == GENERATED:
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == GENERATED_SHA256
