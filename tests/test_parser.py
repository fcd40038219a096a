import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_fixture_names, fixture_text
from gen import random_instance
from muhflz.parser import (
    MAX_NESTING, NestingTooDeep, ParseError, parse_formula, parse_hes,
)
from muhflz.printer import print_hes
from muhflz.syntax import (
    And, App, Exists, FALSE, Forall, Ge, IntVar, Lit, Mu, Or,
    Plus, Times, TRUE, Var,
)


def test_single_mu_equation():
    h = parse_hes("Main =v F 0;\nF x =u x >= 0 /\\ x <= 0 \\/ F (x - 1);\n")
    assert h.entry == App(Var("F"), Lit(0))
    assert len(h.equations) == 1
    eq = h.equations[0]
    assert eq.name == "F" and eq.sign is Mu
    assert eq.params == (("x", None),)


def test_countdown_shape():
    h = parse_hes(fixture_text("countdown.hes"))
    # forall w. w <= -1 \/ F w, with <= rendered as a >=-only atom
    assert isinstance(h.entry, Forall)
    body = h.entry.body
    assert body == Or(Ge(Lit(-1), IntVar("w")), App(Var("F"), Var("w")))
    eq = h.equations[0]
    assert eq.sign is Mu
    # y = 0 desugars into a conjunction of >= atoms; the compound
    # argument parses straight into an integer application
    assert eq.body == Or(
        And(Ge(IntVar("y"), Lit(0)), Ge(Lit(0), IntVar("y"))),
        App(Var("F"), Plus(IntVar("y"), Lit(-1))),
    )


def test_undefined_name_rejected():
    with pytest.raises(ParseError) as e:
        parse_hes("Main =v X;\n")
    assert "X" in str(e.value)
    assert e.value.line == 1


def test_error_carries_position_and_expected():
    with pytest.raises(ParseError) as e:
        parse_hes("Main =v forall w w >= 0;\n")
    assert e.value.line == 1
    assert e.value.col > 1
    assert e.value.expected


def test_missing_main_rejected():
    with pytest.raises(ParseError):
        parse_hes("F x =u x >= 0;\n")


def test_main_with_params_rejected():
    with pytest.raises(ParseError):
        parse_hes("Main x =v x >= 0;\n")


def test_recursive_main_rejected():
    with pytest.raises(ParseError):
        parse_hes("Main =v Main;\n")


def test_duplicate_equations_rejected():
    with pytest.raises(ParseError) as e:
        parse_hes("Main =v F 0;\nF x =u x >= 0;\n  F y =v y >= 0;\n")
    # reported at the duplicate's name
    assert (e.value.line, e.value.col, e.value.found) == (3, 3, "F")
    # the entry equation is no exception
    with pytest.raises(ParseError) as e:
        parse_hes("Main =v true;\nMain =v false;\n")
    assert (e.value.line, e.value.col, e.value.found) == (2, 1, "Main")


def test_comparison_sugar():
    f = parse_formula("x != 0")
    assert f == Or(Ge(IntVar("x"), Lit(1)), Ge(Lit(-1), IntVar("x")))
    assert parse_formula("x < 2") == Ge(Lit(1), IntVar("x"))
    assert parse_formula("x > 1") == Ge(IntVar("x"), Lit(2))
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE


def test_subtraction_desugars():
    f = parse_formula("F (x - y) (x - 1)")
    first, second = f.args
    assert first == Plus(IntVar("x"), Times(Lit(-1), IntVar("y")))
    assert second == Plus(IntVar("x"), Lit(-1))


def test_negative_literal():
    f = parse_formula("F (-3)")
    assert f == App(Var("F"), Lit(-3))


def test_comments_and_lambda():
    h = parse_hes("# a comment\nMain =v G (\\x y. x >= y) 1;\nG p z =v p z z;\n")
    assert isinstance(h.entry, App) and h.entry.args[-1] == Lit(1)


def test_quantifier_scopes_extend_right():
    f = parse_formula("forall x. x >= 0 \\/ exists y. y >= x")
    assert isinstance(f, Forall)
    assert isinstance(f.body, Or)
    _, last = f.body.children
    assert isinstance(last, Exists)


def test_operator_precedence():
    f = parse_formula("a \\/ b /\\ c")
    assert isinstance(f, Or) and isinstance(f.children[1], And)
    assert len(f.children) == 2


@pytest.mark.parametrize("name", all_fixture_names())
def test_fixture_round_trip(name):
    h = parse_hes(fixture_text(name))
    assert parse_hes(print_hes(h)) == h


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5000))
def test_generated_round_trip(seed):
    h = random_instance(seed)
    h1 = parse_hes(print_hes(h))
    # printing drops type annotations and App/AppInt normalization, so
    # compare the printed texts instead of the trees
    assert print_hes(h1) == print_hes(h)
    assert parse_hes(print_hes(h1)) == h1


def test_deep_nesting_is_a_parse_error():
    # the parser bounds its own recursion: library callers get a
    # ParseError, not a RecursionError, at the first level too deep
    inner = MAX_NESTING - 1  # the equation body is the first level
    for n, ok in ((inner, True), (inner + 1, False), (1500, False)):
        for text in (
            "Main =v " + "(" * n + "0 >= 1" + ")" * n + ";",
            "Main =v F " + "(" * n + "1" + ")" * n + "; F x =v x >= 0;",
            "Main =v " + "forall x. " * n + "true;",
        ):
            if ok:
                parse_hes(text)
                continue
            with pytest.raises(NestingTooDeep) as e:
                parse_hes(text)
            assert isinstance(e.value, ParseError)
            assert e.value.line == 1 and e.value.col > MAX_NESTING


@pytest.mark.parametrize("text, col", [
    ("Main =v F (y + 1); F x =v x >= 0;", 12),
    ("Main =v (y + 1) >= 0;", 10),
    ("Main =v F ((y)) /\\ z >= 0; F x =v true;", 13),
], ids=["integer_argument", "comparison", "doubled_parentheses"])
def test_undefined_name_reported_at_its_token(text, col):
    with pytest.raises(ParseError) as e:
        parse_hes(text)
    assert (e.value.line, e.value.col, e.value.found) == (1, col, "y")
    assert e.value.expected == {"defined name"}


MALFORMED = [
    "",
    "# only a comment\n",
    "Main =v 1;",
    "Main =v x + 1;",
    "Main =v true >= 1;",
    "Main =v 2 * true >= 1;",
    "Main =v F x - 1; F x =v true;",
    "Main =v a >= b >= c;",
    "Main =v (1) /\\ true;",
    "Main =v true",
    "Main =v ;",
    "Main =v (true;",
    "Main =v true);",
    "Main =v 1 + ;",
    "Main =v -x >= 0;",
    "Main =v forall x y. true;",
    "Main =v \\. true;",
    "Main =v true /\\ 2;",
    "Main =v F (true >= 1); F x =v x >= 0;",
    "Main =v F x + 1 >= 0; F x =v x >= 0;",
    "Main =v $;",
    "Main true;",
    "F x =u x >= 0;",
    "Main x =v x >= 0;",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_raise_parse_error(text):
    with pytest.raises(ParseError) as e:
        parse_hes(text)
    # the position is inside the text, or just past its end
    lines = text.split("\n")
    assert 1 <= e.value.line <= len(lines)
    assert 1 <= e.value.col <= len(lines[e.value.line - 1]) + 1
