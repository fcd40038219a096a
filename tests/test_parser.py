import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_fixture_names, fixture_text
from gen import instances, random_instance
from muhflz.parser import (
    MAX_NESTING, NestingTooDeep, ParseError, _Parser, parse_formula, parse_hes,
)
from muhflz.printer import print_hes
from muhflz.syntax import (
    And, App, AppInt, Equation, Exists, FALSE, Forall, Ge, IntVar, Lit, Or,
    Plus, Sign, Times, TRUE, Var, alpha_normalize,
)


def test_single_mu_equation():
    h = parse_hes("Main =v F 0;\nF x =u x >= 0 /\\ x <= 0 \\/ F (x - 1);\n")
    assert h.entry == AppInt(Var("F"), Lit(0))
    assert len(h.equations) == 1
    eq = h.equations[0]
    assert eq.name == "F" and eq.sign is Sign.MU
    assert eq.params == (("x", None),)


def test_countdown_shape():
    h = parse_hes(fixture_text("countdown.hes"))
    # forall w. w <= -1 \/ F w, with <= rendered as a >=-only atom
    assert isinstance(h.entry, Forall)
    body = h.entry.body
    assert body == Or(Ge(Lit(-1), IntVar("w")), App(Var("F"), Var("w")))
    eq = h.equations[0]
    assert eq.sign is Sign.MU
    # y = 0 desugars into a conjunction of >= atoms; the compound
    # argument parses straight into an integer application
    assert eq.body == Or(
        And(Ge(IntVar("y"), Lit(0)), Ge(Lit(0), IntVar("y"))),
        AppInt(Var("F"), Plus(IntVar("y"), Lit(-1))),
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


def test_comparison_sugar():
    f = parse_formula("x != 0")
    assert f == Or(Ge(IntVar("x"), Lit(1)), Ge(Lit(-1), IntVar("x")))
    assert parse_formula("x < 2") == Ge(Lit(1), IntVar("x"))
    assert parse_formula("x > 1") == Ge(IntVar("x"), Lit(2))
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE


def test_subtraction_desugars():
    f = parse_formula("F (x - y) (x - 1)")
    fn = f.fn
    assert fn.arg == Plus(IntVar("x"), Times(Lit(-1), IntVar("y")))
    assert f.arg == Plus(IntVar("x"), Lit(-1))


def test_negative_literal():
    f = parse_formula("F (-3)")
    assert f == AppInt(Var("F"), Lit(-3))


def test_comments_and_lambda():
    h = parse_hes("# a comment\nMain =v G (\\x y. x >= y) 1;\nG p z =v p z z;\n")
    assert isinstance(h.entry, AppInt)


def test_quantifier_scopes_extend_right():
    f = parse_formula("forall x. x >= 0 \\/ exists y. y >= x")
    assert isinstance(f, Forall)
    assert isinstance(f.body, Or)
    assert isinstance(f.body.rhs, Exists)


def test_operator_precedence():
    f = parse_formula("a \\/ b /\\ c")
    assert isinstance(f, Or) and isinstance(f.rhs, And)


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
    assert print_hes(alpha_normalize(h1)) == print_hes(alpha_normalize(h1))
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


def test_each_occurrence_is_recorded_once():
    # a failed integer-expression attempt must not leave its identifier
    # occurrences behind
    texts = [fixture_text(name) for name in all_fixture_names()]
    texts += [print_hes(h) for _, h in instances(200)]
    for text in texts:
        p = _Parser(text)
        p.parse_hes()
        triples = [occ[:3] for occ in p.occurrences]
        assert len(triples) == len(set(triples)), text
