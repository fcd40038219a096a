import pytest

from conftest import ELIMINATION_EDGES, LOOP, all_fixture_names, fixture_text
from gen import instances
from muhflz.parser import parse_hes
from muhflz.syntax import (
    App, Arrow, Ge, INT, IntVar, Lit, Mu, PROP, Var, names_in_formula,
    subformulas,
)
from muhflz.driver import prepare
from muhflz.tags import TAG_INT, TagInferenceError, TagInt, TagPred, infer_tags_formula
from muhflz.transform import dual_hes
from muhflz.typecheck import typecheck


def _binder_items(der, base):
    """All binder entries whose name starts with ``base`` (normalization
    may have suffixed it)."""
    return [t for n, t in der.binder.items() if n == base or n.startswith(base + "_")]


def test_succ_chain_tags():
    h = typecheck(parse_hes(fixture_text("succ_chain_pure.hes")))
    der = prepare(h)
    # All's parameter carries a companion; the argument of that argument
    # does not: ((int -> prop, F) -> prop, T)
    all_param = [
        t
        for n, t in der.binder.items()
        if isinstance(t, TagPred)
        and t.erase() == Arrow(Arrow(INT, PROP), PROP)
        and t.tag
    ]
    assert all_param, "the level predicate must be tagged for a companion"
    inner = all_param[0].params[0]
    assert isinstance(inner, TagPred) and not inner.tag
    # Succ's own parameters never feed a least fixpoint: all F
    succ = _binder_items(der, "Succ")
    assert succ and all(
        isinstance(t, TagPred) and not t.tag and all(
            isinstance(p, TagInt) or not p.tag for p in t.params
        )
        for t in succ
    )


def test_mu_free_system_is_all_f():
    h = typecheck(parse_hes("Main =v forall x. G x;\nG y =v y >= 0 \\/ G (y + 1);\n"))
    der = prepare(h)
    for t in der.binder.values():
        if isinstance(t, TagPred):
            assert not t.tag
    assert der.mus == frozenset()


def test_fib_continuation_parameter_untagged():
    h = typecheck(parse_hes(fixture_text("fib_termination.hes")))
    der = prepare(h)
    # the continuation never feeds an unfolding budget: its binder-side
    # tag stays F (only integer variables contribute)
    conts = [
        t
        for t in der.binder.values()
        if isinstance(t, TagPred) and t.erase() == Arrow(INT, PROP)
    ]
    assert conts and all(not t.tag for t in conts)
    # use-side argument positions of a least fixpoint are always tagged
    (mu,) = der.mus
    outer = der.use_side(mu)
    assert isinstance(outer[-1], TagPred) and outer[-1].tag


def test_erasure_matches_simple_types():
    h = typecheck(parse_hes(fixture_text("succ_chain_pure.hes")))
    der = prepare(h)
    f = der.formula
    from muhflz.syntax import BINDERS

    for g in subformulas(f):
        if isinstance(g, BINDERS):
            assert der.binder[g.name].erase() == g.ty


def test_deterministic():
    h = typecheck(parse_hes(fixture_text("succ_chain_pure.hes")))
    a = prepare(h).to_json()
    b = prepare(h).to_json()
    assert a == b


def test_adding_mu_equation_never_clears_tags():
    base = "Main =v All (\\k. k 0);\nAll x =v F x /\\ All (Succ x);\nF x =u x (\\y. y = 0) \\/ F x;\nSucc x k =v x (\\y. k (y + 1));\n"
    ext = base + "G z =u z >= 0 \\/ G (z - 1);\n"
    der_base = prepare(typecheck(parse_hes(base)))
    der_ext = prepare(typecheck(parse_hes(ext)))

    def tagged(der):
        return {
            n for n, t in der.binder.items() if isinstance(t, TagPred) and t.tag
        }

    assert tagged(der_base) <= tagged(der_ext)


def test_all_f_mode():
    h = typecheck(parse_hes(fixture_text("succ_chain_pure.hes")))
    der = prepare(h, all_f=True)
    assert der.all_f
    for t in der.binder.values():
        if isinstance(t, TagPred):
            assert not t.tag


def _tag_inputs():
    for name in all_fixture_names():
        yield name, typecheck(parse_hes(fixture_text(name)))
    for seed, h in instances(100):
        yield f"gen{seed}", h


@pytest.mark.parametrize("all_f", [False, True])
def test_use_side_predicate_tags_follow_all_f(all_f):
    # mu-elimination relies on this: every predicate argument of a least
    # fixpoint carries a companion, unless all_f turns every tag off
    seen, wrong = 0, []
    for name, h in _tag_inputs():
        for side, g in ((name, h), (f"{name}~dual", dual_hes(h))):
            for desugar in (False, True):
                der = prepare(g, all_f=all_f, desugar=desugar)
                assert der.all_f == all_f
                for mu in der.mus:
                    for t in der.use_side(mu):
                        if isinstance(t, TagPred):
                            seen += 1
                            if t.tag != (not der.all_f):
                                wrong.append((side, desugar, mu))
    assert seen and not wrong


def test_mus_are_the_least_fixpoint_binders():
    # the driver reads mu-freeness off der.mus, and to_json keys use sides by it
    checked = 0
    for name, h in _tag_inputs():
        for g in (h, dual_hes(h)):
            for desugar in (False, True):
                der = prepare(g, desugar=desugar)
                mus = {f.name for f in subformulas(der.formula) if isinstance(f, Mu)}
                assert der.mus == mus, (name, desugar)
                checked += bool(mus)
    assert checked


def test_json_dump_is_parseable():
    import json

    h = typecheck(parse_hes(fixture_text("fib_termination.hes")))
    payload = json.loads(prepare(h).to_json())
    assert "binders" in payload and "mu_use_side" in payload


def test_binders_name_every_name_of_the_formula():
    # every row's fresh names are drawn clear of the binder map, so it must
    # hold every name of the closed formula, quantified integers included
    texts = [fixture_text(n) for n in all_fixture_names()]
    texts += [LOOP.read_text(encoding="utf-8"), *ELIMINATION_EDGES.values()]
    hs = [typecheck(parse_hes(t)) for t in texts] + [h for _, h in instances(30)]
    checked = 0
    for h in hs:
        for g in (h, dual_hes(h)):
            for all_f in (False, True):
                for desugar in (False, True):
                    der = prepare(g, all_f=all_f, desugar=desugar)
                    assert set(der.binder) == names_in_formula(der.formula)
                    checked += 1
    assert checked == 4 * 2 * len(hs)


@pytest.mark.parametrize(
    "formula", [App(Var("p"), Lit(1)), Ge(IntVar("n"), Lit(0))], ids=["predicate", "integer"]
)
def test_a_free_variable_is_refused(formula):
    with pytest.raises(TagInferenceError, match="free variable"):
        infer_tags_formula(formula)
