import pytest

from conftest import all_fixture_names, fixture_text
from gen import instances
from muhflz.parser import parse_hes
from muhflz.syntax import Arrow, INT, PROP
from muhflz.driver import prepare
from muhflz.tags import TAG_INT, TagInt, TagPred
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
    assert der.mu_outer == {}


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
    (outer,) = der.mu_outer.values()
    assert isinstance(outer[-1], TagPred) and outer[-1].tag


def test_erasure_matches_simple_types():
    h = typecheck(parse_hes(fixture_text("succ_chain_pure.hes")))
    der = prepare(h)
    f = der.formula
    from muhflz.syntax import Abs, Mu, Nu, subformulas

    for g in subformulas(f):
        if isinstance(g, (Abs, Mu, Nu)):
            name = g.param if isinstance(g, Abs) else g.name
            t = der.binder[name]
            if isinstance(g, Abs):
                assert t.erase() == g.ty
            else:
                assert t.erase() == g.ty


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
                for mu, params in der.mu_outer.items():
                    for t in params:
                        if isinstance(t, TagPred):
                            seen += 1
                            if t.tag != (not der.all_f):
                                wrong.append((side, desugar, mu))
    assert seen and not wrong


def test_json_dump_is_parseable():
    import json

    h = typecheck(parse_hes(fixture_text("fib_termination.hes")))
    payload = json.loads(prepare(h).to_json())
    assert "binders" in payload and "mu_use_side" in payload
