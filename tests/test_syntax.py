from conftest import all_fixture_names, fixture_text
from gen import instances
from muhflz.convert import hes_to_formula
from muhflz.driver import approximate, default_schedule, prepare
from muhflz.parser import parse_hes
from muhflz.syntax import (
    Abs, And, App, AppInt, Exists, Forall, Mu, Nu, Or, subformulas,
)
from muhflz.typecheck import typecheck


def _preorder(f):
    # the recursive definition subformulas must agree with
    yield f
    match f:
        case Or(l, r) | And(l, r):
            yield from _preorder(l)
            yield from _preorder(r)
        case Mu(_, _, body) | Nu(_, _, body) | Abs(_, _, body):
            yield from _preorder(body)
        case App(fn, arg):
            yield from _preorder(fn)
            yield from _preorder(arg)
        case AppInt(fn, _):
            yield from _preorder(fn)
        case Forall(_, body) | Exists(_, body):
            yield from _preorder(body)


def test_subformulas_is_the_recursive_preorder():
    hs = [h for _, h in instances(100)]
    hs += [typecheck(parse_hes(fixture_text(n))) for n in all_fixture_names()]
    row = default_schedule(1).steps[0]
    nodes = 0
    for h in hs:
        f = hes_to_formula(h)
        for g in (f, approximate(prepare(h), row)):
            got = list(subformulas(g))
            want = list(_preorder(g))
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want))
            nodes += len(got)
    assert nodes > 3_000
