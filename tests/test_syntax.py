import dataclasses

import pytest

from conftest import all_fixture_names, fixture_text
from gen import instances
from muhflz import syntax
from muhflz.convert import hes_to_formula
from muhflz.driver import approximate, default_schedule, prepare
from muhflz.parser import parse_hes
from muhflz.syntax import (
    INT, PROP, Abs, And, App, AppInt, Arrow, Exists, Forall, Formula, IntVar,
    Mu, Nu, Or, Var, map_children, subformulas,
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


# ---------------------------------------------------------------------------
# map_children's sharing contract

# a value for each non-formula field type of a node class
_FIELD_VALUES = {"str": "v", "IntExpr": IntVar("n"), "Optional[SimpleType]": Arrow(INT, PROP)}


def _sample(kind):
    """A node of ``kind`` whose every formula field holds a distinct
    application, built from the dataclass fields so that a new node kind
    needs no entry here."""
    return kind(*(
        App(Var(f"f{i}"), Var(f"a{i}")) if fld.type == "Formula" else _FIELD_VALUES[fld.type]
        for i, fld in enumerate(dataclasses.fields(kind))
    ))


def _children(f):
    kids = []
    map_children(f, lambda g, _: kids.append(g) or g)
    return kids


@pytest.mark.parametrize(
    "kind",
    [k for k in Formula.__subclasses__() if k.__module__ == syntax.__name__],
    ids=lambda k: k.__name__,
)
@pytest.mark.parametrize("env", [None, {"y": INT}], ids=["no-env", "env"])
def test_map_children_returns_an_unchanged_node_itself(kind, env):
    f = _sample(kind)
    seen = []

    def same(g, _):
        seen.append(g)
        return g

    assert map_children(f, same, env) is f
    fields = [getattr(f, fld.name) for fld in dataclasses.fields(kind) if fld.type == "Formula"]
    assert len(seen) == len(fields)
    assert all(a is b for a, b in zip(seen, fields))


def _rewrite_at(f, n):
    """``f`` with its pre-order node number ``n`` replaced by a fresh Var."""
    count = 0

    def go(g, env):
        nonlocal count
        i = count
        count += 1
        return Var("rewritten") if i == n else map_children(g, go, env)

    return go(f, None)


def _rebuilt_on_path(old, new, n):
    """Walk ``old`` and ``new`` in parallel; assert that every subtree off
    the path to pre-order node ``n`` is shared, and return how many nodes
    on it were rebuilt."""
    index = 0
    rebuilt = 0

    def walk(o, w) -> bool:
        nonlocal index, rebuilt
        i = index
        index += 1
        if i == n:
            assert w == Var("rewritten")
            index += sum(1 for _ in subformulas(o)) - 1
            return True
        ko, kw = _children(o), _children(w)
        assert len(ko) == len(kw)
        on_path = False
        for a, b in zip(ko, kw):
            on_path |= walk(a, b)
        if on_path:
            assert w is not o and type(w) is type(o)
            rebuilt += 1
        else:
            assert w is o
        return on_path

    assert walk(old, new)
    return rebuilt


def _depths(f, d=0):
    """The depth of every node of ``f``, in pre-order."""
    yield d
    for c in _children(f):
        yield from _depths(c, d + 1)


def test_rewriting_one_var_rebuilds_only_its_path():
    row = default_schedule(1).steps[0]
    checked = 0
    hs = [h for _, h in instances(200)]
    hs += [typecheck(parse_hes(fixture_text(n))) for n in all_fixture_names()]
    for h in hs:
        for f in (hes_to_formula(h), approximate(prepare(h), row)):
            for n, (g, depth) in enumerate(zip(subformulas(f), _depths(f))):
                if type(g) is Var:
                    assert _rebuilt_on_path(f, _rewrite_at(f, n), n) == depth
                    checked += 1
    assert checked > 500
