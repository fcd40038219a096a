import pytest

from conftest import all_fixture_names, fixture_text
from gen import instances
from muhflz import syntax
from muhflz.convert import hes_to_formula
from muhflz.driver import approximate, default_schedule, prepare
from muhflz.parser import parse_hes
from muhflz.syntax import (
    INT, PROP, Abs, And, App, AppInt, Arrow, Exists, Forall, Formula, Ge,
    IntVar, Lit, Mu, Nu, Or, Var, free_vars, map_children, replace_free,
    subformulas,
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
    row = default_schedule(1)[0]
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


def _fields(kind):
    """(name, annotation) of each field of a node class, in order: the
    names from ``__match_args__``, the types from ``__init__``."""
    annotations = kind.__init__.__annotations__
    return [(name, annotations[name]) for name in kind.__match_args__]


def _sample(kind):
    """A node of ``kind`` whose every formula field holds a distinct
    application, built from the fields so that a new node kind needs no
    entry here."""
    return kind(*(
        App(Var(f"f{i}"), Var(f"a{i}")) if ty == "Formula" else _FIELD_VALUES[ty]
        for i, (_, ty) in enumerate(_fields(kind))
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
    fields = [getattr(f, name) for name, ty in _fields(kind) if ty == "Formula"]
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
    row = default_schedule(1)[0]
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


# ---------------------------------------------------------------------------
# replace_free's contract


def _free_count(f, name):
    """How often ``name`` occurs free in ``f``, by its own recursion."""
    match f:
        case Var(n):
            return int(n == name)
        case Mu(n, _, _) | Nu(n, _, _) | Abs(n, _, _) | Forall(n, _) | Exists(n, _) if n == name:
            return 0
    return sum(_free_count(c, name) for c in _children(f))


def _counting_make():
    made = []

    def make():
        made.append(Var(f"made{len(made)}"))
        return made[-1]

    return make, made


def _check_replaced(before, after, name, made):
    """Walk ``before`` and ``after`` in parallel: a subtree without a free
    ``name`` must come back as itself, and the free occurrences must be
    the made objects, in order."""
    if name not in free_vars(before):
        assert after is before
        return
    if type(before) is Var:
        assert after is made.pop(0)
        return
    assert type(after) is type(before)
    for field, ty in _fields(type(before)):
        if ty != "Formula":
            assert getattr(after, field) == getattr(before, field)
    kb, ka = _children(before), _children(after)
    assert len(kb) == len(ka)
    for b, a in zip(kb, ka):
        _check_replaced(b, a, name, made)


def test_replace_free_makes_one_object_per_occurrence_and_shares_the_rest():
    row = default_schedule(1)[0]
    hs = [h for _, h in instances(200)]
    hs += [typecheck(parse_hes(fixture_text(n))) for n in all_fixture_names()]
    binders = occurrences = 0
    for h in hs:
        for f in (hes_to_formula(h), approximate(prepare(h), row)):
            for g in subformulas(f):
                if type(g) is not Mu and type(g) is not Nu:
                    continue
                make, made = _counting_make()
                out = replace_free(g.body, g.name, make)
                assert len(made) == _free_count(g.body, g.name)
                occurrences += len(made)
                _check_replaced(g.body, out, g.name, made)
                assert not made
                binders += 1
    assert binders > 400 and occurrences > 400


def test_replace_free_stops_at_every_binder_that_rebinds_the_name():
    x = Var("x")
    shadowed = [
        Abs("x", INT, x),
        Mu("x", PROP, x),
        Nu("x", PROP, x),
        Forall("x", And(x, Ge(IntVar("x"), Lit(0)))),
        Exists("x", x),
    ]
    f = x
    for b in shadowed:
        f = Or(f, And(b, x))
    make, made = _counting_make()
    out = replace_free(f, "x", make)
    assert len(made) == _free_count(f, "x") == 6
    inside = [g for g in subformulas(out) if any(g is b for b in shadowed)]
    assert len(inside) == len(shadowed)
    _check_replaced(f, out, "x", made)
