import copy
import functools
import pickle

import pytest

from conftest import all_fixture_names, fixture_text, shallow_stack
from gen import instances
from muhflz import syntax
from muhflz.backend import lower
from muhflz.convert import hes_to_formula
from muhflz.driver import approximate, default_schedule, prepare
from muhflz.eval import BoundedResult, Domain, check_validity_bounded, evaluate
from muhflz.parser import parse_hes
from muhflz.printer import print_formula, print_hes
from muhflz.syntax import (
    INT, PROP, Abs, And, App, AppInt, Arrow, Exists, Forall, Formula, Ge, Hes,
    IntAbs, IntVar, Lit, Mu, Nu, Or, Plus, Times, Var, contains_int_abs,
    free_vars, int_free_vars, map_children, rename_int, replace_free,
    subformulas,
)
from muhflz.transform import dual_hes
from muhflz.typecheck import typecheck


def _preorder(f):
    # the recursive definition subformulas must agree with
    yield f
    match f:
        case Or(children) | And(children):
            for g in children:
                yield from _preorder(g)
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
    entry here.  A junction takes its children as operands."""
    if kind is Or or kind is And:
        return kind(App(Var("f0"), Var("a0")), App(Var("f1"), Var("a1")))
    return kind(*(
        App(Var(f"f{i}"), Var(f"a{i}")) if ty == "Formula" else _FIELD_VALUES[ty]
        for i, (_, ty) in enumerate(_fields(kind))
    ))


def _formula_fields(f):
    """The formulas held in the fields of ``f``, in order: a junction's
    children, or each field of type Formula."""
    if type(f) is Or or type(f) is And:
        return list(f.children)
    return [getattr(f, name) for name, ty in _fields(type(f)) if ty == "Formula"]


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
    fields = _formula_fields(f)
    assert len(seen) == len(fields)
    assert all(a is b for a, b in zip(seen, fields))


def test_map_children_merges_a_first_child_that_becomes_the_same_connective():
    a, b, c = Var("a"), Var("b"), Var("c")
    f = Or(a, b, c)
    g = map_children(f, lambda h, _: Or(h, h) if h is a else h)
    assert g.children == (a, a, b, c)
    assert map_children(f, lambda h, _: And(h, h) if h is a else h).children == (And(a, a), b, c)
    # a later child that becomes one stays a single child
    assert map_children(f, lambda h, _: Or(h, h) if h is c else h).children == (a, b, Or(c, c))


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
    if type(before) is not Or and type(before) is not And:  # a junction holds only formulas
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


def test_rename_int_returns_the_expression_itself_when_nothing_is_renamed():
    e = Plus(Times(Lit(2), IntVar("x")), IntAbs(Plus(IntVar("y"), Lit(1))))
    assert rename_int(e, {}) is e
    assert rename_int(e, {"z": "w"}) is e


def test_rename_int_renames_under_int_abs_and_shares_the_rest():
    e = Plus(Times(Lit(2), IntVar("x")), IntAbs(Plus(IntVar("y"), Lit(1))))
    out = rename_int(e, {"y": "v"})
    assert out == Plus(Times(Lit(2), IntVar("x")), IntAbs(Plus(IntVar("v"), Lit(1))))
    assert out.lhs is e.lhs and out.rhs.arg.rhs is e.rhs.arg.rhs


@pytest.mark.parametrize("op, sym, valid", [(Plus, "+", False), (Times, "*", True)],
                         ids=["sum", "product"])
def test_integer_walkers_do_not_recurse_along_a_chain(op, sym, valid):
    e = functools.reduce(op, [IntVar("x")] * 5000)
    f = Forall("x", Ge(e, Lit(0)))
    with shallow_stack(100):
        assert int_free_vars(e) == {"x"}
        assert not contains_int_abs(e)
        assert rename_int(e, {}) is e
        assert int_free_vars(rename_int(e, {"x": "y"})) == {"y"}
        typecheck(Hes((), f))
        assert evaluate(f, Domain(-1, 1)) is valid
        assert print_formula(f) == f"forall x. {f' {sym} '.join(['x'] * 5000)} >= 0"


@pytest.mark.parametrize("op, sym, result", [
    (Or, "\\/", BoundedResult.VALID), (And, "/\\", BoundedResult.INVALID),
], ids=["or", "and"])
def test_formula_walkers_do_not_recurse_along_a_chain(op, sym, result):
    # a least fixpoint whose body is a 5,000-way chain, the last operand its call
    chain = f" {sym} ".join([f"y >= {-i}" for i in range(4999)] + ["F (y + 1)"])
    text = f"Main =v forall x. F x;\nF y =u {chain};\n"
    row = default_schedule(1)[0]
    with shallow_stack(100):
        parsed = parse_hes(text)
        h = typecheck(parsed)
        body = h.equation("F").body
        assert type(body) is op and len(body.children) == 5000
        assert print_hes(h) == text
        assert dual_hes(dual_hes(h)) == h
        assert check_validity_bounded(hes_to_formula(h), Domain(-2, 2)) is result
        for desugar in (False, True):
            approx = approximate(prepare(h, desugar=desugar), row)
            printed = print_hes(lower(approx, quantifiers=False))
            assert print_hes(parse_hes(printed)) == printed
        for twin, x in ((parse_hes(text), parsed), (copy.deepcopy(h), h), (pickle.loads(pickle.dumps(h)), h)):
            assert twin == x and hash(twin) == hash(x) and repr(twin) == repr(x)
