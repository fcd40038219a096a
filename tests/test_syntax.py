import copy
import functools
import pickle

import pytest

from conftest import all_fixture_names, fixture_text, shallow_stack
from gen import instances
from muhflz import syntax
from muhflz.backend import lower
from muhflz.convert import formula_to_hes, hes_to_formula
from muhflz.driver import approximate, default_schedule, prepare
from muhflz.eval import BoundedResult, Domain, check_validity_bounded, evaluate
from muhflz.parser import parse_formula, parse_hes
from muhflz.printer import print_formula, print_hes
from muhflz.syntax import (
    INT, PROP, Abs, And, App, Arrow, Exists, Forall, Formula, Ge, Hes,
    IntAbs, IntVar, Lit, Mu, NameSupply, Nu, Or, Plus, Times, Var,
    alpha_normalize_formula, contains_int_abs, free_vars, int_free_vars,
    map_children, names_in_formula, rename_int, replace_free, subformulas,
)
from muhflz.transform import dual_hes, dualize
from muhflz.typecheck import typecheck


def _preorder(f):
    # the recursive definition subformulas must agree with
    yield f
    match f:
        case Or(children) | And(children):
            for g in children:
                yield from _preorder(g)
        case App(head, args):
            yield from _preorder(head)
            for a in args:
                if isinstance(a, Formula):
                    yield from _preorder(a)
        case Mu(_, _, body) | Nu(_, _, body) | Abs(_, _, body) | Forall(_, _, body) | Exists(_, _, body):
            yield from _preorder(body)


def test_subformulas_is_the_recursive_preorder():
    hs = [h for _, h in instances(110)]
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
    entry here.  A junction takes its children as operands, and an
    application its arguments, integer ones among them, after a head that
    is not itself an application."""
    if kind is Or or kind is And:
        return kind(App(Var("f0"), Var("a0")), App(Var("f1"), Var("a1")))
    if kind is App:
        return App(Var("f0"), App(Var("f1"), Var("a1")), IntVar("n"), App(Var("f2"), Var("a2")))
    return kind(*(
        App(Var(f"f{i}"), Var(f"a{i}")) if ty == "Formula" else _FIELD_VALUES[ty]
        for i, (_, ty) in enumerate(_fields(kind))
    ))


def _formula_fields(f):
    """The formulas held in the fields of ``f``, in order: a junction's
    children, an application's head and formula arguments, or each field
    of type Formula."""
    if type(f) is Or or type(f) is And:
        return list(f.children)
    if type(f) is App:
        return [f.head, *[a for a in f.args if isinstance(a, Formula)]]
    return [getattr(f, name) for name, ty in _fields(type(f)) if ty == "Formula"]


def _samples():
    """A sample of each formula node class, and a second application whose
    last argument is an integer; it keeps the name the application to an
    integer had when it was a class of its own."""
    out = [
        pytest.param(_sample(k), id=k.__name__)
        for k in Formula.__subclasses__() if k.__module__ == syntax.__name__
    ]
    out.append(pytest.param(App(Var("f0"), App(Var("f1"), Var("a1")), IntVar("n")), id="AppInt"))
    return out


def _children(f):
    kids = []
    map_children(f, lambda g, _: kids.append(g) or g)
    return kids


@pytest.mark.parametrize("f", _samples())
@pytest.mark.parametrize("env", [None, {"y": INT}], ids=["no-env", "env"])
def test_map_children_returns_an_unchanged_node_itself(f, env):
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


def test_map_children_merges_a_head_that_becomes_an_application():
    f, a, b = Var("f"), Var("a"), Var("b")
    g = map_children(App(f, a, Lit(1)), lambda h, _: App(h, b) if h is f else h)
    assert g == App(f, b, a, Lit(1)) and g.head is f
    # an argument that becomes an application stays one argument
    assert map_children(App(f, a), lambda h, _: App(h, b) if h is a else h).args == (App(a, b),)
    # formula_to_hes replaces a fixpoint that captures x, at the head of an
    # application and at its recursive call, by its name applied to x
    x, y = IntVar("x"), IntVar("y")
    loop = Mu("X", Arrow(INT, PROP), Abs("y", INT, Or(Ge(y, x), App(Var("X"), Plus(y, Lit(-1))))))
    lifted = formula_to_hes(Forall("x", INT, App(loop, Lit(0))))
    (eq,) = lifted.equations
    call = lifted.entry.body
    assert call == App(Var(eq.name), IntVar(lifted.entry.name), Lit(0))
    (rec,) = [g for g in subformulas(eq.body) if type(g) is App]
    assert rec.head == Var(eq.name) and len(rec.args) == 2


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
        case Mu(n, _, _) | Nu(n, _, _) | Abs(n, _, _) | Forall(n, _, _) | Exists(n, _, _) if n == name:
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
    if type(before) is App:
        assert len(after.args) == len(before.args)
        for b, a in zip(before.args, after.args):
            if not isinstance(b, Formula):
                assert a == b
    elif type(before) is not Or and type(before) is not And:  # a junction holds only formulas
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
        Forall("x", INT, And(x, Ge(IntVar("x"), Lit(0)))),
        Exists("x", INT, x),
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
    scaled, absolute = out.children
    assert scaled is e.children[0] and absolute.arg.children[1] is e.children[1].arg.children[1]


@pytest.mark.parametrize("op, sym, valid", [(Plus, "+", False), (Times, "*", True)],
                         ids=["sum", "product"])
def test_integer_walkers_do_not_recurse_along_a_chain(op, sym, valid):
    e = functools.reduce(op, [IntVar("x")] * 5000)
    f = Forall("x", INT, Ge(e, Lit(0)))
    with shallow_stack(100):
        assert int_free_vars(e) == {"x"}
        assert not contains_int_abs(e)
        assert rename_int(e, {}) is e
        assert int_free_vars(rename_int(e, {"x": "y"})) == {"y"}
        typecheck(Hes((), f))
        assert evaluate(f, Domain(-1, 1)) is valid
        text = f"forall x. {f' {sym} '.join(['x'] * 5000)} >= 0"
        assert print_formula(f) == text
        _check_twins(f, parse_formula(text))


def _check_twins(f, reparsed):
    """``==``, ``hash`` and ``repr`` of ``f`` against its re-parse, a deep
    copy and a pickle round trip."""
    for twin in (reparsed, copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin == f and hash(twin) == hash(f) and repr(twin) == repr(f)


def test_formula_walkers_do_not_recurse_along_an_application():
    # 5,000 arguments: variables, applications, literals, sums and lambdas
    text = "F " + " ".join(["x (G y) 1 (x + 1) (\\v. v >= 0)"] * 1000)
    with shallow_stack(100):
        f = parse_formula(text)
        assert type(f) is App and len(f.args) == 5000
        assert free_vars(f) == {"F", "G", "x", "y"}
        assert sum(1 for _ in subformulas(f)) == 1 + 1 + 1000 * (1 + 3 + 2)
        assert names_in_formula(f) == {"F", "G", "x", "y", "v"}
        replaced = replace_free(f, "G", lambda: Var("H"))
        assert free_vars(replaced) == {"F", "H", "x", "y"}
        renamed = alpha_normalize_formula(f, NameSupply(names_in_formula(f)))
        assert len({a.name for a in renamed.args if type(a) is Abs}) == 1000
        assert dualize(f) != f and dualize(dualize(f)) == f
        assert print_formula(f) == text
        _check_twins(f, parse_formula(text))


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
