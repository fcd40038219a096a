"""The record contract every ``syntax.Node`` class keeps: equality by class
and fields, the hash of the field tuple, the ``Class(field=value, ...)``
repr, no assignment or deletion, no ``__dict__``, positional ``match`` and
keyword construction.  The repr goldens were recorded from the frozen
dataclasses these classes replaced, but for the chains and ``App``: ``Or``,
``And``, ``Plus`` and ``Times`` are built from their operands, not their
one field, and hold a chain of any width as one tuple of children, and
``App`` holds an application spine as a head and a tuple of arguments."""

import copy
import math
import pathlib
import pickle
import subprocess
import sys

import pytest

import muhflz
from muhflz.backend import BackendVerdict, Builtin, External
from muhflz.driver import IterationRecord, VerdictReport
from muhflz.eval import Domain
from muhflz.parser import _Tok
from muhflz.syntax import (
    INT, PROP, Abs, And, App, Arrow, Equation, Exists, Forall, Formula,
    Ge, Hes, IntAbs, IntExpr, IntType, IntVar, Lit, Mu, Node, Nu, Or, Plus,
    PropType, SimpleType, Times, Var,
)
from muhflz.tags import TagDerivation, TaggedArg, TagInt, TagPred
from muhflz.transform import ApproxParams
from muhflz.typecheck import _TyVar

_BASES = {SimpleType, IntExpr, Formula, TaggedArg}


def _samples():
    n, m = IntVar("n"), Lit(-2)
    e = IntAbs(Times(Plus(n, m), Lit(3)))
    ty = Arrow(Arrow(INT, PROP), Arrow(INT, PROP))
    g = Ge(e, n)
    body = And(Or(Var("X"), g), App(App(Var("p"), e), Abs("z", INT, Forall("k", INT, Exists("m", INT, g)))))
    row = ApproxParams(1, 2, 3, 4, 2)
    verdict = BackendVerdict("unknown", "range escape", 0.5)
    tag = TagPred((TagInt(), TagPred((TagInt(),), False)), True)
    return [
        IntType(), PropType(), ty, Lit(7), n, Plus(n, m), Times(m, n), e,
        Var("x"), Or(Var("a"), Var("b")), body, Mu("X", ty, body), Nu("Y", None, body),
        Abs("p", ty, body), App(Var("f"), Var("g")), App(Var("f"), e), g,
        Forall("k", INT, g), Exists("k", INT, g),
        Equation("X", (("x", INT), ("p", Arrow(INT, PROP))), Mu, body),
        Hes((Equation("Y", (), Nu, Var("Y")),), Var("Y")),
        _TyVar(3), Domain(-3, 3, False), _Tok("ident", "X'", 2, 5), row,
        TagInt(), tag, TagDerivation(body, {"p": tag}, {"X": (TagInt(),)}, True),
        Builtin(Domain(0, 10)), External(("sh", "-c", "x"), 2.5, False), verdict,
        IterationRecord("prover", row, verdict),
        VerdictReport("unknown", "none", (IterationRecord("prover", row, verdict),), 1.25, "timeout"),
    ]


SAMPLES = _samples()


def _node_classes():
    out, todo = set(), [Node]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("muhflz.") and sub not in out:
                out.add(sub)
                todo.append(sub)
    return out - _BASES


_CHAINS = (Or, And, Plus, Times)


def _id(x):
    """The class name; the application to an integer keeps the name of the
    class it had before applications were one class."""
    if type(x) is App and isinstance(x.args[-1], IntExpr):
        return "AppInt"
    return type(x).__name__


def _fields(x):
    return tuple(getattr(x, name) for name in type(x).__match_args__)


def _positional(x):
    """The fields of ``x`` as a positional class pattern captures them."""
    cls = type(x)
    match len(cls.__match_args__), x:
        case 0, cls():
            return ()
        case 1, cls(a):
            return (a,)
        case 2, cls(a, b):
            return (a, b)
        case 3, cls(a, b, c):
            return (a, b, c)
        case 4, cls(a, b, c, d):
            return (a, b, c, d)
        case 5, cls(a, b, c, d, e):
            return (a, b, c, d, e)


def test_every_node_class_has_a_sample():
    assert {type(x) for x in SAMPLES} == _node_classes()
    assert len(SAMPLES) == 33


@pytest.mark.parametrize("x", SAMPLES, ids=_id)
def test_fields_are_the_slots_in_order(x):
    cls = type(x)
    assert cls.__match_args__ == cls.__slots__
    annotated = getattr(cls.__init__, "__annotations__", {})  # none: no fields
    params = [p for p in annotated if p != "return"]
    if cls in _CHAINS:
        # built from its operands, which it stores as its one field
        assert params == ["operands"] and cls.__match_args__ == ("children",)
    else:
        assert list(cls.__match_args__) == params
    assert not hasattr(x, "__dict__")
    assert _positional(x) == _fields(x)


@pytest.mark.parametrize("x", SAMPLES, ids=_id)
def test_equal_by_class_and_fields_and_hashed_as_the_field_tuple(x):
    cls, fields = type(x), _fields(x)
    if cls in _CHAINS:
        # built from operands: there is no field to pass by keyword
        again = by_keyword = cls(*x.children)
    elif cls is App:
        # built from a head and then each argument
        again = by_keyword = App(x.head, *x.args)
    else:
        again = cls(*fields)
        by_keyword = cls(**dict(zip(cls.__match_args__, fields)))
    assert _fields(again) == _fields(by_keyword) == fields
    assert x == x and not x != x
    assert (x == 1) is False
    if cls is _TyVar:
        # inference placeholders are equal only to themselves
        assert x != again and hash(x) != hash(again)
        return
    assert again == x and by_keyword == x and not again != x
    try:
        want = hash(fields)
    except TypeError:  # TagDerivation holds dicts: unhashable, as before
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(again) == want


def test_same_fields_in_another_class_are_not_equal():
    a, b = Var("a"), Var("b")
    assert Or(a, b) != And(a, b)
    assert Mu("X", PROP, a) != Nu("X", PROP, a)
    assert Forall("x", INT, a) != Exists("x", INT, a)
    assert Plus(Lit(1), Lit(2)) != Times(Lit(1), Lit(2))
    assert IntType() != PropType() and TagInt() != IntType()
    assert Lit(1) != Lit(2) and Var("a") != IntVar("a")


@pytest.mark.parametrize("op", _CHAINS, ids=lambda op: op.__name__)
def test_a_junction_merges_a_first_operand_of_its_own_class(op):
    # the same rule for a junction of formulas and a sum or product
    a, b, c = (Var(n) for n in "abc") if op in (Or, And) else (IntVar(n) for n in "abc")
    assert op(op(a, b), c) == op(a, b, c)
    assert op(op(a, b), c).children == (a, b, c)
    assert op(a, op(b, c)).children == (a, op(b, c))
    other = {Or: And, And: Or, Plus: Times, Times: Plus}[op]
    assert op(other(a, b), c).children == (other(a, b), c)
    for too_few in ((), (a,)):
        with pytest.raises(TypeError):
            op(*too_few)


def test_an_application_merges_a_head_application():
    f, g, a, b = Var("f"), Var("g"), Var("a"), Lit(2)
    assert App(App(f, a), b) == App(f, a, b)
    assert App(App(f, a), b).args == (a, b) and App(App(f, a), b).head is f
    # an application given as an argument stays one argument
    assert App(f, App(g, a)).args == (App(g, a),)
    assert App(f, App(g, a)).head is f
    with pytest.raises(TypeError):
        App(f)


@pytest.mark.parametrize("x", SAMPLES, ids=_id)
def test_copy_and_pickle_rebuild_past_the_guards(x):
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and repr(twin) == repr(x)


@pytest.mark.parametrize("x", SAMPLES, ids=_id)
def test_fields_cannot_be_assigned_or_deleted(x):
    before = repr(x)
    for name in (*type(x).__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == before


def test_repr_is_the_dataclass_text():
    f = Mu("X", Arrow(INT, PROP), Abs("x", INT, Or(App(Var("X"), Plus(IntVar("x"), Lit(1))), Ge(IntVar("x"), Lit(0)))))
    assert repr(f) == (
        "Mu(name='X', ty=Arrow(arg=IntType(), ret=PropType()), body=Abs(name='x', "
        "ty=IntType(), body=Or(children=(App(head=Var(name='X'), args=(Plus(children=("
        "IntVar(name='x'), Lit(value=1))),)), Ge(lhs=IntVar(name='x'), rhs=Lit(value=0))))))"
    )
    assert repr(Exists("k", INT, Ge(IntVar("k"), Lit(0)))) == (
        "Exists(name='k', ty=IntType(), body=Ge(lhs=IntVar(name='k'), rhs=Lit(value=0)))"
    )
    assert repr(SAMPLES[-1]) == (
        "VerdictReport(outcome='unknown', winning_side='none', iterations=(IterationRecord("
        "side='prover', params=ApproxParams(c=1, d=2, c_extra=3, d_extra=4, counters=2), "
        "verdict=BackendVerdict(outcome='unknown', detail='range escape', elapsed_s=0.5)),), "
        "total_elapsed_s=1.25, reason='timeout')"
    )
    assert repr(TagPred((TagInt(), TagPred((TagInt(),), False)), True)) == (
        "TagPred(params=(TagInt(), TagPred(params=(TagInt(),), tag=False)), tag=True)"
    )
    assert repr(_TyVar(3)) == "_TyVar(id=3)"


def test_defaults_and_checks():
    assert _fields(Domain(0, 4)) == (0, 4, True)
    assert _fields(ApproxParams(1, 2, 3, 4)) == (1, 2, 3, 4, 1)
    assert _fields(External(("s",))) == (("s",), 60.0, True)
    assert _fields(BackendVerdict("valid")) == ("valid", "", 0.0)
    assert _fields(VerdictReport("valid", "prover", (), 0.5)) == ("valid", "prover", (), 0.5, "")
    assert TagDerivation(Var("x"), {}, {}).all_f is False
    for bad in (
        lambda: Domain(1, 0),
        lambda: ApproxParams(1, -1, 1, 1),
        lambda: ApproxParams(1, 1, 1, 1, counters=0),
        lambda: External(()),
        lambda: External(("s",), timeout_s=math.nan),
    ):
        with pytest.raises(ValueError):
            bad()


def test_import_makes_no_dataclass_and_loads_no_json():
    src = pathlib.Path(muhflz.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import muhflz\n"
        "mods = [m for n, m in sys.modules.items() if n.split('.')[0] == 'muhflz']\n"
        "classes = [c for m in mods for c in vars(m).values() if isinstance(c, type)]\n"
        "print(len(mods), len(classes))\n"
        "print([c.__name__ for c in classes if hasattr(c, '__dataclass_fields__')])\n"
        "print(sorted({'json', 'dataclasses'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts, dataclasses, loaded = proc.stdout.splitlines()
    n_mods, n_classes = map(int, counts.split())
    assert n_mods >= 11 and n_classes >= 34
    assert dataclasses == "[]"
    assert loaded == "[]"


def test_import_loads_no_tempfile():
    # only the external path writes a file; -S keeps site's own imports out
    src = pathlib.Path(muhflz.__file__).resolve().parent.parent
    code = f"import sys\nsys.path.insert(0, {str(src)!r})\nimport muhflz\nprint('tempfile' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
