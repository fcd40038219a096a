import contextlib
import gc
import pathlib
import sys
import weakref

import pytest

import muhflz.eval
from muhflz.eval import Domain
from muhflz.syntax import App, Ge, IntExpr, contains_int_abs, subformulas

sys.path.insert(0, str(pathlib.Path(__file__).parent))

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
LOOP = FIXTURES.parent / "perfbench" / "loop.hes"
# an external solver that reads its input and answers unknown
STUB_SOLVER = FIXTURES.parent / "perfbench" / "stub_solver.sh"

# the evaluable fixtures, each with the window and the verdict that README
# "Fixtures" and the file's header document
DOCUMENTED = {
    "countdown": (Domain(-6, 6), "valid"),
    "countdown_scaled": (Domain(-8, 8), "valid"),
    "fib_termination": (Domain(-5, 5), "valid"),
    "partial_apply": (Domain(-6, 6), "valid"),
    "succ_chain": (Domain(0, 10), "valid"),
    "inner_outer_loop": (Domain(0, 8), "valid"),
}


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def all_fixture_names() -> list[str]:
    return sorted(p.name for p in FIXTURES.glob("*.hes"))


def has_int_abs(f) -> bool:
    """Whether an absolute value occurs in an integer expression of ``f``:
    an application argument or a side of a comparison."""
    for g in subformulas(f):
        if type(g) is App:
            exprs = [a for a in g.args if isinstance(a, IntExpr)]
        elif type(g) is Ge:
            exprs = [g.lhs, g.rhs]
        else:
            continue
        if any(map(contains_int_abs, exprs)):
            return True
    return False


# numbers as higher-order predicates (\k. k n), grown by Succ and shrunk by
# Pred; Call is handed F while F is being solved.  Succ, Pred and Call are
# non-recursive, so they are lambdas, and the recursive All and F key the
# closures they build by forced tables
SUCC_PRED = r"""
Main =v All 0 (\k. k 0);
All n x =v F x /\ (n >= 3 \/ All (n + 1) (Succ x));
F x =u x (\y. y = 0) \/ Call F (Pred x);
Call g x =u g x;
Succ x k =v x (\y. k (y + 1));
Pred x k =u x (\y. k (y - 1));
"""


# two paths of least-fixpoint elimination that neither the fixtures nor the
# generated corpus reach.  Not under fixtures/, whose *.hes files the
# benchmark's external workload reads.
#   abs_padding: G's partial application is an argument whose companion
#     holds |n|, so eliminate_abs pads the non-Prop spine with lambdas;
#   beta_head: a lambda applied directly, so the tagged view of an
#     application looks through the lambda's binder.
ELIMINATION_EDGES = {
    "abs_padding": r"""
Main =v forall n. H (G (\y. y >= n));
H q =v q 0;
G p x =v p x /\ M p x;
M p x =u p x \/ M p (x - 1);
""",
    "beta_head": r"""
Main =v forall n. (\k. M k n) (\y. y >= 0);
M p x =u p x \/ M p (x - 1);
""",
}


@pytest.fixture
def eval_contexts(monkeypatch) -> list:
    """Weak references to the evaluation contexts made during the test."""
    refs: list = []
    make = muhflz.eval.make_context

    def capture(*args, **kwargs):
        ctx = make(*args, **kwargs)
        refs.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(muhflz.eval, "make_context", capture)
    return refs


def tracked_fix_instances() -> int:
    """Fixpoint instances the collector tracks, garbage not yet collected
    included."""
    return sum(1 for o in gc.get_objects() if type(o) is muhflz.eval._FixInstance)


@contextlib.contextmanager
def gc_off():
    """The cyclic collector off inside the block, after one collection, so
    that only reference counting frees what the block makes and a
    ``gc.collect()`` in it counts the cyclic garbage the block left."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextlib.contextmanager
def shallow_stack(frames: int):
    """Allow only ``frames`` Python frames above the current stack depth,
    whatever the interpreter's default recursion limit."""
    depth, f = 0, sys._getframe()
    while f is not None:
        depth, f = depth + 1, f.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
