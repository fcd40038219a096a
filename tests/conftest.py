import gc
import pathlib
import sys
import weakref

import pytest

import muhflz.eval

sys.path.insert(0, str(pathlib.Path(__file__).parent))

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def all_fixture_names() -> list[str]:
    return sorted(p.name for p in FIXTURES.glob("*.hes"))


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
