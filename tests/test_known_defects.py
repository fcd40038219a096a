"""Known wrong answers, each a strict xfail that names its ROADMAP item.

Each test asserts the right answer.  When a change mends the defect the
test passes, strict xfail turns that into a failure, and the mark comes
off with the mend."""

import pytest

from conftest import ELIMINATION_EDGES, fixture_text
from muhflz.backend import Builtin
from muhflz.convert import hes_to_formula
from muhflz.driver import verify
from muhflz.eval import BoundedResult, Domain, check_validity_bounded
from muhflz.parser import parse_hes
from muhflz.typecheck import typecheck


def _typed(text: str):
    return typecheck(parse_hes(text))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1, note (c): a vacuous budget quantifier makes the row-1 "
    "disprover step valid, so partial_apply, VALID in its window, is reported invalid"
))
def test_partial_apply_disprover_does_not_decide_invalid():
    h = _typed(fixture_text("partial_apply.hes"))
    assert verify(h, Builtin(Domain(-6, 6)), mode="disprove").outcome != "invalid"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the beta-redex repro; the budget premise u <= 3 + |n| holds "
    "for every u in -3..3, so the row-1 prover step is vacuously valid"
))
def test_beta_redex_head_is_not_reported_valid():
    h = _typed(ELIMINATION_EDGES["beta_head"])
    assert check_validity_bounded(hes_to_formula(h), Domain(-3, 3)) is BoundedResult.INVALID
    assert verify(h, Builtin(Domain(-3, 3))).outcome != "valid"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3, defect 1: a strict closure keyed by its table over the window "
    "also computes outside it, so the conjunction reads VALID though its second "
    "conjunct alone is INVALID"
))
def test_strict_sharing_conjunction_is_not_valid():
    f = hes_to_formula(_typed(
        r"Main =v R (\k. k 4) (\y. y >= 5) /\ R (\k. k 4) (\y. y >= 6);"
        r" R x k =v x (\y. k (y + 1)) /\ R x k;"
    ))
    assert check_validity_bounded(f, Domain(0, 4)) is not BoundedResult.VALID


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3, defect 2: a closure capturing an in-flight instance is keyed "
    "by its syntax, so the keys grow and the solver ends in IterationCap('fixpoint-passes')"
))
def test_in_flight_keys_system_is_invalid():
    f = hes_to_formula(_typed(
        r"Main =v X (\a. a >= 1); X p =v p 1 /\ X Y;"
        r" Y x =u x >= 3 \/ (X Y /\ Y (x + 1));"
    ))
    assert check_validity_bounded(f, Domain(-3, 3)) is BoundedResult.INVALID
