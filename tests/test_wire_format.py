"""The lowering end to end over the wire format.

For every fixture and ``perfbench/loop.hes``, as written and dualized, at
schedule rows 1 and 2, with quantifiers kept and desugared, the printed
``lower`` of the approximation is what an external solver receives.  It
must read back, typecheck and hold only greatest-fixpoint equations.
Where the window is small enough, the system read back must also have the
approximation's in-window verdict.
"""

import pytest

from conftest import DOCUMENTED, LOOP, all_fixture_names, fixture_text
from muhflz.backend import lower
from muhflz.convert import hes_to_formula
from muhflz.driver import approximate, default_schedule, prepare
from muhflz.eval import check_validity_bounded
from muhflz.parser import parse_hes
from muhflz.printer import print_hes
from muhflz.syntax import Exists, Forall, Nu, subformulas
from muhflz.transform import dual_hes
from muhflz.typecheck import typecheck

ROWS = default_schedule(2)
NAMES = [n.removesuffix(".hes") for n in all_fixture_names()] + ["loop"]
# partial_apply and succ_chain agree too, but take 0.2-1.6 s per side
EVALUATED = ("countdown", "countdown_scaled", "fib_termination")


def _sides(name):
    text = LOOP.read_text(encoding="utf-8") if name == "loop" else fixture_text(f"{name}.hes")
    h = typecheck(parse_hes(text))
    return {"prover": h, "disprover": dual_hes(h)}


def _wire(h, row, quantifiers):
    """The approximation at ``row`` and the text a solver receives for it."""
    approx = approximate(prepare(h, desugar=not quantifiers), row)
    return approx, print_hes(lower(approx, quantifiers=quantifiers))


@pytest.mark.parametrize("quantifiers", [True, False], ids=["quantifiers", "desugared"])
@pytest.mark.parametrize("name", NAMES)
def test_lowered_text_reads_back_nu_only(name, quantifiers):
    for side, h in _sides(name).items():
        for row in ROWS:
            _, text = _wire(h, row, quantifiers)
            back = typecheck(parse_hes(text))
            where = f"{name} {side} k={row.counters}"
            assert all(eq.sign is Nu for eq in back.equations), where
            assert print_hes(back) == text, where
            if not quantifiers:
                bodies = (back.entry, *(eq.body for eq in back.equations))
                assert not any(
                    isinstance(s, (Forall, Exists)) for b in bodies for s in subformulas(b)
                ), where


@pytest.mark.parametrize("name", EVALUATED)
def test_read_back_keeps_the_in_window_verdict(name):
    dom, _ = DOCUMENTED[name]
    for side, h in _sides(name).items():
        approx, text = _wire(h, ROWS[0], True)
        back = hes_to_formula(typecheck(parse_hes(text)))
        assert check_validity_bounded(back, dom) is check_validity_bounded(approx, dom), side
