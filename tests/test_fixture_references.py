"""Each evaluable fixture's documented verdict against its in-window
reference: ``check_validity_bounded`` of the original system in the
documented window.

countdown_scaled is documented ``valid``, but its reference is
``INVALID``: ``F (2*w)`` leaves the window, and a least fixpoint applied
outside the window is false.  The pipeline reaches ``valid`` only through
a vacuous budget quantifier (ROADMAP item 1).  A new mismatch fails this
test; the mend of item 1 must update ``KNOWN_MISMATCHES``.
"""

from conftest import DOCUMENTED, FIXTURES, fixture_text
from muhflz.convert import hes_to_formula
from muhflz.eval import BoundedResult, Domain, check_validity_bounded
from muhflz.parser import parse_hes
from muhflz.typecheck import typecheck

KNOWN_MISMATCHES = {"countdown_scaled"}
AS_RESULT = {"valid": BoundedResult.VALID, "invalid": BoundedResult.INVALID}


def test_documented_verdicts_match_the_in_window_reference():
    mismatches = set()
    for name, (dom, verdict) in DOCUMENTED.items():
        h = typecheck(parse_hes(fixture_text(f"{name}.hes")))
        if check_validity_bounded(hes_to_formula(h), dom) is not AS_RESULT[verdict]:
            mismatches.add(name)
    assert mismatches == KNOWN_MISMATCHES


def test_documented_fixtures_are_the_benchmarks(monkeypatch):
    # the benchmark and CI's peak-memory step read perfbench/workloads.py,
    # the tests DOCUMENTED: the two list the same windows and verdicts
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "perfbench"))
    import workloads

    listed = {name: (Domain(lo, hi), verdict) for name, lo, hi, verdict in workloads.FIXTURES}
    assert listed == DOCUMENTED
