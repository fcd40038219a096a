import gc
import sys

import pytest

from conftest import (
    DOCUMENTED, FIXTURES, LOOP, STUB_SOLVER, fixture_text, gc_off, tracked_fix_instances,
)
from gen import instances
from muhflz.backend import BackendVerdict, Builtin, External, lower
from muhflz.convert import hes_to_formula
import muhflz.driver
from muhflz.driver import (
    IterationRecord, VerdictReport, approximate, default_schedule,
    emit_report, prepare, report_from_json, verify,
)
from muhflz.eval import (
    BoundedResult, Domain, IterationCap, Table, check_validity_bounded, evaluate,
)
from muhflz.parser import parse_hes
from muhflz.syntax import Exists, Forall, Mu, Nu, subformulas
from muhflz.transform import ApproxParams
from muhflz.typecheck import typecheck


def test_schedule_prefix_matches_table():
    s = default_schedule(4)
    assert s[0] == ApproxParams(1, 2, 1, 1, 1)
    assert s[1] == ApproxParams(1, 2, 1, 1, 2)
    assert s[2] == ApproxParams(1, 16, 1, 1, 1)
    assert s[3] == ApproxParams(1, 16, 1, 1, 2)


def test_schedule_doubles_every_two_and_alternates():
    s = default_schedule(10)
    assert s[4] == ApproxParams(2, 32, 2, 2, 1)
    assert s[5] == ApproxParams(2, 32, 2, 2, 2)
    assert s[6] == ApproxParams(4, 64, 4, 4, 1)
    assert s[7] == ApproxParams(4, 64, 4, 4, 2)
    assert s[8].c == 8 and s[8].d == 128 and s[8].counters == 1
    assert s[9].counters == 2


def test_schedule_first_sixteen_rows():
    # --max-iterations reaches past the rows the tests above spell out
    assert default_schedule(16) == tuple(ApproxParams(*row) for row in (
        (1, 2, 1, 1, 1), (1, 2, 1, 1, 2),
        (1, 16, 1, 1, 1), (1, 16, 1, 1, 2),
        (2, 32, 2, 2, 1), (2, 32, 2, 2, 2),
        (4, 64, 4, 4, 1), (4, 64, 4, 4, 2),
        (8, 128, 8, 8, 1), (8, 128, 8, 8, 2),
        (16, 256, 16, 16, 1), (16, 256, 16, 16, 2),
        (32, 512, 32, 32, 1), (32, 512, 32, 32, 2),
        (64, 1024, 64, 64, 1), (64, 1024, 64, 64, 2),
    ))


def _verify(name, lo, hi, **kw):
    h = typecheck(parse_hes(fixture_text(name)))
    return verify(h, Builtin(Domain(lo, hi)), default_schedule(8), deadline_s=60, **kw)


def test_countdown_valid_first_iteration():
    r = _verify("countdown.hes", -6, 6)
    assert r.outcome == "valid" and r.winning_side == "prover"
    assert sum(1 for it in r.iterations if it.side == "prover") == 1
    assert r.iterations[0].params == ApproxParams(1, 2, 1, 1, 1)


def test_scaled_needs_refinement():
    r = _verify("countdown_scaled.hes", -8, 8)
    assert r.outcome == "valid" and r.winning_side == "prover"
    prover = [it for it in r.iterations if it.side == "prover"]
    assert len(prover) >= 2
    assert prover[0].verdict.outcome == "invalid"  # inconclusive approximation
    assert prover[-1].verdict.outcome == "valid"


def test_false_entry_disproved_first_iteration():
    h = typecheck(parse_hes("Main =v 0 >= 1;\n"))
    r = verify(h, Builtin(Domain(-4, 4)), default_schedule(4), deadline_s=10)
    assert r.outcome == "invalid" and r.winning_side == "disprover"
    disp = [it for it in r.iterations if it.side == "disprover"]
    assert disp[0].verdict.outcome == "valid"


def test_prove_mode_never_reports_invalid():
    h = typecheck(parse_hes("Main =v 0 >= 1;\n"))
    r = verify(h, Builtin(Domain(-4, 4)), default_schedule(2), deadline_s=10, mode="prove")
    assert r.outcome == "unknown"
    assert all(it.side == "prover" for it in r.iterations)


def test_empty_least_fixpoint_is_not_proved():
    # mu F. F is false; a k=2 reset passes its bound 2 + u1 + u0 as a
    # value, so prover row 2 escapes the window rather than holding vacuously
    h = typecheck(parse_hes("Main =v F; F =u F;"))
    assert evaluate(hes_to_formula(h), Domain(-8, 8)) is False
    report = verify(h, Builtin(Domain(-8, 8)), default_schedule(2), mode="prove")
    assert report.outcome != "valid"


def test_prove_and_disprove_contradict_on_known_seeds():
    """The generated instances that ``prove`` decides valid and ``disprove``
    decides invalid, each mode run alone.  One of the two is wrong on each;
    ROADMAP items 1 and 22 own the rest of this list."""
    dom = Domain(-3, 3)
    both = [
        seed for seed, h in instances(480)
        if verify(h, Builtin(dom), deadline_s=60.0, mode="prove").outcome == "valid"
        and verify(h, Builtin(dom), deadline_s=60.0, mode="disprove").outcome == "invalid"
    ]
    assert both == [
        6, 10, 17, 22, 29, 90, 103, 135, 181, 194, 199, 205, 221, 273, 291,
        297, 313, 328, 329, 351, 358, 389, 395, 401, 408, 435, 452, 457, 463, 471,
    ]


@pytest.mark.parametrize("text,lo,hi,mode,prepared", [
    (fixture_text("countdown.hes"), -6, 6, "both", 1),
    ("Main =v 0 >= 1;\n", -4, 4, "both", 2),
    ("Main =v 0 >= 1;\n", -4, 4, "disprove", 1),
], ids=["prover_decides_first", "disprover_decides", "disprove_mode"])
def test_a_side_is_prepared_when_its_first_row_runs(monkeypatch, text, lo, hi, mode, prepared):
    # the disprover's dual system is made only if the prover has not
    # decided by then
    calls = []
    real = muhflz.driver.prepare
    monkeypatch.setattr(
        muhflz.driver, "prepare", lambda h, **kw: (calls.append(h), real(h, **kw))[1]
    )
    h = typecheck(parse_hes(text))
    verify(h, Builtin(Domain(lo, hi)), default_schedule(8), deadline_s=60, mode=mode)
    assert len(calls) == prepared


@pytest.mark.parametrize("mode,records,reason", [
    ("prove", [("prover", ApproxParams(1, 2, 1, 1, 1), "invalid")], "schedule exhausted"),
    ("disprove", [("disprover", ApproxParams(1, 2, 1, 1, 1), "valid")], ""),
])
def test_a_mu_free_side_runs_one_row(mode, records, reason):
    # a side with no least fixpoint has nothing to refine: its first row is
    # its last
    h = typecheck(parse_hes("Main =v 0 >= 1;\n"))
    r = verify(h, Builtin(Domain(-4, 4)), default_schedule(4), deadline_s=10, mode=mode)
    assert [(it.side, it.params, it.verdict.outcome) for it in r.iterations] == records
    assert r.reason == reason


@pytest.mark.parametrize("deadline_s", [float("nan"), 0.0, -1.0])
def test_deadline_must_be_positive(deadline_s):
    # a NaN deadline would compare false against every clock reading and
    # never stop a step
    h = typecheck(parse_hes(fixture_text("countdown.hes")))
    with pytest.raises(ValueError, match="deadline must be positive"):
        verify(h, Builtin(Domain(-6, 6)), default_schedule(1), deadline_s=deadline_s)


def test_schedule_exhaustion_is_unknown():
    # valid over Z but every bounded budget fails on the scaled window
    h = typecheck(parse_hes(fixture_text("succ_chain.hes")))
    r = verify(
        h, Builtin(Domain(0, 10)), (ApproxParams(0, 1, 0, 1),),
        deadline_s=30, mode="prove",
    )
    assert r.outcome == "unknown"
    assert r.reason in ("schedule exhausted", "timeout")


def test_report_text_first_line_is_verdict():
    r = _verify("countdown.hes", -6, 6)
    text = emit_report(r, "text")
    assert text.splitlines()[0] == "valid"


def test_report_json_round_trips():
    r = _verify("countdown_scaled.hes", -8, 8)
    back = report_from_json(emit_report(r, "json"))
    assert back == r


def test_report_json_matches_the_recorded_bytes():
    # report_golden.json was written by the asdict-based emitter
    r = VerdictReport("invalid", "disprover", (
        IterationRecord("prover", ApproxParams(1, 2, 1, 1), BackendVerdict("unknown", "iteration cap: step-cap", 0.25)),
        IterationRecord("disprover", ApproxParams(1, 2, 1, 1, 2), BackendVerdict("valid", "", 1.5)),
        IterationRecord("prover", ApproxParams(1, 16, 1, 1), BackendVerdict("unknown", 'stderr: "bad" \u00e9', 0.0)),
    ), 2.125, "")
    text = emit_report(r, "json")
    assert text.encode("utf-8") == (FIXTURES.parent / "tests" / "report_golden.json").read_bytes()
    assert report_from_json(text) == r


def test_lower_desugars_what_prepare_left():
    # prepare desugars the input's quantifiers and lower the approximation's:
    # a solver declared without quantifiers gets neither quantifiers nor
    # least fixpoints
    h = typecheck(parse_hes(r"Main =v exists x. F x; F y =u y >= 2 \/ F (y - 1);"))
    row = default_schedule(1)[0]
    g = approximate(prepare(h, desugar=True), row)
    assert any(isinstance(s, Forall) for s in subformulas(g)), "a budget quantifier is left"
    out = lower(g, quantifiers=False)
    assert all(eq.sign is Nu for eq in out.equations)
    bodies = (out.entry, *(eq.body for eq in out.equations))
    assert not any(isinstance(s, (Exists, Forall, Mu)) for b in bodies for s in subformulas(b))


def test_unknown_report_carries_reason():
    h = typecheck(parse_hes(fixture_text("succ_chain.hes")))
    r = verify(
        h, Builtin(Domain(0, 10)), (ApproxParams(0, 1, 0, 1),),
        deadline_s=30, mode="prove",
    )
    import json

    payload = json.loads(emit_report(r, "json"))
    assert payload["outcome"] == "unknown"
    assert payload["reason"]


def test_verdicts_agree_with_bounded_oracle():
    # budgets with c=0 stay inside the window, so a non-unknown driver
    # verdict must match direct evaluation of the original formula
    schedule = (ApproxParams(0, 1, 0, 1), ApproxParams(0, 2, 0, 2), ApproxParams(0, 3, 0, 3))
    dom = Domain(-3, 3)
    checked = 0
    for seed, h in instances(80):
        try:
            truth = check_validity_bounded(hes_to_formula(h), dom, step_limit=300_000)
        except IterationCap:
            continue
        if truth is BoundedResult.RANGE_ESCAPE:
            continue
        r = verify(h, Builtin(dom), schedule, deadline_s=20)
        if r.outcome == "unknown":
            continue
        checked += 1
        expected = "valid" if truth is BoundedResult.VALID else "invalid"
        assert r.outcome == expected, f"seed {seed}: driver {r.outcome} vs oracle {expected}"
        if r.outcome == "valid":
            assert r.winning_side == "prover"
        else:
            assert r.winning_side == "disprover"
    assert checked >= 20


def test_quantifiers_desugared_for_external_backends(tmp_path):
    # a backend that declares no quantifier support must never see one
    import stat

    from muhflz.backend import External

    stub = tmp_path / "solver.sh"
    stub.write_text(
        "#!/bin/sh\n"
        'if grep -qE "forall|exists" "$1"; then echo invalid; else echo valid; fi\n'
    )
    stub.chmod(stub.stat().st_mode | stat.S_IEXEC)
    h = typecheck(parse_hes(fixture_text("countdown.hes")))
    spec = External((str(stub),), timeout_s=10.0, supports_quantifiers=False)
    r = verify(h, spec, default_schedule(1), deadline_s=20, mode="prove")
    assert r.outcome == "valid", "the handed file still contained a quantifier"


def test_same_tags_reused_across_steps():
    # successive prover approximations differ only in parameters: with a
    # fixed derivation the d=16 step must dominate the d=2 step
    h = typecheck(parse_hes(fixture_text("countdown_scaled.hes")))
    r = verify(h, Builtin(Domain(-8, 8)), default_schedule(8), deadline_s=60, mode="prove")
    prover = [it for it in r.iterations if it.side == "prover"]
    outcomes = [it.verdict.outcome for it in prover]
    if "valid" in outcomes:
        assert outcomes[-1] == "valid"  # the winning step ends the run


# the evaluable fixtures in their README windows, and the vacuous-budget
# repro in the CLI's default window
_EVALUABLE = (
    *((FIXTURES / f"{name}.hes", dom, outcome) for name, (dom, outcome) in DOCUMENTED.items()),
    (LOOP, Domain(-8, 8), "invalid"),
)
_EVALUABLE_IDS = [p.stem for p, *_ in _EVALUABLE]


# the evaluable fixtures whose verify makes tables; the others make none
_TABULATING = [
    e for e in _EVALUABLE if e[0].stem in {"fib_termination", "partial_apply", "succ_chain"}
]


@pytest.mark.parametrize("path,dom,outcome", _TABULATING, ids=[p.stem for p, *_ in _TABULATING])
def test_no_table_outlives_verify(monkeypatch, path, dom, outcome):
    # a finished evaluation is freed by reference counting and nothing
    # else keeps a table, so the tables a verify makes are gone as soon as
    # it returns, with the cyclic collector off
    made = 0
    init = Table.__init__

    def counting(self, *args):
        nonlocal made
        made += 1
        init(self, *args)

    monkeypatch.setattr(Table, "__init__", counting)
    h = typecheck(parse_hes(path.read_text(encoding="utf-8")))
    with gc_off():
        before = sum(1 for o in gc.get_objects() if type(o) is Table)
        for _ in range(2):
            made = 0
            assert verify(h, Builtin(dom), default_schedule(8), deadline_s=300).outcome == outcome
            assert made, "the verify must make tables of its own"
            assert sum(1 for o in gc.get_objects() if type(o) is Table) == before


@pytest.mark.parametrize("path,dom,outcome", _EVALUABLE, ids=_EVALUABLE_IDS)
def test_no_context_survives_verify(eval_contexts, path, dom, outcome):
    h = typecheck(parse_hes(path.read_text(encoding="utf-8")))
    with gc_off():
        before = tracked_fix_instances()
        r = verify(h, Builtin(dom), default_schedule(8), deadline_s=300)
        assert r.outcome == outcome
        assert eval_contexts
        assert all(c() is None for c in eval_contexts)
        assert tracked_fix_instances() == before


# No reference cycle: what each call below builds is freed by reference
# counting when it returns, so the collector finds no garbage after it.


@pytest.mark.parametrize("path,dom,outcome", _EVALUABLE, ids=_EVALUABLE_IDS)
def test_verify_leaves_no_cyclic_garbage(path, dom, outcome):
    h = typecheck(parse_hes(path.read_text(encoding="utf-8")))
    with gc_off():
        assert verify(h, Builtin(dom), default_schedule(8), deadline_s=300).outcome == outcome
        assert gc.collect() == 0


def test_verify_on_generated_instances_leaves_no_cyclic_garbage():
    hs = [h for _, h in instances(40)]
    with gc_off():
        for h in hs:
            verify(h, Builtin(Domain(-3, 3)), deadline_s=2)
        assert gc.collect() == 0


def test_external_verify_leaves_no_cyclic_garbage():
    # the stub answers unknown, so every row is lowered and printed
    spec = External(("sh", str(STUB_SOLVER)), supports_quantifiers=False)
    h = typecheck(parse_hes(fixture_text("countdown.hes")))
    with gc_off():
        assert verify(h, spec, default_schedule(4), deadline_s=60).outcome == "unknown"
        assert gc.collect() == 0


def test_reports_share_default_rows_and_verdict_words():
    # verify's default rows are built once, and an external verdict's
    # outcome is the literal word, so the reports a caller keeps share both
    spec = External(("sh", str(STUB_SOLVER)))
    h = typecheck(parse_hes(fixture_text("countdown.hes")))
    a, b = (verify(h, spec, deadline_s=60, mode="prove") for _ in range(2))
    assert len(a.iterations) == len(b.iterations) == 8
    assert all(r.params is s.params for r, s in zip(a.iterations, b.iterations))
    word = sys.intern("unknown")
    assert all(r.verdict.outcome is word for r in a.iterations + b.iterations)


def test_tag_json_makes_no_cycle_of_its_own():
    # the standard library's indenting encoder leaves a cycle on every
    # call; syntax.json_text writes the same bytes and makes none
    der = prepare(typecheck(parse_hes(fixture_text("partial_apply.hes"))))
    with gc_off():
        assert der.to_json()
        assert gc.collect() == 0


def test_json_report_makes_no_cycle_of_its_own():
    r = _verify("countdown_scaled.hes", -8, 8)
    with gc_off():
        assert emit_report(r, "json")
        assert gc.collect() == 0


def test_lower_leaves_no_cyclic_garbage():
    der = prepare(typecheck(parse_hes(fixture_text("countdown.hes"))))
    g = approximate(der, default_schedule(1)[0])
    with gc_off():
        assert lower(g, quantifiers=False).equations
        assert gc.collect() == 0
