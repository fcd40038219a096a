import gc
import weakref

import pytest

import muhflz.eval
from conftest import FIXTURES, fixture_text, tracked_fix_instances
from gen import instances
from muhflz.backend import BackendVerdict, Builtin, lower
from muhflz.convert import hes_to_formula
from muhflz.driver import (
    IterationRecord, VerdictReport, approximate, default_schedule,
    emit_report, prepare, report_from_json, verify,
)
from muhflz.eval import (
    _INTERN, BoundedResult, Domain, IterationCap, check_validity_bounded,
)
from muhflz.parser import parse_hes
from muhflz.syntax import Exists, Forall, Mu, Sign, subformulas
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
    assert all(eq.sign is Sign.NU for eq in out.equations)
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


def test_intern_returns_to_baseline_after_verify(monkeypatch):
    # interned tables are held weakly and a finished evaluation is freed by
    # reference counting, so the tables only a verify made are gone as soon
    # as it returns, with the cyclic collector off
    made = []
    intern = muhflz.eval.intern_table

    def recording(*args):
        t = intern(*args)
        if id(t) not in existing:
            made.append(weakref.ref(t))
        return t

    monkeypatch.setattr(muhflz.eval, "intern_table", recording)
    h = typecheck(parse_hes(fixture_text("partial_apply.hes")))
    spec = Builtin(Domain(-6, 6))
    gc.collect()
    baseline = len(_INTERN)
    existing = {id(t) for t in _INTERN.values()}
    gc.disable()
    try:
        for _ in range(2):
            made.clear()
            assert verify(h, spec, default_schedule(8), deadline_s=60).outcome == "valid"
            assert made, "the verify must intern tables of its own"
            assert all(r() is None for r in made)
            assert len(_INTERN) == baseline
    finally:
        gc.enable()


# the evaluable fixtures in their README windows, and the vacuous-budget
# repro in the CLI's default window
_EVALUABLE = (
    *(
        (FIXTURES / f"{name}.hes", lo, hi, "valid")
        for name, lo, hi in (
            ("countdown", -6, 6),
            ("countdown_scaled", -8, 8),
            ("fib_termination", -5, 5),
            ("partial_apply", -6, 6),
            ("succ_chain", 0, 10),
            ("inner_outer_loop", 0, 8),
        )
    ),
    (FIXTURES.parent / "perfbench" / "loop.hes", -8, 8, "invalid"),
)


@pytest.mark.parametrize(
    "path,lo,hi,outcome", _EVALUABLE, ids=[p.stem for p, *_ in _EVALUABLE]
)
def test_no_context_survives_verify(eval_contexts, path, lo, hi, outcome):
    h = typecheck(parse_hes(path.read_text(encoding="utf-8")))
    gc.collect()
    before = tracked_fix_instances()
    gc.disable()
    try:
        r = verify(h, Builtin(Domain(lo, hi)), default_schedule(8), deadline_s=300)
        assert r.outcome == outcome
        assert eval_contexts
        assert all(c() is None for c in eval_contexts)
        assert tracked_fix_instances() == before
    finally:
        gc.enable()
