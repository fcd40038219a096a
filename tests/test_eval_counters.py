"""Golden evaluator work: the result and the work counters of the bounded
evaluator on a fixed set of inputs, recorded in ``eval_counters.json``.

Any change to how the evaluator keys values, memoizes fixpoint instances
or forces tables must leave both the results and the counters unchanged.
The counters are ``(steps, fixpoint instances, table keys, forced
tables)``.  The inputs are original systems and, keyed ``<input>@row<i>``,
the shipped approximations of schedule rows 1 and 2, so that a rewrite
which changes only which nodes an approximation shares shows up here too.
After a deliberate change of evaluator work, regenerate the file with
``PYTHONPATH=src python tests/test_eval_counters.py``.
"""

import json
import pathlib

import pytest

from conftest import DOCUMENTED, ELIMINATION_EDGES, SUCC_PRED, fixture_text
from gen import instances
from muhflz.convert import hes_to_formula
from muhflz.driver import approximate, default_schedule, prepare
from muhflz.eval import (
    Domain, IterationCap, RangeEscape, eval_formula, make_context,
)
from muhflz.parser import parse_hes
from muhflz.transform import dual_hes
from muhflz.typecheck import typecheck

GOLDEN = pathlib.Path(__file__).parent / "eval_counters.json"

CORPUS_COUNT = 200
CORPUS_WINDOW = Domain(-3, 3)
CORPUS_STEP_LIMIT = 10_000
# fixtures evaluated as written (with their least fixpoints), in the
# windows the README documents for them
FIXTURE_WINDOWS = {"countdown": Domain(-6, 6), "fib_termination": Domain(-5, 5)}
# closures that the recursive fixpoints key by forced tables
SUCC_PRED_WINDOWS = {
    "succ_pred": Domain(0, 4),
    "succ_pred_clamping": Domain(0, 4, strict=False),
}
# approximations: the first corpus instances, these fixtures and the
# ELIMINATION_EDGES texts (on the corpus window), each as written and
# dualized, at the first two schedule rows
APPROX_CORPUS_COUNT = 100
APPROX_FIXTURES = ("countdown", "countdown_scaled", "fib_termination", "partial_apply")
APPROX_ROWS = default_schedule(2)
APPROX_CORPUS_STEP_LIMIT = 20_000
APPROX_FIXTURE_STEP_LIMIT = 50_000


def _run(f, dom: Domain, step_limit: int = 20_000_000) -> list:
    ctx = make_context(dom, step_limit=step_limit)
    try:
        result = "valid" if eval_formula(ctx, f, {}) is True else "invalid"
    except RangeEscape:
        result = "range_escape"
    except IterationCap as e:
        result = f"cap:{e.reason}"
    return [
        result,
        ctx.steps,
        len(ctx.instances),
        sum(len(i.asg) for i in ctx.instances.values()),
        len(ctx.forced_partials),
    ]


def _approximations(name: str, h):
    """``(key, formula)`` for the approximations of ``h`` and of its dual."""
    for side, g in ((name, h), (f"{name}~dual", dual_hes(h))):
        der = prepare(g)
        for i, row in enumerate(APPROX_ROWS, 1):
            yield f"{side}@row{i}", approximate(der, row)


def measure() -> dict:
    out = {}
    for seed, h in instances(CORPUS_COUNT):
        out[f"gen{seed}"] = _run(hes_to_formula(h), CORPUS_WINDOW, CORPUS_STEP_LIMIT)
    for name, dom in FIXTURE_WINDOWS.items():
        h = typecheck(parse_hes(fixture_text(f"{name}.hes")))
        out[name] = _run(hes_to_formula(h), dom)
    f = hes_to_formula(typecheck(parse_hes(SUCC_PRED)))
    for name, dom in SUCC_PRED_WINDOWS.items():
        out[name] = _run(f, dom)
    for seed, h in instances(APPROX_CORPUS_COUNT):
        for key, f in _approximations(f"gen{seed}", h):
            out[key] = _run(f, CORPUS_WINDOW, APPROX_CORPUS_STEP_LIMIT)
    for name in APPROX_FIXTURES:
        h = typecheck(parse_hes(fixture_text(f"{name}.hes")))
        for key, f in _approximations(name, h):
            out[key] = _run(f, DOCUMENTED[name][0], APPROX_FIXTURE_STEP_LIMIT)
    for name, text in ELIMINATION_EDGES.items():
        for key, f in _approximations(name, typecheck(parse_hes(text))):
            out[key] = _run(f, CORPUS_WINDOW, APPROX_CORPUS_STEP_LIMIT)
    return out


def _changes(want: dict, got: dict, shown: int = 5) -> str:
    """How many entries changed, how many of them in their result, and the
    first ``shown`` of them (changed results first), old and new."""
    changed = sorted((want[k][0] == got[k][0], k) for k in want if want[k] != got[k])
    if not changed:
        return ""
    results = sum(1 for same, _ in changed if not same)
    lines = [
        f"{len(changed)} of {len(want)} entries changed: {results} in their result, "
        f"{len(changed) - results} in their counters only; the first {shown}:",
        *(f"  {k}: {want[k]} -> {got[k]}" for _, k in changed[:shown]),
        "after a deliberate change of evaluator work, regenerate with "
        "PYTHONPATH=src python tests/test_eval_counters.py",
    ]
    return "\n".join(lines)


def test_evaluator_work_matches_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = measure()
    assert got.keys() == want.keys()
    report = _changes(want, got)
    if report:
        pytest.fail(report, pytrace=False)


def test_changes_are_counted_and_results_shown_first():
    want = {"a": ["valid", 5, 1, 2, 0], "b": ["valid", 7, 1, 2, 0], "c": ["invalid", 3, 0, 0, 0]}
    got = {"a": ["valid", 4, 1, 2, 0], "b": ["invalid", 7, 1, 2, 0], "c": ["invalid", 3, 0, 0, 0]}
    report = _changes(want, got, shown=1).splitlines()
    assert report[0] == "2 of 3 entries changed: 1 in their result, 1 in their counters only; the first 1:"
    assert report[1] == "  b: ['valid', 7, 1, 2, 0] -> ['invalid', 7, 1, 2, 0]"
    assert len(report) == 3 and "tests/test_eval_counters.py" in report[2]
    assert _changes(want, want) == ""


def test_golden_covers_every_outcome():
    # the pinned set exercises decided and escaping evaluations, and some
    # of it forces tables
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert {"valid", "invalid", "range_escape"} <= {v[0] for v in want.values()}
    assert sum(v[4] for v in want.values()) > 0


if __name__ == "__main__":
    rows = sorted(measure().items())
    text = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows)
    GOLDEN.write_text("{\n" + text + "\n}\n", encoding="utf-8")
