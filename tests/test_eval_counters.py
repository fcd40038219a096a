"""Golden evaluator work: the result and the work counters of the bounded
evaluator on a fixed set of inputs, recorded in ``eval_counters.json``.

Any change to how the evaluator keys values, memoizes fixpoint instances
or forces tables must leave both the results and the counters unchanged.
The counters are ``(steps, fixpoint instances, table keys, forced
tables)``.  After a deliberate change of evaluator work, regenerate the
file with ``PYTHONPATH=src python tests/test_eval_counters.py``.
"""

import json
import pathlib

from conftest import SUCC_PRED, fixture_text
from gen import instances
from muhflz.convert import hes_to_formula
from muhflz.eval import (
    Domain, IterationCap, RangeEscape, eval_formula, make_context,
)
from muhflz.parser import parse_hes
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
    return out


def test_evaluator_work_matches_golden():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = measure()
    assert got.keys() == want.keys()
    diffs = {k: (want[k], got[k]) for k in want if want[k] != got[k]}
    assert not diffs, f"evaluator results or work changed: {diffs}"


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
