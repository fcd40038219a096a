"""The benchmark's workloads: the HES texts each one verifies, the backend
and deadline it uses, and the reference answer every verdict is checked
against.

Importing this module needs ``src`` and ``tests`` of the repository on
``sys.path`` (``run.py`` puts them there).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from gen import random_instance  # tests/gen.py
from muhflz import (
    Builtin, Domain, External, check_validity_bounded, hes_to_formula,
    parse_hes, print_hes, typecheck,
)
from muhflz.eval import BoundedResult, IterationCap
from muhflz.typecheck import TypeCheckError

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

# Overall verify() deadline per workload.  The driver gives each schedule
# step (deadline left) / (2 * steps left), so the first step of 8 gets
# deadline_s / 16.
#   fixtures: succ_chain's first step needs 2.5-4 s on a 2-vCPU Xeon VM;
#     300 s gives it 18.75 s, so a loaded machine cannot push it over (the
#     CLI default of 60 s gives it 3.75 s, which it overruns under load).
#   corpus: the slowest step that finishes takes under 40 ms, a third of
#     the 125 ms the first step gets; the three inputs whose first step
#     does not finish (seeds 492, 995, 1109) give up after ~0.13 s instead
#     of the seconds they waited under the CLI default.
#   external: the stub answers at once; 300 s keeps every step clear of it.
DEADLINE_S = {"fixtures": 300.0, "corpus": 2.0, "external": 300.0}

# Fixtures the builtin backend can evaluate, with the window and the
# answer their header comments document (README, "Fixtures").
FIXTURES = (
    ("countdown", -6, 6, "valid"),
    ("countdown_scaled", -8, 8, "valid"),
    ("fib_termination", -5, 5, "valid"),
    ("partial_apply", -6, 6, "valid"),
    ("succ_chain", 0, 10, "valid"),
    ("inner_outer_loop", 0, 8, "valid"),
)
# The vacuous-budget repro (ROADMAP item 1), in the CLI's default window.
LOOP = ("loop", -8, 8, "invalid")

CORPUS_SEEDS = range(0, 1200)
CORPUS_WINDOW = Domain(-3, 3)
EXTERNAL_SEEDS = range(1200, 1260)
# Enough for every corpus reference that terminates (the largest, seed 328,
# needs ~8,200 steps); the ones that recurse without bound stop here.
REFERENCE_STEP_LIMIT = 10_000

# Failures the program is known to produce on the corpus and external
# inputs.  They are counted as failed, but only a failure of another kind
# makes a run incorrect:
#   - a decided verdict contradicting a computed reference: approximations
#     made valid by vacuous budget quantifiers (ROADMAP item 1), on either
#     side;
#   - AbsInIllegalPosition from eliminate_abs (with desugared quantifiers
#     also on the partial_apply and ackermann fixtures);
#   - TypeCheckError on a printed instance whose higher-order parameter is
#     used only inside the equation's own recursive call (the generator
#     typed it; inference from the text fails).
KNOWN_ERRORS = frozenset({"AbsInIllegalPosition", "TypeCheckError"})


@dataclass(frozen=True)
class Input:
    name: str
    text: str
    spec: object  # a muhflz BackendSpec
    known_defects_apply: bool  # False for the fixtures workload
    # The expected verdict when it is known without computing it: a
    # fixture's documented answer, or "unknown" under the stub solver.
    # None means "compute with reference()".
    expected: Optional[str]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Input, ...]
    deadline_s: float

    def inputs_digest(self) -> str:
        """sha256 over the HES texts in input order, so that a change to
        tests/gen.py, the printer or the fixtures shows as another
        workload."""
        h = hashlib.sha256()
        for inp in self.inputs:
            h.update(inp.name.encode() + b"\0" + inp.text.encode() + b"\0")
        return h.hexdigest()


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _fixtures() -> list[Input]:
    out = []
    for name, lo, hi, answer in (*FIXTURES, LOOP):
        path = HERE / "loop.hes" if name == "loop" else REPO / "fixtures" / f"{name}.hes"
        out.append(Input(name, _read(path), Builtin(Domain(lo, hi)), False, answer))
    return out


def _corpus() -> list[Input]:
    spec = Builtin(CORPUS_WINDOW)
    return [
        Input(f"gen{s}", print_hes(random_instance(s)), spec, True, None)
        for s in CORPUS_SEEDS
    ]


def _external() -> list[Input]:
    spec = External(
        ("sh", str(HERE / "stub_solver.sh")), supports_quantifiers=False
    )
    out = [
        Input(f"gen{s}", print_hes(random_instance(s)), spec, True, "unknown")
        for s in EXTERNAL_SEEDS
    ]
    for path in sorted((REPO / "fixtures").glob("*.hes")):
        out.append(Input(path.stem, _read(path), spec, True, "unknown"))
    return out


BUILDERS = {"fixtures": _fixtures, "corpus": _corpus, "external": _external}


def build(name: str, seed: int) -> Workload:
    """The workload's inputs, generated ones in the order the seed picks.
    The fixtures keep their listed order, so that every seed runs the same
    sequence against the evaluator's process-wide caches."""
    inputs = BUILDERS[name]()
    if name != "fixtures":
        random.Random(seed).shuffle(inputs)
    return Workload(name, tuple(inputs), DEADLINE_S[name])


def reference(inp: Input) -> Optional[str]:
    """The answer a verdict on ``inp`` is checked against, or None when
    there is none.  Generated inputs without a stated answer are evaluated
    exactly (no approximation) in the same window; a window escape, the
    step limit or a type error leaves them without one."""
    if inp.expected is not None:
        return inp.expected
    try:
        f = hes_to_formula(typecheck(parse_hes(inp.text)))
        result = check_validity_bounded(
            f, inp.spec.dom, step_limit=REFERENCE_STEP_LIMIT
        )
    except (IterationCap, RecursionError, TypeCheckError):
        return None
    return {BoundedResult.VALID: "valid", BoundedResult.INVALID: "invalid"}.get(result)


def judge(inp: Input, outcome: str, ref: Optional[str]) -> str:
    """Classify one verdict: 'right', 'undecided' (unknown where a decided
    answer exists but need not be reached), 'unchecked' (no reference),
    'wrong', or 'error' (verify raised)."""
    if outcome.startswith("error:"):
        return "error"
    if ref is None:
        return "unchecked"
    if outcome == ref:
        return "right"
    # fixtures and the stub must give exactly their expected answer
    if outcome == "unknown" and inp.expected is None:
        return "undecided"
    return "wrong"


def known_failure(inp: Input, outcome: str, verdict_class: str) -> bool:
    if not inp.known_defects_apply:
        return False
    if verdict_class == "wrong":
        return inp.expected is None
    return verdict_class == "error" and outcome.split(":", 1)[1] in KNOWN_ERRORS
