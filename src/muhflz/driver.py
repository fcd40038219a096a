"""The refinement loop: approximate, solve, refine -- with a prover and a
disprover racing in fair round-robin.

The prover approximates the input; the disprover approximates its De
Morgan dual.  A 'valid' verdict from the prover decides Valid; one from
the disprover decides Invalid.  'invalid' backend verdicts on an
approximation are never conclusive (the approximation only
under-approximates) and just advance that side's iteration.  A side is
prepared when its first row runs, so the dual system is built only if the
disprover gets a row.  Each side then runs ``approximate`` per parameter
row, so successive approximations share one tag derivation and differ
only in the coefficients.  ``backend.solve`` takes each approximation as
it is, for either backend.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .backend import BackendSpec, BackendVerdict, External, solve
from .convert import hes_to_formula
# unused here; perfbench/spans.py wraps this name, so it stays importable
from .convert import formula_to_hes  # noqa: F401
from .syntax import Formula, Hes, Node, json_text, set_field
from .tags import TagDerivation, infer_tags_formula
from .transform import (
    ApproxParams, desugar_quantifiers, dual_hes, eliminate_abs,
    eta_expand_mu_partials, transform_formula,
)
from .typecheck import typecheck


def default_schedule(max_iterations: int) -> tuple[ApproxParams, ...]:
    """The standard parameter schedule, one row per iteration.  Row ``i``
    (from 0) is ``ApproxParams(c, d, c, c, 1 + i % 2)`` with
    ``c = 2 ** max(i // 2 - 1, 0)`` and ``d`` 2 for the first two rows,
    else ``16 * c``: the counter count alternates between 1 and 2, and
    from the fifth row on all four coefficients double every two rows."""
    if max_iterations < 1:
        raise ValueError("need at least one iteration")
    steps = []
    for i in range(max_iterations):
        c = 2 ** max(i // 2 - 1, 0)
        steps.append(ApproxParams(c, 2 if i < 2 else 16 * c, c, c, 1 + i % 2))
    return tuple(steps)


# the rows verify runs when given none, shared by every report it makes
_DEFAULT_SCHEDULE = default_schedule(8)


class IterationRecord(Node):
    __slots__ = ("side", "params", "verdict")  # side: "prover" | "disprover"

    def __init__(self, side: str, params: ApproxParams, verdict: BackendVerdict):
        set_field(self, "side", side)
        set_field(self, "params", params)
        set_field(self, "verdict", verdict)


class VerdictReport(Node):
    # outcome: "valid" | "invalid" | "unknown"; winning_side: "prover" |
    # "disprover" | "none"
    __slots__ = ("outcome", "winning_side", "iterations", "total_elapsed_s", "reason")

    def __init__(
        self,
        outcome: str,
        winning_side: str,
        iterations: tuple[IterationRecord, ...],
        total_elapsed_s: float,
        reason: str = "",
    ):
        set_field(self, "outcome", outcome)
        set_field(self, "winning_side", winning_side)
        set_field(self, "iterations", iterations)
        set_field(self, "total_elapsed_s", total_elapsed_s)
        set_field(self, "reason", reason)


def prepare(h: Hes, *, all_f: bool = False, desugar: bool = False) -> TagDerivation:
    """Close a typed system into one formula, desugar its quantifiers if
    asked, eta-expand partially applied least fixpoints and infer tags.  The
    derivation's ``formula`` is the prepared formula, reused for every row;
    an existential desugars into a least fixpoint, which then gets a budget."""
    f = hes_to_formula(h)
    if desugar:
        f = desugar_quantifiers(f)
    return infer_tags_formula(eta_expand_mu_partials(f), all_f=all_f)


def approximate(der: TagDerivation, params: ApproxParams) -> Formula:
    """The closed nu-only approximation of ``der.formula`` at ``params``,
    which ``solve`` takes for either backend."""
    return eliminate_abs(transform_formula(der, params))


def override_counters(
    params: ApproxParams, *, no_extra_args: bool = False, counters: Optional[int] = None
) -> ApproxParams:
    """A schedule row with its counter count overridden: one counter
    without companion arguments, else ``counters`` when given."""
    k = 1 if no_extra_args else counters
    if k is None:
        return params
    return ApproxParams(params.c, params.d, params.c_extra, params.d_extra, k)


class _Side:
    def __init__(self, name: str, system: Callable[[], Hes]):
        self.name = name
        self.system = system  # makes the HES this side approximates
        self.tags: Optional[TagDerivation] = None
        self.exhausted = False
        self.attempted_params: set = set()


def verify(
    h: Hes,
    spec: BackendSpec,
    schedule: Optional[tuple[ApproxParams, ...]] = None,
    deadline_s: float = 60.0,
    *,
    mode: str = "both",
    no_extra_args: bool = False,
) -> VerdictReport:
    """Race prover and disprover over the schedule's rows (strict
    round-robin, prover first; ``default_schedule(8)`` when none is given).
    ``no_extra_args`` runs every row with one counter.  The first 'valid'
    backend verdict decides; exhausting the schedule or the deadline yields
    Unknown."""

    if not deadline_s > 0:  # also false for NaN
        raise ValueError("deadline must be positive")
    start = time.monotonic()
    hard_deadline = start + deadline_s
    schedule = schedule if schedule is not None else _DEFAULT_SCHEDULE
    typed = typecheck(h)
    desugar = isinstance(spec, External) and not spec.supports_quantifiers

    sides: list[_Side] = []
    if mode in ("prove", "both"):
        sides.append(_Side("prover", lambda: typed))
    if mode in ("disprove", "both"):
        sides.append(_Side("disprover", lambda: dual_hes(typed)))
    if not sides:
        raise ValueError(f"bad mode {mode!r}")

    records: list[IterationRecord] = []

    def report(outcome: str, winner: str, reason: str = "") -> VerdictReport:
        return VerdictReport(
            outcome, winner, tuple(records), time.monotonic() - start, reason
        )

    for i, params in enumerate(schedule):
        params = override_counters(params, no_extra_args=no_extra_args)
        for side in sides:
            if side.exhausted:
                continue
            if side.tags is None:  # the side's first row
                side.tags = prepare(side.system(), all_f=no_extra_args, desugar=desugar)
            now = time.monotonic()
            if now >= hard_deadline:
                return report("unknown", "none", "timeout")
            remaining_steps = len(schedule) - i
            budget = (hard_deadline - now) / (2 * remaining_steps)
            step_deadline = min(now + max(budget, 0.05), hard_deadline)

            # with no least fixpoint every row gives the same approximation
            if not side.tags.mus and side.attempted_params:
                side.exhausted = True
                continue
            if params in side.attempted_params:
                records.append(
                    IterationRecord(side.name, params, BackendVerdict("unknown", "duplicate parameters", 0.0))
                )
                continue
            side.attempted_params.add(params)

            verdict = solve(spec, approximate(side.tags, params), deadline=step_deadline)
            records.append(IterationRecord(side.name, params, verdict))
            if verdict.outcome == "valid":
                if side.name == "prover":
                    return report("valid", "prover")
                return report("invalid", "disprover")
        if all(s.exhausted for s in sides):
            break
    reason = "timeout" if time.monotonic() >= hard_deadline else "schedule exhausted"
    return report("unknown", "none", reason)


# ---------------------------------------------------------------------------
# Report rendering


def emit_report(r: VerdictReport, format: str = "text") -> str:
    if format == "json":
        return json_text(r)
    if format != "text":
        raise ValueError(f"unknown report format {format!r}")
    lines = [r.outcome]
    if r.outcome == "unknown" and r.reason:
        lines.append(f"reason: {r.reason}")
    for n, it in enumerate(r.iterations, 1):
        p = it.params
        lines.append(
            f"  [{n}] {it.side}: c={p.c} d={p.d} c'={p.c_extra} d'={p.d_extra} "
            f"k={p.counters} -> {it.verdict.outcome}"
            + (f" ({it.verdict.detail})" if it.verdict.detail else "")
        )
    lines.append(f"elapsed: {r.total_elapsed_s:.3f}s")
    return "\n".join(lines) + "\n"


def report_from_json(text: str) -> VerdictReport:
    import json

    data = json.loads(text)
    data["iterations"] = tuple(
        IterationRecord(
            it["side"], ApproxParams(**it["params"]), BackendVerdict(**it["verdict"])
        )
        for it in data["iterations"]
    )
    return VerdictReport(**data)
