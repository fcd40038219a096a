"""The refinement loop: approximate, solve, refine -- with a prover and a
disprover racing in fair round-robin.

The prover approximates the input; the disprover approximates its De
Morgan dual.  A 'valid' verdict from the prover decides Valid; one from
the disprover decides Invalid.  'invalid' backend verdicts on an
approximation are never conclusive (the approximation only
under-approximates) and just advance that side's iteration.  Each side
runs ``prepare`` once and ``approximate`` per parameter row, so successive
approximations share one tag derivation and differ only in the
coefficients.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from typing import Optional

from .backend import BackendSpec, BackendVerdict, External, solve
from .convert import formula_to_hes, hes_to_formula
from .eval import IterationCap, RangeEscape
from .syntax import Formula, Hes, contains_mu
from .tags import TagDerivation, infer_tags_formula
from .transform import (
    ApproxParams, desugar_quantifiers, dual_hes, eliminate_abs,
    eta_expand_mu_partials, transform_formula,
)
from .typecheck import typecheck


@dataclass(frozen=True)
class Schedule:
    steps: tuple[ApproxParams, ...]

    def __len__(self) -> int:
        return len(self.steps)


def default_schedule(max_iterations: int) -> Schedule:
    """The standard parameter schedule: an explicit four-row prefix, then
    all four coefficients double every two iterations while the counter
    count keeps alternating between 1 and 2."""
    if max_iterations < 1:
        raise ValueError("need at least one iteration")
    steps = []
    prefix = [
        ApproxParams(1, 2, 1, 1, 1),
        ApproxParams(1, 2, 1, 1, 2),
        ApproxParams(1, 16, 1, 1, 1),
        ApproxParams(1, 16, 1, 1, 2),
    ]
    steps.extend(prefix[:max_iterations])
    i = len(steps)
    while len(steps) < max_iterations:
        pair = (i - 4) // 2 + 1  # how many doublings past the prefix
        scale = 2 ** pair
        steps.append(
            ApproxParams(scale, 16 * scale, scale, scale, 1 if i % 2 == 0 else 2)
        )
        i += 1
    return Schedule(tuple(steps))


@dataclass(frozen=True)
class IterationRecord:
    side: str  # "prover" | "disprover"
    params: ApproxParams
    verdict: BackendVerdict


@dataclass(frozen=True)
class VerdictReport:
    outcome: str  # "valid" | "invalid" | "unknown"
    winning_side: str  # "prover" | "disprover" | "none"
    iterations: tuple[IterationRecord, ...]
    total_elapsed_s: float
    reason: str = ""


def prepare(h: Hes, *, all_f: bool = False, desugar: bool = False) -> TagDerivation:
    """Close a typed system into one formula, desugar its quantifiers if
    asked, eta-expand partially applied least fixpoints and infer tags.  The
    derivation's ``formula`` is the prepared formula, reused for every row,
    and its ``desugar`` carries the flag to ``approximate``."""
    f = hes_to_formula(h)
    if desugar:
        f = desugar_quantifiers(f)
    der = infer_tags_formula(eta_expand_mu_partials(f), all_f=all_f)
    return replace(der, desugar=desugar)


def approximate(der: TagDerivation, params: ApproxParams) -> Formula:
    """The closed nu-only approximation of ``der.formula`` at ``params``, its
    quantifiers desugared if ``der`` was prepared so.  The built-in backend
    evaluates it as is; ``formula_to_hes`` lowers it for an external
    solver."""
    g = eliminate_abs(transform_formula(der.formula, der, params))
    if der.desugar:
        g = desugar_quantifiers(g)
    return g


def override_counters(
    params: ApproxParams, *, no_extra_args: bool = False, counters: Optional[int] = None
) -> ApproxParams:
    """A schedule row with its counter count overridden: one counter
    without companion arguments, else ``counters`` when given."""
    k = 1 if no_extra_args else counters
    return params if k is None else replace(params, counters=k)


class _Side:
    def __init__(self, name: str, h: Hes, *, all_f: bool, desugar: bool):
        self.name = name
        self.tags = prepare(h, all_f=all_f, desugar=desugar)
        self.mu_free = not contains_mu(self.tags.formula)
        self.exhausted = False
        self.attempted_params: set = set()


def verify(
    h: Hes,
    spec: BackendSpec,
    schedule: Optional[Schedule] = None,
    deadline_s: float = 60.0,
    *,
    mode: str = "both",
    no_extra_args: bool = False,
    counters_override: Optional[int] = None,
) -> VerdictReport:
    """Race prover and disprover over the schedule (strict round-robin,
    prover first).  The first 'valid' backend verdict decides; exhausting
    the schedule or the deadline yields Unknown."""

    start = time.monotonic()
    hard_deadline = start + deadline_s
    schedule = schedule if schedule is not None else default_schedule(8)
    typed = typecheck(h)
    desugar = isinstance(spec, External) and not spec.supports_quantifiers

    sides: list[_Side] = []
    if mode in ("prove", "both"):
        sides.append(_Side("prover", typed, all_f=no_extra_args, desugar=desugar))
    if mode in ("disprove", "both"):
        sides.append(_Side("disprover", dual_hes(typed), all_f=no_extra_args, desugar=desugar))
    if not sides:
        raise ValueError(f"bad mode {mode!r}")

    records: list[IterationRecord] = []

    def report(outcome: str, winner: str, reason: str = "") -> VerdictReport:
        return VerdictReport(
            outcome, winner, tuple(records), time.monotonic() - start, reason
        )

    for i, params in enumerate(schedule.steps):
        params = override_counters(params, no_extra_args=no_extra_args, counters=counters_override)
        for side in sides:
            if side.exhausted:
                continue
            now = time.monotonic()
            if now >= hard_deadline:
                return report("unknown", "none", "timeout")
            remaining_steps = len(schedule.steps) - i
            budget = (hard_deadline - now) / (2 * remaining_steps)
            step_deadline = min(now + max(budget, 0.05), hard_deadline)

            if side.mu_free and side.attempted_params:
                side.exhausted = True
                continue
            if params in side.attempted_params:
                records.append(
                    IterationRecord(side.name, params, BackendVerdict("unknown", "duplicate parameters", 0.0))
                )
                continue
            side.attempted_params.add(params)

            try:
                approx = approximate(side.tags, params)
                if isinstance(spec, External):
                    approx = formula_to_hes(approx)
            except (IterationCap, RangeEscape) as e:
                records.append(
                    IterationRecord(side.name, params, BackendVerdict("unknown", f"transform failed: {e}", 0.0))
                )
                continue
            verdict = solve(spec, approx, deadline=step_deadline)
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
        return json.dumps(asdict(r), indent=2)
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
    data = json.loads(text)
    data["iterations"] = tuple(
        IterationRecord(
            it["side"], ApproxParams(**it["params"]), BackendVerdict(**it["verdict"])
        )
        for it in data["iterations"]
    )
    return VerdictReport(**data)
