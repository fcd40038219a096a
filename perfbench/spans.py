"""Spans and counts for the traced benchmark run.

The tracer replaces the public functions each layer exposes, at the names
muhflz.driver, muhflz.backend and muhflz.parser call them by, with
wrappers that record one span per call: name, parent, request, start and
end.  Nothing in ``src`` is edited; ``uninstall`` puts the originals back.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import subprocess
import time
from collections import Counter
from pathlib import Path

import muhflz.backend
import muhflz.driver
import muhflz.eval
import muhflz.parser
from muhflz.syntax import subformulas

# (module, attribute, span name).  Calls made by the backend are named
# after it, so that the typecheck/hes_to_formula round trip inside solve
# shows apart from the front end's own calls to the same functions.
LAYERS = (
    (muhflz.parser, "parse_hes", "parser.parse_hes"),
    (muhflz.driver, "verify", "driver.verify"),
    (muhflz.driver, "typecheck", "typecheck.typecheck"),
    (muhflz.driver, "dual_hes", "transform.dual_hes"),
    (muhflz.driver, "hes_to_formula", "convert.hes_to_formula"),
    (muhflz.driver, "eta_expand_mu_partials", "transform.eta_expand_mu_partials"),
    (muhflz.driver, "infer_tags_formula", "tags.infer_tags_formula"),
    (muhflz.driver, "transform_formula", "transform.transform_formula"),
    (muhflz.driver, "eliminate_abs", "transform.eliminate_abs"),
    (muhflz.driver, "desugar_quantifiers", "transform.desugar_quantifiers"),
    (muhflz.driver, "formula_to_hes", "convert.formula_to_hes"),
    (muhflz.driver, "solve", "backend.solve"),
    (muhflz.backend, "typecheck", "backend.typecheck"),
    (muhflz.backend, "hes_to_formula", "backend.hes_to_formula"),
    (muhflz.backend, "check_validity_bounded", "eval.check_validity_bounded"),
    (muhflz.backend, "print_hes", "printer.print_hes"),
)
# the solver process, seen through muhflz.backend's `subprocess` name
EXTERNAL_WAIT = "backend.external_wait"
SPAN_NAMES = tuple(name for _, _, name in LAYERS) + (EXTERNAL_WAIT,)

# Evaluator counters, read off the context muhflz.eval.make_context
# returns.  A counter whose attribute a later version drops is reported
# absent rather than failing the run.
EVAL_COUNTERS = {
    "eval.steps": lambda ctx: ctx.steps,
    "eval.fix_instances": lambda ctx: len(ctx.instances),
    "eval.table_keys": lambda ctx: sum(len(i.asg) for i in ctx.instances.values()),
    "eval.forced_tables": lambda ctx: len(ctx.forced_partials),
}

# Bookkeeping done inside a wrapper (counting nodes, reading counters) is
# recorded under this span, so that no layer's self time includes it.
BOOKKEEPING = "trace.bookkeeping"


class _SubprocessView:
    """muhflz.backend's view of the subprocess module, with `run` traced."""

    def __init__(self, run):
        self.run = run

    def __getattr__(self, attr):
        return getattr(subprocess, attr)


class Tracer:
    def __init__(self):
        # span i: [name, parent index or -1, request, start_ns, end_ns]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self.request = -1
        self._open: list[int] = []
        self._undo: list[tuple] = []
        self._contexts: list = []

    # -- recording --------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.request, time.perf_counter_ns(), 0])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, i: int) -> None:
        self.spans[i][4] = time.perf_counter_ns()
        self._open.pop()

    def _wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            i = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self._end(i)
                if after is not None:
                    self._bookkeep(after, None, e)
                raise
            self._end(i)
            if after is not None:
                self._bookkeep(after, result, None)
            return result

        return traced

    def _bookkeep(self, after, result, error) -> None:
        i = self._begin(BOOKKEEPING)
        try:
            after(result, error)
        finally:
            self._end(i)

    # -- per-layer counts -------------------------------------------------

    def _count_nodes(self, result, error) -> None:
        if error is None:
            self.counts["transform.approx_nodes"] += sum(1 for _ in subformulas(result))

    def _count_bytes(self, result, error) -> None:
        if error is None:
            self.counts["printer.bytes"] += len(result.encode("utf-8"))

    def _count_eval(self, result, error) -> None:
        ctx = self._contexts.pop() if self._contexts else None
        self._contexts.clear()
        # an evaluation cut by a deadline stops at a time-dependent step, so
        # its counters would not repeat; deadline hits are counted instead
        if ctx is None or getattr(error, "reason", None) == "deadline":
            return
        for name, read in EVAL_COUNTERS.items():
            try:
                self.counts[name] += read(ctx)
            except AttributeError:
                self.absent.add(name)

    def _capture_context(self, make_context):
        def capturing(*args, **kwargs):
            ctx = make_context(*args, **kwargs)
            self._contexts.append(ctx)
            return ctx

        return capturing

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        after = {
            "printer.print_hes": self._count_bytes,
            "eval.check_validity_bounded": self._count_eval,
        }
        for owner, attr, name in LAYERS:
            traced = self._wrap(getattr(owner, attr), name, after.get(name))
            if name == "convert.formula_to_hes":
                traced = self._counting_argument(traced)
            self._replace(owner, attr, traced)
        run = self._wrap(subprocess.run, EXTERNAL_WAIT)
        self._replace(muhflz.backend, "subprocess", _SubprocessView(run))
        self._replace(
            muhflz.eval, "make_context", self._capture_context(muhflz.eval.make_context)
        )

    def _counting_argument(self, fn):
        """The driver hands formula_to_hes the finished approximation."""

        def counted(f, *args, **kwargs):
            self._bookkeep(self._count_nodes, f, None)
            return fn(f, *args, **kwargs)

        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name in ms: each span's duration minus
        the durations of its direct children (calls are nested and
        single-threaded, so children never overlap)."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        totals: Counter = Counter()
        for s, t in zip(self.spans, own):
            totals[s[0]] += t
        return {name: ns / 1e6 for name, ns in totals.items()}

    def dump(self, path: Path, header: dict) -> None:
        t0 = self.spans[0][3] if self.spans else 0
        spans = [[n, p, r, s - t0, e - t0] for n, p, r, s, e in self.spans]
        payload = {
            **header,
            "span_fields": ["name", "parent", "request", "start_ns", "end_ns"],
            "spans": spans,
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
