"""Uniform interface over nu-only validity checkers.  ``solve`` takes the
closed nu-only formula for both: the built-in bounded evaluator evaluates
it as is, and an external solver process is fed ``lower`` of it, the
equation system in the HES text format.

External protocol: the system is written to a temporary .hes file whose
path is appended to the configured argv; the first stdout line that is
exactly "valid", "invalid" or "unknown" (case-insensitive, trimmed) is the
verdict.  Anything else -- timeout, crash, unparseable output -- becomes
Unknown with a diagnostic.
"""

from __future__ import annotations

import os
# module level, unlike tempfile below: perfbench/spans.py replaces this name
import subprocess
import time
from typing import Optional, Union

from .convert import formula_to_hes
from .eval import BoundedResult, Domain, IterationCap, check_validity_bounded
from .printer import print_hes
from .syntax import Formula, Hes, Node, contains_mu, set_field
from .transform import desugar_quantifiers

# not called here any more; perfbench/spans.py still wraps these two names
from .convert import hes_to_formula  # noqa: F401
from .typecheck import typecheck  # noqa: F401


class Builtin(Node):
    __slots__ = ("dom",)

    def __init__(self, dom: Domain):
        set_field(self, "dom", dom)


class External(Node):
    __slots__ = ("command", "timeout_s", "supports_quantifiers")

    def __init__(
        self, command: tuple[str, ...], timeout_s: float = 60.0, supports_quantifiers: bool = True
    ):
        if not command:
            raise ValueError("empty external command")
        if not timeout_s > 0:  # also false for NaN
            raise ValueError("timeout must be positive")
        set_field(self, "command", command)
        set_field(self, "timeout_s", timeout_s)
        set_field(self, "supports_quantifiers", supports_quantifiers)


BackendSpec = Union[Builtin, External]


class BackendVerdict(Node):
    __slots__ = ("outcome", "detail", "elapsed_s")  # outcome: "valid" | "invalid" | "unknown"

    def __init__(self, outcome: str, detail: str = "", elapsed_s: float = 0.0):
        set_field(self, "outcome", outcome)
        set_field(self, "detail", detail)
        set_field(self, "elapsed_s", elapsed_s)


# each verdict word maps to its literal, so a verdict keeps no copy of the line
_OUTCOMES = {w: w for w in ("valid", "invalid", "unknown")}


def _reject_mu(f: Formula) -> None:
    if contains_mu(f):
        raise ValueError("backend given a formula containing a least fixpoint")


def lower(f: Formula, *, quantifiers: bool) -> Hes:
    """The equation system an external solver receives for the closed
    nu-only formula ``f``: its quantifiers desugared into greatest-fixpoint
    walkers unless the solver has ``quantifiers``, then every fixpoint
    binder lambda-lifted into an equation."""
    if not quantifiers:
        f = desugar_quantifiers(f)
    _reject_mu(f)
    return formula_to_hes(f)


def solve(spec: BackendSpec, f: Formula, *, deadline: Optional[float] = None) -> BackendVerdict:
    """Check validity of a closed nu-only formula: evaluated by the
    built-in backend, ``lower``-ed for an external solver.  'valid'/
    'invalid' only when the backend affirmed/refuted; everything else is
    'unknown'."""
    if isinstance(spec, Builtin):
        _reject_mu(f)
        start = time.monotonic()
        try:
            result = check_validity_bounded(f, spec.dom, deadline=deadline)
        except IterationCap as e:
            return BackendVerdict("unknown", f"iteration cap: {e.reason}", time.monotonic() - start)
        elapsed = time.monotonic() - start
        if result is BoundedResult.VALID:
            return BackendVerdict("valid", "", elapsed)
        if result is BoundedResult.INVALID:
            return BackendVerdict("invalid", "", elapsed)
        return BackendVerdict("unknown", "range escape", elapsed)

    import tempfile  # only the external path writes a file

    problem = lower(f, quantifiers=spec.supports_quantifiers)
    start = time.monotonic()
    timeout = spec.timeout_s
    if deadline is not None:
        timeout = min(timeout, max(deadline - time.monotonic(), 0.01))
    path = None
    try:
        with tempfile.NamedTemporaryFile(
            "w", suffix=".hes", delete=False, encoding="utf-8"
        ) as tf:
            tf.write(print_hes(problem))
            path = tf.name
        proc = subprocess.run(
            list(spec.command) + [path],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        for line in proc.stdout.splitlines():
            word = _OUTCOMES.get(line.strip().lower())
            if word is not None:
                return BackendVerdict(word, "", time.monotonic() - start)
        detail = f"exit {proc.returncode} without a verdict"
        if proc.stderr.strip():
            detail += f"; stderr: {proc.stderr.strip()[:200]}"
        return BackendVerdict("unknown", detail, time.monotonic() - start)
    except subprocess.TimeoutExpired:
        return BackendVerdict("unknown", "timeout", time.monotonic() - start)
    except OSError as e:
        return BackendVerdict("unknown", f"solver error: {e}", time.monotonic() - start)
    finally:
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass
