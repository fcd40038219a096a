"""Uniform interface over nu-only validity checkers: the built-in bounded
evaluator, which takes the closed formula, or an external solver process
fed the equation system in the HES text format.

External protocol: the system is written to a temporary .hes file whose
path is appended to the configured argv; the first stdout line that is
exactly "valid", "invalid" or "unknown" (case-insensitive, trimmed) is the
verdict.  Anything else -- timeout, crash, unparseable output -- becomes
Unknown with a diagnostic.
"""

from __future__ import annotations

import os
import subprocess
import tempfile
import time
from typing import Optional, Union

from .eval import BoundedResult, Domain, IterationCap, check_validity_bounded
from .printer import print_hes
from .syntax import Formula, Hes, Node, Sign, contains_mu, set_field

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


def _reject_mu(problem: Union[Formula, Hes]) -> None:
    formulas: tuple = (problem,)
    if isinstance(problem, Hes):
        for eq in problem.equations:
            if eq.sign is Sign.MU:
                raise ValueError(f"backend given a mu-equation: {eq.name}")
        formulas = (problem.entry, *(eq.body for eq in problem.equations))
    if any(contains_mu(f) for f in formulas):
        raise ValueError("backend given a formula containing a least fixpoint")


def solve(
    spec: BackendSpec, problem: Union[Formula, Hes], *, deadline: Optional[float] = None
) -> BackendVerdict:
    """Check validity of a nu-only problem: a closed formula for the
    built-in backend, an equation system for an external solver.  'valid'/
    'invalid' only when the backend affirmed/refuted; everything else is
    'unknown'."""
    if isinstance(problem, Hes) == isinstance(spec, Builtin):
        raise TypeError(f"{type(spec).__name__} backend given a {type(problem).__name__}")
    _reject_mu(problem)
    start = time.monotonic()
    if isinstance(spec, Builtin):
        try:
            result = check_validity_bounded(problem, spec.dom, deadline=deadline)
        except IterationCap as e:
            return BackendVerdict("unknown", f"iteration cap: {e.reason}", time.monotonic() - start)
        elapsed = time.monotonic() - start
        if result is BoundedResult.VALID:
            return BackendVerdict("valid", "", elapsed)
        if result is BoundedResult.INVALID:
            return BackendVerdict("invalid", "", elapsed)
        return BackendVerdict("unknown", "range escape", elapsed)

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
            word = line.strip().lower()
            if word in ("valid", "invalid", "unknown"):
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
