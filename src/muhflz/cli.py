"""Command-line entry point.

    muhflz [prove|disprove|both] FILE.hes [options]

Exit codes: 0 valid, 1 invalid, 2 unknown, 3 usage/parse/type error.
The --emit modes bypass solving and print an artifact instead:
``nu`` the nu-only system an external solver receives on the first
prover step (``backend.lower`` of its approximation at the first row of
the schedule ``verify`` walks), ``tags`` that
step's tag-derivation dump, ``dual`` the dualized system.
"""

from __future__ import annotations

import argparse
import os
import re
import shlex
import sys

from .backend import BackendSpec, Builtin, External, lower
from .driver import (
    approximate, default_schedule, emit_report, override_counters, prepare,
    verify,
)
from .eval import Domain
from .parser import NestingTooDeep, ParseError, parse_hes
from .printer import print_hes
from .transform import dual_hes
from .typecheck import TypeCheckError, typecheck

_USAGE_EXIT = 3
_OUTCOME_EXIT = {"valid": 0, "invalid": 1, "unknown": 2}


def _parse_domain(text: str) -> Domain:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError("domain must look like lo..hi, e.g. -6..6")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError("empty domain")
    return Domain(lo, hi)


def _checked_backend(ns: argparse.Namespace) -> BackendSpec:
    """Check the option values and build the backend: ``--backend``, else
    ``$MUHFLZ_BACKEND`` when set and non-empty, else the built-in
    evaluator.  Raises ValueError on a value out of range and on an empty
    or unparseable command."""
    if ns.max_iterations < 1:
        raise ValueError("--max-iterations must be at least 1")
    if ns.counters is not None and ns.counters < 1:
        raise ValueError("--counters must be at least 1")
    for flag, seconds in (("--deadline", ns.deadline), ("--timeout", ns.timeout)):
        if not seconds > 0:  # also false for NaN
            raise ValueError(f"{flag} must be a positive number")
    command = ns.backend
    if command is None:
        command = os.environ.get("MUHFLZ_BACKEND") or "builtin"
    if command == "builtin":
        return Builtin(ns.domain)
    try:
        argv = tuple(shlex.split(command))
    except ValueError as e:
        raise ValueError(f"backend command {command!r}: {e}") from None
    return External(argv, timeout_s=ns.timeout, supports_quantifiers=not ns.no_quantifiers)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="muhflz",
        description="Validity checker for higher-order fixpoint logic with integers.",
    )
    ap.add_argument(
        "args",
        nargs="+",
        metavar="[MODE] FILE",
        help="optional mode (prove, disprove, both; default both) and the input .hes file",
    )
    ap.add_argument("--backend", default=None,
                    help="'builtin' or an external solver command line (default: "
                         "$MUHFLZ_BACKEND if set, else builtin)")
    ap.add_argument("--domain", type=_parse_domain, default=Domain(-8, 8),
                    help="builtin evaluation window lo..hi (default -8..8)")
    ap.add_argument("--max-iterations", type=int, default=8)
    ap.add_argument("--deadline", type=float, default=60.0, metavar="SECONDS")
    ap.add_argument("--counters", type=int, default=None,
                    help="override the counter count for every schedule step")
    ap.add_argument("--no-extra-args", action="store_true",
                    help="disable companion arguments (and multi-counter steps): "
                         "unfolding budgets see integer variables only")
    ap.add_argument("--no-quantifiers", action="store_true",
                    help="declare that the external backend lacks quantifier support")
    ap.add_argument("--timeout", type=float, default=60.0,
                    help="per-call timeout for external backends")
    ap.add_argument("--emit", choices=["nu", "tags", "dual"], default=None)
    ap.add_argument("--report", choices=["text", "json"], default="text")
    return ap


def run(argv: list[str]) -> int:
    # "--domain -6..6": argparse reads a leading dash as a new flag, so
    # join the value onto the option
    argv = list(argv)
    for i, a in enumerate(argv[:-1]):
        if a == "--domain" and argv[i + 1].startswith("-"):
            argv[i : i + 2] = [f"--domain={argv[i + 1]}"]
            break
    ap = _build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as e:
        return _USAGE_EXIT if e.code not in (0, None) else 0
    try:
        spec = _checked_backend(ns)
    except ValueError as e:
        print(f"muhflz: {e}", file=sys.stderr)
        return _USAGE_EXIT

    mode = "both"
    if len(ns.args) == 1:
        path = ns.args[0]
    elif len(ns.args) == 2:
        mode, path = ns.args
        if mode not in ("prove", "disprove", "both"):
            print(f"muhflz: unknown mode {mode!r}", file=sys.stderr)
            return _USAGE_EXIT
    else:
        print("muhflz: expected [MODE] FILE", file=sys.stderr)
        return _USAGE_EXIT

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(f"muhflz: {e}", file=sys.stderr)
        return _USAGE_EXIT

    # the parser bounds the nesting it accepts; the typechecker, transforms
    # and evaluator recurse on the nesting of what it built
    try:
        return _run_text(ns, spec, mode, path, text)
    except (NestingTooDeep, RecursionError):
        print(f"muhflz: {path}: input nested too deeply", file=sys.stderr)
        return _USAGE_EXIT


def _run_text(
    ns: argparse.Namespace, spec: BackendSpec, mode: str, path: str, text: str
) -> int:
    try:
        h = parse_hes(text)
    except NestingTooDeep:
        raise
    except ParseError as e:
        print(f"muhflz: {path}:{e}", file=sys.stderr)
        return _USAGE_EXIT

    if ns.emit == "dual":
        sys.stdout.write(print_hes(dual_hes(h)))
        return 0

    try:
        typed = typecheck(h)
    except TypeCheckError as e:
        print(f"muhflz: {path}: {e}", file=sys.stderr)
        return _USAGE_EXIT

    rows = tuple(
        override_counters(row, no_extra_args=ns.no_extra_args, counters=ns.counters)
        for row in default_schedule(ns.max_iterations)
    )
    if ns.emit is not None:
        tags = prepare(typed, all_f=ns.no_extra_args, desugar=ns.no_quantifiers)
        if ns.emit == "tags":
            sys.stdout.write(tags.to_json() + "\n")
            return 0
        approx = approximate(tags, rows[0])
        sys.stdout.write(print_hes(lower(approx, quantifiers=not ns.no_quantifiers)))
        return 0

    report = verify(
        typed, spec, rows, deadline_s=ns.deadline, mode=mode, no_extra_args=ns.no_extra_args
    )
    sys.stdout.write(emit_report(report, ns.report))
    return _OUTCOME_EXIT[report.outcome]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
