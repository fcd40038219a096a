"""Command-line entry point.

    muhflz [prove|disprove|both] FILE.hes [options]

Exit codes: 0 valid, 1 invalid, 2 unknown, 3 usage/parse/type error.
The --emit modes bypass solving and print an artifact instead:
``nu`` the nu-only system an external solver receives on the first
prover step, ``tags`` that step's tag-derivation dump, ``dual`` the
dualized system.
"""

from __future__ import annotations

import argparse
import re
import sys

from .backend import Builtin, External, backend_from_env
from .convert import formula_to_hes
from .driver import (
    approximate, default_schedule, emit_report, override_counters, prepare,
    verify,
)
from .eval import Domain
from .parser import ParseError, parse_hes
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

    # the parser, typechecker, transforms and evaluator all recurse on the
    # nesting of the input
    try:
        return _run_text(ns, mode, path, text)
    except RecursionError:
        print(f"muhflz: {path}: input nested too deeply", file=sys.stderr)
        return _USAGE_EXIT


def _run_text(ns: argparse.Namespace, mode: str, path: str, text: str) -> int:
    try:
        h = parse_hes(text)
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

    if ns.emit is not None:
        tags = prepare(typed, all_f=ns.no_extra_args, desugar=ns.no_quantifiers)
        if ns.emit == "tags":
            sys.stdout.write(tags.to_json() + "\n")
            return 0
        row = default_schedule(1).steps[0]
        params = override_counters(row, no_extra_args=ns.no_extra_args, counters=ns.counters)
        approx = approximate(tags, params, desugar=ns.no_quantifiers)
        sys.stdout.write(print_hes(formula_to_hes(approx)))
        return 0

    backend_arg = ns.backend
    if backend_arg is None:
        spec = backend_from_env() or Builtin(ns.domain)
    elif backend_arg == "builtin":
        spec = Builtin(ns.domain)
    else:
        import shlex

        spec = External(
            tuple(shlex.split(backend_arg)),
            timeout_s=ns.timeout,
            supports_quantifiers=not ns.no_quantifiers,
        )

    report = verify(
        typed,
        spec,
        default_schedule(ns.max_iterations),
        deadline_s=ns.deadline,
        mode=mode,
        no_extra_args=ns.no_extra_args,
        counters_override=ns.counters,
    )
    sys.stdout.write(emit_report(report, ns.report))
    return _OUTCOME_EXIT[report.outcome]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
