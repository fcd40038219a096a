"""Verdict benchmark: times muhflz's verify() from HES text to verdict on one
workload, in this one process and thread, and checks every verdict against
its reference answer.

    python3 perfbench/run.py --workload corpus --seed 3 --seconds 20 --trace 0

Each run builds the workload, times set-up in fresh processes, then repeats
passes over the inputs for --seconds and reports medians over passes.  With
--trace 1 it spends half of that untraced and half with every layer
function wrapped (spans.py), and writes the spans to .perfbench/.
Reference answers are computed after all timing.

Output: a line "detail {...}" with every metric and its unit, sample counts,
and digests of the inputs and verdicts; then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics, holding the
metrics BENCHMARK.json declares.  Times to verdict (wall_s, verdict_ms.*)
are in the detail line only: on a shared machine whose speed drifts by
30-50% over minutes they cannot hold a fixed bound from run to run, so the
declared end-to-end metrics are the ones that repeat (verdicts that match
their reference, peak RSS) plus set-up time."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = REPO / ".perfbench"
SETUP_REPEATS = 5

# Set-up as a user pays it: a fresh interpreter imports muhflz and builds
# the workload's HES texts.  Interpreter start-up itself is not counted.
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:4]
import workloads
workloads.build(sys.argv[4], int(sys.argv[5]))
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("fixtures", "corpus", "external"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def require_program() -> None:
    if not (REPO / "src" / "muhflz" / "__init__.py").is_file():
        sys.exit(f"perfbench: no muhflz sources under {REPO / 'src'}; run it from a checkout")
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]


def time_setup(name: str, seed: int) -> float:
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(HERE), str(REPO / "src"),
             str(REPO / "tests"), name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(runs)


def run_pass(wl, first_request: int = 0, tracer=None) -> list[tuple]:
    """One verify per input: (seconds, outcome, report or None)."""
    import muhflz.driver
    import muhflz.parser

    out = []
    for i, inp in enumerate(wl.inputs):
        if tracer is not None:
            tracer.request = first_request + i
        t0 = time.perf_counter()
        try:
            h = muhflz.parser.parse_hes(inp.text)
            report = muhflz.driver.verify(h, inp.spec, deadline_s=wl.deadline_s, mode="both")
            outcome = report.outcome
        except Exception as e:  # counted as a failed verify; the run goes on
            report, outcome = None, f"error:{type(e).__name__}"
        out.append((time.perf_counter() - t0, outcome, report))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds: float, tracer=None) -> tuple[list[list[tuple]], float]:
    """Passes over the inputs for about ``seconds`` (at least one): another
    pass starts while it would end less than half a pass past the limit.
    Also returns the peak RSS once every input has been verified once: the
    evaluator's process-wide caches grow over the next few passes, so the
    peak at the end would depend on how many passes the machine's speed
    allowed."""
    passes = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last / 2 < seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, len(passes) * len(wl.inputs), tracer))
        last = time.perf_counter() - t0
        if len(passes) == 1:
            first_rss = peak_rss_mb()
    return passes, first_rss


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def pass_seconds(p: list[tuple]) -> float:
    return sum(t for t, _, _ in p)


def driver_counts(p: list[tuple]) -> dict[str, float]:
    """Schedule steps, steps cut by a deadline, and decisive steps per step
    run, from the VerdictReports of one pass."""
    steps = hits = run = decided = 0
    for _, outcome, report in p:
        if report is None:
            continue
        steps += len(report.iterations)
        for it in report.iterations:
            detail = it.verdict.detail
            hits += detail == "timeout" or detail.endswith("deadline")
            run += detail != "duplicate parameters"
        decided += outcome in ("valid", "invalid")
    return {
        "driver.iterations": steps,
        "driver.deadline_hits": hits,
        "driver.decided_step_ratio": decided / run if run else 0.0,
    }


def verdicts_digest(wl, outcomes: list[str]) -> str:
    h = hashlib.sha256()
    for inp, outcome in zip(wl.inputs, outcomes):
        h.update(f"{inp.name}:{outcome}\n".encode())
    return h.hexdigest()


def end_to_end(plain, setup_s: float, rss_mb: float, classes: list[str]) -> dict:
    samples = sorted(t for p in plain for t, _, _ in p)
    outcomes = [o for _, o, _ in plain[0]]
    n = len(outcomes)
    return {
        "wall_s": (statistics.median(pass_seconds(p) for p in plain), "s"),
        "verdict_ms.p50": (percentile(samples, 0.50) * 1000, "ms"),
        "verdict_ms.p95": (percentile(samples, 0.95) * 1000, "ms"),
        "decided_rate": (sum(o in ("valid", "invalid") for o in outcomes) / n, "ratio"),
        "right_verdicts": (classes.count("right"), "count"),
        "wrong_verdicts": (classes.count("wrong"), "count"),
        "error_rate": (classes.count("error") / n, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(plain, traced, tracer) -> dict:
    import spans

    k = len(traced)
    self_ms = tracer.self_ms()
    out = {}
    for name in spans.SPAN_NAMES:
        suffix = ".self_ms" if name in ("driver.verify", "backend.solve") else ".ms"
        out[name + suffix] = (self_ms.get(name, 0.0) / k, "ms")
    for name in (*spans.EVAL_COUNTERS, "transform.approx_nodes", "printer.bytes"):
        if name not in tracer.absent:
            unit = "bytes" if name == "printer.bytes" else "count"
            out[name] = (tracer.counts.get(name, 0) / k, unit)
    counts = driver_counts(traced[0])
    for name, value in counts.items():
        out[name] = (value, "ratio" if name.endswith("ratio") else "count")
    overhead = statistics.median(map(pass_seconds, traced)) - statistics.median(
        map(pass_seconds, plain)
    )
    out["trace.overhead_ms"] = (overhead * 1000, "ms")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    # the external backend writes its input files here, not to /tmp
    tempfile.tempdir = str(OUT / "tmp")
    (OUT / "tmp").mkdir(exist_ok=True)

    setup_s = None if args.trace else time_setup(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)

    tracer = None
    if args.trace:
        plain, _ = measure(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        (plain, rss_mb), traced = measure(wl, args.seconds), []

    outcomes = [o for _, o, _ in plain[0]]
    stable = all([o for _, o, _ in p] == outcomes for p in (*plain, *traced))
    refs = [workloads.reference(inp) for inp in wl.inputs]
    classes = [workloads.judge(inp, o, r) for inp, o, r in zip(wl.inputs, outcomes, refs)]
    unexpected = [
        {"input": inp.name, "verdict": o, "reference": r}
        for inp, o, r, c in zip(wl.inputs, outcomes, refs, classes)
        if c in ("wrong", "error") and not workloads.known_failure(inp, o, c)
    ]
    failed_per_pass = sum(c in ("wrong", "error") for c in classes)

    if args.trace:
        metrics = per_layer(plain, traced, tracer)
        measured = traced
    else:
        metrics = end_to_end(plain, setup_s, rss_mb, classes)
        measured = plain
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "deadline_s": wl.deadline_s,
        "inputs": len(wl.inputs),
        "inputs_sha256": wl.inputs_digest(),
        "verdicts_sha256": verdicts_digest(wl, outcomes),
        "passes": len(measured),
        "samples": len(measured) * len(wl.inputs),
        "verdicts": {c: classes.count(c) for c in sorted(set(classes))},
        "stable_verdicts": stable,
        "unexpected_failures": unexpected,
        "driver": driver_counts(plain[0]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        detail["absent_counters"] = sorted(tracer.absent)
        path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.dump(path, {k: detail[k] for k in ("workload", "seed", "inputs_sha256")})
        detail["trace_file"] = str(path.relative_to(REPO))
    shutil.rmtree(OUT / "tmp", ignore_errors=True)

    # the result carries the metrics BENCHMARK.json declares; an absent
    # counter is left out
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": stable and not unexpected,
        "attempted": len(measured) * len(wl.inputs),
        "failed": len(measured) * failed_per_pass,
        "metrics": {k: detail["metrics"][k] for k in names if k in detail["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
