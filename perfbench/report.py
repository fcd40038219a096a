"""Run every workload once untraced and twice traced, print each workload's
end-to-end metrics in its own row and the per-layer metrics beside them,
and check the benchmark itself:

    python3 perfbench/report.py [--seed N] [--seconds S]

Checks, each printed as "ok" or "FAIL":
  - every run is correct (all verdicts checked against their references,
    no failure outside the known defects) and prints every metric that
    BENCHMARK.json declares, with the declared unit, except an eval counter
    the program no longer has, which is shown as absent;
  - the untraced and both traced runs verify the same inputs and give the
    same verdicts;
  - the eval.* counts and driver.iterations repeat exactly across the two
    traced runs;
  - fixtures has no deadline hits.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("fixtures", "corpus", "external")
EXACT = ("eval.steps", "eval.fix_instances", "eval.table_keys",
         "eval.forced_tables", "driver.iterations")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return detail, json.loads(lines[-1])


def fmt(value: float) -> str:
    return f"{value:.4g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4.0)
    args = ap.parse_args(argv)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    e2e_rows, layer_cols = {}, {}
    for w in WORKLOADS:
        plain = run(w, args.seed, args.seconds, 0)
        traced = [run(w, args.seed, args.seconds, 1) for _ in range(2)]
        for (detail, result), kind in zip((plain, *traced), ("end_to_end", "per_layer", "per_layer")):
            check(result["correct"], f"{w} trace={detail['trace']}: correct "
                  f"({detail['verdicts']}, unexpected {detail['unexpected_failures']})")
            missing = [
                m["name"] for m in declared[kind]
                if m["name"] not in detail.get("absent_counters", ())
                and result["metrics"].get(m["name"], {}).get("unit") != m["unit"]
            ]
            check(not missing, f"{w} trace={detail['trace']}: every {kind} metric printed with its unit {missing or ''}")
        details = [plain[0], traced[0][0], traced[1][0]]
        check(len({d["inputs_sha256"] for d in details}) == 1, f"{w}: same inputs in every run")
        check(len({d["verdicts_sha256"] for d in details}) == 1, f"{w}: traced and untraced verdicts agree")
        a, b = (t[1]["metrics"] for t in traced)
        differ = [k for k in EXACT if k in a and a.get(k) != b.get(k)]
        check(not differ, f"{w}: eval counts and driver.iterations repeat across traced runs {differ or ''}")
        if w == "fixtures":
            hits = plain[0]["driver"]["driver.deadline_hits"]
            check(hits == 0, f"fixtures: no deadline hits ({hits})")
        e2e_rows[w] = plain[0]
        layer_cols[w] = traced[0][0]["metrics"]

    print()
    names = list(e2e_rows["fixtures"]["metrics"])
    units = {k: v["unit"] for k, v in e2e_rows["fixtures"]["metrics"].items()}
    print("workload   " + "  ".join(f"{n} [{units[n]}]" for n in names) + "  samples  digest")
    for w, d in e2e_rows.items():
        cells = [fmt(d["metrics"][n]["value"]).rjust(len(n) + len(units[n]) + 3) for n in names]
        print(f"{w:10s} " + "  ".join(cells) + f"  {d['samples']:7d}  {d['inputs_sha256'][:12]}")

    print()
    print(f"{'per-layer metric':38s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for m in declared["per_layer"]:
        cells = "".join(
            f"{fmt(layer_cols[w][m['name']]['value']) if m['name'] in layer_cols[w] else 'absent':>14s}"
            for w in WORKLOADS
        )
        print(f"{m['name'] + ' [' + m['unit'] + ']':38s}" + cells)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
