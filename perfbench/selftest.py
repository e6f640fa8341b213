"""Self-test of the benchmark's work counters.

    python3 perfbench/selftest.py

Runs the traced benchmark three times on sweep-t1 (seeds 1, 1, 2) and twice
on verify-core (seed 1).  Two runs with the same seed must report identical
work counters: every per-layer metric counted in calls, solver right-hand-
side evaluations (nfev), retries and the like, plus the level-orbit ratio.
A second seed must give different C1 grids, as recorded in perfbench/runs/.
Exits 1 and names the differences when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def traced_run(workload, seed):
    """(count metrics, recorded inputs) of one short traced run."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=BENCH.parent)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed\n{out.stdout}")
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] in ("count", "ratio") and name != "trace_overhead_frac"}
    record = json.loads((BENCH / "runs" / f"{workload}-seed{seed}-trace1.json").read_text())
    return counts, [p["input"] for p in record["passes"]]


def main():
    problems = []
    for workload, seeds in (("sweep-t1", (1, 1, 2)), ("verify-core", (1, 1))):
        runs = [traced_run(workload, seed) for seed in seeds]
        (counts_a, inputs_a), (counts_b, inputs_b) = runs[0], runs[1]
        for name in sorted(counts_a):
            if counts_a[name] != counts_b[name]:
                problems.append(f"{workload}: {name} {counts_a[name]} != {counts_b[name]} "
                                f"with seed {seeds[0]} twice")
        if inputs_a[0] != inputs_b[0]:
            problems.append(f"{workload}: seed {seeds[0]} gave two different inputs")
        if len(runs) > 2 and runs[2][1][0] == inputs_a[0]:
            problems.append(f"{workload}: seeds {seeds[0]} and {seeds[2]} gave the same inputs")
        print(f"{workload}: {len(counts_a)} counters compared over seeds {seeds}; "
              f"first inputs {[r[1][0] for r in runs]}")
        for name in ("orbits.solve_ivp.calls", "orbits.solve_ivp.nfev",
                     "orbits.integrate.retries", "field.eval.calls", "field.partials.calls"):
            print(f"  {name} = {counts_a[name]}")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
