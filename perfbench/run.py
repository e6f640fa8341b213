"""rotheta benchmark: two singular-line sweeps and the verify core.

    python3 perfbench/run.py --workload sweep-t1 --seed 1 --seconds 30 --trace 0

Workloads (inputs come from --seed; the program sees only those inputs):

* sweep-t1     `sweep_singular_line` at theta = 1/4 (T1_BASE), C1 over
               (0.85, -0.1), 20 samples a pass.  Polynomial first integral;
               level tracing, shooting and classification carry the load.
* sweep-t3     the same at theta = 1/2 (T3_BASE), C1 over (0.2, -0.198),
               10 samples a pass.  Logarithmic first integral; the drift
               filter in `integrate` dominates.
* verify-core  every `rotheta verify` check except atlas-agreement, one
               `run_checks` call per check.  Fixed-span conservation
               integrations, censuses, closed forms and portraits.

A sweep run shifts the C1 grid left by a fraction of one step drawn from
the seed, and every pass nudges it by another millionth of a step, so no
parameter repeats while the seed alone decides where the samples fall;
verify-core runs its checks at `rotheta verify`'s default seed.  Sweeps run
with the library's defaults, thread pool included, as `rotheta sweep` does.
Passes run until --seconds is used up; the last line of stdout is the JSON
result, and the inputs, pass times and (with --trace 1) every span are
written to perfbench/runs/.

--trace 0 reports the end-to-end metrics: setup_s (median CPU time of
fresh processes that import rotheta and make one warm-up observation),
ref_cpu_s (median CPU time of one correct pass, all threads and reaped
children, at one reference speed of the host) and peak_rss_mb.  A shared
host's speed swings by half within seconds; speed.py's probe, run
alongside each pass, measures by how much, and ref_cpu_s takes it out.
The summary also prints the raw CPU and wall times (cpu_s, wall_s,
samples_per_s, verify_s).  --trace 1 alternates an untraced and a traced
pass on the same inputs and reports the per-layer metrics of tracing.py
plus trace_overhead_frac.

A sweep sample fails if the sweep raises, lacks a label or observation, or
its observed menu disagrees with the prediction; a pass is correct when its
agreement is at least 0.95 (the atlas-agreement threshold).  A verify-core
check fails if it does not pass.  Failing passes are never timed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# pinned before numpy loads; the values are recorded in baseline.json
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the BLAS pin)

from speed import Probe  # noqa: E402

SWEEPS = {
    # name: (base in verification.py, C1 range right-to-left, samples a pass)
    "sweep-t1": ("T1_BASE", (0.85, -0.1), 20),
    "sweep-t3": ("T3_BASE", (0.2, -0.198), 10),
}
WORKLOADS = (*SWEEPS, "verify-core")
AGREEMENT_MIN = 0.95
# Every pass of a run lands its samples on the same places of the atlas, so
# the seed alone decides which samples disagree, whatever the number of
# passes that fit in --seconds; the nudge only keeps the C1 values distinct.
PASS_NUDGE = 1e-6
SETUP_RUNS = 5

# one fresh-process set-up: import (scipy included) and one observation
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import rotheta
from rotheta.verification import T1_BASE
if not rotheta.__file__.startswith(sys.argv[1]):
    raise SystemExit("rotheta imported from " + rotheta.__file__)
rotheta.observe_wave_menu(rotheta.WaveParams(C1=0.3, **T1_BASE))
"""


def load_rotheta():
    """Import rotheta from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import rotheta
    except ImportError as exc:
        raise SystemExit(f"cannot import rotheta from {SRC}: {exc}")
    if not Path(rotheta.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"rotheta imported from {rotheta.__file__}, not {SRC}")
    return rotheta


def cpu_time(who=resource.RUSAGE_SELF):
    use = resource.getrusage(who)
    return use.ru_utime + use.ru_stime


def process_cpu():
    """CPU seconds of this process (all threads) and its reaped children."""
    return cpu_time() + cpu_time(resource.RUSAGE_CHILDREN)


def measure_setup():
    """Median CPU seconds of SETUP_RUNS fresh processes, and each run's
    (cpu, wall) seconds.  The speed probe is not used here: while a process
    loads its modules, the probe's unit slows down by up to twice as much as
    the loading does, so rescaling would add noise, not take it out."""
    runs = []
    for _ in range(SETUP_RUNS):
        c0, w0 = cpu_time(resource.RUSAGE_CHILDREN), time.perf_counter()
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                             capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            raise SystemExit(f"set-up failed:\n{out.stderr}")
        runs.append((cpu_time(resource.RUSAGE_CHILDREN) - c0, time.perf_counter() - w0))
    return statistics.median(cpu for cpu, _wall in runs), runs


@dataclass
class Outcome:
    ops: int
    failed: int = 0
    excluded: int = 0
    ok: bool = True
    detail: str = ""


def sweep_input(name, seed, k):
    """C1 grid of pass k: shifted left by the seed's fraction of a step, plus
    k * PASS_NUDGE of a step so that no two passes repeat a parameter."""
    _base, (hi, lo), n = SWEEPS[name]
    frac = random.Random(seed).random() + k * PASS_NUDGE
    shift = frac * (hi - lo) / (n - 1)
    c1_range = [hi - shift, lo - shift]
    return {"c1_range": c1_range, "samples": n,
            "c1": np.linspace(*c1_range, n).tolist()}


def sweep_pass(rotheta, name, inp, _span):
    from rotheta import verification

    base = rotheta.WaveParams(C1=0.0, **getattr(verification, SWEEPS[name][0]))
    n = inp["samples"]
    try:
        rep = rotheta.sweep_singular_line(base, inp["c1_range"], n)
    except Exception:
        traceback.print_exc()
        return Outcome(n, failed=n, ok=False, detail="the sweep raised")
    if [s.c1 for s in rep.samples] != inp["c1"]:
        return Outcome(n, failed=n, ok=False, detail="samples do not match the C1 grid")
    unlabelled = sum(1 for s in rep.samples if s.label is None or s.observed is None)
    frac = rep.agreement_fraction
    return Outcome(n, failed=unlabelled + len(rep.disagreements()),
                   excluded=rep.n_boundary,
                   ok=unlabelled == 0 and frac >= AGREEMENT_MIN,
                   detail=f"agreement {frac:.4f}, {rep.n_boundary} excluded")


def verify_input(_name, _seed, _k):
    # The checks run at `rotheta verify`'s default seed, not at a drawn one:
    # first-integral-conservation fails at check seeds 12, 14, 16, 21, 24
    # and 28 of 0-29 (drift just over 1e-8), so a drawn seed would make
    # about one pass in five fail.
    from rotheta.verification import DEFAULT_SEED
    return {"seed": DEFAULT_SEED}


def verify_checks(rotheta):
    return [n for n, _fn, _b in rotheta.verification.CHECKS if n != "atlas-agreement"]


def verify_pass(rotheta, _name, inp, span):
    checks = verify_checks(rotheta)
    bad = []
    for check in checks:
        try:
            res = span(f"verification.{check}", rotheta.run_checks)(
                seed=inp["seed"], names=[check])
            passed = len(res) == 1 and bool(res[0].passed)
        except Exception:
            traceback.print_exc()
            passed = False
        if not passed:
            bad.append(check)
    return Outcome(len(checks), failed=len(bad), ok=not bad,
                   detail="failed: " + ", ".join(bad) if bad else "all checks pass")


def no_span(_name, fn):
    return fn


def timed(run, *args):
    w0, c0 = time.perf_counter(), process_cpu()
    out = run(*args)
    return out, time.perf_counter() - w0, process_cpu() - c0


def probed(run, *args):
    """`timed` with the speed probe running: (output, wall s and CPU s, both
    less the probe's CPU time, CPU s at the reference speed, the probe's
    mean unit s)."""
    w0, c0 = time.perf_counter(), process_cpu()
    with Probe() as probe:
        out = run(*args)
    wall, cpu = time.perf_counter() - w0, process_cpu() - c0
    return out, wall - probe.spent, cpu - probe.spent, probe.scale(cpu), probe.unit_s


def spec_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    rotheta = load_rotheta()
    wanted = spec_metrics("per_layer" if args.trace else "end_to_end")
    setup_s, setup_runs = measure_setup() if not args.trace else (None, [])

    # warm-up, as in the set-up measurement
    from rotheta.verification import T1_BASE
    rotheta.observe_wave_menu(rotheta.WaveParams(C1=0.3, **T1_BASE))

    if args.workload in SWEEPS:
        make_input, run_pass = sweep_input, sweep_pass
    else:
        make_input, run_pass = verify_input, verify_pass
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()

    passes, traced = [], []
    t_start = time.perf_counter()
    while True:
        inp = make_input(args.workload, args.seed, len(passes))
        gc.collect()   # no pass pays for the previous pass's garbage
        if tracer is None:
            out, wall, cpu, ref_cpu, unit_s = probed(run_pass, rotheta, args.workload,
                                                    inp, no_span)
        else:
            # trace_overhead_frac compares two unprobed passes
            out, wall, cpu = timed(run_pass, rotheta, args.workload, inp, no_span)
        rec = {"input": inp, "wall_s": wall, "cpu_s": cpu, "ok": out.ok,
               "ops": out.ops, "failed": out.failed, "excluded": out.excluded,
               "detail": out.detail}
        if tracer is None:
            rec.update(ref_cpu_s=ref_cpu, probe_unit_s=unit_s)
        else:
            gc.collect()
            tracer.install()
            try:
                t_out, t_wall, t_cpu = timed(run_pass, rotheta, args.workload,
                                             inp, tracer.span)
            finally:
                tracer.uninstall()
            spans, counts = tracer.collect()
            traced.append((spans, counts))
            rec.update(traced_wall_s=t_wall, traced_cpu_s=t_cpu, traced_ok=t_out.ok,
                       traced_failed=t_out.failed, traced_excluded=t_out.excluded)
        passes.append(rec)
        elapsed = time.perf_counter() - t_start
        cycle = elapsed / len(passes)
        if elapsed + cycle > args.seconds:
            break

    attempted = sum(p["ops"] for p in passes) + sum(
        p["ops"] for p in passes if "traced_ok" in p)
    failed = sum(p["failed"] + p.get("traced_failed", 0) for p in passes)
    correct = all(p["ok"] and p.get("traced_ok", True) for p in passes)
    good = [p for p in passes if p["ok"]] or passes

    values = {}
    if tracer is None:
        values["setup_s"] = setup_s
        values["wall_s"] = statistics.median(p["wall_s"] for p in good)
        values["cpu_s"] = statistics.median(p["cpu_s"] for p in good)
        values["ref_cpu_s"] = statistics.median(p["ref_cpu_s"] for p in good)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        checks = [f"verification.{c}" for c in verify_checks(rotheta)]
        values = layer_metrics(traced, tracer.missing, extra_spans=checks)
        values["atlas.excluded"] = passes[0]["traced_excluded"]
        values["trace_overhead_frac"] = statistics.median(
            p["traced_cpu_s"] / p["cpu_s"] for p in passes) - 1.0

    report(args, passes, values, attempted, failed, tracer)
    write_record(args, passes, setup_runs, traced, tracer)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in wanted}}
    print(json.dumps(result))
    return 0


def report(args, passes, values, attempted, failed, tracer):
    """Human-readable summary, including the derived figures by name."""
    name = args.workload
    print(f"workload {name}, seed {args.seed}, {len(passes)} passes, "
          f"trace {args.trace}")
    for i, p in enumerate(passes):
        ref = f", {p['ref_cpu_s']:.3f} s ref cpu" if "ref_cpu_s" in p else ""
        print(f"  pass {i}: {p['wall_s']:.3f} s wall, {p['cpu_s']:.3f} s cpu{ref}, "
              f"{p['failed']}/{p['ops']} failed, {p['detail']}")
    ops = sum(p["ops"] for p in passes)
    print(f"fail_frac {failed / attempted:.6g} ratio (of {attempted} operations)")
    if tracer is None:
        wall_s = values["wall_s"]
        if name in SWEEPS:
            n = SWEEPS[name][2]
            excluded = sum(p["excluded"] for p in passes)
            print(f"samples_per_s {n / wall_s:.6g} 1/s ({n} samples a pass, wall time)")
            print(f"excluded_frac {excluded / ops:.6g} ratio (of {ops} samples)")
            print("verify_s n/a (not a verify-core run)")
        else:
            print("samples_per_s n/a (no sweep samples)")
            print("excluded_frac n/a (no sweep samples)")
            print(f"verify_s {wall_s:.6g} s (wall time)")
        for key, unit in (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
                          ("ref_cpu_s", "s"), ("peak_rss_mb", "MB")):
            print(f"{key} {values[key]:.6g} {unit}")
    else:
        if tracer.missing:
            print("missing layers: " + ", ".join(tracer.missing))
        for key in sorted(values):
            print(f"{key} {values[key]}")
    sys.stdout.flush()


def write_record(args, passes, setup_runs, traced, tracer):
    """Inputs, pass times and spans of this run, for later inspection."""
    out_dir = BENCH / "runs"
    out_dir.mkdir(exist_ok=True)
    rec = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "setup_cpu_wall_s": setup_runs, "passes": passes}
    if tracer is not None:
        rec["missing"] = tracer.missing
        rec["spans"] = [[list(s) for s in spans] for spans, _c in traced]
        rec["counts"] = [dict(c) for _s, c in traced]
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec) + "\n")


if __name__ == "__main__":
    sys.exit(main())
