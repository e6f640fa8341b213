"""Conservation drift at every check seed, through the lane path, checked
trial by trial against the trials run one by one.

For each check seed in a range (0-29 unless `--seeds A-B` says otherwise,
both ends included), draws the 300 trials of `first-integral-conservation`
(100 at each of theta = 1/4, 1/2 and 1) with the check's own generator
(`pcg64.default_rng`), runs them together through `dop853.integrate_many`
as the check does, and prints per theta the worst relative H drift, the
number of trials whose drift could not be measured (unverified) and the
number retried at tighter tolerances.  A drift over the check's limit of
1e-8 (`integrate`'s drift limit) is marked FAIL; such seeds are reported,
not mended.  The same trials then run through `integrate_many` again with
no float tail (`dop853.FLOAT_TAIL` 0: numpy lanes to the end) and one by
one through `orbits.integrate`, and the script exits 1 if any trial's
drift, drift samples, tolerance, right-hand-side evaluations, number of
points or status differs between the three, or if the run with no float
tail finished any trial on floats or never dropped its stopped lanes from
the lane arrays.

Usage: python scripts/conservation_seeds.py [--seeds A-B]
"""

import argparse
import sys

from rotheta import dop853
from rotheta.dop853 import DRIFT_LIMIT, RTOL, integrate_many
from rotheta.field import build_first_integral
from rotheta.orbits import integrate
from rotheta.pcg64 import default_rng
from rotheta.verification import CONSERVATION_THETAS, _conservation_trials


def seed_range(text):
    """`A-B` as the seeds A to B, both included."""
    first, last = map(int, text.split("-"))
    if not 0 <= first <= last:
        raise ValueError(text)
    return range(first, last + 1)


def retried(traj):
    """Whether the trial's first run drifted over the limit: it then kept
    either its retry or that first run, still over the limit."""
    return traj.rtol_used != RTOL or (traj.h_drift_max or 0.0) > DRIFT_LIMIT


def summary(traj):
    """What a trial's run is compared on."""
    return (traj.h_drift_max, traj.drift_samples, traj.rtol_used, traj.nfev, len(traj.t),
            traj.status)


def lane_runs(wps, starts, fis, float_tail):
    """Each trial's run through `integrate_many`, in trial order, with its
    float tail at `float_tail`, the number of runs it finished on floats,
    and whether a lane step left its lane arrays narrower than before."""
    finish, step = dop853._Lanes.finish_on_floats, dop853._Lanes.step
    finished, packed = [], []

    def counted(lanes, c):
        finished.append(c)
        return finish(lanes, c)

    def measured(lanes):
        width = len(lanes.running)
        out = step(lanes)
        packed.append(len(lanes.running) < width)
        return out

    default, dop853.FLOAT_TAIL = dop853.FLOAT_TAIL, float_tail
    dop853._Lanes.finish_on_floats, dop853._Lanes.step = counted, measured
    try:
        runs = dict(integrate_many(wps, starts, 10.0, fis=fis))
    finally:
        dop853.FLOAT_TAIL = default
        dop853._Lanes.finish_on_floats, dop853._Lanes.step = finish, step
    return [runs[i] for i in range(len(wps))], len(finished), any(packed)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=range(30), metavar="A-B",
                    help="check seeds A to B, both included (default 0-29)")
    seeds = ap.parse_args().seeds
    print("    " + "".join(f"{'theta = ' + str(t):>38s}" for t in CONSERVATION_THETAS))
    print("seed" + "   worst drift     unverified  retried" * len(CONSERVATION_THETAS))
    differ, tailed, unpacked = [], [], []
    for seed in seeds:
        trials = _conservation_trials(default_rng(seed))
        thetas, wps, starts = zip(*trials)
        fis = [build_first_integral(wp) for wp in wps]
        lanes, _finished, _packed = lane_runs(wps, starts, fis, dop853.FLOAT_TAIL)
        cells = []
        for theta in CONSERVATION_THETAS:
            mine = [traj for i, traj in enumerate(lanes) if thetas[i] == theta]
            worst = max((t.h_drift_max for t in mine if t.h_drift_max is not None), default=0.0)
            cells.append(f"   {worst:.3e}{' FAIL' if worst > DRIFT_LIMIT else '':5s}"
                         f"{sum(t.h_drift_max is None for t in mine):12d}"
                         f"{sum(map(retried, mine)):9d}")
        got = [summary(traj) for traj in lanes]
        no_tail_runs, on_floats, packed = lane_runs(wps, starts, fis, 0)
        no_tail = [summary(traj) for traj in no_tail_runs]
        if on_floats:
            tailed.append(seed)
        if not packed:
            unpacked.append(seed)
        one_by_one = [summary(integrate(wp, start, 10.0, fi=fi))
                      for wp, start, fi in zip(wps, starts, fis)]
        bad = [i for i, row in enumerate(got) if not row == no_tail[i] == one_by_one[i]]
        if bad:
            differ.append(seed)
        print(f"{seed:4d}" + "".join(cells) + (f"  TRIALS DIFFER: {bad}" if bad else "")
              + (f"  NO-TAIL RUN FINISHED {on_floats} ON FLOATS" if on_floats else "")
              + ("" if packed else "  NO-TAIL RUN NEVER DROPPED A LANE"))
    if differ:
        print(f"trials differ from integrate's at seeds {differ}")
    if tailed:
        print(f"the run with no float tail finished trials on floats at seeds {tailed}")
    if unpacked:
        print(f"the run with no float tail never dropped a stopped lane at seeds {unpacked}")
    if differ or tailed or unpacked:
        return 1
    print(f"every trial equals integrate's, with and without the float tail, at all "
          f"{len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
