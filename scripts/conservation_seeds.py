"""Conservation drift at every check seed, through the lane path, checked
against the trials run one by one.

For each check seed 0-29, draws the 300 trials of
`first-integral-conservation` (100 at each of theta = 1/4, 1/2 and 1),
runs them together through `orbits.integrate_many` as the check does, and
prints per theta the worst relative H drift, the number of trials whose
drift could not be measured (unverified) and the number retried at
tighter tolerances.  A drift over the check's limit of 1e-8 (`integrate`'s
drift limit) is marked FAIL; such seeds are reported, not mended.  The
same trials then run one by one through `orbits.integrate`, and the
script exits 1 if any seed's ledger lines differ between the two.

Usage: python scripts/conservation_seeds.py
"""

import sys

import numpy as np

from rotheta.field import build_first_integral
from rotheta.orbits import DRIFT_LIMIT, RTOL, integrate, integrate_many
from rotheta.verification import CONSERVATION_THETAS, _conservation_trials, _drift_ledger

SEEDS = range(30)


def retried(traj):
    """Whether the trial's first run drifted over the limit: it then kept
    either its retry or that first run, still over the limit."""
    return traj.rtol_used != RTOL or (traj.h_drift_max or 0.0) > DRIFT_LIMIT


def main():
    print("    " + "".join(f"{'theta = ' + str(t):>38s}" for t in CONSERVATION_THETAS))
    print("seed" + "   worst drift     unverified  retried" * len(CONSERVATION_THETAS))
    differ = []
    for seed in SEEDS:
        trials = _conservation_trials(np.random.default_rng(seed))
        thetas, wps, starts = zip(*trials)
        fis = [build_first_integral(wp) for wp in wps]
        lanes = sorted(integrate_many(wps, starts, 10.0, fis=fis), key=lambda run: run[0])
        _ok, ledger = _drift_ledger((thetas[i], traj) for i, traj in lanes)
        cells = []
        for theta in CONSERVATION_THETAS:
            mine = [traj for i, traj in lanes if thetas[i] == theta]
            worst = max((t.h_drift_max for t in mine if t.h_drift_max is not None), default=0.0)
            cells.append(f"   {worst:.3e}{' FAIL' if worst > DRIFT_LIMIT else '':5s}"
                         f"{sum(t.h_drift_max is None for t in mine):12d}"
                         f"{sum(map(retried, mine)):9d}")
        one_by_one = _drift_ledger(
            (theta, integrate(wp, start, 10.0, fi=fi))
            for theta, wp, start, fi in zip(thetas, wps, starts, fis))[1]
        if one_by_one != ledger:
            differ.append(seed)
        print(f"{seed:4d}" + "".join(cells)
              + ("" if one_by_one == ledger else "  LEDGER DIFFERS"))
    if differ:
        print(f"ledger lines differ from integrate's at seeds {differ}")
        return 1
    print(f"ledger lines equal integrate's at all {len(SEEDS)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
