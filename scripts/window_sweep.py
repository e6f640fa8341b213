"""Sweep the singular line across the peakon window and score the menu.

Moves C1 right-to-left through the theta = 1/4 reference family (the line
sits at phi = 4 C1), classifying each sample, predicting its wave menu,
observing numerically, and tallying agreement per line-position descriptor.
A second sweep crosses C1 = 0 at theta = 1/2, where the single reduced
point interrupts the smooth-waves-only band.

Usage: python scripts/window_sweep.py [--samples 48]
"""

import argparse
from collections import Counter

from rotheta import WaveParams, sweep_singular_line
from rotheta.verification import T1_BASE, T3_BASE


def summarize(rep):
    tally = Counter()
    for s in rep.samples:
        key = (s.label.theorem, s.label.domain, s.label.singular_line_position)
        if s.boundary:
            tally[key + ("excluded",)] += 1
        else:
            tally[key + ("ok" if s.agreement else "DISAGREE",)] += 1
    for (thm, dom, pos, verdict), n in sorted(tally.items()):
        print(f"  {n:4d}  {thm}/{dom:9s}  {pos:22s}  {verdict}")
    print(f"  agreement {rep.agreement_fraction:.4f} "
          f"({rep.n_boundary} boundary-excluded)")
    for s in rep.disagreements():
        o = s.observed
        print(f"  !! C1 = {s.c1:.17g}: predicted {s.predicted.peakon}/"
              f"{s.predicted.periodic_peakon} peakon/pp, observed "
              f"{o.peakon}/{o.periodic_peakon} "
              f"(sol {o.solitary}, smooth {o.periodic_smooth})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=48)
    args = ap.parse_args()

    print(f"theta = 1/4 family, C1 from 0.75 to 0.001 ({args.samples} samples)")
    rep = sweep_singular_line(WaveParams(C1=0.3, **T1_BASE), (0.75, 0.001), args.samples)
    summarize(rep)

    print(f"theta = 1/2 family, C1 from 0.3 to -0.3 across the reduced point")
    n = args.samples if args.samples % 2 == 1 else args.samples + 1
    rep2 = sweep_singular_line(WaveParams(C1=0.3, **T3_BASE), (0.3, -0.3), n)
    summarize(rep2)


if __name__ == "__main__":
    main()
