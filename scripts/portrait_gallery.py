"""Render phase portraits for the reference parameter regimes.

One SVG + CSV pair per regime, written to the output directory.  The
regimes cover both peakon windows at theta = 1/4, a window-free sample,
theta = 1/2 with the line on and off an equilibrium, and theta = 1
(where the first integral carries a pole on the line).

Usage: python scripts/portrait_gallery.py [--outdir portraits]
"""

import argparse
from fractions import Fraction
from pathlib import Path

from rotheta import WaveParams, census, classify_region
from rotheta.cli import render_portrait_artifacts
from rotheta.verification import T1_BASE, T3_BASE

REGIMES = {
    # line between 0 and the only positive g-root: arch + periodic peakons
    "window": WaveParams(C1=0.3, **T1_BASE),
    # line in the left window (phi3, phi2) of a three-root configuration
    "second-window": WaveParams(Fraction(1, 4), -0.5, -0.2, -0.1, 0.6),
    # line right of every root: smooth waves only
    "outside-window": WaveParams(C1=0.8, **T1_BASE),
    # theta = 1/2, line away from the equilibria
    "half-theta": WaveParams(C1=0.5, **T3_BASE),
    # theta = 1/2 with C1 = 0: the line passes through an equilibrium
    "reduced-point": WaveParams(C1=0.0, **T3_BASE),
    # theta = 1: the first integral has a 1/(phi - C1) pole on the line
    "theta-one": WaveParams(Fraction(1, 1), 0.4, 0.9, -1.0, -0.05),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="portraits")
    args = ap.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for name, wp in REGIMES.items():
        cen = census(wp)
        try:
            lab = classify_region(wp, cen)
            tag = f"{lab.theorem}/{lab.domain}" + \
                  (" [window]" if lab.in_peakon_window else "")
        except ValueError:
            tag = "uncatalogued theta"
        svg, csv = render_portrait_artifacts(wp)
        (outdir / f"{name}.svg").write_text(svg)
        (outdir / f"{name}.csv").write_text(csv)
        print(f"{name:16s} case {cen.case_label:5s} {tag:18s} "
              f"-> {outdir / name}.svg")


if __name__ == "__main__":
    main()
