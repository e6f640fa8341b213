"""Degeneration of the periodic closed forms onto the solitary wave.

At theta = 1/2 with C1 = 0 the orbit polynomial is an explicit quartic in
phi.  As two of its roots collide the periodic profiles must converge to
the homoclinic one: the sn family when two interior real roots merge, the
cn family when a complex pair pinches onto the real axis.  This script
shrinks the root gap geometrically and tabulates the sup-distance between
each periodic profile (shifted by half a period, where it is closest to
the crest) and the limiting solitary wave, alongside the elliptic modulus
sliding to 1.

Usage: python scripts/degeneration_table.py [--levels 7]
"""

import argparse

import numpy as np

from rotheta.closedform import closed_form_menu, params_from_roots


def one_family(kind, make_roots, limit_roots, levels):
    wp_lim, h_lim = params_from_roots(limit_roots)
    lim = next(s for s in closed_form_menu(wp_lim, h_lim)
               if s.kind.startswith("solitary"))

    print(f"{kind} family -> {lim.kind}")
    print(f"  {'root gap':>10s}  {'modulus m':>18s}  {'half window':>12s}  "
          f"{'sup distance':>14s}")
    for k in range(1, levels + 1):
        gap = 10.0 ** -k
        wp, h = params_from_roots(make_roots(gap))
        sol = next((s for s in closed_form_menu(wp, h)
                    if s.kind.startswith(kind)), None)
        if sol is None:
            # closer than the root-merging tolerance, the pair is one
            # double root and the level carries only the solitary wave
            print(f"  {gap:10.0e}  roots merged: no {kind} profile")
            break
        # compare around the crest, clear of the periodic profile's far
        # turning point at half a period out
        half = min(8.0, 0.25 * sol.period)
        xi = np.linspace(-half, half, 1601)
        shift = 0.5 * sol.period
        err = float(np.max(np.abs(sol(xi + shift) - lim(xi))))
        print(f"  {gap:10.0e}  {sol.modulus_m:18.12f}  {half:12.3f}  "
              f"{err:14.3e}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--levels", type=int, default=7,
                    help="number of gap decades (default 7)")
    args = ap.parse_args()

    one_family("sn", lambda g: [3.0, 1.0 + 0.5 * g, 1.0 - 0.5 * g, -2.0],
               [3.0, 1.0, 1.0, -2.0], args.levels)
    one_family("cn", lambda g: [2.0, complex(0.5, 0.5 * g),
                                complex(0.5, -0.5 * g), -1.0],
               [2.0, 0.5, 0.5, -1.0], args.levels)


if __name__ == "__main__":
    main()
