"""Bifurcation atlas: theorem-region classification, wave-menu prediction,
numeric observation, and singular-line sweeps.

Three regimes are covered:

* T1 (theta = 1/4): five domains D1..D5 by the signs of g at its local
  minimum / maximum plus the K = 0 family, each carrying a conditional
  peakon claim on a window of singular-line positions;
* T2 (theta = 1/2, C1 != 0): six domains, all claiming smooth waves only
  (the singular line carries no equilibria at theta = 1/2);
* T3 (theta = 1/2, C1 = 0): three domains with exact periodic / solitary
  counts backed by the closed forms.

The theorems are two tables.  In `_DOMAINS` each theorem's domains are
ordered rows (domain, condition, band, note) over three entries, g_min and
g_max (g at its local minimum and maximum) and K, each with its scale; an
entry's sign is 0 within `_EQ_TOL` of its scale, so a domain defined by an
equality is a genuine measure-zero region.  The first row whose condition
(entry, sign) holds names the domain, and one rule flags a boundary: an
entry of the row's band lies within the wider `_BOUNDARY_TOL` of its scale.
`_CLAIMS` maps (theorem, domain or None, in peakon window) to a `WaveMenu`.
Other theta values have no theorem coverage and classification raises.
Each label orders the singular line's marks once: 0 and g's roots,
descending.  The position descriptor names the mark the line is on (within
`_EQ_TOL`) or its neighbours there, T1's peakon windows are pairs of mark
names (`_WINDOWS`), and a sweep leaves unscored a T1 line within 1e-3 of a
mark.

Observation runs in the tau plane, where the singular line is invariant,
except at the T3 point: there the line passes through an equilibrium and
severs orbits that are perfectly smooth in the xi-profile plane, so the
observer switches to the regular reduced system phi'' = 2 g(phi).
`observation_plane` builds either one as a `Plane` with one builder, from
the first integral whose levels it reads (at the T3 point H has no log or
pole and is the profile energy), its equilibria and the line (none in the
profile plane); one loop serves both, with no integration, and every y^2
a walk reads comes from `levels.saddle_level_fn`.  The walk
(`levels.walk_level`) and the period quadrature need numpy alone, so
observing loads no scipy module.  Saddle connections are walked on the
saddles' own levels by `saddle_connections`: an arch or a loop exists on a side when the run of
y^2 > 0 leaving its saddle there ends at a simple turning point.  Periodic
families are counted with no level tracing: on each side of the line
y^2 = (h - B)/A, and B is monotone between the stops (axis equilibria, the
line, infinity), so a union-find over the stops' levels follows every
period annulus from the center or saddle it starts at to the loop or arch
that bounds it (`_families`).  The portrait draws the connections, and the
same walk reads its levels (`level_branches`) inside the families
(`family_levels`), where `rotheta wave` looks too.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .closedform import is_reduced_point, reduced
from .equilibria import CENTER, Equilibrium, EquilibriumCensus, SADDLE, census
from .field import FirstIntegral, build_first_integral, eval_f, eval_g, eval_g_prime
from .levels import (ANTI_PEAKON, DOUBLE_ROOT, ESCAPE, PEAKON, SINGULAR_LINE, SOLITARY,
                     TURNING_POINT, branch_period, level_branch, saddle_level_fn, walk_level)
from .params import WaveParams

__all__ = [
    "PRESENT",
    "RegionLabel",
    "WaveMenu",
    "ObservedMenu",
    "Plane",
    "Connection",
    "SweepSample",
    "SweepReport",
    "classify_region",
    "predict_wave_menu",
    "observe_wave_menu",
    "observation_plane",
    "saddle_connections",
    "level_branches",
    "family_levels",
    "menu_agrees",
    "sweep_singular_line",
]

# Menu value for a tag the theorem mentions without counting ("solitary
# and (or) periodic"): no per-tag claim; the disjunction lives in smooth_any.
PRESENT = "present"

_EQ_TOL = 1e-9         # an equality holds, a domain's or the line's on a mark (relative)
_BOUNDARY_TOL = 1e-6   # band around a domain edge flagged boundary (relative)


@dataclass(frozen=True)
class RegionLabel:
    theorem: str                 # T1 | T2 | T3
    domain: str                  # D1.. | UNCOVERED
    boundary: bool
    singular_line_position: str  # e.g. "0 < 4C1 < phi1"
    phi_roots: tuple             # real roots of g, descending
    in_peakon_window: bool = False
    note: str = ""


@dataclass(frozen=True)
class WaveMenu:
    """Claimed wave counts per tag.  An integer is a claim (0 = absent,
    n > 0 = at least n families); the string "present" makes no per-tag
    claim.  `smooth_any` asserts that at least one smooth family
    (solitary or periodic) exists -- the theorems' disjunctive clause."""

    peakon: object = PRESENT
    periodic_peakon: object = PRESENT
    solitary: object = PRESENT
    periodic_smooth: object = PRESENT
    smooth_any: bool = False
    note: str = ""


@dataclass(frozen=True)
class ObservedMenu:
    peakon: int = 0
    periodic_peakon: int = 0
    solitary: int = 0
    periodic_smooth: int = 0

    @property
    def smooth_total(self) -> int:
        return self.solitary + self.periodic_smooth


def _t12_rows(k_zero, negative, mixed, negative_note=""):
    """T1's and T2's rows, which differ in three domain names and in the
    note where g is negative at both critical points."""
    g_and_k = ("g_min", "g_max", "K")
    return ((k_zero, ("K", 0), (), ""),
            ("D2", ("g_min", 0), ("K",), ""),
            ("D3", ("g_max", 0), ("K",), ""),
            ("D1", ("g_min", 1), g_and_k, ""),
            (negative, ("g_max", -1), g_and_k, negative_note),
            (mixed, None, g_and_k, ""))


# per theorem, rows (domain, condition, band, note): the first row whose
# condition (entry, sign) holds, or is None, gives the domain; T3's g_min = 0
# row holds g_min in its band, so it is always a boundary
_DOMAINS = {
    "T1": _t12_rows("D5", "UNCOVERED", "D4",
                    "g negative at both critical points (no catalogued portrait)"),
    "T2": _t12_rows("D6", "D4", "D5"),
    "T3": (("D1", ("g_min", 0), ("g_min",), "g_min = 0: shared edge of D1 and D2"),
           ("D1", ("g_min", 1), ("g_min",), ""),
           ("D3", ("g_max", 1), ("g_max",), ""),
           ("D2", None, ("g_max",), "")),
}

# (theorem, domain or None for its other domains, in_peakon_window) -> claim
_SMOOTH = dict(peakon=0, periodic_peakon=0, smooth_any=True)
_CLAIMS = {
    ("T1", None, False): WaveMenu(**_SMOOTH, note="singular line outside the peakon windows"),
    ("T1", None, True): WaveMenu(peakon=1, periodic_peakon=2, smooth_any=True,
                                 note="peakon window active"),
    ("T1", "D2", True): WaveMenu(peakon=0, periodic_peakon=2, smooth_any=True,
                                 note="two periodic peakons, no peakon"),
    ("T2", None, False): WaveMenu(**_SMOOTH, note="all waves smooth at theta = 1/2"),
    ("T3", None, False): WaveMenu(**_SMOOTH, solitary=0, periodic_smooth=1,
                                  note="one periodic wave"),
    ("T3", "D3", False): WaveMenu(**_SMOOTH, solitary=2, periodic_smooth=2,
                                  note="two periodic and two solitary waves"),
}


# T1's peakon windows: per domain, (lower, upper) pairs of marks the line
# lies strictly between, a pair counting only when both marks exist.  The
# printed windows are where f(4C1) > 0 in the canonical configuration
# phi3 < phi2 < 0 < phi1, so a label is in one only where f(s) > 0 too, and
# only where C3 < 0 bounds the level sets, so arches close.  They are T1's
# alone: at theta = 1/2 the line carries no equilibria for an arch to end on.
_WINDOW = (("0", "phi1"),)
_WINDOWS = dict.fromkeys(("D4", "D5"), _WINDOW + (("phi3", "phi2"),))


def _on_mark(s: float, v: float, tol: float) -> bool:
    """The line at s sits on the mark at v, to `tol` relative to 1 + |v|."""
    return abs(s - v) <= tol * (1.0 + abs(v))


def _position_descriptor(wp: WaveParams, s: float, marks) -> str:
    """Where the line at s sits among the `marks`, (name, value) descending:
    on the first it is on, else between its neighbours below and above."""
    inv = 1 / wp.theta
    sym = f"{inv.numerator}C1" if inv.denominator == 1 else "C1/theta"
    on = [name for name, v in marks if _on_mark(s, v, _EQ_TOL)]
    n = sum(v > s for _, v in marks)   # the marks above s lead the list
    if on:
        return f"{sym} = {on[0]}"
    if n == 0:
        return f"{sym} > {marks[0][0]}"
    if n == len(marks):
        return f"{sym} < {marks[-1][0]}"
    return f"{marks[n][0]} < {sym} < {marks[n - 1][0]}"


def classify_region(wp: WaveParams, cen: EquilibriumCensus) -> RegionLabel:
    """Theorem/domain label for the parameter point, with boundary flagging.

    theta = 1/4 -> T1; theta = 1/2 -> T3 when |C1| <= 1e-9 else T2; any
    other theta raises ValueError (no theorem covers it).  delta = 4 C2^2 -
    6 C3 <= 0 or a missing critical point of g yields UNCOVERED; otherwise
    the theorem's first `_DOMAINS` row whose condition holds gives the
    domain, flagged boundary when an entry in the row's band lies within
    `_BOUNDARY_TOL` of its scale.  g's roots and critical points come from
    `cen`.
    """
    return _classify(wp, cen)[0]


def _classify(wp: WaveParams, cen: EquilibriumCensus):
    """(`classify_region`'s label, the marks it places the line among): 0
    and g's roots as (name, value), descending, a root at 0 before "0"."""
    theta = wp.theta
    if theta == Fraction(1, 4):
        theorem = "T1"
    elif theta == Fraction(1, 2):
        theorem = "T3" if is_reduced_point(wp) else "T2"
    else:
        raise ValueError(f"no theorem covers theta = {theta}")

    delta = 4.0 * float(wp.C2) ** 2 - 6.0 * float(wp.C3)
    s = float(wp.singular_line)
    roots_desc = tuple(sorted((r for r, _ in cen.g_roots), reverse=True))
    marks = sorted([(f"phi{i + 1}", r) for i, r in enumerate(roots_desc)] + [("0", 0.0)],
                   key=lambda mark: -mark[1])
    pos = _position_descriptor(wp, s, marks)

    def label(domain, boundary, note, window=False):
        return RegionLabel(theorem=theorem, domain=domain, boundary=boundary,
                           singular_line_position=pos, phi_roots=roots_desc,
                           in_peakon_window=window, note=note), marks

    dscale = 1.0 + 4.0 * float(wp.C2) ** 2 + 6.0 * abs(float(wp.C3))
    if delta <= _BOUNDARY_TOL * dscale:
        return label("UNCOVERED",
                     boundary=abs(delta) <= _BOUNDARY_TOL * dscale,
                     note="needs 4C2^2 > 6C3 (two critical points of g)")

    phi_min, phi_max = cen.g_critical
    if phi_min is None or phi_max is None:
        return label("UNCOVERED", boundary=True,
                     note="critical points of g numerically degenerate")
    gmin, gmax = eval_g(wp, phi_min), eval_g(wp, phi_max)
    gscale = 1.0 + max(abs(gmin), abs(gmax))
    entries = {"g_min": (gmin, gscale), "g_max": (gmax, gscale),
               "K": (float(wp.K), 1.0 + abs(float(wp.C2)) + abs(float(wp.C3)))}
    sign = {e: 0 if abs(v) <= _EQ_TOL * scale else 1 if v > 0.0 else -1
            for e, (v, scale) in entries.items()}
    domain, _, band, note = next(row for row in _DOMAINS[theorem]
                                 if row[1] is None or sign[row[1][0]] == row[1][1])
    boundary = any(abs(entries[e][0]) <= _BOUNDARY_TOL * entries[e][1] for e in band)
    at = dict(marks)
    window = (theorem == "T1" and float(wp.C3) < 0.0 and eval_f(wp, s) > 0.0
              and any(lo in at and hi in at and at[lo] < s < at[hi]
                      for lo, hi in _WINDOWS.get(domain, _WINDOW)))
    return label(domain, boundary, note, window)


def predict_wave_menu(label: RegionLabel) -> WaveMenu:
    """The theorem's asserted menu for a non-boundary region label: its
    domain's `_CLAIMS` entry, else its theorem's entry for other domains."""
    if label.boundary:
        raise ValueError(f"boundary label has no clean prediction: {label}")
    if label.domain == "UNCOVERED":
        return WaveMenu(note="no theorem claim here")
    theorem, window = label.theorem, label.in_peakon_window
    return _CLAIMS.get((theorem, label.domain, window)) or _CLAIMS[theorem, None, window]


def menu_agrees(pred: WaveMenu, obs: ObservedMenu) -> bool:
    """Observation satisfies a claim: integer 0 means observed 0, integer
    n > 0 means observed >= n, "present" is vacuous; smooth_any needs at
    least one smooth family of either kind."""

    def ok(claim, got):
        if claim == PRESENT:
            return True
        return got == 0 if claim == 0 else got >= claim

    return (ok(pred.peakon, obs.peakon)
            and ok(pred.periodic_peakon, obs.periodic_peakon)
            and ok(pred.solitary, obs.solitary)
            and ok(pred.periodic_smooth, obs.periodic_smooth)
            and (not pred.smooth_any or obs.smooth_total >= 1))


# ---------------------------------------------------------------------------
# numeric observation


@dataclass(frozen=True)
class Plane:
    """A phase plane wave families are counted in, built by `_plane`.  The
    tau plane and the reduced point's profile plane read the levels of
    their own first integral `fi` (`saddle_level_fn(fi, phi, h=h)` through
    a stop at phi) and share the connection walk, the family sweep and the
    level reader.

    On each side of the line, H = A y^2 + B with A of one sign there, and B
    is monotone between consecutive stops: the axis equilibria and the two
    ends of the side (the line, infinity).  An end's level is B's limit
    there, +-inf unless H is finite on the line."""

    fi: FirstIntegral          # H, whose levels the plane reads
    equilibria: tuple          # every equilibrium of the plane, the line's included
    pair: tuple                # saddles on the singular line, upper first
    saddles: tuple             # saddles off the line
    stops: tuple               # (phi, level) of every equilibrium on the axis
    line: float | None         # a line no orbit crosses
    sides: tuple               # (side, sign of A, ((phi, level) of each end)) per side


def _limit(terms, w_sign, rest):
    """+-inf, the limit of sum c w^k as w of sign w_sign goes to the end
    where the nonzero term of largest |k| dominates; `rest` when all are 0."""
    k, c = max(((k, c) for k, c in terms if c), key=lambda kc: abs(kc[0]), default=(0, 0.0))
    return math.copysign(math.inf, c * w_sign ** k) if c else rest


def _plane(fi: FirstIntegral, equilibria, line) -> Plane:
    """The plane over `fi` with the given equilibria: the line pair's
    saddles, the saddles off the line and a stop at every axis equilibrium
    off it.  Its sides are split at `line`, or form one side when `line` is
    None; each end's level is B's limit there."""
    a = float(fi.y2_coeff)
    # B's limits: far out its powers dominate (f's phi^2 term keeps one
    # nonzero); at the line its poles, then its log
    powers = [(k, float(c)) for k, c in enumerate(fi.poly_shifted) if k]
    far = ((-math.inf, _limit(powers, -1.0, None)), (math.inf, _limit(powers, 1.0, None)))
    if line is None:
        sides = ((None, math.copysign(1.0, a), far),)
    else:
        poles = [(-j, float(c)) for j, c in fi.pole_coeffs]
        log_c = float(fi.log_coeff)
        at_line = math.copysign(math.inf, -log_c) if log_c else float(fi.poly_shifted[0])
        sides = (("left", math.copysign(1.0, a * (-1.0) ** fi.y2_power),
                  (far[0], (line, _limit(poles, -1.0, at_line)))),
                 ("right", math.copysign(1.0, a), ((line, _limit(poles, 1.0, at_line)), far[1])))
    off = [e for e in equilibria if not e.on_singular_line]
    return Plane(
        fi=fi,
        equilibria=tuple(equilibria),
        pair=tuple(sorted((e for e in equilibria if e.on_singular_line and e.kind == SADDLE),
                          key=lambda e: -e.y)),
        saddles=tuple(e for e in off if e.kind == SADDLE),
        stops=tuple((e.phi, float(fi.eval(e.phi, 0.0))) for e in off),
        line=line,
        sides=sides)


def observation_plane(wp: WaveParams, cen: EquilibriumCensus = None) -> Plane:
    """The plane the observer counts in, the portrait draws and `wave`
    searches: the tau plane, over H and the census's equilibria, split at
    the singular line, which no orbit crosses.

    At the reduced point theta = 1/2, C1 = 0 that line passes through an
    equilibrium and severs every orbit crossing it, so the plane is the
    regular profile plane phi' = y, y' = 2 g(phi) instead, with no line.
    It reads H of `reduced(wp)`: with m = -1 it has no log or pole, and
    4H = Q(phi) - y^2 (`closedform.q_coeffs`), so A = -1/4 and B = Q/4 on
    its one side.  Its equilibria are g's roots, a saddle where g' > 0;
    every connection is a homoclinic loop, and every closed orbit is smooth.
    """
    cen = cen if cen is not None else census(wp)
    if is_reduced_point(wp):
        roots = [(r, eval_g_prime(wp, r)) for r, _ in cen.g_roots]
        return _plane(build_first_integral(reduced(wp)),
                      [Equilibrium(phi=r, y=0.0, kind=SADDLE if gp > 0.0 else CENTER,
                                   J=-2.0 * gp, trace=0.0) for r, gp in roots], None)
    fi = build_first_integral(wp)
    return _plane(fi, cen.equilibria, float(fi.line))


def _families(plane: Plane):
    """One diagnostics entry per period annulus of `plane`, with no level
    tracing.

    On a side where A has sign a, a closed orbit at level h is a maximal
    phi-interval with a (h - B) > 0 that reaches neither end of the side.
    As G = -a h falls, these intervals of {-a B > G} are born at the
    centers, grow, and merge at the saddles; since B is monotone between
    stops, an interval is fixed by the run of stops it holds, so a
    union-find over the stops in order of -a B follows every one.  A
    family starts at a center's level, or at a saddle where two closed
    intervals merge (the outer family around a figure-eight), and ends
      * "loop": merged at a saddle, bounded by its homoclinic loop;
      * "arch": reached the line, which happens only at a finite line
        level, the pair's, so it is bounded by the arches;
      * None: never, its orbits grow without end (`bottom` None).
    `phi` is the stop it starts at, `top` and `bottom` the levels it starts
    and ends at.
    """
    for side, sign, (lo, hi) in plane.sides:
        pts = [lo, *((p, h) for p, h in plane.stops if lo[0] < p < hi[0]), hi]
        last = len(pts) - 1

        def is_peak(i):
            # above both neighbours: y^2 < 0 at a neighbouring stop on the
            # level through stop i, read without h - B's cancellation
            y2 = saddle_level_fn(plane.fi, pts[i][0])
            return all(y2(pts[j][0]) < 0.0 if 0 < j < last else sign * pts[j][1] > sign * pts[i][1]
                       for j in (i - 1, i + 1))

        # peaks first: rounding may put a peak's level below a neighbour's
        # when the two are a near-double root apart
        order = sorted(range(last + 1),
                       key=lambda i: (not (0 < i < last and is_peak(i)), sign * pts[i][1]))
        comp = [None] * len(pts)   # each reached point's interval
        live = []                  # per interval: its family, None if open
        for i in order:
            phi, h = pts[i]
            if sign * h == math.inf:
                break              # reached only as h -> -a inf
            near = {comp[j] for j in (i - 1, i + 1) if 0 <= j <= last and comp[j] is not None}
            is_end = i in (0, last)
            if len(near) == 1 and not is_end:
                comp[i] = near.pop()
                continue
            for c in near:         # an end reached, or two intervals merging
                if live[c] is not None:
                    yield dict(live[c], bottom=h, bound="arch" if is_end else "loop")
            closed = not is_end and all(live[c] is not None for c in near)
            live.append({"kind": "family", "side": side, "phi": phi, "top": h}
                        if closed else None)
            comp = [len(live) - 1 if c in near else c for c in comp]
            comp[i] = len(live) - 1
        for c in dict.fromkeys(c for c in comp if c is not None):
            if live[c] is not None:
                yield dict(live[c], bottom=None, bound=None)


@dataclass(frozen=True)
class Connection:
    """One side of a saddle, walked on the saddle's own level: an arch from
    the upper line saddle or a homoclinic loop at an axis saddle when the
    walk ends at a turning point (`hit`)."""

    kind: str                  # "arch" | "loop"
    saddle: Equilibrium
    side: str                  # "left" | "right"
    h: float                   # the saddle's level
    end: str                   # how the walk ended (see walk_level)
    phi_end: float             # where it ended: the turning point of a hit
    y2: Callable               # phi -> y^2 on the level

    @property
    def hit(self) -> bool:
        return self.end == TURNING_POINT

    @property
    def tag(self):
        if not self.hit:
            return None
        if self.kind == "loop":
            return SOLITARY
        return PEAKON if self.side == "left" else ANTI_PEAKON


def _stops_at(plane: Plane, h):
    """(phi, on the level h) per stop: its level is h to 1e-10 of the larger
    of the two, so a center's small level stays apart from a pair's 0."""
    return tuple((phi, abs(level - h) <= 1e-10 * max(abs(level), abs(h)))
                 for phi, level in plane.stops)


def saddle_connections(plane: Plane):
    """Every saddle connection of `plane`, found on the saddles' own levels
    with no integration: the two arches from the upper line saddle, then the
    homoclinic loops at each axis saddle, left side before right.  An arch
    lies on the pair's level, where y^2 passes through the line with the
    saddles' own y*^2; a loop lies on its saddle's level.  A walk ends where
    its level does, told y^2's sign at +-inf: sign(A) sign(h - B's limit).
    Yields one Connection per saddle and side, hit or not."""
    walks = [("arch", plane.pair[0])] if len(plane.pair) == 2 else []
    walks += [("loop", eq) for eq in plane.saddles]
    (_, a_lo, (lo, _)), (_, a_hi, (_, hi)) = plane.sides[0], plane.sides[-1]
    for kind, eq in walks:
        h = float(plane.fi.eval(eq.phi, 0.0))
        y2 = saddle_level_fn(plane.fi, eq.phi, on_line=eq.on_singular_line)
        stops = _stops_at(plane, h)
        for side, a, (_, b) in (("left", a_lo, lo), ("right", a_hi, hi)):
            sign, end, phi = next(walk_level(y2, eq.phi, 1.0 if side == "right" else -1.0,
                                             stops=stops, line=plane.line, on_level=True,
                                             far=a * math.copysign(1.0, h - b)))
            end, phi = (end, phi) if sign > 0.0 else (DOUBLE_ROOT, eq.phi)  # y^2 < 0: no run
            yield Connection(kind=kind, saddle=eq, side=side, h=h, end=end, phi_end=phi, y2=y2)


def level_branches(plane: Plane, h: float, window):
    """The runs of y^2 > 0 on the level H = h of `plane` in the phi-`window`,
    closed unless an end is the line, infinity or the window.  On each side
    the walk leaves the stop of the nearest level (none: the point 1 + |line|
    out, or phi = 0 in the profile plane) both ways, on y^2 =
    `saddle_level_fn` there at the level h."""
    stops = _stops_at(plane, h)
    line, branches = plane.line, []
    for side, sign, ends in plane.sides:
        inside = [s for s in plane.stops if ends[0][0] < s[0] < ends[1][0]]
        q = (min(inside, key=lambda s: abs(s[1] - h))[0] if inside
             else 0.0 if line is None
             else line + (1.0 if side == "right" else -1.0) * (1.0 + abs(line)))
        on_level = dict(stops).get(q, False)
        y2 = saddle_level_fn(plane.fi, q, h=h)
        left, right = (list(walk_level(y2, q, d, stops=stops, line=line, on_level=on_level,
                                       far=sign * math.copysign(1.0, h - level)))
                       for d, (_phi, level) in zip((-1.0, 1.0), ends))
        # two stretches meet at a q on the level, else the first each way is one
        bounds = [b[1:] for b in left[::-1]] + [(DOUBLE_ROOT, q)] * on_level
        bounds += [b[1:] for b in right]
        signs = [b[0] for b in left[::-1]] + [b[0] for b in right][not on_level:]
        for s, (end_a, a), (end_b, b) in zip(signs, bounds, bounds[1:]):
            cut_a, cut_b = max(a, window[0]), min(b, window[1])
            if s > 0.0 and cut_a < cut_b:
                closed = (cut_a, cut_b) == (a, b) and not {end_a, end_b} & {SINGULAR_LINE, ESCAPE}
                branches.append(level_branch(y2, cut_a, cut_b, closed))
    return branches


def family_levels(plane: Plane, fractions):
    """Levels `fractions` of the way from each family's top to its bottom
    (`_families`), or, if it never ends, to 1 + |top| beyond its top."""
    signs = {side: sign for side, sign, _ends in plane.sides}
    return [fam["top"] + f * (signs[fam["side"]] * (1.0 + abs(fam["top"])) if fam["bottom"] is None
                              else fam["bottom"] - fam["top"])
            for fam in _families(plane) for f in fractions]


def observe_wave_menu(wp: WaveParams, cen: EquilibriumCensus = None):
    """Count wave families numerically, with no integration.

    The count runs in the tau plane, except at the reduced point theta =
    1/2, C1 = 0, where it runs in the profile plane (`observation_plane`).
    Arches between the singular-line saddles and homoclinic loops at axis
    saddles are walked on the saddles' own levels (`saddle_connections`):
    each arch or loop entry records how its walk ended, and an arch that
    exists carries its slope jump 2 y* and its xi-extent 2 * integral of
    dphi / y by quadrature.  Periodic families are counted exactly, one
    per period annulus, from the levels at the stops alone (`_families`):
    each writes a family entry (side, phi, top, bottom, bound).  Every family
    counts as periodic smooth, since its inner orbits are smooth; one
    bounded by the arches (its orbits hug the line with a slope jump) also
    counts as a periodic-peakon family.  Returns (ObservedMenu, diagnostics).
    """
    plane = observation_plane(wp, cen)
    diag = [] if plane.line is not None else [
        {"kind": "plane", "note": "profile plane (reduced system)"}]

    peakon = solitary = 0
    for conn in saddle_connections(plane):
        if conn.kind == "arch":
            entry = {"kind": "arch", "side": conn.side, "tag": conn.tag,
                     "end": conn.end}
            if conn.hit:
                peakon += 1
                arch = level_branch(conn.y2, *sorted((conn.saddle.phi, conn.phi_end)), True)
                entry.update(jump=2.0 * abs(conn.saddle.y), xi_extent=branch_period(conn.y2, arch))
            diag.append(entry)
        elif conn.hit:
            solitary += 1
            diag.append({"kind": "loop", "phi": conn.saddle.phi, "side": conn.side,
                         "tag": conn.tag, "end": conn.end})

    families = list(_families(plane))
    diag += families
    obs = ObservedMenu(peakon=peakon,
                       periodic_peakon=sum(f["bound"] == "arch" for f in families),
                       solitary=solitary, periodic_smooth=len(families))
    return obs, diag


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSample:
    c1: float
    label: RegionLabel
    predicted: WaveMenu | None   # None when the label is boundary
    observed: ObservedMenu
    agreement: bool | None       # None when boundary-excluded
    boundary: bool
    diagnostics: tuple = ()

    def describe(self) -> str:
        """C1, the label and the observed counts on one line, as the sweep's
        disagreement listing and the atlas-agreement ledger write them."""
        o = self.observed
        return (f"C1 = {self.c1:.17g}: {self.label.theorem}/{self.label.domain} "
                f"[{self.label.singular_line_position}] observed "
                f"pk={o.peakon} pp={o.periodic_peakon} sol={o.solitary} ps={o.periodic_smooth}")


@dataclass
class SweepReport:
    base: WaveParams
    samples: list

    @property
    def n_boundary(self) -> int:
        return sum(1 for s in self.samples if s.boundary)

    @property
    def agreement_fraction(self) -> float:
        scored = [s for s in self.samples if s.agreement is not None]
        if not scored:
            return float("nan")
        return sum(1 for s in scored if s.agreement) / len(scored)

    def disagreements(self):
        return [s for s in self.samples if s.agreement is False]


def _near_window_edge(wp: WaveParams, label: RegionLabel, marks) -> bool:
    """T1 samples whose singular line sits within 1e-3 of a mark (a window
    edge) have marginal geometry (vanishing arches); flagged, not scored."""
    s = float(wp.singular_line)
    return label.theorem == "T1" and any(_on_mark(s, v, 1e-3) for _, v in marks)


def _sweep_one(base, c1):
    wp = replace(base, C1=float(c1))
    cen = census(wp)
    label, marks = _classify(wp, cen)
    # census boundaries are degenerate portraits -- except at T3, where the
    # line-through-equilibrium configuration is the covered case itself
    structural = cen.is_boundary and label.theorem != "T3"
    boundary = label.boundary or structural or _near_window_edge(wp, label, marks)
    predicted = None if label.boundary else predict_wave_menu(label)
    observed, diag = observe_wave_menu(wp, cen)
    return SweepSample(c1=float(c1), label=label, predicted=predicted, observed=observed,
                       agreement=None if boundary else menu_agrees(predicted, observed),
                       boundary=boundary, diagnostics=tuple(diag))


def sweep_singular_line(base: WaveParams, c1_range, sample_count: int) -> SweepReport:
    """Classify/predict/observe across a right-to-left sweep of C1.

    `c1_range` = (right, left) with right > left; samples are strictly
    decreasing.  Samples on domain boundaries, on census boundaries, or
    within 1e-3 of a peakon-window edge are flagged and excluded from the
    agreement statistics (their rows still carry full diagnostics).

    Samples run one after another, in input order.  They are independent,
    but threads cannot overlap them: the census, the connection walks and
    the quadratures run as Python code under the interpreter
    lock, in many short numpy calls.
    """
    if sample_count < 2:
        raise ValueError("sample_count must be >= 2")
    hi, lo = float(c1_range[0]), float(c1_range[1])
    if not hi > lo:
        raise ValueError("c1_range must be ordered right-to-left (hi > lo)")
    c1s = np.linspace(hi, lo, sample_count)
    samples = [_sweep_one(base, c1) for c1 in c1s]
    return SweepReport(base=base, samples=samples)
