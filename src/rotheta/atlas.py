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

Domains defined by an equality (e.g. "g at its minimum vanishes") are
genuine measure-zero regions: parameters within `_EQ_TOL` (relative) of
the equality get that label cleanly, while parameters in the wider
`_BOUNDARY_TOL` band around it keep the adjacent open-domain label but are
flagged boundary.
Other theta values have no theorem coverage and classification raises.

Observation runs in the tau plane, where the singular line is invariant,
except at the T3 point: there the line passes through an equilibrium and
severs orbits that are perfectly smooth in the xi-profile plane, so the
observer switches to the regular reduced system phi'' = 2 g(phi).  A
`Plane` describes either one, with the first integral whose levels it
reads (at the T3 point H has no log or pole and is the profile energy);
one loop serves both, with no integration, and `observation_plane` picks
the plane.  Saddle connections are walked on the saddles' own levels by
`saddle_connections` (which the portrait draws from too): an arch or a
loop exists on a side when the run of y^2 > 0 leaving its saddle there
ends at a simple turning point.  Periodic families are counted with no
level tracing: on each side of the line y^2 = (h - B)/A, and B is monotone
between the stops (axis equilibria, the line, infinity), so a union-find
over the stops' levels follows every period annulus from the center or
saddle it starts at to the loop or arch that bounds it (`_families`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .closedform import is_reduced_point, reduced
from .equilibria import Equilibrium, EquilibriumCensus, SADDLE, census
from .field import FirstIntegral, build_first_integral, eval_f, eval_g, eval_g_prime
from .orbits import (ANTI_PEAKON, PEAKON, SOLITARY, TURNING_POINT, LevelBranch,
                     branch_period, saddle_level_fn, walk_separatrix)
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
    "canonical_levels",
    "classify_region",
    "predict_wave_menu",
    "observe_wave_menu",
    "tau_plane",
    "observation_plane",
    "saddle_connections",
    "menu_agrees",
    "sweep_singular_line",
]

# Menu value for a tag the theorem mentions without counting ("solitary
# and (or) periodic"): no per-tag claim; the disjunction lives in smooth_any.
PRESENT = "present"

_EQ_TOL = 1e-9         # a domain's defining equality holds (relative)
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


def _line_symbol(wp: WaveParams) -> str:
    inv = 1 / wp.theta
    return f"{inv.numerator}C1" if inv.denominator == 1 else "C1/theta"


def _position_descriptor(wp: WaveParams, roots_desc, tol=1e-9) -> str:
    """Ordering descriptor of the singular line among {0} U g-roots."""
    sym = _line_symbol(wp)
    s = float(wp.singular_line)
    marks = [(f"phi{i + 1}", r) for i, r in enumerate(roots_desc)]
    marks.append(("0", 0.0))
    marks.sort(key=lambda kv: -kv[1])
    for name, v in marks:
        if abs(s - v) <= tol * (1.0 + abs(v)):
            return f"{sym} = {name}"
    above = [name for name, v in marks if v > s]
    below = [name for name, v in marks if v < s]
    if not above:
        return f"{sym} > {marks[0][0]}"
    if not below:
        return f"{sym} < {marks[-1][0]}"
    return f"{below[0]} < {sym} < {above[-1]}"


def _peakon_window(wp: WaveParams, domain: str, roots_desc) -> bool:
    """Literal theorem windows, guarded by existence of the line pair.

    The printed windows (0 < 4C1 < phi1 for D1-D3; that or
    phi3 < 4C1 < phi2 for D4/D5) describe where f(4C1) > 0 in the
    canonical root configuration phi3 < phi2 < 0 < phi1; the f > 0 guard
    keeps the prediction truthful in every configuration, and C3 < 0
    ensures the level sets are bounded so arches actually close.
    """
    s = float(wp.singular_line)
    if float(wp.C3) >= 0.0 or eval_f(wp, s) <= 0.0:
        return False
    lit = False
    if roots_desc:
        lit = 0.0 < s < roots_desc[0]
    if domain in ("D4", "D5") and len(roots_desc) >= 3 and not lit:
        lit = roots_desc[2] < s < roots_desc[1]
    return lit


def classify_region(wp: WaveParams, cen: EquilibriumCensus) -> RegionLabel:
    """Theorem/domain label for the parameter point, with boundary flagging.

    theta = 1/4 -> T1; theta = 1/2 -> T3 when |C1| <= 1e-9 else T2; any
    other theta raises ValueError (no theorem covers it).  Domains follow
    the sign of g at its local minimum (g_min) and maximum (g_max), with
    K = 0 taking precedence (T1/D5, T2/D6); delta = 4 C2^2 - 6 C3 <= 0 or
    a sign pattern outside the catalogue yields UNCOVERED.  g's roots and
    critical points come from `cen`.
    """
    theta = wp.theta
    if theta == Fraction(1, 4):
        theorem = "T1"
    elif theta == Fraction(1, 2):
        theorem = "T3" if is_reduced_point(wp) else "T2"
    else:
        raise ValueError(f"no theorem covers theta = {theta}")

    delta = 4.0 * float(wp.C2) ** 2 - 6.0 * float(wp.C3)
    roots_desc = tuple(sorted((r for r, _ in cen.g_roots), reverse=True))
    pos = _position_descriptor(wp, roots_desc)

    def label(domain, boundary=False, note="", window=False):
        return RegionLabel(theorem=theorem, domain=domain, boundary=boundary,
                           singular_line_position=pos, phi_roots=roots_desc,
                           in_peakon_window=window, note=note)

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

    kscale = 1.0 + abs(float(wp.C2)) + abs(float(wp.C3))
    k_is_zero = abs(float(wp.K)) <= _EQ_TOL * kscale
    k_near_zero = abs(float(wp.K)) <= _BOUNDARY_TOL * kscale

    if theorem in ("T1", "T2"):
        # the window concept is T1-only: at theta = 1/2 the line carries
        # no equilibria, so no arch can terminate on it
        def window(domain):
            return (_peakon_window(wp, domain, roots_desc)
                    if theorem == "T1" else False)

        if k_is_zero:
            kdom = "D5" if theorem == "T1" else "D6"
            return label(kdom, window=window("D5"))
        if abs(gmin) <= _EQ_TOL * gscale:
            return label("D2", boundary=k_near_zero, window=window("D2"))
        if abs(gmax) <= _EQ_TOL * gscale:
            return label("D3", boundary=k_near_zero, window=window("D3"))
        near = min(abs(gmin), abs(gmax)) <= _BOUNDARY_TOL * gscale
        if gmin > 0.0:
            dom = "D1"
        elif gmax < 0.0:
            dom = "D4" if theorem == "T2" else "UNCOVERED"
        else:
            dom = "D5" if theorem == "T2" else "D4"
        note = "" if dom != "UNCOVERED" else \
            "g negative at both critical points (no catalogued portrait)"
        return label(dom, boundary=near or k_near_zero, note=note,
                     window=window(dom))

    # T3
    if abs(gmin) <= _EQ_TOL * gscale:
        return label("D1", boundary=True,
                     note="g_min = 0: shared edge of D1 and D2")
    if gmin > 0.0:
        return label("D1", boundary=gmin <= _BOUNDARY_TOL * gscale)
    if gmax > _EQ_TOL * gscale:
        return label("D3", boundary=gmax <= _BOUNDARY_TOL * gscale)
    return label("D2", boundary=abs(gmax) <= _BOUNDARY_TOL * gscale)


def predict_wave_menu(label: RegionLabel) -> WaveMenu:
    """The theorem's asserted menu for a non-boundary region label."""
    if label.boundary:
        raise ValueError(f"boundary label has no clean prediction: {label}")
    if label.domain == "UNCOVERED":
        return WaveMenu(note="no theorem claim here")

    if label.theorem == "T1":
        if not label.in_peakon_window:
            return WaveMenu(peakon=0, periodic_peakon=0, smooth_any=True,
                            note="singular line outside the peakon windows")
        if label.domain == "D2":
            return WaveMenu(peakon=0, periodic_peakon=2, smooth_any=True,
                            note="two periodic peakons, no peakon")
        return WaveMenu(peakon=1, periodic_peakon=2, smooth_any=True,
                        note="peakon window active")

    if label.theorem == "T2":
        return WaveMenu(peakon=0, periodic_peakon=0, smooth_any=True,
                        note="all waves smooth at theta = 1/2")

    # T3
    if label.domain == "D3":
        return WaveMenu(peakon=0, periodic_peakon=0, solitary=2,
                        periodic_smooth=2, smooth_any=True,
                        note="two periodic and two solitary waves")
    return WaveMenu(peakon=0, periodic_peakon=0, solitary=0,
                    periodic_smooth=1, smooth_any=True,
                    note="one periodic wave")


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


def _level_samples(crit, dh_frac=1e-3):
    """Canonical levels: midpoints between consecutive critical levels,
    plus critical +- dh_frac x spread."""
    if not crit:
        return []
    spread = crit[-1] - crit[0]
    if spread <= 0.0:
        spread = 1.0 + abs(crit[0])
    dh = dh_frac * spread
    samples = [0.5 * (a + b) for a, b in zip(crit, crit[1:])]
    for h in crit:
        samples += [h - dh, h + dh]
    return samples


@dataclass(frozen=True)
class Plane:
    """A phase plane wave families are counted in.  The tau plane and the
    reduced point's profile plane read the levels of their own first
    integral `fi` (`saddle_level_fn(fi, phi)` through a stop at phi) and
    share the connection walk, the family sweep and the canonical levels.

    On each side of the line, H = A y^2 + B with A of one sign there, and B
    is monotone between consecutive stops: the axis equilibria and the two
    ends of the side (the line, infinity).  An end's level is B's limit
    there, +-inf unless H is finite on the line."""

    fi: FirstIntegral          # H, whose levels the plane reads
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


def tau_plane(wp: WaveParams, cen: EquilibriumCensus = None, fi=None) -> Plane:
    """The tau plane, where H is the first integral and the singular line
    is invariant."""
    cen = cen if cen is not None else census(wp)
    fi = fi if fi is not None else build_first_integral(wp)
    s, a, log_c = float(fi.line), float(fi.y2_coeff), float(fi.log_coeff)
    # B's limits: at the line its poles, then its log, dominate; far out its
    # powers (f's phi^2 term keeps one nonzero)
    poles = [(-j, float(c)) for j, c in fi.pole_coeffs]
    powers = [(k, float(c)) for k, c in enumerate(fi.poly_shifted) if k]
    at_line = math.copysign(math.inf, -log_c) if log_c else float(fi.poly_shifted[0])
    return Plane(
        fi=fi,
        pair=tuple(sorted((e for e in cen.line_pair if e.kind == SADDLE),
                          key=lambda e: -e.y)),
        saddles=tuple(e for e in cen.equilibria
                      if e.kind == SADDLE and not e.on_singular_line),
        stops=tuple((e.phi, float(fi.eval(e.phi, 0.0))) for e in cen.axis
                    if not e.on_singular_line),
        line=s,
        sides=(("left", math.copysign(1.0, a * (-1.0) ** fi.y2_power),
                ((-math.inf, _limit(powers, -1.0, None)), (s, _limit(poles, -1.0, at_line)))),
               ("right", math.copysign(1.0, a),
                ((s, _limit(poles, 1.0, at_line)), (math.inf, _limit(powers, 1.0, None))))))


def _profile_plane(wp: WaveParams, cen: EquilibriumCensus) -> Plane:
    """The regular profile plane phi' = y, y' = 2 g(phi) of the reduced
    point theta = 1/2, C1 = 0, over H of `reduced(wp)`: with m = -1 it has
    no log or pole, and 4H = Q(phi) - y^2 (`closedform.q_coeffs`), so
    A = -1/4 and B = Q/4 on the one side there is.  Its stops are g's roots.

    The tau plane is useless there: the invariant line phi = 0 passes
    through an equilibrium and severs every orbit crossing it.  Every
    connection in this plane is a homoclinic loop, and no line carries
    saddles, so every closed orbit is smooth.
    """
    fi = build_first_integral(reduced(wp))
    roots = [(r, eval_g_prime(wp, r)) for r, _ in cen.g_roots]
    powers = [(k, float(c)) for k, c in enumerate(fi.poly_shifted) if k]
    return Plane(
        fi=fi, pair=(),
        saddles=tuple(Equilibrium(phi=r, y=0.0, kind=SADDLE, J=-2.0 * gp, trace=0.0)
                      for r, gp in roots if gp > 0.0),
        stops=tuple((r, float(fi.eval(r, 0.0))) for r, _ in roots),
        line=None,
        sides=((None, -1.0, ((-math.inf, _limit(powers, -1.0, None)),
                             (math.inf, _limit(powers, 1.0, None)))),))


def observation_plane(wp: WaveParams, cen: EquilibriumCensus = None, fi=None) -> Plane:
    """The plane the observer counts in, the portrait draws and `wave`
    searches: the profile plane at the reduced point, the tau plane
    elsewhere.  The profile plane ignores `fi`, which at 0 < |C1| <= 1e-9
    carries a tiny log term."""
    cen = cen if cen is not None else census(wp)
    return _profile_plane(wp, cen) if is_reduced_point(wp) else tau_plane(wp, cen, fi)


def canonical_levels(plane: Plane):
    """(critical levels, canonical sample levels) of `plane`: its stops'
    levels and its saddle pair's (finite: a pair needs theta < 1/2, so
    m >= 0), merged, plus midpoint/offset samples around them."""
    crit = {h for _, h in plane.stops}
    if plane.pair:
        crit.add(float(plane.fi.eval(*plane.pair[0].point)))
    crit = sorted(crit)
    hscale = 1.0 + max((abs(h) for h in crit), default=0.0)
    merged = []
    for h in crit:
        if not merged or h - merged[-1] > 1e-10 * hscale:
            merged.append(h)
    return merged, _level_samples(merged)


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
    end: str                   # how the walk ended (see walk_separatrix)
    branch: LevelBranch        # the run from the saddle to its end
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
        # same level: equal to 1e-10 of the larger of the two levels, so a
        # center's small level stays apart from a pair's level 0
        stops = tuple((phi, abs(level - h) <= 1e-10 * max(abs(level), abs(h)))
                      for phi, level in plane.stops)
        for side, a, (_, b) in (("left", a_lo, lo), ("right", a_hi, hi)):
            end, branch = walk_separatrix(y2, eq.phi, side, stops=stops, line=plane.line,
                                          far=a * math.copysign(1.0, h - b))
            yield Connection(kind=kind, saddle=eq, side=side, h=h, end=end,
                             branch=branch, y2=y2)


def observe_wave_menu(wp: WaveParams, cen: EquilibriumCensus = None, fi=None):
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
    plane = observation_plane(wp, cen, fi)
    diag = [] if plane.line is not None else [
        {"kind": "plane", "note": "profile plane (reduced system)"}]

    peakon = solitary = 0
    for conn in saddle_connections(plane):
        if conn.kind == "arch":
            entry = {"kind": "arch", "side": conn.side, "tag": conn.tag,
                     "end": conn.end}
            if conn.hit:
                peakon += 1
                entry.update(jump=2.0 * abs(conn.saddle.y),
                             xi_extent=branch_period(conn.y2, conn.branch))
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


def _near_window_edge(wp: WaveParams, label: RegionLabel, rel=1e-3) -> bool:
    """T1 samples whose singular line sits within rel of a window edge
    have marginal geometry (vanishing arches); flagged, not scored."""
    if label.theorem != "T1":
        return False
    s = float(wp.singular_line)
    edges = [0.0] + list(label.phi_roots)
    return any(abs(s - e) <= rel * (1.0 + abs(e)) for e in edges)


def _sweep_one(base, c1):
    wp = replace(base, C1=float(c1))
    cen = census(wp)
    label = classify_region(wp, cen)
    # census boundaries are degenerate portraits -- except at T3, where the
    # line-through-equilibrium configuration is the covered case itself
    structural = cen.is_boundary and label.theorem != "T3"
    boundary = label.boundary or structural or _near_window_edge(wp, label)
    predicted = None if label.boundary else predict_wave_menu(label)
    observed, diag = observe_wave_menu(wp, cen)
    agreement = None
    if not boundary and predicted is not None:
        agreement = menu_agrees(predicted, observed)
    return SweepSample(c1=float(c1), label=label, predicted=predicted,
                       observed=observed, agreement=agreement,
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
