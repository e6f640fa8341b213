"""Equilibrium census and linear classification of the tau-form system.

Equilibria come in two flavors:

* axis equilibria (phi_i, 0) at real roots of f(phi) = phi g(phi);
* a singular-line pair S+- = (s, +-y*) with y*^2 = f(s)/(1/2 - theta),
  s = C1/theta, whenever that right side is positive (so for theta = 1/2
  the pair only degenerates, never exists cleanly).

The census also assigns the parameter-region case label driven by
(K, Delta = 4 C2^2 - 6 C3, and the values of g at its interior critical
points).  The critical points are identified SEMANTICALLY -- local minimum
(g'' > 0) vs local maximum (g'' < 0) -- rather than by a +- root formula,
since for C3 < 0 the formula order flips.

Linearization determinant of the tau-form at an equilibrium:

    J = 2 theta (theta - 1/2) y^2 - (theta phi - C1) f'(phi),
    trace = (3 theta - 1) y.

Saddle if J < 0; center if J > 0 and trace^2 - 4J < 0; node if J > 0 and
trace^2 - 4J > 0; a multiple root is a cusp, and |J| <= tol otherwise
degenerate -- boundary sign decisions are never guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .field import eval_f, eval_f_prime, eval_g, eval_g_double_prime, g_coeffs, tau_rhs
from .params import WaveParams
from .polyroots import REL_TOL, cubic_real_roots, merge_close_roots

__all__ = [
    "Equilibrium",
    "EquilibriumCensus",
    "find_g_roots",
    "g_critical_points",
    "census",
    "linearization_determinant",
    "classify",
]

SADDLE = "Saddle"
CENTER = "Center"
NODE = "Node"
CUSP = "Cusp"
DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class Equilibrium:
    phi: float
    y: float
    kind: str
    J: float
    trace: float
    multiplicity: int = 1
    on_singular_line: bool = False

    @property
    def point(self):
        return (self.phi, self.y)


@dataclass(frozen=True)
class EquilibriumCensus:
    equilibria: tuple
    case_label: str
    g_roots: tuple          # ((root, multiplicity), ...) ascending
    singular_line: float
    is_boundary: bool = False
    boundary_note: str = ""
    g_critical: tuple = (None, None)   # g_critical_points: (phi at g's min, at its max)

    @property
    def axis(self):
        return tuple(e for e in self.equilibria if e.y == 0.0)

    @property
    def line_pair(self):
        return tuple(e for e in self.equilibria if e.on_singular_line and e.y != 0.0)

    def saddles(self):
        return tuple(e for e in self.equilibria if e.kind == SADDLE)

    def centers(self):
        return tuple(e for e in self.equilibria if e.kind == CENTER)


def find_g_roots(wp: WaveParams):
    """Real roots of g(phi) = C3 phi^3 + C2 phi^2 + phi/2 + K as
    (root, multiplicity) pairs, ascending, multiples merged
    (`merge_close_roots`).  Every observation starts from these roots, so
    coefficients whose cubic formula overflows are rejected here, with a
    ValueError that names them."""
    K, half, C2, C3 = row = g_coeffs(wp)
    try:
        roots = cubic_real_roots(*reversed(row))
    except OverflowError:
        # the depressed cubic's discriminant holds (C2/C3)^6, (1/(2 C3))^3 and
        # (K/C3)^2: name the ratio whose power is the largest
        _size, ratio = max((power * (math.log(abs(c)) - math.log(abs(C3))), name)
                          for c, power, name in ((C2, 6, "C2/C3"), (half, 3, "1/(2 C3)"),
                                                 (K, 2, "K/C3")) if c)
        raise ValueError(f"the cubic formula for g's roots overflows at C2 = {C2:g}, "
                         f"C3 = {C3:g}, K = {K:g}: |{ratio}| is too large") from None
    return merge_close_roots(roots)


def g_critical_points(wp: WaveParams):
    """Interior critical points of g as (phi_at_min, phi_at_max); either may
    be None when Delta = 4 C2^2 - 6 C3 <= 0.  Identified by the sign of g''."""
    _, half, C2, C3 = g_coeffs(wp)
    crit = cubic_real_roots(0.0, 3.0 * C3, 2.0 * C2, half)
    phi_min = phi_max = None
    for p in crit:
        if eval_g_double_prime(wp, p) > 0.0:
            phi_min = p
        elif eval_g_double_prime(wp, p) < 0.0:
            phi_max = p
    return phi_min, phi_max


def linearization_determinant(wp: WaveParams, point) -> float:
    """J at a stationary point of the tau-form; raises if `point` is not
    stationary to within 1e-7 (relative to the local field scale)."""
    phi, y = point
    pdot, ydot = tau_rhs(wp)(0.0, (phi, y))
    scale = max(1.0, abs(phi), abs(y)) * max(1.0, abs(float(wp.C3)), abs(float(wp.C2)))
    if math.hypot(pdot, ydot) > REL_TOL * scale:
        raise ValueError(f"({phi}, {y}) is not an equilibrium: |rhs| = {math.hypot(pdot, ydot):.3e}")
    theta = float(wp.theta)
    return 2.0 * theta * (theta - 0.5) * y * y - (theta * phi - float(wp.C1)) * eval_f_prime(wp, phi)


def classify(J: float, trace: float, multiplicity: int = 1, tol: float = 1e-9) -> str:
    """Map (J, trace) to a linear type; a multiple root is Cusp (J there is
    only its merged roots' gap), and |J| <= tol otherwise Degenerate."""
    if multiplicity >= 2 or abs(J) <= tol:
        return CUSP if multiplicity >= 2 else DEGENERATE
    if J < 0.0:
        return SADDLE
    disc = trace * trace - 4.0 * J
    if disc < -tol:
        return CENTER
    if disc > tol:
        return NODE
    return DEGENERATE


def _case_label(wp: WaveParams, phi_min, phi_max):
    """Parameter-region label '1i'..'1v', '2', '3i'..'3iii' plus boundary flag,
    given g's critical points."""
    C2, C3, K = float(wp.C2), float(wp.C3), float(wp.K)
    tol = REL_TOL * max(1.0, abs(C2), abs(C3), abs(float(wp.C1)))
    if abs(K) <= tol:
        q = C2 * C2 - 2.0 * C3  # discriminant of the nonzero-root quadratic
        if q > tol:
            return "3i", False, ""
        if q < -tol:
            return "3iii", False, ""
        return "3ii", abs(q) <= tol, "C2^2 = 2 C3 within tolerance"
    delta = 4.0 * C2 * C2 - 6.0 * C3
    if abs(delta) <= tol:
        return "2", True, "Delta = 4 C2^2 - 6 C3 vanishes within tolerance"
    if delta < 0.0:
        return "2", False, ""
    if phi_min is None or phi_max is None:
        return "2", True, "critical points of g numerically degenerate"
    g_lo = eval_g(wp, phi_min)   # value at the local minimum
    g_hi = eval_g(wp, phi_max)   # value at the local maximum
    if abs(g_hi) <= tol:
        return "1ii", True, "g vanishes at its local maximum"
    if abs(g_lo) <= tol:
        return "1iv", True, "g vanishes at its local minimum"
    if g_hi < 0.0:
        return "1i", False, ""
    if g_lo > 0.0:
        return "1v", False, ""
    return "1iii", False, ""


def census(wp: WaveParams) -> EquilibriumCensus:
    """Full equilibrium census of the tau-form system.

    Returns every axis equilibrium (merging phi = 0 with a g-root when K ~ 0)
    and the singular-line pair when it exists.  `is_boundary` is set when a
    degeneracy prevents a clean classification (line through an equilibrium,
    S+- collapsing onto the axis or typed Cusp/Degenerate, case-label tie).
    g's roots and critical points are kept for `atlas.classify_region`.
    Every tolerance is relative, at `polyroots.REL_TOL`, where roots merge.
    """
    theta = float(wp.theta)
    C1 = float(wp.C1)
    s = C1 / theta
    g_roots = find_g_roots(wp)

    # roots of f = phi * g, with multiplicity of phi = 0 boosted when g(0) ~ 0
    merge_gap = REL_TOL * (1.0 + max((abs(r) for r, _ in g_roots), default=0.0))
    f_roots = []
    zero_mult = 1
    for r, mult in g_roots:
        if abs(r) <= merge_gap:
            zero_mult += mult
        else:
            f_roots.append((r, mult))
    f_roots.append((0.0, zero_mult))
    f_roots.sort()

    boundary = False
    notes = []
    eqs = []
    for phi_i, mult in f_roots:
        denom = theta * phi_i - C1
        on_line = abs(denom) <= REL_TOL * max(1.0, abs(s))
        J = -denom * eval_f_prime(wp, phi_i)
        if on_line:
            boundary = True
            notes.append(f"singular line passes through equilibrium phi = {phi_i:.6g}")
            kind = DEGENERATE
        else:
            kind = classify(J, 0.0, mult, REL_TOL * max(1.0, abs(denom)))
        eqs.append(Equilibrium(phi=phi_i, y=0.0, kind=kind, J=J, trace=0.0,
                               multiplicity=mult, on_singular_line=on_line))

    try:
        s2 = max(1.0, abs(s)) ** 2     # f(s)'s scale
    except OverflowError:
        # |s| > 1.3e154: `build_first_integral`, which builds every plane,
        # rejects such a line, so the census need only return
        s2 = math.inf
    if theta != 0.5:
        v = eval_f(wp, s) / (0.5 - theta)
        vscale = REL_TOL * s2
        if v > vscale:
            ystar = math.sqrt(v)
            J = 2.0 * theta * (theta - 0.5) * v
            for y in (ystar, -ystar):
                tr = (3.0 * theta - 1.0) * y
                kind = classify(J, tr, 1, vscale)
                eqs.append(Equilibrium(phi=s, y=y, kind=kind,
                                       J=J, trace=tr, on_singular_line=True))
            if kind in (CUSP, DEGENERATE):   # both points share J and trace^2
                boundary = True
                notes.append(f"singular-line pair is untyped (J = {J:.3g} within tolerance)")
        elif abs(v) <= vscale:
            boundary = True
            notes.append("singular-line pair collapses onto the axis (f(s) ~ 0)")
    else:
        fs = eval_f(wp, s)
        if abs(fs) <= REL_TOL * s2:
            boundary = True
            notes.append("f vanishes on the singular line (whole-line degeneracy)")

    g_critical = g_critical_points(wp)
    label, label_boundary, label_note = _case_label(wp, *g_critical)
    if label_note:
        notes.append(label_note)
    return EquilibriumCensus(
        equilibria=tuple(eqs),
        case_label=label,
        g_roots=tuple(g_roots),
        singular_line=s,
        is_boundary=boundary or label_boundary,
        boundary_note="; ".join(notes),
        g_critical=g_critical,
    )
