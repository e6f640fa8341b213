"""The level walk: orbits read off the level curves of the first integral,
with numpy alone.

Between two equilibria on the axis B is monotone, so y^2 = (h - B)/A changes
sign at most once there: `walk_level` walks a level one stretch of one sign
of y^2 at a time, from a saddle on its own level (`saddle_level_fn`) to find
its connections, or over a whole level.  `level_branch` samples a run of
y^2 > 0 as a `LevelBranch` on one fixed grid; a closed branch off the
singular line is a periodic orbit, and `branch_period` takes its xi-period
by Gauss-Legendre quadrature, from rules tabulated once per node count and
panel edges, with the first two rules' y^2 taken in one call.  Turning
points are bracketed and refined by `brentq`, a port of scipy's, so that
reading a level loads no scipy module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count

import numpy as np

from .field import FirstIntegral, _taylor_shift

__all__ = [
    "LevelBranch",
    "brentq",
    "branch_period",
    "saddle_level_fn",
    "level_branch",
    "walk_level",
]

# how a walk's stretch ends (`walk_level`)
TURNING_POINT = "turning-point"
DOUBLE_ROOT = "double-root"
SINGULAR_LINE = "singular-line"
ESCAPE = "escape"

# the wave a saddle connection projects to
PEAKON = "Peakon"
ANTI_PEAKON = "AntiPeakon"
SOLITARY = "Solitary"

# `level_branch`'s 257 points from 0 to 1, gathered at both ends
_BRANCH_GRID = 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, 257)))
_BRANCH_GRID.flags.writeable = False


def brentq(f, a, b, xtol=2e-12, rtol=4 * sys.float_info.epsilon, maxiter=100):
    """A root of f on [a, b] by Brent's method, as scipy.optimize.brentq
    finds it, bit for bit: its C loop (Zeros/brentq.c) line for line, with
    its wrapper's errors.  ValueError when f(a) and f(b) have the same sign
    or f gives NaN, RuntimeError after `maxiter` iterations."""

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:   # C's quotient is inf or nan, and bisects
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            short = 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound)
        if short:   # good short step
            spre, scur = scur, stry
        else:       # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


@dataclass
class LevelBranch:
    phi: np.ndarray       # ascending
    y: np.ndarray         # nonnegative branch; full curve is the +- mirror
    closed: bool          # y = 0 at both ends: turning points or equilibria

    @property
    def phi_range(self):
        return float(self.phi[0]), float(self.phi[-1])

    def interior_point(self):
        i = int(np.argmax(self.y))
        return float(self.phi[i]), float(self.y[i])


@lru_cache(maxsize=8)
def _gauss_legendre(n):
    return np.polynomial.legendre.leggauss(n)


@lru_cache(maxsize=16)
def _panel_rule(n, edges):
    """The n-node rule on each t-panel between successive `edges`: sin t and
    cos t at its nodes and its weights 0.5 (t1 - t0) w, (panels, n) each."""
    x, w = _gauss_legendre(n)
    t0, t1 = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
    t = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)
    rule = np.sin(t), np.cos(t), 0.5 * (t1 - t0) * w
    for table in rule:
        table.flags.writeable = False
    return rule


def branch_period(y2, branch: LevelBranch) -> float | None:
    """xi-period 2 * integral of dphi / y over a closed branch (dxi = dphi / y
    off the singular line), or None when the quadrature does not converge or
    y^2 is not positive and finite at one of its nodes.

    The substitution phi = mid + half sin t removes the inverse-square-root
    singularity at the turning points.  The t-range is cut into
    Gauss-Legendre panels at the branch's interior local minima of y, where
    a level near a saddle pinches the orbit and 1/y peaks; without the cuts
    a 64-node rule is off by up to 9 % near separatrix levels.  The node count
    per panel doubles from 32 to at most 1024 until two successive sums agree
    to 1e-9 relative; the rules are tabulated once per (n, panel edges)
    (`_panel_rule`), y^2 is taken on the first two rules' nodes in one call,
    and each rule sums its own (panels, n) product.  Tiny orbits around a
    center at a level just off the center's can miss that: there y^2 =
    (h - B)/A is a difference of nearly equal numbers, and its rounding
    moves the sums by about 1e-8.
    """
    a, b = branch.phi_range
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    y = branch.y
    dips = np.flatnonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:])) + 1
    cuts = np.arcsin(np.clip((branch.phi[dips] - mid) / half, -1.0, 1.0))
    edges = (-0.5 * math.pi, *cuts.tolist(), 0.5 * math.pi)
    nodes = np.concatenate([_panel_rule(n, edges)[0] for n in (32, 64)], axis=1)
    first = np.split(y2(mid + half * nodes), [32], axis=1)
    prev = None
    for n in (32, 64, 128, 256, 512, 1024):
        sin_t, cos_t, weights = _panel_rule(n, edges)
        v = first.pop(0) if first else y2(mid + half * sin_t)
        if not np.all((v > 0.0) & (v < math.inf)):
            return None
        total = float(np.sum(weights * (half * cos_t / np.sqrt(v)))) * 2.0
        if prev is not None and abs(total - prev) <= 1e-9 * abs(total):
            return total
        prev = total
    return None


def saddle_level_fn(fi: FirstIntegral, phi0: float, on_line: bool = False, h: float = None):
    """phi -> y^2 on the level H = h (default: the level through phi0, on the
    axis or, `on_line`, on the line), without the cancellation of h - B next
    to phi0.  Plain arithmetic on whatever it is given: a float, or an array
    of phi.

    Through phi0, h = B(phi0) for an axis equilibrium (y = 0), and for the
    singular-line pair (`on_line`, m >= 0: A vanishes on the line), so
    y^2 = -(B(phi) - B(phi0))/A(phi).  The difference is taken term by term
    about phi0: the polynomial part Taylor-shifted to u = phi - phi0 with
    its constant dropped, the logarithm as log1p(u/w0), each pole's
    difference w^-j - w0^-j with its factor u taken out.  On the line the
    quotient is the polynomial -(sum_(i > m) b_i w^(i-m-1))/a, which passes
    through the line with the pair's own y*^2.  Another level h adds
    (h - B(phi0))/A(phi).  Nothing guards the line itself, where a float
    divides by zero: `walk_level` stops 1e-12 (1 + |line|) short of it.
    """
    line, a, p = float(fi.line), float(fi.y2_coeff), fi.y2_power
    poly = [float(c) for c in fi.poly_shifted]
    if on_line:
        if fi.singular_on_line:
            raise ValueError("H has no finite level on the singular line")
        phi0, d = line, poly[p:][::-1]     # no log, no pole: H is a polynomial
    else:
        d = _taylor_shift(poly, phi0 - line)[::-1]
        d[-1] = 0.0
    w0 = phi0 - line
    dh = None if h is None else h - float(fi.eval(phi0, 0.0))
    log_c = float(fi.log_coeff)
    poles = [(j, float(c)) for j, c in fi.pole_coeffs]

    def y2(phi):
        u, w = phi - phi0, phi - line
        dB = 0.0
        for c in d:              # Horner, step for step as np.polyval
            dB = dB * u + c
        if log_c:
            dB = dB + log_c * np.log1p(u / w0)
        for j, c in poles:       # w^-j - w0^-j = -u sum(w^k w0^(j-1-k)) / (w w0)^j
            dB = dB - c * u * sum(w**k * w0 ** (j - 1 - k) for k in range(j)) / (w * w0) ** j
        out = -dB / a if on_line else -dB / (a * w**p)
        return out if dh is None else out + dh / (a * w**p)

    return y2


def level_branch(y2, a, b, closed) -> LevelBranch:
    """The branch y = sqrt(y^2) of a run, at 257 points from a to b gathered
    at both ends (`_BRANCH_GRID`)."""
    phi = a + (b - a) * _BRANCH_GRID
    return LevelBranch(phi=phi, y=np.sqrt(np.maximum(y2(phi), 0.0)), closed=closed)


def walk_level(y2, phi0, sgn, *, stops, line, far, on_level):
    """Walk y^2 from phi0 in the direction sgn (+-1) to the line or to
    infinity, yielding (sign, end, phi) per stretch of one sign of y^2: it
    ends at a simple root ("turning-point"), a stop on the level
    ("double-root"), the line ("singular-line") or infinity ("escape").
    `stops` are (phi, on the level) for the axis equilibria; between two,
    h - B is monotone, so y^2 changes sign at most once and brentq refines
    it; past the last, y^2 tends to the sign `far`, and doubling steps
    bracket a root.  No orbit crosses `line` (None: none).  A start on the
    level (a saddle, a turning point) reads the sign at the first gap's
    midpoint (past the last stop, `far`), as h - B keeps one sign on that
    gap; any other start reads its own."""
    marks = [(p, DOUBLE_ROOT if same else None) for p, same in stops]
    if line is not None:
        marks.append((line - sgn * 1e-12 * (1.0 + abs(line)), SINGULAR_LINE))
    end = None
    while end not in (SINGULAR_LINE, ESCAPE):
        ahead = sorted((m for m in marks if sgn * (m[0] - phi0) > 0), key=lambda m: sgn * m[0])
        prev = 0.5 * (phi0 + ahead[0][0]) if on_level and ahead else phi0
        sign = far if on_level and not ahead else (1.0 if y2(prev) > 0.0 else -1.0)
        last = ahead[-1][0] if ahead else prev
        # past the last stop: infinity, or marks at steps 1, 2, 4, ... (1 + |last|) out
        tail = ([(sgn * math.inf, ESCAPE)] if sign * far > 0.0 else
                ((last + sgn * (2.0**k - 1.0) * (1.0 + abs(last)), None) for k in count(1)))
        for phi0, end in chain(ahead, tail):
            if end not in (DOUBLE_ROOT, ESCAPE) and not sign * y2(phi0) > 0.0:
                phi0, end = brentq(y2, prev, phi0, xtol=1e-14, rtol=1e-15), TURNING_POINT
            if end is not None:
                break
            prev = phi0
        yield sign, end, phi0
        on_level = True
