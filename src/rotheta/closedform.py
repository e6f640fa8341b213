"""Closed-form traveling-wave profiles for theta = 1/2 with the singular
line through the origin (C1 = 0).

This module owns that reduced point: `is_reduced_point` takes |C1| <= 1e-9
as C1 = 0, and every entry point computes on the `reduced` parameters, where
the profile equation collapses to phi'' = 2 g(phi) with the orbit polynomial

    (phi')^2 = P(phi) = C3 phi^4 + (4 C2 / 3) phi^3 + phi^2 + 4 K phi - 4 h

on the level H = h.  Q = P + 4h and the profile equation are both taken
from g's coefficient row (`field.g_coeffs`), Q by integrating 4 g term by
term.  The root configuration of P dictates the wave family, and
`closed_form_menu` alone reads it, once per level:

* two simple real roots + a complex pair  -> one periodic orbit, cn-shaped;
* four simple real roots                  -> two periodic orbits, sn-shaped
  (right orbit on [p2, p1], left orbit on [p4, p3]);
* a double middle root                    -> two solitary waves homoclinic
  to the double root (right hump to p1, left dip to p3).

Each pair's two sides share one formula, with the modulus, frequency and
period derived from the roots once per pair.  Periodic profiles evaluate a
whole array of xi in one `elliptic.jacobi` call, solitary ones in one
`np.cosh`; `ode_residual` provides the finite-difference check that a
profile actually satisfies the equation, independent of how it was derived.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .elliptic import complete_K, jacobi
from .field import g_coeffs
from .params import WaveParams
from .polyroots import REL_TOL, merge_close_roots, quartic_roots

__all__ = [
    "OrbitPolynomial",
    "WaveSolution",
    "is_reduced_point",
    "reduced",
    "q_coeffs",
    "params_from_roots",
    "orbit_polynomial",
    "closed_form_menu",
    "ode_residual",
    "profile_rhs",
]


def is_reduced_point(wp: WaveParams) -> bool:
    """theta = 1/2 with the singular line through the origin: |C1| <= 1e-9."""
    return wp.theta == Fraction(1, 2) and abs(float(wp.C1)) <= 1e-9


def reduced(wp: WaveParams) -> WaveParams:
    """`wp` with C1 = 0.0 exactly; ValueError off the reduced point."""
    if not is_reduced_point(wp):
        raise ValueError("closed forms require theta = 1/2 with |C1| <= 1e-9")
    return replace(wp, C1=0.0)


def q_coeffs(wp: WaveParams) -> tuple:
    """Descending coefficients of Q = P + 4 h, the antiderivative of 4 g,
    integrated term by term from g's row (`field.g_coeffs`)."""
    q = [4.0 * c / (k + 1) for k, c in enumerate(g_coeffs(reduced(wp)))]
    return (*reversed(q), 0.0)


def params_from_roots(roots):
    """(WaveParams, h) at the reduced point whose orbit polynomial has exactly
    `roots`, complex ones in conjugate pairs (its phi^2 term fixes the scale)."""
    p = np.real(np.poly(list(roots)))
    C3 = 1.0 / p[2]
    wp = WaveParams(theta=Fraction(1, 2), C1=0.0,
                    C2=0.75 * C3 * p[1], C3=C3, K=0.25 * C3 * p[3])
    return wp, -0.25 * C3 * p[4]


def profile_rhs(wp: WaveParams):
    """Planar RHS (phi, y) -> (y, 2 g(phi)) of the reduced profile equation."""
    K, half, C2, C3 = g_coeffs(reduced(wp))

    def rhs(_t, x):
        phi, y = x
        return (y, 2.0 * (K + phi * (half + phi * (C2 + phi * C3))))

    return rhs


@dataclass(frozen=True)
class OrbitPolynomial:
    """P(phi) = (phi')^2 on a level h, with its factored real structure."""

    coeffs: tuple          # descending, degree 4
    h: float
    real_roots: tuple      # (root, multiplicity), ascending
    complex_pairs: tuple   # upper-half-plane representatives

    @property
    def lead(self) -> float:
        return self.coeffs[0]

    def __call__(self, phi):
        return np.polyval(self.coeffs, phi)


CUBIC_P = "C3 = 0: the orbit polynomial P is a cubic, and the closed forms need a quartic"


def orbit_polynomial(wp: WaveParams, h: float) -> OrbitPolynomial:
    """P on the level h, factored; ValueError at C3 = 0 (`CUBIC_P`)."""
    coeffs = q_coeffs(wp)[:4] + (-4.0 * h,)
    if coeffs[0] == 0.0:
        raise ValueError(CUBIC_P)
    reals, pairs = quartic_roots(*coeffs)
    merged = merge_close_roots(reals)
    _validate_factorization(coeffs, merged, pairs)
    return OrbitPolynomial(coeffs=coeffs, h=h, real_roots=tuple(merged),
                           complex_pairs=tuple(pairs))


def _validate_factorization(coeffs, merged, pairs):
    """Reassemble lead * prod(phi - r) and compare against the coefficients."""
    poly = [1.0]
    for r, mult in merged:
        for _ in range(mult):
            poly = np.convolve(poly, [1.0, -r])
    for z in pairs:
        poly = np.convolve(poly, [1.0, -2.0 * z.real, abs(z) ** 2])
    poly = np.asarray(poly) * coeffs[0]
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    err = float(np.max(np.abs(poly - np.asarray(coeffs)))) / scale
    if err > 1e-9 + 10 * REL_TOL:
        raise ArithmeticError(
            f"quartic factorization failed to reassemble (residual {err:.3e})")


@dataclass
class WaveSolution:
    kind: str                  # cn-periodic | sn-periodic-right | sn-periodic-left
    #                          | solitary-right | solitary-left
    wp: WaveParams
    h: float
    modulus_m: float           # parameter m = k^2; NaN for solitary
    omega: float
    period: float | None       # in xi; None for solitary waves
    phi_range: tuple           # (min, max) attained by the profile
    roots: tuple               # the roots entering the formula, descending
    profile: Callable = field(repr=False, compare=False)   # float array xi -> phi
    detail: str = ""

    def __call__(self, xi):
        return self.profile(np.asarray(xi, dtype=float))


def closed_form_menu(wp: WaveParams, h: float):
    """All closed-form profiles available on the level H = h.

    Returns a list of WaveSolution (possibly empty: levels whose bounded
    component degenerates to a point, or root patterns outside the three
    catalogued configurations, yield no profile).  This is the one place
    that reads the level's root pattern.
    """
    wp = reduced(wp)
    pol = orbit_polynomial(wp, h)
    simple = sorted(r for r, mult in pol.real_roots if mult == 1)
    double = [r for r, mult in pol.real_roots if mult == 2]
    if not double and len(simple) == 2 and pol.complex_pairs:
        return [_cn(wp, pol, *simple)]
    if not double and len(simple) == 4:
        return _sn_pair(wp, pol, *simple)
    if len(double) == 1 and len(simple) == 2 and simple[0] < double[0] < simple[1]:
        return _solitary_pair(wp, pol, simple[0], double[0], simple[1])
    return []   # an outermost double root bounds no orbit of positive length


def _cn(wp: WaveParams, pol: OrbitPolynomial, p2, p1) -> WaveSolution:
    """Periodic orbit between the real roots p1 > p2, complex pair present.

    With b +- a i the complex pair, A = |lead|:
        A1 = sqrt((p1-b)^2 + a^2),  B1 = sqrt((p2-b)^2 + a^2),
        m  = ((p1-p2)^2 - (A1-B1)^2) / (4 A1 B1),
        omega = sqrt(A * A1 * B1),
        phi = (p1 B1 (1-cn) + p2 A1 (1+cn)) / ((A1+B1) + (A1-B1) cn),
    cn = cn(omega xi | m); phi(0) = p2, phi(2K/omega) = p1, period 4K/omega.
    """
    z = pol.complex_pairs[0]
    b1, a1 = z.real, abs(z.imag)
    A1, B1 = math.hypot(p1 - b1, a1), math.hypot(p2 - b1, a1)
    m = min(max(((p1 - p2) ** 2 - (A1 - B1) ** 2) / (4.0 * A1 * B1), 0.0), 1.0)
    omega = math.sqrt(abs(pol.lead) * A1 * B1)

    def profile(xi):
        cn = jacobi(omega * xi, m)[1]
        return (p1 * B1 * (1.0 - cn) + p2 * A1 * (1.0 + cn)) / \
               ((A1 + B1) + (A1 - B1) * cn)

    return WaveSolution(kind="cn-periodic", wp=wp, h=pol.h, modulus_m=m,
                        omega=omega, period=4.0 * complete_K(m) / omega,
                        phi_range=(p2, p1), roots=(p1, p2, complex(b1, a1)),
                        profile=profile,
                        detail="oscillates between the two real turning points")


def _sn_pair(wp: WaveParams, pol: OrbitPolynomial, p4, p3, p2, p1) -> list:
    """The two periodic orbits of four simple real roots p1 > p2 > p3 > p4.

    Both share
        m = (p1-p2)(p3-p4) / ((p1-p3)(p2-p4)),
        omega = sqrt(A (p1-p3)(p2-p4)) / 2,   A = |lead|,
    and period 2K(m)/omega (the formulas depend on sn^2), and each is
        phi = (a + b sn^2) / ((p1-p3) + d sn^2):
    right orbit on [p2, p1]: a = p2 (p1-p3), b = -p3 (p1-p2), d = -(p1-p2);
    left orbit on [p4, p3]:  a = p4 (p1-p3), b = p1 (p3-p4),  d = p3-p4.
    """
    m = min(max((p1 - p2) * (p3 - p4) / ((p1 - p3) * (p2 - p4)), 0.0), 1.0)
    omega = 0.5 * math.sqrt(abs(pol.lead) * (p1 - p3) * (p2 - p4))
    period = 2.0 * complete_K(m) / omega

    def side(name, a, b, d, phi_range):
        def profile(xi):
            sn2 = jacobi(omega * xi, m)[0] ** 2
            return (a + b * sn2) / ((p1 - p3) + d * sn2)

        return WaveSolution(kind=f"sn-periodic-{name}", wp=wp, h=pol.h, modulus_m=m,
                            omega=omega, period=period, phi_range=phi_range,
                            roots=(p1, p2, p3, p4), profile=profile,
                            detail=f"{name} orbit of the four-real-root level")

    return [side("right", p2 * (p1 - p3), -(p3 * (p1 - p2)), -(p1 - p2), (p2, p1)),
            side("left", p4 * (p1 - p3), p1 * (p3 - p4), p3 - p4, (p4, p3))]


def _solitary_pair(wp: WaveParams, pol: OrbitPolynomial, p3, d, p1) -> list:
    """The two homoclinic profiles of roots p1 > d (double) > p3, A = |lead|.

    With a = (p1-d)(d-p3), b = p1 - 2d + p3, omega = sqrt(A a):
        phi = d + s 2a / ((p1-p3) cosh(omega xi) - s b),
    the right hump (s = 1, phi(0) = p1) and the left dip (s = -1,
    phi(0) = p3), both tending to the double root d as |xi| -> infinity.
    """
    a, b = (p1 - d) * (d - p3), p1 - 2.0 * d + p3
    omega = math.sqrt(abs(pol.lead) * a)

    def side(name, s, phi_range):
        def profile(xi):
            return d + s * (2.0 * a / ((p1 - p3) * np.cosh(omega * xi) - s * b))

        return WaveSolution(kind=f"solitary-{name}", wp=wp, h=pol.h,
                            modulus_m=float("nan"), omega=omega, period=None,
                            phi_range=phi_range, roots=(p1, d, p3), profile=profile,
                            detail=f"homoclinic to phi = {d:.6g}, decay rate {omega:.6g}")

    return [side("right", 1.0, (d, p1)), side("left", -1.0, (p3, d))]


def ode_residual(sol: WaveSolution, halfwidth: float = None) -> float:
    """Max relative defect of phi'' = 2 g(phi) at 41 points along the
    profile: over 0.9 of a period, or over `halfwidth` (default 6 / omega)
    each side of a solitary wave's peak.

    Second derivatives are taken by central differences with one Richardson
    sweep at step 4e-3 / max(1, omega); the residual is scaled by
    max(1, |2 g(phi)|) pointwise.  Also checks (phi')^2 = P(phi) the same
    way at step 1e-5 / max(1, omega) and returns the larger defect.
    """
    pol = orbit_polynomial(sol.wp, sol.h)
    if sol.period is not None:
        halfwidth = 0.45 * sol.period
    elif halfwidth is None:
        halfwidth = 6.0 / sol.omega
    xi = np.linspace(-halfwidth, halfwidth, 41)

    h2 = 4e-3 / max(1.0, sol.omega)
    h1 = 1e-5 / max(1.0, sol.omega)

    def second(x, hh):
        return (sol(x + hh) - 2.0 * sol(x) + sol(x - hh)) / (hh * hh)

    def first(x, hh):
        return (sol(x + hh) - sol(x - hh)) / (2.0 * hh)

    d2 = (4.0 * second(xi, h2 / 2) - second(xi, h2)) / 3.0
    d1 = (4.0 * first(xi, h1 / 2) - first(xi, h1)) / 3.0
    phi = sol(xi)
    g2 = profile_rhs(sol.wp)(0.0, (phi, 0.0))[1]
    res2 = np.abs(d2 - g2) / np.maximum(1.0, np.abs(g2))
    res1 = np.abs(d1 * d1 - pol(phi)) / np.maximum(1.0, np.abs(pol(phi)))
    return float(max(res2.max(), res1.max()))
