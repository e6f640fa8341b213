"""Closed-form roots of quadratics/cubics/quartics with Newton polish.

Deterministic alternative to companion-matrix eigenvalues: near multiple
roots the closed forms + one or two Newton steps give reproducible results,
and multiplicity is recovered by merging clusters at a relative tolerance.
Coefficients are given descending (a x^3 + b x^2 + c x + d).
"""

from __future__ import annotations

import cmath
import math
import sys

__all__ = [
    "poly_eval",
    "polish",
    "merge_close_roots",
    "quadratic_roots",
    "cubic_real_roots",
    "quartic_roots",
]

REL_TOL = 1e-7      # roots this close (relative) merge; smaller |Im| parts flatten
_POLISH_STEPS = 3   # Newton steps at most per root


def poly_eval(coeffs_desc, x):
    """p(x) by Horner, for a real or a complex x."""
    acc = 0.0
    for c in coeffs_desc:
        acc = acc * x + c
    return acc


def _poly_deriv(coeffs_desc):
    n = len(coeffs_desc) - 1
    return [c * (n - i) for i, c in enumerate(coeffs_desc[:-1])]


def polish(coeffs_desc, x):
    """At most `_POLISH_STEPS` guarded Newton steps on a real or complex
    root estimate.

    A step is kept only when it reduces |p|: at a multiple root an already
    converged estimate has p and p' both at the noise floor, and their ratio
    is an O(1) garbage step that must not be taken.  A step longer than half
    of 1 + |x| (Newton diverging) ends the polish too.
    """
    dcoeffs = _poly_deriv(coeffs_desc)
    span = 1.0 + abs(x)
    p = poly_eval(coeffs_desc, x)
    for _ in range(_POLISH_STEPS):
        if p == 0.0:
            break
        dp = poly_eval(dcoeffs, x)
        if dp == 0.0:
            break
        step = p / dp
        if abs(step) > 0.5 * span:
            break
        trial = x - step
        pt = poly_eval(coeffs_desc, trial)
        if abs(pt) >= abs(p):
            break
        x, p = trial, pt
    return x


def merge_close_roots(roots):
    """Cluster a sorted-or-not list of real roots into (root, multiplicity)
    pairs, ascending.  Two roots merge when they differ by less than
    REL_TOL * (1 + max |root|)."""
    if not roots:
        return []
    rs = sorted(roots)
    gap = REL_TOL * (1.0 + max(abs(r) for r in rs))
    out = []
    cluster = [rs[0]]
    for r in rs[1:]:
        if r - cluster[-1] <= gap:
            cluster.append(r)
        else:
            out.append((math.fsum(cluster) / len(cluster), len(cluster)))
            cluster = [r]
    out.append((math.fsum(cluster) / len(cluster), len(cluster)))
    return out


def quadratic_roots(a, b, c):
    """Real-coefficient quadratic; returns (real_roots, complex_pair_or_None).

    Stable form: the larger root magnitude is computed first, the other via
    the product c/a to avoid cancellation.
    """
    if a == 0.0:
        if b == 0.0:
            return [], None
        return [-c / b], None
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        re = -b / (2.0 * a)
        im = math.sqrt(-disc) / (2.0 * abs(a))
        return [], complex(re, im)
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
    if q == 0.0:
        return [0.0, 0.0], None
    r1 = q / a
    r2 = c / q
    return sorted((r1, r2)), None


def cubic_real_roots(a, b, c, d):
    """All real roots of a x^3 + b x^2 + c x + d (a may be 0), unsorted,
    polished on the original polynomial.  Complex pairs are dropped.
    OverflowError when the depressed cubic's q or discriminant overflows."""
    if a == 0.0:
        real, _ = quadratic_roots(b, c, d)
        return real
    # depress: x = t - b/(3a)
    binv = b / (3.0 * a)
    p = c / a - 3.0 * binv * binv
    q = 2.0 * binv**3 - binv * (c / a) + d / a
    roots_t = []
    if p == 0.0 and q == 0.0:
        roots_t = [0.0, 0.0, 0.0]
    else:
        disc = 0.25 * q * q + p**3 / 27.0  # >0: one real root
        if not (math.isfinite(q) and math.isfinite(disc)):
            raise OverflowError("the cubic formula overflows")
        if disc > 0.0:
            sq = math.sqrt(disc)
            u3 = -0.5 * q - math.copysign(sq, q)
            u = math.copysign(abs(u3) ** (1.0 / 3.0), u3)
            v = -p / (3.0 * u) if u != 0.0 else 0.0
            roots_t = [u + v]
        elif disc < 0.0:
            # three distinct real roots, trigonometric form
            m2 = 2.0 * math.sqrt(-p / 3.0)
            arg = 3.0 * q / (p * m2)
            arg = max(-1.0, min(1.0, arg))
            psi = math.acos(arg)
            roots_t = [m2 * math.cos((psi + 2.0 * math.pi * k) / 3.0) for k in range(3)]
        else:
            if p == 0.0:
                roots_t = [0.0, 0.0, 0.0]
            else:
                r = -1.5 * q / p  # double root
                roots_t = [r, r, -2.0 * r]
    coeffs = [a, b, c, d]
    return [polish(coeffs, t - binv) for t in roots_t]


def quartic_roots(a4, a3, a2, a1, a0):
    """Roots of a quartic, a4 != 0.

    Returns (real_roots, complex_pairs): real roots as a plain list
    (multiplicities NOT merged -- use merge_close_roots), complex_pairs as a
    list of upper-half-plane representatives.  Ferrari's factorization into
    two quadratics via the largest real root of the resolvent cubic, then a
    complex Newton polish on the original polynomial; conjugate pairs with
    |Im| below REL_TOL * (1 + |z|) are flattened to real double roots.
    """
    b, c, d, e = a3 / a4, a2 / a4, a1 / a4, a0 / a4
    shift = 0.25 * b
    p = c - 3.0 * b * b / 8.0
    q = d - 0.5 * b * c + b**3 / 8.0
    r = e - 0.25 * b * d + b * b * c / 16.0 - 3.0 * b**4 / 256.0

    zs = []
    m = max(cubic_real_roots(8.0, 8.0 * p, 2.0 * p * p - 8.0 * r, -q * q)) if q else 0.0
    if m < sys.float_info.min:
        # biquadratic in z^2: q = 0, or q so small that the resolvent's
        # root m ~ q^2 / (2 p^2 - 8 r) underflows; the polish restores q z
        us, upair = quadratic_roots(1.0, p, r)
        cands = list(us)
        if upair is not None:
            cands.extend([upair, upair.conjugate()])
        for u in cands:
            zr = cmath.sqrt(complex(u))
            zs.extend([zr, -zr])
        zs = zs[:4]
    else:
        s2m = math.sqrt(2.0 * m)
        t = q / (2.0 * s2m)
        for sign in (+1.0, -1.0):
            # z^2 -+ s2m z + (p/2 + m +- t)
            beta = -sign * s2m
            gamma = 0.5 * p + m + sign * t
            disc = complex(beta * beta - 4.0 * gamma)
            sq = cmath.sqrt(disc)
            zs.extend([0.5 * (-beta + sq), 0.5 * (-beta - sq)])

    coeffs = [a4, a3, a2, a1, a0]
    zs = [polish(coeffs, z - shift) for z in zs]

    real_roots, complex_pairs = [], []
    used = [False] * len(zs)
    for i, z in enumerate(zs):
        if used[i]:
            continue
        if abs(z.imag) <= REL_TOL * (1.0 + abs(z)):
            real_roots.append(polish(coeffs, z.real))
            used[i] = True
        else:
            # find its conjugate partner
            for j in range(i + 1, len(zs)):
                if not used[j] and abs(zs[j] - z.conjugate()) <= 1e-6 * (1.0 + abs(z)):
                    used[j] = True
                    break
            used[i] = True
            complex_pairs.append(complex(z.real, abs(z.imag)))
    return real_roots, complex_pairs
