"""Jacobi elliptic functions and the complete integral K, ported from Cephes.

Everything is expressed in the PARAMETER m = k^2 (modulus squared), the
convention of `scipy.special.ellipj`/`ellipk`; the closed-form wave
constructions all produce m first.

* `complete_K(m)`: Cephes `ellpk` at x = 1 - m, on [0, 1): Cephes's two
  Horner polynomials in x, K = P(x) - log(x) Q(x), and log 4 - log(x)/2
  for x <= MACHEP.
* `jacobi(u, m)`: Cephes `ellpj` at a float or an array u, except close to
  m = 1.  `ellpj` has three branches: a first-order expansion about m = 0
  for m < 1e-9, one about m = 1 for m >= 0.9999999999, and between them
  the arithmetic-geometric mean (AGM) scale of A&S 16.4 with its descending
  recurrence for the amplitude.  The expansion about m = 1 holds only for
  |u| <= K (at m = 1 - 4.4e-13, u = 2K it gives cn = -2).  There u is
  first reduced into [-K, K], where sn and cn change sign per half period
  2K, and one descending Landen step (A&S 16.12.2-4) moves the parameter
  to r^2 <= 1 - 4e-8, below that switch.

Both run on Python floats, whose `math` functions are the C library's, and
give `scipy.special`'s bits (the tests pin them against it); so no scipy
module is needed.  Where C's arithmetic gives inf or nan, `math` raises;
the ports give C's value there instead.  One nan of scipy's is not
followed: at m = 1 and finite |u| > 355.58, where cosh(u)^2 overflows and
`ellipj` gives (nan, nan, nan), `jacobi` gives the limits tanh u and
1/cosh u, the values that m = 1 gives at every smaller |u|.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["complete_K", "jacobi"]

MACHEP = 1.11022302462515654042e-16   # Cephes's machine epsilon, 2**-53
_NEAR_ZERO = 1e-9                     # where ellpj switches to its expansion about m = 0
_NEAR_ONE = 0.9999999999              # ... and to its expansion about m = 1
_AGM_STEPS = 8                        # ellpj's most AGM steps
_LOG4 = 1.3862943611198906188         # Cephes's log(4)

# ellpk's Horner coefficients, highest power first
_P = (1.37982864606273237150e-4, 2.28025724005875567385e-3, 7.97404013220415179367e-3,
      9.85821379021226008714e-3, 6.87489687449949877925e-3, 6.18901033637687613229e-3,
      8.79078273952743772254e-3, 1.49380448916805252718e-2, 3.08851465246711995998e-2,
      9.65735902811690126535e-2, 1.38629436111989062502e0)
_Q = (2.94078955048598507511e-5, 9.14184723865917226571e-4, 5.94058303753167793257e-3,
      1.54850516649762399335e-2, 2.39089602715924892727e-2, 3.01204715227604046988e-2,
      3.73774314173823228969e-2, 4.88280347570998239232e-2, 7.03124996963957469739e-2,
      1.24999999999870820058e-1, 4.99999999999999999821e-1)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ellpk(x):
    """Cephes `ellpk`: K at the complementary parameter x = 1 - m in (0, 1]."""
    if x > MACHEP:
        return _polevl(x, _P) - math.log(x) * _polevl(x, _Q)
    return _LOG4 - 0.5 * math.log(x)


def _cosh_sinh(u):
    """cosh u and sinh u, infinite where C's overflow (|u| > ~710.5)."""
    try:
        return math.cosh(u), math.sinh(u)
    except OverflowError:
        return math.inf, math.copysign(math.inf, u)


def _near_zero(us, m):
    out = []
    for u in us:
        t, b = math.sin(u), math.cos(u)
        ai = 0.25 * m * (u - t * b)
        out.append((t - ai * b, b + ai * t, 1.0 - 0.5 * m * t * t))
    return out


def _near_one(us, m):
    q = 0.25 * (1.0 - m)
    out = []
    for u in us:
        b, s = _cosh_sinh(u)
        t = math.tanh(u)
        phi = 1.0 / b
        if b * b == math.inf:   # only m = 1 comes here (`jacobi`): the limits, where C gives nan
            out.append((t, phi, phi))
            continue
        twon = b * s
        ai = q * (t * phi)
        out.append((t + q * (twon - u) / (b * b), phi - ai * (twon - u), phi + ai * (twon + u)))
    return out


def _agm(us, m):
    # the AGM ladder depends on m alone: the scale 2^n a_n and the rungs
    # (c_i, a_i) from the last to the first
    a, c = [1.0], [math.sqrt(m)]
    b, twon = math.sqrt(1.0 - m), 1.0
    while abs(c[-1] / a[-1]) > MACHEP and len(a) <= _AGM_STEPS:
        ai = a[-1]
        c.append((ai - b) / 2.0)
        a.append((ai + b) / 2.0)
        b = math.sqrt(ai * b)
        twon *= 2.0
    scale = twon * a[-1]
    rungs = list(zip(c[:0:-1], a[:0:-1]))
    sin, cos, asin = math.sin, math.cos, math.asin
    out = []
    for u in us:
        phi = scale * u
        for ci, ai in rungs:
            b = phi
            phi = (asin(ci * sin(phi) / ai) + phi) / 2.0
        sn, cn = sin(phi), cos(phi)
        # Cephes takes dn from sn where cos(phi - b) is small (DLMF 22.20.5)
        cb = cos(phi - b)
        out.append((sn, cn, math.sqrt(1.0 - m * sn * sn) if abs(cb) < 0.1 else cn / cb))
    return out


def _ellpj(u, m):
    """Cephes `ellpj`'s (sn, cn, dn) at each u, as `scipy.special.ellipj`
    returns them: arrays for an array u, `np.float64` for a scalar."""
    u = np.asarray(u, dtype=float)
    us = u.ravel().tolist()
    finite = [x for x in us if math.isfinite(x)]
    branch = _near_zero if m < _NEAR_ZERO else _near_one if m >= _NEAR_ONE else _agm
    values = iter(branch(finite, m))
    # C gives nan at a non-finite u in every branch: sin(inf), or inf - inf near m = 1
    nan3 = (math.nan,) * 3
    rows = [next(values) if math.isfinite(x) else nan3 for x in us]
    columns = np.array(rows, dtype=float).reshape(-1, 3).T
    return tuple(np.ascontiguousarray(col).reshape(u.shape)[()] for col in columns)


def complete_K(m) -> float:
    """Complete elliptic integral K(m) for parameter m in [0, 1)."""
    m = float(m)
    if not (0.0 <= m < 1.0):
        raise ValueError(f"complete_K requires 0 <= m < 1, got {m}")
    return _ellpk(1.0 - m)


def jacobi(u, m):
    """(sn, cn, dn) at real argument(s) u for parameter m in [0, 1].

    At m = 1 it gives (tanh u, sech u, sech u) for every finite u, also
    past |u| = 355.58, where `ellipj` gives (nan, nan, nan): Cephes's
    expansion about m = 1 divides by cosh(u)^2, which overflows there."""
    m = float(m)
    if not (0.0 <= m <= 1.0):
        raise ValueError(f"jacobi requires 0 <= m <= 1, got {m}")
    if not _NEAR_ONE <= m < 1.0:
        return _ellpj(u, m)
    half = 2.0 * _ellpk(1.0 - m)
    n = np.rint(np.divide(u, half))
    sign = 1.0 - 2.0 * (n % 2.0)
    kp = math.sqrt(1.0 - m)
    r = (1.0 - kp) / (1.0 + kp)
    sv, cv, dv = _ellpj((u - n * half) / (1.0 + r), r * r)
    d = 1.0 + r * sv * sv
    return sign * (1.0 + r) * sv / d, sign * cv * dv / d, (1.0 - r * sv * sv) / d
