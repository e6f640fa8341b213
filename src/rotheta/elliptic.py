"""Jacobi elliptic functions and the complete integral K, from scipy.special.

Everything is expressed in the PARAMETER m = k^2 (modulus squared), the
convention of `scipy.special.ellipj`/`ellipk`; the closed-form wave
constructions all produce m first.

* `complete_K(m)`: `ellipk` on [0, 1).
* `jacobi(u, m)`: `ellipj` at a float or an array u, except close to m = 1.
  For m >= 0.9999999999 `ellipj` switches to a first-order expansion about
  m = 1 that holds only for |u| <= K (at m = 1 - 4.4e-13, u = 2K it gives
  cn = -2).  There u is first reduced into [-K, K], where sn and cn change
  sign per half period 2K, and one descending Landen step (A&S 16.12.2-4)
  moves the parameter to r^2 <= 1 - 4e-8, below that switch.

Both import `scipy.special` when called, so that importing the package
loads no scipy module.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["complete_K", "jacobi"]

_NEAR_ONE = 0.9999999999   # where ellipj switches to its expansion about m = 1


def complete_K(m) -> float:
    """Complete elliptic integral K(m) for parameter m in [0, 1)."""
    from scipy.special import ellipk

    m = float(m)
    if not (0.0 <= m < 1.0):
        raise ValueError(f"complete_K requires 0 <= m < 1, got {m}")
    return float(ellipk(m))


def jacobi(u, m):
    """(sn, cn, dn) at real argument(s) u for parameter m in [0, 1]."""
    from scipy.special import ellipj, ellipk

    m = float(m)
    if not (0.0 <= m <= 1.0):
        raise ValueError(f"jacobi requires 0 <= m <= 1, got {m}")
    if not _NEAR_ONE <= m < 1.0:
        sn, cn, dn, _ph = ellipj(u, m)
        return sn, cn, dn
    half = 2.0 * float(ellipk(m))
    n = np.rint(np.divide(u, half))
    sign = 1.0 - 2.0 * (n % 2.0)
    kp = math.sqrt(1.0 - m)
    r = (1.0 - kp) / (1.0 + kp)
    sv, cv, dv, _ph = ellipj((u - n * half) / (1.0 + r), r * r)
    d = 1.0 + r * sv * sv
    return sign * (1.0 + r) * sv / d, sign * cv * dv / d, (1.0 - r * sv * sv) / d
