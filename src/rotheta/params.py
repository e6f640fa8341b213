"""Parameter derivations for the rotating shallow-water theta-family.

The model is posed in a frame where the rotation rate Omega enters through
the wave-speed constant ``k`` and a chain of reduction constants
(alpha, beta0, beta, omega1, omega2).  A traveling wave u = phi(x - c t)
reduces the PDE to a planar system whose coefficients (C1, C2, C3, K)
are derived here.  All downstream modules consume :class:`WaveParams`.

Conventions
-----------
* ``theta`` is an exact :class:`fractions.Fraction`.  The reduction exponent
  ``m = (1 - 3 theta)/theta`` must be an integer, which holds iff 1/theta is
  a nonzero integer (theta = 1/4 -> m = 1, theta = 1/2 -> m = -1,
  theta = 1 -> m = -2); theta must also be positive.
* The singular line of the reduced system sits at phi = C1/theta.
* Coefficients may be exact (Fraction) or float; arithmetic is generic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

Number = Union[float, Fraction]

__all__ = [
    "CoriolisParams",
    "WaveParams",
    "derive_coriolis",
    "derive_wave_params",
    "parse_theta",
]


@dataclass(frozen=True)
class CoriolisParams:
    """Frame constants derived from the rotation rate Omega."""

    omega_rot: float
    k: float
    alpha: float
    beta0: float
    beta: float
    omega1: float
    omega2: float


@dataclass(frozen=True)
class WaveParams:
    """Coefficients of the traveling-wave reduction.

    The reduced field is f(phi) = C3 phi^4 + C2 phi^3 + phi^2/2 + K phi
    and the singular line sits at phi = C1/theta.
    """

    theta: Fraction
    C1: Number
    C2: Number
    C3: Number
    K: Number
    c: Number | None = None

    def __post_init__(self):
        for name in ("C1", "C2", "C3", "K", "c"):
            v = getattr(self, name)
            if v is None and name == "c":
                continue
            if not isinstance(v, (int, Fraction)) and not math.isfinite(v):
                raise ValueError(f"{name} = {v} is not finite")
        m = _reduction_exponent(self.theta)
        object.__setattr__(self, "_m", m)

    @property
    def m(self) -> int:
        """Integer exponent (1 - 3 theta)/theta of the integrating factor."""
        return self._m

    @property
    def singular_line(self) -> Number:
        """Abscissa phi = C1/theta of the singular line."""
        return self.C1 / self.theta


def _reduction_exponent(theta: Fraction) -> int:
    if not isinstance(theta, Fraction):
        raise TypeError("theta must be a Fraction; use parse_theta()")
    return _exponent_of(theta)


@lru_cache(maxsize=64)
def _exponent_of(theta: Fraction) -> int:
    """m = (1 - 3 theta)/theta, which must be an integer; cached, since every
    WaveParams asks for it and its Fraction arithmetic costs more than the
    rest of the constructor."""
    if theta <= 0:
        raise ValueError(f"theta = {theta} is not admissible; theta must be positive")
    m = (1 - 3 * theta) / theta
    if m.denominator != 1:
        raise ValueError(
            f"theta = {theta} gives non-integer reduction exponent m = {m}; "
            "admissible theta have 1/theta integer (e.g. 1/4, 1/2, 1)"
        )
    return int(m)


def parse_theta(value) -> Fraction:
    """Coerce ``value`` (Fraction, int, float or 'p/q' string) to Fraction.

    Floats are accepted only when they are exact binary representations of
    an admissible ratio (1/4, 1/2, 1, ...); 'p/q' strings are always exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        frac = Fraction(value).limit_denominator(10**6)
        if Fraction(value) != frac:
            raise ValueError(f"theta = {value!r} is not an exact ratio; pass a string like '1/4'")
        return frac
    raise TypeError(f"cannot interpret theta from {type(value).__name__}")


def derive_coriolis(omega_rot: float) -> CoriolisParams:
    """Derive the frame constants for rotation rate Omega >= 0.

    Parameters
    ----------
    omega_rot : float
        Rotation rate Omega (nonnegative, finite).

    Returns
    -------
    CoriolisParams
        With k = sqrt(1 + Omega^2) - Omega and the reduction constants

        alpha  = k / (1 + k^2)
        beta0  = k (k^4 + 6 k^2 - 1) / (6 (k^2 + 1))
        beta   = (3 k^4 + 8 k^2 - 1) / (6 (k^2 + 1))
        omega1 = -3 k (k^2 - 1)(k^2 - 2) / (2 (1 + k^2)^3)
        omega2 = (k^2 - 2)(k^2 - 1)^2 (8 k^2 - 1) / (2 (1 + k^2)^5)

    At Omega = 0 these collapse to k = 1, alpha = 1/2, beta0 = 1/2,
    beta = 5/6, omega1 = omega2 = 0 (the rotation-free limit).
    """
    if not math.isfinite(omega_rot):
        raise ValueError("Omega must be finite")
    if omega_rot < 0:
        raise ValueError("Omega must be nonnegative")
    # k = sqrt(1+W^2) - W, written to avoid cancellation for large W.
    k = 1.0 / (math.sqrt(1.0 + omega_rot * omega_rot) + omega_rot)
    if omega_rot == 0.0:
        k = 1.0
    k2 = k * k
    one = 1.0 + k2
    alpha = k / one
    beta0 = k * (k2 * k2 + 6.0 * k2 - 1.0) / (6.0 * one)
    beta = (3.0 * k2 * k2 + 8.0 * k2 - 1.0) / (6.0 * one)
    omega1 = -3.0 * k * (k2 - 1.0) * (k2 - 2.0) / (2.0 * one**3)
    omega2 = (k2 - 2.0) * (k2 - 1.0) ** 2 * (8.0 * k2 - 1.0) / (2.0 * one**5)
    return CoriolisParams(
        omega_rot=omega_rot, k=k, alpha=alpha, beta0=beta0, beta=beta,
        omega1=omega1, omega2=omega2,
    )


def derive_wave_params(cor: CoriolisParams, c: float, theta) -> WaveParams:
    """Derive the planar-system coefficients for wave speed c.

    C1 = c - beta0/beta,  C2 = omega1 / (3 alpha^2),
    C3 = omega2 / (4 alpha^3),  K = -c + k.

    Raises
    ------
    ValueError
        If beta vanishes (happens at a real rotation rate, the root of
        3 k^4 + 8 k^2 = 1), alpha^3 underflows to 0 (Omega past about
        4e107) or c is not finite.
    """
    theta = parse_theta(theta)
    if not math.isfinite(c):
        raise ValueError("wave speed c must be finite")
    if abs(cor.beta) < 1e-12 * (1.0 + abs(cor.beta0)):
        # beta crosses zero at the real rotation rate with 3k^4 + 8k^2 = 1;
        # within rounding distance of it beta0/beta is pure noise
        raise ValueError(
            f"beta = {cor.beta} at Omega = {cor.omega_rot}: C1 = c - beta0/beta "
            "is undefined at this rotation rate"
        )
    if cor.alpha**3 == 0.0:
        raise ValueError(
            f"alpha^3 underflows to 0 at Omega = {cor.omega_rot}: C2 = omega1/(3 alpha^2) "
            "and C3 = omega2/(4 alpha^3) are undefined at this rotation rate"
        )
    C1 = c - cor.beta0 / cor.beta
    C2 = cor.omega1 / (3.0 * cor.alpha**2)
    C3 = cor.omega2 / (4.0 * cor.alpha**3)
    K = -c + cor.k
    return WaveParams(theta=theta, C1=C1, C2=C2, C3=C3, K=K, c=c)
