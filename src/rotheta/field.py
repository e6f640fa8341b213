"""Planar vector fields and first integrals of the traveling-wave reduction.

Two equivalent systems are used throughout:

* the xi-form (singular along phi = C1/theta)::

      dphi/dxi = y
      dy/dxi   = ((theta - 1/2) y^2 + f(phi)) / (theta phi - C1)

* the tau-form (regular; d xi = (theta phi - C1) d tau)::

      dphi/dtau = y (theta phi - C1)
      dy/dtau   = (theta - 1/2) y^2 + f(phi)

with f(phi) = C3 phi^4 + C2 phi^3 + phi^2/2 + K phi = phi g(phi).

Only this module writes the reduced field: the other modules take g's
coefficient row from `g_coeffs` and the one tau-form right-hand side from
`tau_rhs`.

A first integral is built from the integrating factor (phi - s)^m with
s = C1/theta and m = (1 - 3 theta)/theta:

    H(phi, y) = -(theta/2) (phi - s)^(m+1) y^2 + integral of f(phi) (phi - s)^m dphi

The antiderivative is computed by an exact Taylor shift of f to powers of
w = phi - s (plain long division, no truncation) and held as one list of
power terms c w^k, with ln|w| where k = 0 (for m < 0, a log and/or a simple
pole), which only `FirstIntegral` reads.  With Fraction coefficients the
construction is exact, which is how the theta = 1/4 result is compared
coefficient-by-coefficient against its published closed form.

For theta = 1/2 and theta = 1 the published closed forms fail the
conservation identity dH/dxi = 0; `published_first_integral` reproduces them
verbatim so the verification suite can flag them, and `build_first_integral`
returns the corrected derivation (see each `validity_note`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np

from .params import WaveParams

PhasePoint = Tuple[float, float]

__all__ = [
    "SingularLineError",
    "PhasePoint",
    "FirstIntegral",
    "eval_f",
    "eval_g",
    "eval_f_prime",
    "eval_g_prime",
    "eval_g_double_prime",
    "g_coeffs",
    "rhs_singular",
    "tau_rhs",
    "regular_jacobian",
    "build_first_integral",
    "published_first_integral",
    "conservation_defect",
]


class SingularLineError(ValueError):
    """Evaluation requested on the singular line phi = C1/theta."""

    def __init__(self, phi, message=None):
        self.phi = phi
        super().__init__(message or f"evaluation on the singular line at phi = {phi}")


def _is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _half_like(wp: WaveParams):
    return Fraction(1, 2) if _is_exact(wp.C1, wp.C2, wp.C3, wp.K) else 0.5


def _f_coeffs(wp: WaveParams):
    """Ascending coefficients [phi^0 .. phi^4] of f, in the parameters' own
    arithmetic (exact with Fraction parameters)."""
    half = _half_like(wp)
    zero = half - half
    return [zero, wp.K, half, wp.C2, wp.C3]


def g_coeffs(wp: WaveParams) -> tuple:
    """g's coefficients [phi^0 .. phi^3] = (K, 1/2, C2, C3) as floats; the
    first integral takes f's exact row from `_f_coeffs`."""
    return (float(wp.K), 0.5, float(wp.C2), float(wp.C3))


def eval_f(wp: WaveParams, phi):
    """f(phi) = C3 phi^4 + C2 phi^3 + phi^2/2 + K phi."""
    return phi * (wp.K + phi * (0.5 + phi * (wp.C2 + phi * wp.C3)))


def eval_g(wp: WaveParams, phi):
    """g(phi) = f(phi)/phi = C3 phi^3 + C2 phi^2 + phi/2 + K."""
    return wp.K + phi * (0.5 + phi * (wp.C2 + phi * wp.C3))


def eval_f_prime(wp: WaveParams, phi):
    return wp.K + phi * (1.0 + phi * (3.0 * wp.C2 + phi * 4.0 * wp.C3))


def eval_g_prime(wp: WaveParams, phi):
    return 0.5 + phi * (2.0 * wp.C2 + phi * 3.0 * wp.C3)


def eval_g_double_prime(wp: WaveParams, phi):
    return 2.0 * wp.C2 + 6.0 * wp.C3 * phi


def rhs_singular(wp: WaveParams, point: PhasePoint) -> PhasePoint:
    """xi-form right-hand side; raises SingularLineError on the line."""
    phi, y = point
    theta = float(wp.theta)
    denom = theta * phi - wp.C1
    if denom == 0.0:
        raise SingularLineError(phi)
    return (y, ((theta - 0.5) * y * y + eval_f(wp, phi)) / denom)


def tau_rhs(wp: WaveParams):
    """The tau-form right-hand side (t, x) -> (phidot, ydot), on plain floats;
    polynomial, defined everywhere.

    `x` is any 2-sequence: the stepper passes a tuple of floats, the first
    step choice (scipy's, or its port `dop853._first_step`) and scipy's
    event location an array, the self-check a pair of arrays.  Every coefficient is cast to float once.  That is bitwise what
    mixed float/Fraction arithmetic computes anyway (Fraction rounds itself
    to float first), so exact and float coefficients give the same steps.

    `wp` may also be a sequence of WaveParams, one per lane of
    `dop853.integrate_many`: each coefficient is then an array over the
    lanes, `x` an array of shape (2, lanes), and every lane's entry is the
    float the single-lane right-hand side gives, since numpy rounds + and *
    as Python does."""
    if isinstance(wp, WaveParams):
        theta, C1, (K, _, C2, C3) = float(wp.theta), float(wp.C1), g_coeffs(wp)
    else:
        theta, C1, K, _, C2, C3 = np.array(
            [(float(p.theta), float(p.C1), *g_coeffs(p)) for p in wp]).reshape(-1, 6).T
    y2_c = theta - 0.5

    def rhs(_t, x):
        phi, y = x
        return (y * (theta * phi - C1),
                y2_c * y * y + phi * (K + phi * (0.5 + phi * (C2 + phi * C3))))
    return rhs


def regular_jacobian(wp: WaveParams, point: PhasePoint):
    """2x2 Jacobian of the tau-form at `point` (rows d(phidot), d(ydot))."""
    phi, y = point
    theta = float(wp.theta)
    return (
        (theta * y, theta * phi - wp.C1),
        (eval_f_prime(wp, phi), (2.0 * theta - 1.0) * y),
    )


def _taylor_shift(coeffs: Sequence, s):
    """Coefficients of p(w + s) given ascending coeffs of p(x), exact."""
    out = list(coeffs)
    n = len(out)
    # repeated synthetic division by (x - s)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            out[i] = out[i] + s * out[i + 1]
    return out


@dataclass(frozen=True)
class FirstIntegral:
    """Conserved quantity H of the tau-form (and xi-form off the line).

    H(phi, y) = y2_coeff * w^y2_power * y^2 + B(w),   w = phi - line,
    B(w) = sum_j terms[j] * w^(j + y2_power) over f's Taylor row about the
    line (j = 0 .. 4), with ln|w| in place of w^0; B's constant is 0.
    Coefficients keep the arithmetic type of the input parameters (exact
    with Fraction parameters).  Only this class reads `terms`.
    """

    theta: Fraction
    line: object           # s = C1/theta
    y2_coeff: object       # -(theta/2)
    y2_power: int          # m + 1
    terms: tuple
    validity_note: str = ""

    def __post_init__(self):
        # B's terms and its slope's (k c w^(k-1) of each c w^k, L/w of L ln|w|),
        # as floats taken once
        powers, log_c, poles = floats = self._split(float)
        object.__setattr__(self, "_floats", floats)
        object.__setattr__(self, "_slopes", ([i * c for i, c in enumerate(powers)][1:], 0.0,
                                             [(-1, log_c)] * bool(log_c)
                                             + [(k - 1, k * c) for k, c in poles]))

    def _split(self, cast):
        """The terms by how `_sum` adds them: the powers k >= 0 as one
        ascending row (0 in the constant's slot and each below y2_power),
        the log's coefficient, and the nonzero poles (k, c), k = -1 first."""
        p, t = self.y2_power, [cast(c) for c in self.terms]
        return ([cast(0)] * max(p, 1) + t[max(1 - p, 0):], t[-p] if p <= 0 else cast(0),
                [(k, t[k - p]) for k in range(-1, p - 1, -1) if t[k - p]])

    @property
    def singular_on_line(self) -> bool:
        """True when H itself (a log, or the negative y^2 power that comes
        with every pole) is undefined on the singular line."""
        return self.y2_power < 0 or bool(self.y2_power == 0 and self.terms[0])

    def eval(self, phi, y):
        """H(phi, y) for floats or broadcasting numpy arrays.

        A float phi on the line raises SingularLineError where H is undefined
        there; array callers mask the line themselves (it yields inf or nan).
        """
        w = _line_offset(self, phi, self.singular_on_line)
        return _as_float(_sum(w, self._floats) + float(self.y2_coeff) * w**self.y2_power * y * y)

    def partials(self, phi, y):
        """(dH/dphi, dH/dy), analytic; takes floats or arrays like `eval`."""
        p = self.y2_power
        w = _line_offset(self, phi, self.singular_on_line or p < 1)
        dphi = _sum(w, self._slopes)
        if p != 0:
            dphi = dphi + float(self.y2_coeff) * p * w ** (p - 1) * y * y
        dy = 2.0 * float(self.y2_coeff) * w**p * y
        return (_as_float(dphi), _as_float(dy))

    def end_level(self, w_sign, far=False):
        """B's limit as w of sign w_sign goes to infinity (`far`) or to 0:
        +-inf from the nonzero power that dominates, the highest far out and
        the most negative at the line; else +-inf from the log, else 0."""
        powers, log_c, poles = self._floats
        for k, c in ([(k, c) for k, c in enumerate(powers) if c] if far else poles)[-1:]:
            return math.copysign(math.inf, c * w_sign**k)
        return math.copysign(math.inf, -log_c) if log_c else 0.0

    def rise_from(self, phi0, on_line=False):
        """phi -> (B(phi) - B(phi0), A(phi) = y2_coeff w^y2_power), the same
        bits on a float as on an array, without the cancellation next to
        phi0: the powers Taylor-shifted to u = phi - phi0, their constant
        dropped, the log as log1p(u/w0), the pole's w^-1 - w0^-1 as
        -u/(w w0) (m >= -2 at every admissible theta, so a pole is simple).
        `on_line` (phi0 on the line, where H must be finite) gives the
        polynomial B/w^y2_power in place of the difference."""
        line, a, p = float(self.line), float(self.y2_coeff), self.y2_power
        powers, log_c, poles = self._floats
        if on_line:
            if self.singular_on_line:
                raise ValueError("H has no finite level on the singular line")
            phi0, d = line, powers[p:][::-1]     # no log, no pole: B is a polynomial
        else:
            d = _taylor_shift(powers, phi0 - line)[::-1]
            d[-1] = 0.0
        w0, more = phi0 - line, range(abs(p) - 1)

        def rise(phi):
            u, w = phi - phi0, phi - line
            dB = 0.0
            for c in d:              # Horner, step for step as np.polyval
                dB = dB * u + c
            if log_c:
                dB = dB + log_c * np.log1p(u / w0)
            for _k, c in poles:      # k = -1
                dB = dB - c * u / (w * w0)
            wp = w if p else 1.0     # w^|p| by repeated products, as numpy's ** is not
            for _ in more:           # Python's (libm's pow) in the last bit
                wp = wp * w
            return dB, a * wp if p >= 0 else a * (1.0 / wp)
        return rise

    def phi_poly_coeffs(self) -> list:
        """B's powers re-expanded in plain powers of phi (exact for Fraction
        inputs).  Its log and poles are not included."""
        return _taylor_shift(self._split(lambda c: c)[0], -self.line)


def _sum(w, parts):
    """Sum of split terms (`FirstIntegral._split`) at w: Horner over the
    powers, then the log, then the poles."""
    powers, log_c, poles = parts
    acc = 0.0
    for c in reversed(powers):
        acc = acc * w + c
    if log_c:
        acc = acc + log_c * np.log(np.abs(w))
    for k, c in poles:
        acc = acc + c / w**-k
    return acc


def _line_offset(fi: FirstIntegral, phi, singular: bool):
    """w = phi - line as float64; a scalar phi on the line raises when
    `singular`."""
    w = np.asarray(phi, dtype=float) - float(fi.line)
    if singular and w.ndim == 0 and w == 0.0:
        raise SingularLineError(phi)
    return w


def _as_float(v):
    """Plain float for a scalar result, the array otherwise."""
    return float(v) if np.ndim(v) == 0 else v


def build_first_integral(wp: WaveParams) -> FirstIntegral:
    """Construct the first integral for any admissible theta.

    B is the exact antiderivative of f(phi) (phi-s)^m, obtained by
    Taylor-shifting f to the w = phi - s basis: the term a_j w^(j+m)
    integrates to a_j w^k / k with k = j+m+1, or to a_j ln|w| where k = 0.

    A float spot-check of dH/dtau = 0 runs on a probe grid before returning;
    failure raises RuntimeError (it would mean a defect in this derivation),
    unless floats cannot hold the line's neighbourhood: then, as when the
    Taylor shift overflows or H does at the origin (an equilibrium of every
    member, so a level every plane reads), a ValueError names C1 and theta.
    """
    theta, p = wp.theta, wp.m + 1
    s = wp.C1 / theta if _is_exact(wp.C1) else float(wp.C1) / float(theta)
    shifted = _taylor_shift(_f_coeffs(wp), s)  # f(w + s), ascending in w
    if not all(map(math.isfinite, shifted)):
        raise _line_too_far(wp, "f's Taylor shift to the line overflows")
    y2c = -theta / 2 if _is_exact(wp.C1, wp.C2, wp.C3, wp.K) else -float(theta) / 2.0
    fi = FirstIntegral(
        theta=theta, line=s, y2_coeff=y2c, y2_power=p,
        terms=tuple(a / (j + p) if j + p else a for j, a in enumerate(shifted)),
        validity_note=_validity_note(wp),
    )
    _conservation_spot_check(fi, wp)
    if float(s) and not math.isfinite(_sum(-float(s), fi._floats)):
        raise _line_too_far(wp, "H overflows at the origin, an equilibrium of every member")
    return fi


# the self-check's 24 probes (phi - line, y) and the relative residual it accepts
_PROBE_W, _PROBE_Y = (v.ravel() for v in np.meshgrid(
    [-1.7, -0.9, -0.3, 0.4, 1.1, 2.3], [-1.5, -0.5, 0.8, 1.9], indexing="ij"))
_SPOT_CHECK_TOL = 1e-9


def _line_too_far(wp: WaveParams, why: str) -> ValueError:
    return ValueError(f"C1 = {float(wp.C1):.6g} puts the singular line at theta = {wp.theta} "
                      f"too far out for floats: {why}")


def _conservation_spot_check(fi: FirstIntegral, wp: WaveParams):
    """dH/dtau = grad H . (tau-form field) at the probes, in one array call.

    A residual above the tolerance of max(1, |each term|), or nan, raises
    RuntimeError, unless rounding explains it, which raises ValueError
    (`_line_too_far`): a probe rounded onto a line where H is undefined, or
    every residual within the rounding bound of the sums the check adds.
    Those are theta phi - C1, whose terms are |C1| in size while their sum
    is theta (phi - line), and along + across."""
    line = float(fi.line)
    phi = line + _PROBE_W
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hphi, hy = fi.partials(phi, _PROBE_Y)
        pdot, ydot = tau_rhs(wp)(0.0, (phi, _PROBE_Y))
        along, across = hphi * pdot, hy * ydot
        scale = np.maximum(1.0, np.maximum(np.abs(along), np.abs(across)))
        residual = np.abs(along + across)
        worst = float(np.max(residual / scale))  # propagates a nan residual
        if worst <= _SPOT_CHECK_TOL:
            return
        # a few ulps of each term: theta phi and C1, times the rest of along
        offset_terms = float(fi.theta) * np.abs(phi) + abs(float(wp.C1))
        bound = 4.0 * math.ulp(1.0) * (np.abs(hphi * _PROBE_Y) * offset_terms
                                       + np.abs(along) + np.abs(across))
    if fi.singular_on_line and np.any(phi == line):
        raise _line_too_far(wp, "a probe of the first integral's self-check rounds onto "
                                "the line, where H is undefined")
    if np.all(residual <= np.maximum(_SPOT_CHECK_TOL * scale, bound)):
        raise _line_too_far(wp, f"the first integral's self-check residual {worst:.3e} "
                                "is rounding in theta phi - C1")
    raise RuntimeError(f"first-integral self-check failed: dH/dtau relative residual {worst:.3e}")


def _validity_note(wp: WaveParams) -> str:
    t = wp.theta
    if t == Fraction(1, 4):
        return ("matches the published closed form coefficient-by-coefficient; "
                "valid in the whole plane")
    if t == Fraction(1, 2):
        return ("published closed form is not conserved (its y^2 prefactor and "
                "phi^4 scaling are inconsistent with dH/dxi = 0); this derived "
                "form is used instead; log term => valid off the line phi = 2 C1")
    if t == Fraction(1, 1):
        return ("published closed form is not conserved; this derived form "
                "(pole + log structure) is used instead; valid off the line phi = C1")
    return "derived by integrating-factor long division; no published form to compare"


def published_first_integral(wp: WaveParams) -> Callable[[float, float], float]:
    """The literature closed form H(phi, y) for theta in {1/4, 1/2, 1},
    reproduced verbatim (including its defects for theta = 1/2 and 1, which
    the verification suite measures and flags).
    """
    t = wp.theta
    C1, C2, C3, K = (float(wp.C1), float(wp.C2), float(wp.C3), float(wp.K))
    if t == Fraction(1, 4):
        def H(phi, y):
            return (-0.125 * (phi - 4.0 * C1) ** 2 * y * y
                    + C3 / 6.0 * phi**6 + (C2 - 4.0 * C1 * C3) / 5.0 * phi**5
                    + (0.125 - C1 * C2) * phi**4 + (K - 2.0 * C1) / 3.0 * phi**3
                    - 2.0 * C1 * K * phi**2)
        return H
    if t == Fraction(1, 2):
        al = C2 + 2.0 * C1 * C3
        be = 0.5 + 2.0 * C1 * C2 + 4.0 * C1**2 * C3
        ga = K + C1 + 4.0 * C1**2 * C2 + 8.0 * C1**3 * C3
        de = 2.0 * C1 * K + 2.0 * C1**2 + 8.0 * C1**3 * C2 + 16.0 * C1**4 * C3

        def H(phi, y):
            return (-0.5 * (phi - 4.0 * C1) ** 2 * y * y + 0.25 * phi**4
                    + al / 3.0 * phi**3 + be / 2.0 * phi**2 + ga * phi
                    + de * math.log(abs(phi - 2.0 * C1)))
        return H
    if t == Fraction(1, 1):
        def H(phi, y):
            return (y * y * (phi - C1) + 0.4 * C3 * phi**5 + 0.5 * C2 * phi**4
                    + phi**3 / 3.0 + K * phi**2)
        return H
    raise ValueError(f"no published closed form recorded for theta = {t}")


def conservation_defect(H: Callable[[float, float], float], wp: WaveParams,
                        points: Sequence[PhasePoint]) -> float:
    """Max relative |dH/dxi| over probe points, with H treated as a black box.

    Partials by central differences at step 1e-5 (independent of
    FirstIntegral.partials), flow from rhs_singular.  A conserved H gives
    ~1e-9 or less on O(1) probes; the defective published forms give O(1).
    """
    step = 1e-5
    worst = 0.0
    for phi, y in points:
        hphi = (H(phi + step, y) - H(phi - step, y)) / (2.0 * step)
        hy = (H(phi, y + step) - H(phi, y - step)) / (2.0 * step)
        pdot, ydot = rhs_singular(wp, (phi, y))
        scale = max(1.0, abs(hphi * pdot), abs(hy * ydot))
        worst = max(worst, abs(hphi * pdot + hy * ydot) / scale)
    return worst
