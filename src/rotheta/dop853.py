"""DOP853 on numpy alone: the conservation check's lanes and the axis-period
run, each taking scipy's steps bit for bit without loading any scipy module.

DOP853 (Hairer, Norsett & Wanner's 8(5,3) pair) is taken as scipy writes
it: its tableau is written out below as scipy's coefficient file gives it
(a test compares the two); its step arithmetic (stages, error norm, dense
rows) is written once here, on values that are Python floats or numpy
arrays over lanes, and its step-size controller twice, on floats
(`_control`) and on lane arrays (`_control_lanes`), with the same bits; its
first step (`_first_step`) is scipy's constructor, ported line for line;
and an event's root is cut by `levels.brentq`, a port of scipy's, on the
step's own interpolant (`_dense_at`).  The controller is written twice for
speed: mapping `_control` over the lanes keeps every bit, but a call on 300
lanes then takes 259 us against 60 us (90 against 35 on 100 lanes; timeit,
2-core host), about 15 % more per 1.3 ms lane step.  Two drivers run it:

* `integrate_many` runs many fixed-span tau-form trials at once, as the
  lanes of numpy arrays (`_Lanes`), each lane stopping at the escape disc
  with the step, the cut (`_cut`) and the answer `orbits.integrate` gives
  its trial, bit for bit.  The arrays drop their stopped lanes once fewer
  than half of them run, and once `FLOAT_TAIL` or fewer runs are left, it
  finishes them one by one on floats (`_float_step`).  The conservation
  check runs its trials this way.
* `measure_axis_period` runs one trajectory of any planar right-hand side
  on floats to its fourth y = 0 crossing, with the crossing times
  `solve_ivp` gives it on `orbits._FloatDOP853`.

`orbits` drives the same step arithmetic through `solve_ivp`
(`orbits._FloatDOP853`) where a run needs scipy's event loop.  A run is a
`Trajectory`, read at any set of times through `Trajectory.at` in one numpy
pass over its steps' dense-output polynomials, bit for bit as scipy would.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .field import tau_rhs
from .levels import brentq
from .params import WaveParams

__all__ = ["Trajectory", "integrate_many", "measure_axis_period"]

ESCAPE_RADIUS = 50.0   # radius of the (phi, y) disc the lanes may not leave
# `orbits.integrate`'s defaults, which `integrate_many` always takes: the
# first run's tolerances, the drift limit, and the retries at 100x tighter
# ones
RTOL, ATOL, DRIFT_LIMIT, RETRIES = 1e-10, 1e-12, 1e-8, 1
# the tolerances of `measure_axis_period` and of `orbits.shoot_connection`
TIGHT_RTOL, TIGHT_ATOL = 1e-12, 1e-14
# `integrate_many` finishes its runs one by one on floats once this many or
# fewer are left: with its stopped lanes dropped, a lane step still costs
# numpy's per-call overhead, about 0.7 ms at 1-16 lanes against 1.3 ms at
# 300 (2-core host), where a float step costs about 50 us a lane; tails
# from 4 to 64 take the check's trials in the same time, within the host's
# noise
FLOAT_TAIL = 16
EPS = float(np.finfo(float).eps)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."   # scipy's status


class _Row(tuple):
    """A DOP853 tableau row's nonzero (index, coefficient) pairs, in order;
    `js` and `col` hold the same as an index array and a coefficient column
    for lane stages."""

    def __new__(cls, row):
        self = super().__new__(cls, row.items())
        self.js = np.array([j for j, _ in self], dtype=np.intp)
        self.col = np.array([a for _, a in self]).reshape(-1, 1, 1)
        return self


# DOP853's tableau as scipy's `integrate/_ivp/dop853_coefficients.py` writes
# it and its DOP853 class slices it, as sparse rows {index: coefficient}: the
# (c, row) of stages 1 to 11 and of the dense output's three extra stages,
# the weights B, the error rows E3 and E5 and the interpolant rows D
_FSAL = 12                                 # the stage that holds f at the new state
_N_STAGES = 16                             # stages with the dense output's extra three
_STAGES = tuple((c, _Row(row)) for c, row in (
    (0.05260015195876773, {0: 0.05260015195876773}),
    (0.0789002279381516, {0: 0.0197250569845379, 1: 0.0591751709536137}),
    (0.1183503419072274, {0: 0.02958758547680685, 2: 0.08876275643042054}),
    (0.2816496580927726, {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792}),
    (0.3333333333333333, {0: 0.037037037037037035, 3: 0.17082860872947386,
                          4: 0.12546768756682242}),
    (0.25, {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125}),
    (0.3076923076923077, {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
                          5: -0.015319437748624402, 6: 0.008273789163814023}),
    (0.6512820512820513, {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
                          5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996}),
    (0.6, {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
           5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
           8: -0.020331201708508627}),
    (0.8571428571428571, {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
                          5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
                          8: 2.4936055526796523, 9: -3.0467644718982196}),
    (1.0, {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
           5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
           8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636}),
))
_EXTRA = tuple((c, _Row(row)) for c, row in (
    (0.1, {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
           8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
           11: 0.007567897660545699, 12: -0.008298}),
    (0.2, {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
           7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
           12: -0.00034046500868740456, 13: 0.1413124436746325}),
    (0.7777777777777778, {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
                          7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
                          13: 2.9475147891527724, 14: -9.15095847217987}),
))
_B = _Row({0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
           7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
           10: 0.20136540080403034, 11: 0.04471061572777259})
_E3 = _Row({0: -0.18980075407240762, 5: 4.450312892752409, 6: 1.8915178993145003,
            7: -5.801203960010585, 8: -0.4226823213237919, 9: -0.1521609496625161,
            10: 0.20136540080403034, 11: 0.02265179219836082})
_E5 = _Row({0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
            7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
            10: 0.08192320648511571, 11: -0.022355307863886294})
_D = tuple(_Row(row) for row in (
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
     8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883, 11: 0.6315787787694688,
     12: -0.08899033645133331, 13: 18.148505520854727, 14: -9.194632392478356,
     15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
     8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398, 11: -9.332130526430229,
     12: 15.697238121770845, 13: -31.139403219565178, 14: -9.35292435884448,
     15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
     8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
     12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716,
     15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
     8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
     12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544,
     15: -149.72683625798564},
))
_ERROR_ORDER = 7                           # DOP853's error estimator order
_EXPONENT = -1 / (_ERROR_ORDER + 1)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0   # scipy's RungeKutta controller


@dataclass
class Trajectory:
    """One DOP853 run, from `orbits._solve` or a lane of `integrate_many`.
    `states` holds the accepted steps; `at` reads the dense solution at any
    times (`dense`, `xi_of_tau` and `orbits.classify_orbit` all sample
    through it).  `axis_crossings` holds the y = 0 crossing times scipy's
    event loop found on a `_solve` run."""

    wp: WaveParams
    t: np.ndarray
    states: np.ndarray          # shape (n, 2)
    sol: object                 # scipy OdeSolution (dense); None from a lane
    escaped: bool
    h0: float | None = None
    h_drift_max: float | None = None   # None: not measured on any sample
    drift_samples: int = 0             # dense samples the drift was measured on
    rtol_used: float = 0.0
    status: str = ""
    nfev: int = 0                      # right-hand-side evaluations, counted as scipy counts them
    axis_crossings: np.ndarray | None = None   # None from a lane

    @cached_property
    def _segments(self):
        """Each step's DOP853 interpolant as arrays, gathered on first use
        (a lane sets them when its run ends), the step innermost:
        breakpoints, step starts t_old, step lengths h, start states y_old
        (2, steps) and the coefficient rows F (7, 2, steps), highest power
        first."""
        steps = self.sol.interpolants
        return (self.sol.ts, np.array([s.t_old for s in steps]),
                np.array([s.h for s in steps]),
                np.ascontiguousarray(np.array([s.y_old for s in steps]).T),
                np.ascontiguousarray(np.array([s.F[::-1] for s in steps]).transpose(1, 2, 0)))

    def at(self, t):
        """The state at a time t, shape (2,), or at an array of times, shape
        (2, n), as OdeSolution(t) gives it, bit for bit, in one numpy pass.

        A time is read on the step between the two breakpoints (`sol.ts`)
        around it, on the earlier step at a breakpoint and on the end steps
        beyond the ends (OdeSolution's rule for a forward run); the step's
        polynomial is evaluated in Dop853DenseOutput's Horner order."""
        ts, t_old, h, y_old, F = self._segments
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, len(h) - 1)
        x = (t - t_old[seg]) / h[seg]
        factors = (x, 1 - x)
        # take gives C-ordered rows, where F[:, :, seg] would not
        y0 = y_old.take(seg, axis=1)
        y = np.zeros_like(y0)
        for i, row in enumerate(F.take(seg, axis=2)):
            y += row
            y *= factors[i % 2]
        y += y0
        return y

    def dense(self, n):
        tg = np.linspace(self.t[0], self.t[-1], n)
        return tg, self.at(tg).T

    @property
    def diameter(self):
        lo = self.states.min(axis=0)
        hi = self.states.max(axis=0)
        return float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))

    def xi_of_tau(self, t_grid):
        """xi(tau) on a grid via cumulative trapezoid of theta*phi - C1."""
        return _xi_along(self.wp, t_grid, self.at(t_grid)[0])


def _xi_along(wp: WaveParams, t_grid, phis):
    """Cumulative trapezoid of theta*phi - C1 over t_grid, from phi samples
    already evaluated on that grid."""
    integrand = float(wp.theta) * phis - float(wp.C1)
    return np.concatenate(
        ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t_grid))))


def _h_scale(h_values, h0):
    return max(abs(h0), float(np.max(np.abs(h_values))), 1e-9)


# The step arithmetic below is written once, on values that are Python
# floats (`_float_step`, and `orbits._FloatDOP853` through it: the stages
# `k` a list of float pairs, a state a float pair) or arrays over lanes
# (`_Lanes`: `k` an array of shape (stages, 2, lanes), a state one array of
# shape (2, lanes)).  `_stages` branches on the kind: on lanes it shifts
# the state in whole-array operations and forms no stage time, since the
# lanes run `tau_rhs` alone, which is autonomous.  The controller alone is
# written twice (`_control`, `_control_lanes`): its branches cost a Python
# call per lane if `_control` is mapped over the lanes, about 200 us of a
# 1.3 ms step on 300 lanes, and numpy's branches cost one call for them
# all.  Sums run left to right,
# never through np.dot or `sum()` (compensated from Python 3.12), so a
# float run differs from scipy's only by rounding, and every lane equals
# the float run of its trial bit for bit.


def _combine(row, k):
    """sum_j a_j K_j over a tableau row, per component of the stages k,
    summed left to right from 0.0: in a loop on float pairs, with numpy's
    add.reduce over the first axis (which adds the products one after the
    other) on lane stages."""
    if isinstance(k, np.ndarray):
        return np.add.reduce(k[row.js] * row.col, axis=0, initial=0.0)
    d0 = d1 = 0.0
    for j, a in row:
        k0, k1 = k[j]
        d0 += k0 * a
        d1 += k1 * a
    return d0, d1


def _larger(a, b):
    """max(a, b) as Python takes it (a unless b > a), on floats or lane
    arrays."""
    return np.where(b > a, b, a) if isinstance(a, np.ndarray) else max(a, b)


def _stages(rhs, rows, first, t, h, y, k):
    """Stages `first` on of a step of length h from (t, y) into k; returns
    the state the last of them was taken at.  Each shifted state is
    y + (sum_j a_j K_j) h per component: one array expression on lanes,
    which pass `rhs` the step's start time t for every stage."""
    if isinstance(k, np.ndarray):
        for s, (_c, row) in enumerate(rows, first):
            x = y + _combine(row, k) * h
            k[s] = rhs(t, x)
        return x
    y0, y1 = y
    for s, (c, row) in enumerate(rows, first):
        d0, d1 = _combine(row, k)
        x = (y0 + d0 * h, y1 + d1 * h)
        k[s] = rhs(t + c * h, x)
    return x


# stages 1 to 11, then the new state (c = 1, the weights B), where f is
# stage `_FSAL`
_STEP = (*_STAGES, (1.0, _B))


def _rk_step(rhs, t, h, y, k):
    """DOP853's RK step from (t, y): stages 1 to 11 after f in k[0], and
    f at the new state as stage `_FSAL`; returns the new state."""
    return _stages(rhs, _STEP, 1, t, h, y, k)


def _error_sums(y, n, k, tols):
    """The step's 5th- and 3rd-order error estimates over the scale
    atol + rtol * max(|y|, |y_new|), squared and summed over the
    components."""
    (y0, y1), (n0, n1), (rtol, atol0, atol1) = y, n, tols
    scale0 = atol0 + _larger(abs(y0), abs(n0)) * rtol
    scale1 = atol1 + _larger(abs(y1), abs(n1)) * rtol
    e50, e51 = _combine(_E5, k)
    e30, e31 = _combine(_E3, k)
    e50, e51, e30, e31 = e50 / scale0, e51 / scale1, e30 / scale0, e31 / scale1
    return e50 * e50 + e51 * e51, e30 * e30 + e31 * e31


def _control(h_abs, err5, err3, rejected):
    """DOP853's error norm and scipy's step-size controller, on floats:
    (whether the step of length h_abs is accepted, the next step length).
    `rejected` says whether this step was already rejected once."""
    denom = (err5 + 0.01 * err3) * 2
    if err5 == 0 and err3 == 0:
        error_norm = 0.0
    elif denom == 0:   # underflow: scipy's 0/0 also rejects with factor 0.2
        error_norm = math.inf
    else:
        error_norm = h_abs * err5 / math.sqrt(denom)
    if error_norm < 1:
        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** _EXPONENT)
        if rejected:
            factor = min(1, factor)
        return True, h_abs * factor
    return False, h_abs * max(MIN_FACTOR, SAFETY * error_norm ** _EXPONENT)


def _control_lanes(h_abs, err5, err3, rejected):
    """`_control` on lane arrays, bit for bit: (accepted, next step length),
    each an array over the lanes.  The branches are numpy's; only the power
    is taken on Python floats, since numpy's differs from C's pow in the
    last bit.  A zero norm is given the power inf, which C's pow gives it
    and which makes the factor `MAX_FACTOR`; numpy's comparisons take
    Python's min and max, nan included (max(MIN_FACTOR, nan) is
    MIN_FACTOR).  Division by a zero or nan denominator is left to the
    caller's np.errstate."""
    denom = (err5 + 0.01 * err3) * 2
    error_norm = np.where((err5 == 0) & (err3 == 0), 0.0,
                          np.where(denom == 0, math.inf, h_abs * err5 / np.sqrt(denom)))
    scaled = SAFETY * np.array([e ** _EXPONENT if e else math.inf
                                for e in error_norm.tolist()])
    accepted = error_norm < 1
    grow = np.where(scaled < MAX_FACTOR, scaled, MAX_FACTOR)
    grow = np.where(rejected & ~(grow < 1), 1.0, grow)
    shrink = np.where(scaled > MIN_FACTOR, scaled, MIN_FACTOR)
    return accepted, h_abs * np.where(accepted, grow, shrink)


def _dense_rows(rhs, t_old, h, y, n, k):
    """The three extra stages of an accepted step from (t_old, y) to the
    state n, and its interpolant's rows F as (row0, row1) pairs, lowest
    power first (scipy's F)."""
    _stages(rhs, _EXTRA, _FSAL + 1, t_old, h, y, k)
    (y0, y1), (n0, n1) = y, n
    (f0, f1), (g0, g1) = k[0], k[_FSAL]
    dy0, dy1 = n0 - y0, n1 - y1
    F = [(dy0, dy1), (h * f0 - dy0, h * f1 - dy1),
         (2 * dy0 - h * (g0 + f0), 2 * dy1 - h * (g1 + f1))]
    for row in _D:
        d0, d1 = _combine(row, k)
        F.append((h * d0, h * d1))
    return F


def _dense_at(t_old, h, y_old, F, t):
    """A step's interpolant at time t on floats, as scipy's
    Dop853DenseOutput evaluates it, in the same Horner order: the step from
    t_old of length h and start state y_old, with rows F as (row0, row1)
    pairs, lowest power first."""
    x = (t - t_old) / h
    s0 = s1 = 0.0
    for i, (f0, f1) in enumerate(reversed(F)):
        factor = x if i % 2 == 0 else 1 - x
        s0 = (s0 + f0) * factor
        s1 = (s1 + f1) * factor
    return s0 + y_old[0], s1 + y_old[1]


def _float_step(rhs, t, t_bound, h_abs, y0, y1, k, tols, rejected):
    """DOP853's step from (t, (y0, y1)) towards t_bound on Python floats,
    with f there in k[0]: scipy's minimum step, then attempts with the
    shared RK step, error norm and controller until one is accepted.
    `rejected` says whether an attempt from t was already rejected; only a
    fresh step is first raised to the minimum.  Returns (t_new, h, the new
    state, the next step length, right-hand-side evaluations), f at the new
    state in k[_FSAL]; t_new, h and the state are None when the step falls
    below the minimum."""
    min_step = 10 * (math.nextafter(t, math.inf) - t)
    if not rejected and h_abs < min_step:
        h_abs = min_step
    nfev = 0
    while True:
        if h_abs < min_step:
            return None, None, None, h_abs, nfev
        t_new = min(t + h_abs, t_bound)
        h = t_new - t
        new = _rk_step(rhs, t, h, (y0, y1), k)
        nfev += _FSAL   # stages 1 to 11, and f at the new state
        accepted, h_abs = _control(h, *_error_sums((y0, y1), new, k, tols), rejected)
        if accepted:
            return t_new, h, new, h_abs, nfev
        rejected = True


def _norm(x):
    """scipy's RMS norm of a state (`common.norm`)."""
    return np.linalg.norm(x) / x.size ** 0.5


def _first_step(rhs, start, span, rtol, atol):
    """What scipy's DOP853 constructor sets up for a run of `rhs` from
    `start` at t = 0 to t = span > 0, with no maximum step, ported line for
    line: the start as a float array (ValueError unless finite); the
    tolerance check (`validate_tol`: a warning and a clamp when rtol is
    below 100 EPS, ValueError when atol < 0); f at the start; and the first
    step length, by Hairer, Norsett & Wanner's rule (Solving ODEs I,
    sec. II.4; scipy's `select_initial_step`), which takes one more
    right-hand side.  The right-hand side gets the state as a float array,
    as there.  Returns (the start, f there as a float pair, the step
    length, rtol, atol, right-hand-side evaluations)."""
    y0 = np.asarray(start, dtype=float)
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if rtol < 100 * EPS:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.", stacklevel=3)
        rtol = np.maximum(rtol, 100 * EPS)
    if atol < 0:
        raise ValueError("`atol` must be positive.")
    f0 = np.asarray(rhs(0.0, y0), dtype=float)

    scale = atol + np.abs(y0) * rtol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = np.asarray(rhs(0.0 + h0, y1), dtype=float)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return y0, tuple(f0.tolist()), float(min(100 * h0, h1, span)), float(rtol), float(atol), 2


def _escape_event(escape_radius):
    """The terminal event of leaving the disc of `escape_radius`."""
    r2 = escape_radius * escape_radius

    def ev_escape(_t, x):
        return x[0] * x[0] + x[1] * x[1] - r2
    ev_escape.terminal = True
    return ev_escape


def _event_root(event, t_old, h, y_old, F, t):
    """The root of `event` on a step whose ends bracket it, as solve_ivp's
    `solve_event_equation` finds it: Brent's method at xtol = rtol = 4 EPS
    on the step's interpolant (`_dense_at`)."""
    return brentq(lambda s: event(s, _dense_at(t_old, h, y_old, F, s)), t_old, t,
                  xtol=4 * EPS, rtol=4 * EPS)


def _cut(t, states, F, event):
    """A run's times and states cut at the root of `event` on its last step,
    whose interpolant rows are F (pairs, lowest power first), as solve_ivp's
    `handle_events` cuts them: the last point becomes the root and its
    state, or, when the root is the step's start, the step is dropped
    (solve_ivp's `donot_append` rule).  Returns (t, states, whether the step
    was dropped)."""
    t_old, t_new, y_old = float(t[-2]), float(t[-1]), states[-2].tolist()
    h = t_new - t_old
    root = _event_root(event, t_old, h, y_old, F, t_new)
    if len(t) > 2 and t[-2] == root:
        return t[:-1], states[:-1], True
    return (np.append(t[:-1], root),
            np.vstack((states[:-1], _dense_at(t_old, h, y_old, F, root))), False)


def _measure_drift(traj, fi, start, drift_limit):
    """Measure the relative drift of H along `traj` on 512 dense samples,
    as `orbits.integrate` documents it: set `h0`, `drift_samples` and
    `h_drift_max` (left None when no sample is measurable, or when H is
    infinite at the start)."""
    _tg, xs = traj.dense(512)
    p, y = xs[:, 0], xs[:, 1]
    # next to the line H and grad H overflow to inf or nan; the mask
    # below drops those samples, so numpy's warnings say nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h0 = fi.eval(*start)
        traj.h0 = h0
        if not np.isfinite(h0):
            return
        if traj.wp.m < 0:
            cert = drift_limit * max(abs(h0), 1e-9)
            off = p != float(fi.line)
            p, y = p[off], y[off]
            dhp, dhy = fi.partials(p, y)
            err = (np.abs(dhp) + np.abs(dhy)) * traj.rtol_used * (1.0 + np.hypot(p, y))
            kept = err <= cert
            p, y = p[kept], y[kept]
        hs = fi.eval(p, y)
    traj.drift_samples = len(hs)
    if len(hs):
        traj.h_drift_max = float(np.max(np.abs(hs - h0))) / _h_scale(hs, h0)


def _settle(traj, best, drift_limit):
    """`orbits.integrate`'s choice after a measured run: (the run to
    return, or None to retry at tighter tolerances; the best run so far).
    A run is returned when its drift is unmeasured, within the limit, or
    measured at rtol 1e-13 or below; otherwise it becomes the best run
    unless an earlier one drifted no more."""
    if traj.drift_samples == 0 or not (traj.h_drift_max > drift_limit
                                       and traj.rtol_used > 1e-13):
        return traj, best
    return None, traj if best is None or traj.h_drift_max < best.h_drift_max else best


class _Lanes:
    """Forward tau-form DOP853 runs stepped together at one pair of
    tolerances, one trial's run per lane.

    numpy arrays over the lanes (the columns) hold each run's t, step
    length, escape value, state, stages, rejection flag, running flag and
    `nfev`; `trial` names each column's trial, an index into `wps`.  Every
    run starts in the constructor as `orbits._solve` starts it: scipy's
    DOP853 constructor (`_first_step`) checks the tolerances, takes f at the
    start and chooses the first step, once per trial.  `step` tries one step
    on every column with the shared step arithmetic and the lanes'
    controller (`_control_lanes`).  So each lane takes the steps, stops,
    dense output and `nfev` of `orbits._solve` when only the escape event
    (the disc of `ESCAPE_RADIUS`) can stop it, bit for bit.  A column that
    is not running is stepped with length 0 and nothing is kept of it,
    until fewer than half the columns are running: `step` then drops the
    stopped columns (`_pack`), so a step costs what its running lanes cost.
    `finish_on_floats` takes one column on from wherever `step` left it to
    its run's end on Python floats, with the same arithmetic and so the
    same answer.  Each trial's accepted steps wait in its own list, as the
    bytes of their rows, until its run ends.
    """

    # an accepted step's row: t, the state, and the interpolant's rows F[1:]
    # (F[0] is the state's change)
    _ROW = 15

    def __init__(self, wps, starts, span, rtol, atol):
        if not span > 0:
            raise ValueError(f"lanes integrate forward, but tau_span is {span}")
        n = len(wps)
        self.wps, self.span, self.rtol_used = wps, float(span), rtol
        self.rhs = tau_rhs(wps)
        self.escape = _escape_event(ESCAPE_RADIUS)
        self.x0 = np.array([(float(s[0]), float(s[1])) for s in starts]).reshape(n, 2)
        self.trial, self.t, self.h_abs = np.arange(n), np.zeros(n), np.zeros(n)
        self.y = self.x0.T.copy()
        self.g = self.escape(0.0, self.y)
        self.k = np.zeros((_N_STAGES, 2, n))
        self.rejected, self.running = np.zeros(n, bool), np.ones(n, bool)
        self.nfev, self.steps = np.zeros(n, int), [[] for _ in range(n)]
        for c, wp in enumerate(wps):
            _y, self.k[0, :, c], self.h_abs[c], self.rtol, self.atol, self.nfev[c] = \
                _first_step(tau_rhs(wp), self.x0[c], self.span, rtol, atol)

    def _pack(self):
        """Drop the stopped columns from every per-lane array, and build the
        right-hand side of the trials kept."""
        keep = np.flatnonzero(self.running)
        self.trial = self.trial[keep]
        self.t, self.h_abs, self.g = self.t[keep], self.h_abs[keep], self.g[keep]
        self.y, self.k = self.y.take(keep, axis=1), self.k.take(keep, axis=2)
        self.rejected, self.running, self.nfev = \
            self.rejected[keep], self.running[keep], self.nfev[keep]
        self.rhs = tau_rhs([self.wps[i] for i in self.trial.tolist()])

    # a rejected trial step may overflow, which Python floats do without a word
    @np.errstate(all="ignore")
    def step(self):
        """Try one step on every column, the stopped ones first dropped when
        fewer than half the columns are running; returns (i, Trajectory)
        for each trial i whose run ended on it."""
        if 2 * np.count_nonzero(self.running) < len(self.running):
            self._pack()
        running, rejected, t, y, k = self.running, self.rejected, self.t, self.y, self.k
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(~rejected & (self.h_abs < min_step), min_step, self.h_abs)
        failed = running & (h_abs < min_step)
        t_new = t + h_abs
        t_new = np.where(t_new - self.span > 0, self.span, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        n = _rk_step(self.rhs, t, h, y, k)
        err5, err3 = _error_sums(y, n, k, (self.rtol, self.atol, self.atol))

        tried = np.flatnonzero(running & ~failed)
        ok, self.h_abs[tried] = _control_lanes(h_abs[tried], err5[tried], err3[tried],
                                               rejected[tried])
        accepted = np.zeros(len(t), bool)
        accepted[tried] = ok
        self.nfev[tried] += _FSAL
        rejected[tried] = ~ok

        acc = np.flatnonzero(accepted)
        F = np.array(_dense_rows(self.rhs, t, h, y, n, k))
        self.nfev[acc] += len(_EXTRA)
        rows = np.column_stack((t_new[acc], n[:, acc].T,
                                F[1:, :, acc].transpose(2, 0, 1).reshape(len(acc), 12)))
        block, size = rows.tobytes(), 8 * self._ROW
        for i, at in zip(self.trial[acc].tolist(), range(0, len(block), size)):
            self.steps[i].append(block[at:at + size])
        g_new = self.escape(t_new, n)
        g = self.g
        escaped = accepted & (((g <= 0) & (0 <= g_new)) | ((g >= 0) & (0 >= g_new)))
        g[acc] = g_new[acc]
        t[acc] = t_new[acc]
        y[:, acc] = n[:, acc]
        k[0][:, acc] = k[_FSAL][:, acc]

        ended = np.flatnonzero(failed | (accepted & ((t_new - self.span >= 0) | escaped)))
        out = [(int(self.trial[c]), self._trajectory(c, bool(escaped[c]), bool(failed[c])))
               for c in ended.tolist()]
        running[ended] = False
        t[ended], self.h_abs[ended] = self.span, 0.0
        return out

    def finish_on_floats(self, c):
        """Step column c's running lane to its run's end one step after
        another on Python floats, with `_float_step` taking on the lane's
        t, step length, state, f, rejection flag and `nfev`, and the escape
        crossing found as `step` finds it; each accepted step's dense rows
        are stored as `step` stores them.  Returns the run's Trajectory
        (`_trajectory`)."""
        rhs = tau_rhs(self.wps[self.trial[c]])
        tols = (self.rtol, self.atol, self.atol)
        t, h_abs, g, nfev = float(self.t[c]), float(self.h_abs[c]), float(self.g[c]), 0
        (y0, y1), rejected = self.y[:, c].tolist(), bool(self.rejected[c])
        k = [None] * _N_STAGES
        k[0] = tuple(self.k[0, :, c].tolist())
        steps = self.steps[self.trial[c]]
        escaped = False
        while True:
            t_new, h, new, h_abs, n = _float_step(rhs, t, self.span, h_abs, y0, y1, k, tols,
                                                  rejected)
            nfev += n
            if t_new is None:
                break
            F = _dense_rows(rhs, t, h, (y0, y1), new, k)
            nfev += len(_EXTRA)
            steps.append(np.array((t_new, *new, *chain.from_iterable(F[1:]))).tobytes())
            g_new = self.escape(t_new, new)
            escaped = (g <= 0 and 0 <= g_new) or (g >= 0 and 0 >= g_new)
            t, (y0, y1), g, rejected, k[0] = t_new, new, g_new, False, k[_FSAL]
            if t_new - self.span >= 0 or escaped:
                break
        self.nfev[c] += nfev
        self.running[c] = False
        self.t[c], self.h_abs[c] = self.span, 0.0
        return self._trajectory(c, escaped, t_new is None)

    def _trajectory(self, c, escaped, failed):
        """Column c's run as `orbits._solve` returns it, its trial's step
        list freed; an escaped run is cut at the escape root."""
        i = self.trial[c]
        steps = np.frombuffer(b"".join(self.steps[i])).reshape(-1, self._ROW)
        self.steps[i] = None
        t = np.concatenate(([0.0], steps[:, 0]))
        states = np.concatenate((self.x0[i:i + 1], steps[:, 1:3]))
        h, dy = np.diff(t), np.diff(states, axis=0)
        if escaped:
            last = [dy[-1].tolist(), *steps[-1, 3:].reshape(6, 2).tolist()]
            t, states, dropped = _cut(t, states, last, self.escape)
            if dropped:
                steps, h, dy = steps[:-1], h[:-1], dy[:-1]
        F = np.empty((7, 2, len(h)))   # highest power first, as `Trajectory._segments`
        F[:6], F[6] = steps[:, 3:].T.reshape(6, 2, -1)[::-1], dy.T
        traj = Trajectory(wp=self.wps[i], t=t, states=states, sol=None, escaped=escaped,
                          rtol_used=self.rtol_used, nfev=int(self.nfev[c]),
                          status=TOO_SMALL_STEP if failed else "ok")
        traj._segments = (t, t[:-1], h, np.ascontiguousarray(states[:-1].T), F)
        return traj


def integrate_many(wps, starts, tau_span=10.0, *, fis):
    """`orbits.integrate` for many trials at once: trial i integrates the
    tau-form of wps[i] from starts[i] over [0, tau_span] and measures its
    drift on fis[i].  Yields (i, Trajectory) as each trial settles, the
    Trajectory equal to `integrate(wps[i], starts[i], tau_span,
    fi=fis[i])`'s bit for bit, `nfev` included, except that it has no scipy
    solution (`sol`) and no axis crossings (both None).
    A caller that keeps only what it needs of each trial holds one trial's
    steps at a time, besides the best runs held for a later pass.

    The trials are retried in passes, as `integrate` retries one trial:
    pass k runs the trials still pending, in trial order, as the lanes of
    one `_Lanes` set at one pair of tolerances, 100x tighter than the pass
    before.  The set
    drops its stopped lanes once fewer than half of them run.  A lane step
    still costs numpy's per-call overhead however few lanes run, so once
    `FLOAT_TAIL` or fewer are running, each is finished on floats, one
    after another (`_Lanes.finish_on_floats`).  Each run is measured and
    settled as `integrate` settles it (`_measure_drift`, `_settle`); a
    trial whose drift is over the limit joins the next pass, and after
    pass `RETRIES` it yields its best run.  Trials settle in any order.
    """
    pending, best = list(range(len(wps))), {}
    rtol, atol = RTOL, ATOL
    for attempt in range(RETRIES + 1):
        if not pending:
            return
        lanes = _Lanes([wps[i] for i in pending], [starts[i] for i in pending], tau_span,
                       rtol, atol)
        retry = []
        while lanes.running.any():
            running = np.flatnonzero(lanes.running)
            if len(running) > FLOAT_TAIL:
                ended = lanes.step()
            else:
                c = int(running[0])
                ended = [(int(lanes.trial[c]), lanes.finish_on_floats(c))]
            for j, traj in ended:
                i = pending[j]
                _measure_drift(traj, fis[i], starts[i], DRIFT_LIMIT)
                done, held = _settle(traj, best.pop(i, None), DRIFT_LIMIT)
                if done is None and attempt < RETRIES:
                    best[i] = held
                    retry.append(i)
                else:
                    yield i, done if done is not None else held
        pending, rtol, atol = sorted(retry), rtol * 1e-2, atol * 1e-2


def measure_axis_period(rhs, start, *, span=200.0):
    """Period of a closed orbit of a generic planar `rhs`, via the time
    between the first and third y = 0 crossing starting off-axis.  Returns
    (period, crossing_times); period is None if fewer than 3 crossings.

    The run over [0, span], at `TIGHT_RTOL` and `TIGHT_ATOL`, stops at its
    fourth crossing (two periods suffice), at the span's end or at a
    too-small step, with the crossing times `solve_ivp` gives it on
    `orbits._FloatDOP853` with a y = 0 event terminal at its fourth
    occurrence, bit for bit: scipy's first step (`_first_step`), then
    `_float_step`s, and a step on which y changes sign or reaches 0
    (scipy's `find_active_events`, y at the start counting as the event's
    first value) gets its dense rows and its crossing is that step's event
    root (`_event_root`).  Crossings at the start are dropped from the
    times; a span <= 0 raises ValueError."""
    span = float(span)
    if not span > 0:
        raise ValueError(f"the axis-period run integrates forward, but the span is {span}")
    y, f, h_abs, rtol, atol, _nfev = _first_step(rhs, start, span, TIGHT_RTOL, TIGHT_ATOL)
    (y0, y1), tols = y.tolist(), (rtol, atol, atol)
    k = [f, *[None] * (_N_STAGES - 1)]
    t, crossings = 0.0, []
    while len(crossings) < 4:
        t_new, h, new, h_abs, _nfev = _float_step(rhs, t, span, h_abs, y0, y1, k, tols, False)
        if t_new is None:
            break
        g, g_new = y1, new[1]
        if (g <= 0 and g_new >= 0) or (g >= 0 and g_new <= 0):
            F = _dense_rows(rhs, t, h, (y0, y1), new, k)
            crossings.append(_event_root(lambda _t, x: x[1], t, h, (y0, y1), F, t_new))
        t, (y0, y1), k[0] = t_new, new, k[_FSAL]
        if t - span >= 0:
            break
    tc = np.array(crossings)
    tc = tc[tc > 1e-12]
    if len(tc) < 3:
        return None, tc
    return float(tc[2] - tc[0]), tc
