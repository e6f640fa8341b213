"""Numeric orbits of the tau-form system: integration, wave-type
classification, and the references the level walk (`levels`) is tested
against.

The observer reads orbits off the level curves with no integration
(`levels.walk_level`); this module holds what integrates.  The integrator
serves the conservation checks, axis periods, and the reference paths the
level readings are tested against (`integrate` + `classify_orbit` for
periodic orbits, `shoot_connection` + `classify_orbit` for connections).
`trace_level_curve` reads a level on a grid, as the reference the tests
compare the walk with.

Every integration takes scipy's DOP853 steps, with its tableau, error norm
and step-size controller written once, on values that are Python floats or
numpy arrays over lanes.  There are two drivers:

* `solve_ivp` with `_FloatDOP853`, which takes each step on Python floats
  and so spares the planar system numpy's per-call overhead, runs one
  trajectory of any planar right-hand side: through `_solve` (dense
  output, with the escape disc, the y = 0 crossings and any arrival
  handed to scipy's event loop as events) and through
  `measure_axis_period` (its one axis event, no dense output).
* `integrate_many` runs many fixed-span tau-form trials at once, as the
  lanes of numpy arrays (`_Lanes`), each lane stopping at the escape disc
  with the step, the cut (`_cut`) and the answer `_solve` and `integrate`
  give its trial, bit for bit.  Once `FLOAT_TAIL` or fewer runs are left,
  it finishes them one by one on floats with the float stepper's own step
  (`_float_step`).  The conservation check runs its trials this way.

The tau-form runs integrate `field.tau_rhs`, the package's one tau-form
right-hand side.  A trajectory is read at any set of times through
`Trajectory.at`, which evaluates all of them in one numpy pass over the
steps' dense-output polynomials, bit for bit as scipy would.
`integrate` and `integrate_many` monitor the first integral along each
trajectory; if the relative drift exceeds the limit the run is retried
once at tighter tolerances.  This is the one module that imports scipy on
load (the benchmark's tracer looks for `solve_ivp` bound here); nothing on
the observer's path imports it.

Classification vocabulary (the `tag` of :class:`OrbitClass`):

* ``PeriodicSmooth``  closed orbit, profile smooth.
* ``PeriodicPeakon``  closed orbit hugging the singular line with a rapid
  derivative jump (only possible when the line carries a saddle pair, whose
  arch is the limiting shape).
* ``Peakon`` / ``AntiPeakon``  arch heteroclinic between the two line
  saddles, crest pointing toward (left arch) or away from (right arch)
  larger phi.
* ``Solitary``  homoclinic loop to an axis saddle.
* ``Unbounded``  escaped the working radius.
* ``BoundaryDegenerate``  none of the above could be certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.ivp import solve_event_equation
from scipy.integrate._ivp.rk import Dop853DenseOutput

from .equilibria import EquilibriumCensus, SADDLE
from .field import FirstIntegral, regular_jacobian, tau_rhs
from .levels import ANTI_PEAKON, PEAKON, SOLITARY, LevelBranch, brentq
from .params import WaveParams

__all__ = [
    "Trajectory",
    "OrbitClass",
    "integrate",
    "integrate_many",
    "trace_level_curve",
    "trace_branches",
    "y_squared_fn",
    "classify_orbit",
    "shoot_connection",
    "measure_axis_period",
]

PERIODIC_SMOOTH = "PeriodicSmooth"
PERIODIC_PEAKON = "PeriodicPeakon"
UNBOUNDED = "Unbounded"
BOUNDARY_DEGENERATE = "BoundaryDegenerate"
ESCAPE_RADIUS = 50.0   # default radius of the (phi, y) disc integrations may not leave
# `integrate`'s defaults, which `integrate_many` always takes: the first
# run's tolerances, the drift limit, and the retries at 100x tighter ones
RTOL, ATOL, DRIFT_LIMIT, RETRIES = 1e-10, 1e-12, 1e-8, 1
# `integrate_many` finishes its runs one by one on floats once this many or
# fewer are left: a lane step costs numpy's per-call overhead whatever the
# number of running lanes (0.6-0.9 ms on a 2-core host), a float step about
# 50 us a lane
FLOAT_TAIL = 16


@dataclass
class Trajectory:
    """One DOP853 run, from `_solve` or a lane of `integrate_many`.
    `states` holds the accepted steps; `at` reads the dense solution at any
    times (`dense`, `xi_of_tau` and `classify_orbit` all sample through it).
    `axis_crossings` holds the y = 0 crossing times scipy's event loop
    found on a `_solve` run."""

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

    def dense(self, n=2001):
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


class _Row(tuple):
    """A DOP853 tableau row's nonzero (index, coefficient) pairs, in order;
    `js` and `col` hold the same as an index array and a coefficient column
    for lane stages."""

    def __new__(cls, row):
        self = super().__new__(cls, ((j, float(a)) for j, a in enumerate(row) if a != 0.0))
        self.js = np.array([j for j, _ in self], dtype=np.intp)
        self.col = np.array([a for _, a in self]).reshape(-1, 1, 1)
        return self


# DOP853's tableau as sparse rows, with scipy's constants: the (c, row) of
# stages 1 to 11 and of the dense output's three extra stages, the weights
# B, the error rows E3 and E5 and the interpolant rows D
_STAGES = tuple((float(c), _Row(a[:s])) for s, (a, c) in
                enumerate(zip(DOP853.A[1:], DOP853.C[1:]), 1))
_EXTRA = tuple((float(c), _Row(a[:s])) for s, (a, c) in
               enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), DOP853.n_stages + 1))
_B, _E3, _E5 = _Row(DOP853.B), _Row(DOP853.E3), _Row(DOP853.E5)
_D = tuple(_Row(row) for row in DOP853.D)
_FSAL = DOP853.n_stages                    # the stage that holds f at the new state
_N_STAGES = len(DOP853.A_EXTRA[0])         # stages with the dense output's extra three
_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0   # scipy's RungeKutta controller

# The step arithmetic below is written once, on values that are Python
# floats (`_FloatDOP853`: the stages `k` a list of float pairs) or arrays
# over lanes (`_Lanes`: `k` an array of shape (stages, 2, lanes)).  Sums run
# left to right, never through np.dot or `sum()` (compensated from Python
# 3.12), so a float run differs from scipy's only by rounding, and every
# lane equals the float run of its trial bit for bit.


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


def _stages(rhs, rows, first, t, h, y0, y1, k):
    """Stages `first` on of a step of length h from (t, (y0, y1)) into k."""
    for s, (c, row) in enumerate(rows, first):
        d0, d1 = _combine(row, k)
        k[s] = rhs(t + c * h, (y0 + d0 * h, y1 + d1 * h))


def _rk_step(rhs, t, h, y0, y1, k):
    """DOP853's RK step: stages 1 to 11 after f in k[0], the new state, and
    f there as stage `_FSAL`."""
    _stages(rhs, _STAGES, 1, t, h, y0, y1, k)
    d0, d1 = _combine(_B, k)
    n0, n1 = y0 + h * d0, y1 + h * d1
    k[_FSAL] = rhs(t + h, (n0, n1))
    return n0, n1


def _error_sums(y0, y1, n0, n1, k, tols):
    """The step's 5th- and 3rd-order error estimates over the scale
    atol + rtol * max(|y|, |y_new|), squared and summed over the
    components."""
    rtol, atol0, atol1 = tols
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


def _dense_rows(rhs, t_old, h, y0, y1, n0, n1, k):
    """The three extra stages of an accepted step from (t_old, (y0, y1)) to
    (n0, n1), and its interpolant's rows F as (row0, row1) pairs, lowest
    power first (scipy's F)."""
    _stages(rhs, _EXTRA, _FSAL + 1, t_old, h, y0, y1, k)
    (f0, f1), (g0, g1) = k[0], k[_FSAL]
    dy0, dy1 = n0 - y0, n1 - y1
    F = [(dy0, dy1), (h * f0 - dy0, h * f1 - dy1),
         (2 * dy0 - h * (g0 + f0), 2 * dy1 - h * (g1 + f1))]
    for row in _D:
        d0, d1 = _combine(row, k)
        F.append((h * d0, h * d1))
    return F


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
        n0, n1 = _rk_step(rhs, t, h, y0, y1, k)
        nfev += _FSAL   # stages 1 to 11, and f at the new state
        accepted, h_abs = _control(h, *_error_sums(y0, y1, n0, n1, k, tols), rejected)
        if accepted:
            return t_new, h, (n0, n1), h_abs, nfev
        rejected = True


class _FloatDOP853(DOP853):
    """scipy's DOP853 for a planar system, each step taken forward on
    Python floats.

    `__init__` is scipy's: tolerance checks, the first step and its `nfev`.
    A step is `_float_step`, the shared step arithmetic above on floats:
    DOP853's RK step, error norm and step-size controller, with scipy's
    constants, and no maximum step.  The RHS gets the state as a tuple of
    floats, and numpy only holds the accepted state and the dense output,
    which keeps DOP853's form (`Dop853DenseOutput`), so OdeSolution, scipy's event
    location and `Trajectory.at` read it as they read scipy's.
    """

    def __init__(self, fun, t0, y0, t_bound, **options):
        if not t_bound > t0:
            raise ValueError(f"the float stepper integrates forward, but the span is "
                             f"{t_bound - t0}")
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun   # scipy keeps only its numpy-wrapped copy
        self._tols = (float(self.rtol), *np.broadcast_to(self.atol, (2,)).tolist())
        self.f = tuple(self.f.tolist())
        self._k = [None] * _N_STAGES   # (phi, y) pair per stage

    def _step_impl(self):
        k = self._k
        k[0] = self.f
        # the first step length comes as np.float64
        t_new, h, new, h_abs, nfev = _float_step(
            self._rhs, self.t, self.t_bound, float(self.h_abs), *self.y.tolist(), k,
            self._tols, False)
        self.nfev += nfev
        if t_new is None:
            return False, self.TOO_SMALL_STEP
        self.h_previous = h
        self.y_old = self.y
        self.t = t_new
        self.y = np.array(new)
        self.h_abs = h_abs
        self.f = k[_FSAL]
        return True, None

    def _dense_output_impl(self):
        y0, y1 = self.y_old.tolist()
        n0, n1 = self.y.tolist()
        F = _dense_rows(self._rhs, self.t_old, self.h_previous, y0, y1, n0, n1, self._k)
        self.nfev += len(_EXTRA)
        return Dop853DenseOutput(self.t_old, self.t, self.y_old, np.array(F))


def _escape_event(escape_radius):
    """The terminal event of leaving the disc of `escape_radius`."""
    r2 = escape_radius * escape_radius

    def ev_escape(_t, x):
        return x[0] * x[0] + x[1] * x[1] - r2
    ev_escape.terminal = True
    return ev_escape


def _axis_event(terminal):
    """The event of crossing y = 0, terminal at its `terminal`-th
    occurrence (never when None)."""
    def ev_axis(_t, x):
        return x[1]
    ev_axis.terminal = terminal
    return ev_axis


def _cut(t, states, step, event):
    """A run's times and states cut at the root of `event` on its last
    `step`, as solve_ivp's `handle_events` cuts them: the last point
    becomes the root and its state, or, when the root is the step's start,
    the step is dropped (solve_ivp's `donot_append` rule).  Returns (t,
    states, whether the step was dropped)."""
    root = solve_event_equation(event, step, step.t_old, step.t)
    if len(t) > 2 and t[-2] == root:
        return t[:-1], states[:-1], True
    return np.append(t[:-1], root), np.vstack((states[:-1], step(root))), False


def _solve(wp, rhs, start, span, rtol, atol, *, escape_radius=math.inf,
           axis_stop=None, events=()):
    """Integrate `rhs` from `start` over [0, span] with dense DOP853
    (`_FloatDOP853`) until it leaves the disc of `escape_radius`, reaches
    the `axis_stop`-th y = 0 crossing (if given) or one of `events`
    (terminal events in scipy's form, each stopping at its first
    occurrence).  Returns the Trajectory (recording `wp` and its y = 0
    crossing times, read with `Trajectory.at`) and the times each of
    `events` fired.  scipy's event loop runs the events [escape, axis,
    *events]; a span <= 0 raises ValueError.
    """
    res = solve_ivp(rhs, (0.0, span), [float(start[0]), float(start[1])],
                    method=_FloatDOP853, rtol=rtol, atol=atol, dense_output=True,
                    events=[_escape_event(escape_radius), _axis_event(axis_stop), *events])
    traj = Trajectory(wp=wp, t=res.t, states=res.y.T, sol=res.sol,
                      escaped=len(res.t_events[0]) > 0, axis_crossings=res.t_events[1],
                      rtol_used=rtol, nfev=res.nfev,
                      status="ok" if res.success else (res.message or "solver failure"))
    return traj, res.t_events[2:]


def _measure_drift(traj, fi, start, drift_limit):
    """Measure the relative drift of H along `traj` on 512 dense samples,
    as `integrate` documents it: set `h0`, `drift_samples` and
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
    """`integrate`'s choice after a measured run: (the run to return, or
    None to retry at tighter tolerances; the best run so far).  A run is
    returned when its drift is unmeasured, within the limit, or measured
    at rtol 1e-13 or below; otherwise it becomes the best run unless an
    earlier one drifted no more."""
    if traj.drift_samples == 0 or not (traj.h_drift_max > drift_limit
                                       and traj.rtol_used > 1e-13):
        return traj, best
    return None, traj if best is None or traj.h_drift_max < best.h_drift_max else best


def integrate(wp: WaveParams, start, tau_span=10.0, *, fi: FirstIntegral | None = None,
              rtol=RTOL, atol=ATOL, escape_radius=ESCAPE_RADIUS,
              drift_limit=DRIFT_LIMIT, max_retries=RETRIES,
              stop_after_crossings: int | None = None) -> Trajectory:
    """Integrate the tau-form from `start` over [0, tau_span].

    With `fi` given, the relative drift of H along the samples is measured
    (scale: max(|H0|, max |H|, 1e-9)); if it exceeds drift_limit the run is
    repeated once with 100x tighter tolerances and the better run returned.
    When H carries a pole or logarithm on the singular line (m < 0), its
    gradient blows up as orbits approach the line, and a sample is excluded
    from the measurement when |grad H| * rtol * (1 + |x|) exceeds the bound
    being certified: there the requested drift_limit is unverifiable at the
    attempted tolerance no matter how well the solver did.  Orbits that
    collapse onto the line can end up with no measurable samples; the drift
    is then unverified and `h_drift_max` stays None (never 0).
    Escape beyond `escape_radius` terminates with `escaped=True`; step-size
    failure near degenerate points returns the partial orbit with a status.
    `stop_after_crossings=n` ends the run at the n-th y = 0 crossing (a
    closed orbit needs three to exhibit one full period), saving the cost of
    integrating hundreds of redundant cycles.  `integrate_many` runs many
    trials at once with the same answers.
    """
    rhs = tau_rhs(wp)
    attempt_rtol, attempt_atol = rtol, atol
    best = None
    for _ in range(max_retries + 1):
        traj, _ = _solve(wp, rhs, start, tau_span, attempt_rtol, attempt_atol,
                         escape_radius=escape_radius, axis_stop=stop_after_crossings)
        if fi is None:
            return traj
        _measure_drift(traj, fi, start, drift_limit)
        done, best = _settle(traj, best, drift_limit)
        if done is not None:
            return done
        attempt_rtol, attempt_atol = attempt_rtol * 1e-2, attempt_atol * 1e-2
    return best


class _Lanes:
    """Forward tau-form DOP853 runs stepped together, one run per lane.

    numpy arrays over the lanes hold each run's t, step length, state,
    stages and rejection flag.  `step` tries one step on every running
    lane with the shared step arithmetic; a lane's controller runs on its
    floats (`_control`: numpy's power differs from Python's in the last
    bit), and its first step is the one scipy's DOP853 constructor
    chooses.  So each lane takes the steps, stops, dense output and `nfev`
    of `_solve` when only the escape event (the disc of `ESCAPE_RADIUS`)
    can stop it, bit for bit.  Lanes that are not running are stepped too,
    with length 0, and nothing is kept of them.  `finish_on_floats` takes
    one lane on from wherever `step` left it to its run's end on Python
    floats, with the same arithmetic and so the same answer.  Each lane's
    accepted steps wait in its own list, as the bytes of their rows, until
    its run ends.
    """

    # an accepted step's row: t, the state, and the interpolant's rows F[1:]
    # (F[0] is the state's change)
    _ROW = 15

    def __init__(self, wps, starts, span):
        if not span > 0:
            raise ValueError(f"lanes integrate forward, but tau_span is {span}")
        n = len(wps)
        self.wps, self.span = wps, float(span)
        self.rhs = tau_rhs(wps)
        self.escape = _escape_event(ESCAPE_RADIUS)
        self.x0 = np.array([(float(s[0]), float(s[1])) for s in starts]).reshape(n, 2)
        # a lane that is not running sits at the span's end with step 0
        self.t, self.h_abs, self.g = np.full(n, self.span), np.zeros(n), np.zeros(n)
        self.y = self.x0.T.copy()
        self.k = np.zeros((_N_STAGES, 2, n))
        self.rtol, self.atol = np.ones(n), np.ones(n)
        self.rejected, self.running = np.zeros(n, bool), np.zeros(n, bool)
        self.nfev, self.rtol_used = np.zeros(n, int), [None] * n
        self.steps = [None] * n

    def start(self, i, rtol, atol):
        """Start lane i's run from its start at these tolerances, as
        `_solve` starts it: scipy's DOP853 constructor checks the
        tolerances, takes f there and chooses the first step."""
        first = DOP853(tau_rhs(self.wps[i]), 0.0, self.x0[i], self.span, rtol=rtol, atol=atol)
        self.t[i], self.h_abs[i], self.y[:, i], self.k[0, :, i] = 0.0, first.h_abs, first.y, first.f
        self.g[i] = self.escape(0.0, first.y.tolist())
        self.rtol[i], self.atol[i] = float(first.rtol), float(first.atol)
        self.rejected[i], self.running[i] = False, True
        self.nfev[i], self.rtol_used[i] = first.nfev, rtol
        self.steps[i] = []

    # a rejected trial step may overflow, which Python floats do without a word
    @np.errstate(all="ignore")
    def step(self):
        """Try one step on every running lane; returns (i, Trajectory) for
        each lane whose run ended on it."""
        running, rejected, t, k = self.running, self.rejected, self.t, self.k
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = np.where(~rejected & (self.h_abs < min_step), min_step, self.h_abs)
        failed = running & (h_abs < min_step)
        t_new = t + h_abs
        t_new = np.where(t_new - self.span > 0, self.span, t_new)
        h = t_new - t
        h_abs = np.abs(h)
        y0, y1 = self.y
        n0, n1 = _rk_step(self.rhs, t, h, y0, y1, k)
        err5, err3 = _error_sums(y0, y1, n0, n1, k, (self.rtol, self.atol, self.atol))

        tried = np.flatnonzero(running & ~failed)
        verdicts = [_control(*lane) for lane in zip(
            h_abs[tried].tolist(), err5[tried].tolist(), err3[tried].tolist(),
            rejected[tried].tolist())]
        accepted = np.zeros(len(t), bool)
        if verdicts:
            ok, self.h_abs[tried] = zip(*verdicts)
            accepted[tried] = ok
        self.nfev[tried] += _FSAL
        rejected[tried] = ~accepted[tried]

        acc = np.flatnonzero(accepted)
        F = np.array(_dense_rows(self.rhs, t, h, y0, y1, n0, n1, k))
        self.nfev[acc] += len(_EXTRA)
        rows = np.column_stack((t_new[acc], n0[acc], n1[acc],
                                F[1:, :, acc].transpose(2, 0, 1).reshape(len(acc), 12)))
        for i, row in zip(acc.tolist(), rows):
            self.steps[i].append(row.tobytes())   # a view would keep the whole block alive
        g_new = self.escape(t_new, (n0, n1))
        g = self.g
        escaped = accepted & (((g <= 0) & (0 <= g_new)) | ((g >= 0) & (0 >= g_new)))
        g[acc] = g_new[acc]
        t[acc] = t_new[acc]
        self.y[:, acc] = (n0[acc], n1[acc])
        k[0][:, acc] = k[_FSAL][:, acc]

        ended = np.flatnonzero(failed | (accepted & ((t_new - self.span >= 0) | escaped)))
        out = [(i, self._trajectory(i, bool(escaped[i]), bool(failed[i])))
               for i in ended.tolist()]
        running[ended] = False
        t[ended], self.h_abs[ended] = self.span, 0.0
        return out

    def finish_on_floats(self, i):
        """Step running lane i to its run's end one step after another on
        Python floats, with the float stepper's `_float_step` taking on the
        lane's t, step length, state, f, rejection flag and `nfev`, and the
        escape crossing found as `step` finds it; each accepted step's
        dense rows are stored as `step` stores them.  Returns the run's
        Trajectory (`_trajectory`)."""
        rhs = tau_rhs(self.wps[i])
        tols = (float(self.rtol[i]), float(self.atol[i]), float(self.atol[i]))
        t, h_abs, g, nfev = float(self.t[i]), float(self.h_abs[i]), float(self.g[i]), 0
        (y0, y1), rejected = self.y[:, i].tolist(), bool(self.rejected[i])
        k = [None] * _N_STAGES
        k[0] = tuple(self.k[0, :, i].tolist())
        steps = self.steps[i]
        escaped = False
        while True:
            t_new, h, new, h_abs, n = _float_step(rhs, t, self.span, h_abs, y0, y1, k, tols,
                                                  rejected)
            nfev += n
            if t_new is None:
                break
            F = _dense_rows(rhs, t, h, y0, y1, *new, k)
            nfev += len(_EXTRA)
            steps.append(np.array((t_new, *new, *chain.from_iterable(F[1:]))).tobytes())
            g_new = self.escape(t_new, new)
            escaped = (g <= 0 and 0 <= g_new) or (g >= 0 and 0 >= g_new)
            t, (y0, y1), g, rejected, k[0] = t_new, new, g_new, False, k[_FSAL]
            if t_new - self.span >= 0 or escaped:
                break
        self.nfev[i] += nfev
        self.running[i] = False
        self.t[i], self.h_abs[i] = self.span, 0.0
        return self._trajectory(i, escaped, t_new is None)

    def _trajectory(self, i, escaped, failed):
        """Lane i's run as `_solve` returns it, its step list freed; an
        escaped run is cut at the escape root."""
        steps = np.frombuffer(b"".join(self.steps[i])).reshape(-1, self._ROW)
        self.steps[i] = None
        t = np.concatenate(([0.0], steps[:, 0]))
        states = np.concatenate((self.x0[i:i + 1], steps[:, 1:3]))
        h, dy = np.diff(t), np.diff(states, axis=0)
        if escaped:
            last = Dop853DenseOutput(t[-2], t[-1], states[-2],
                                     np.vstack((dy[-1], steps[-1, 3:].reshape(6, 2))))
            t, states, dropped = _cut(t, states, last, self.escape)
            if dropped:
                steps, h, dy = steps[:-1], h[:-1], dy[:-1]
        F = np.empty((7, 2, len(h)))   # highest power first, as `Trajectory._segments`
        F[:6], F[6] = steps[:, 3:].T.reshape(6, 2, -1)[::-1], dy.T
        traj = Trajectory(wp=self.wps[i], t=t, states=states, sol=None, escaped=escaped,
                          rtol_used=self.rtol_used[i], nfev=int(self.nfev[i]),
                          status=DOP853.TOO_SMALL_STEP if failed else "ok")
        traj._segments = (t, t[:-1], h, np.ascontiguousarray(states[:-1].T), F)
        return traj


def integrate_many(wps, starts, tau_span=10.0, *, fis):
    """`integrate` for many trials at once: trial i integrates the tau-form
    of wps[i] from starts[i] over [0, tau_span] and measures its drift on
    fis[i].  Yields (i, Trajectory) as each trial settles, the Trajectory
    equal to `integrate(wps[i], starts[i], tau_span, fi=fis[i])`'s bit for
    bit, `nfev` included, except that it has no scipy solution (`sol`) and
    no axis crossings (both None).
    A caller that keeps only what it needs of each trial holds one trial's
    steps at a time.

    The trials run as the lanes of one `_Lanes` set.  A lane step costs
    numpy's per-call overhead at any number of running lanes, so once
    `FLOAT_TAIL` or fewer are running, each is finished on floats, one
    after another (`_Lanes.finish_on_floats`).  A trial whose drift is over
    the limit restarts in its lane at 100x tighter tolerances as soon as
    its run ends, on floats if the lanes have reached their float tail, and
    its better run is kept as `integrate` keeps it.  Trials settle in any
    order.
    """
    lanes = _Lanes(wps, starts, tau_span)
    tols = [(RTOL, ATOL)] * len(wps)
    retries, best = [RETRIES] * len(wps), [None] * len(wps)
    for i, (r, a) in enumerate(tols):
        lanes.start(i, r, a)
    while lanes.running.any():
        running = np.flatnonzero(lanes.running)
        if len(running) > FLOAT_TAIL:
            ended = lanes.step()
        else:
            i = int(running[0])
            ended = [(i, lanes.finish_on_floats(i))]
        for i, traj in ended:
            _measure_drift(traj, fis[i], starts[i], DRIFT_LIMIT)
            done, best[i] = _settle(traj, best[i], DRIFT_LIMIT)
            if done is None and retries[i] > 0:
                retries[i] -= 1
                tols[i] = (tols[i][0] * 1e-2, tols[i][1] * 1e-2)
                lanes.start(i, *tols[i])
                continue
            yield i, done if done is not None else best[i]
            best[i] = None


def y_squared_fn(fi: FirstIntegral, h: float):
    """phi -> y^2 on the level H = h (may be negative or infinite), for a
    float or an array of phi.

    H = A(phi) y^2 + B(phi) with A = y2_coeff * (phi - line)^(m+1), so
    y^2 = (h - B)/A.  Returns +-inf at poles; raises nothing.
    """

    line, a_coeff, power = float(fi.line), float(fi.y2_coeff), fi.y2_power

    def y2(phi):
        phi = np.asarray(phi, dtype=float)
        w = phi - line
        on_line = (w == 0.0) & fi.singular_on_line
        with np.errstate(divide="ignore", invalid="ignore"):
            b = fi.eval(np.where(on_line, line + 1.0, phi), 0.0)
            a = a_coeff * w**power
            out = np.where(a == 0.0, np.where(h - b >= 0, math.inf, -math.inf), (h - b) / a)
        out = np.where(on_line, math.inf, out)
        return float(out) if out.ndim == 0 else out

    return y2


def trace_level_curve(fi: FirstIntegral, h: float, phi_window, n=2001):
    """Branches of {H = h} inside phi_window, each as the y >= 0 half.

    The grid run is split at the singular line (level curves only meet the
    line at the critical level); see `trace_branches`.
    """
    return trace_branches(y_squared_fn(fi, h), phi_window, n, line=float(fi.line))


def trace_branches(y2, phi_window, n=2001, line=None):
    """Runs of {y2(phi) > 0} inside phi_window, each as the branch
    y = sqrt(y2) >= 0 of a curve symmetric in y.

    `y2` maps a phi array to y^2 on the level.  Turning points are refined
    by bisection on y^2, and a branch is `closed` when both of its ends are
    turning points strictly inside the window.  A `line` inside the window
    is made a grid point that no branch may cross.
    """
    lo, hi = float(phi_window[0]), float(phi_window[1])
    s = math.nan if line is None else float(line)
    grid = np.linspace(lo, hi, n)
    if lo < s < hi:
        # make the line an explicit split point
        grid = np.unique(np.concatenate([grid, [s]]))
    vals = y2(grid)
    vals[grid == s] = -math.inf
    inside = np.isfinite(vals) & (vals > 0.0)
    # runs of consecutive grid points with y^2 > 0, as [start, stop) pairs
    edges = np.flatnonzero(np.diff(np.concatenate(([0], inside.astype(np.int8), [0]))))

    branches = []
    N = len(grid)
    for i, stop in zip(edges[::2], edges[1::2]):
        j = stop - 1
        # refine endpoints
        phis = list(grid[i:j + 1])
        left_closed = right_closed = False
        if i > 0 and np.isfinite(vals[i - 1]):
            try:
                root = brentq(y2, grid[i - 1], grid[i], xtol=1e-14, rtol=1e-15)
                phis.insert(0, root)
                left_closed = True
            except ValueError:
                pass
        if j + 1 < N and np.isfinite(vals[j + 1]):
            try:
                root = brentq(y2, grid[j], grid[j + 1], xtol=1e-14, rtol=1e-15)
                phis.append(root)
                right_closed = True
            except ValueError:
                pass
        phi_arr = np.array(phis)
        y_arr = np.sqrt(np.maximum(y2(phi_arr), 0.0))
        branches.append(LevelBranch(phi=phi_arr, y=y_arr,
                                    closed=left_closed and right_closed))
    return branches


@dataclass
class OrbitClass:
    tag: str
    amplitude: float
    period_tau: float | None = None
    period_xi: float | None = None
    derivative_jump: float | None = None
    min_line_distance: float | None = None
    detail: str = ""


def classify_orbit(wp: WaveParams, traj: Trajectory, census: EquilibriumCensus, *,
                   sep_tol=1e-3, close_tol=1e-5) -> OrbitClass:
    """Assign a wave-type label to an integrated trajectory.

    Closed orbits (two same-direction axis crossings returning to the same
    state within close_tol * scale) are PeriodicPeakon when (a) the singular
    line carries a saddle pair, (b) the closest approach to the line is
    within PROX_FRAC of the orbit diameter and (c) the slope jumps across the
    near-line strip by at least JUMP_FRAC of the phi-amplitude (the finite
    jump inherited from the limiting arch), measured on the dense
    trajectory; otherwise PeriodicSmooth.  Non-recurrent orbits are checked
    for saddle-to-saddle connections (arch => Peakon/AntiPeakon, loop =>
    Solitary).
    """
    PROX_FRAC = 0.05   # closest approach to the line, per unit of orbit diameter
    JUMP_FRAC = 0.1    # near-line slope jump, per unit of phi-amplitude
    s = float(wp.singular_line)
    if traj.escaped:
        return OrbitClass(tag=UNBOUNDED, amplitude=float("nan"),
                          detail="left the working radius")

    xs = traj.states
    amp = float(xs[:, 0].max() - xs[:, 0].min())
    diam = traj.diameter
    start = xs[0]
    scale = 1.0 + float(np.max(np.abs(xs)))
    if diam <= 1e-8 * scale:
        return OrbitClass(tag=BOUNDARY_DEGENERATE, amplitude=0.0,
                          detail="stationary (started at an equilibrium)")

    pair = sorted(census.line_pair, key=lambda e: -e.y) if len(census.line_pair) == 2 else None

    # --- recurrence via axis crossings -----------------------------------
    tc = traj.axis_crossings
    tc = tc[tc > 1e-12]
    if len(tc) >= 3:
        t1, t3 = tc[0], tc[2]
        s1, s3 = traj.at(t1), traj.at(t3)
        if np.hypot(*(s3 - s1)) <= close_tol * scale:
            tg = np.linspace(t1, t3, 4001)
            phis, ys = traj.at(tg)
            line_dist = np.abs(phis - s)
            min_line = float(np.min(line_dist))
            periods = dict(period_tau=float(t3 - t1),
                           period_xi=float(abs(_xi_along(traj.wp, tg, phis)[-1])))
            if pair is not None and min_line <= PROX_FRAC * max(diam, 1e-12):
                # the strip holds at least the closest point
                near_line = ys[line_dist <= max(2.0 * min_line, 0.02 * diam)]
                jump = float(near_line.max() - near_line.min())
                if jump >= JUMP_FRAC * amp:
                    return OrbitClass(tag=PERIODIC_PEAKON, amplitude=amp,
                                      derivative_jump=jump, min_line_distance=min_line,
                                      detail="closed orbit with near-line slope jump",
                                      **periods)
            return OrbitClass(tag=PERIODIC_SMOOTH, amplitude=amp,
                              min_line_distance=min_line, detail="closed orbit",
                              **periods)

    # --- saddle connections ----------------------------------------------
    saddles = [e for e in census.equilibria if e.kind == SADDLE]
    end = xs[-1]

    # tolerances relative to the equilibrium's own scale, matching the
    # arrival event of shoot_connection; 1% slack for event-location error
    def near(eq, pt, tol_factor):
        tol = tol_factor * (1.0 + math.hypot(eq.phi, eq.y))
        return math.hypot(pt[0] - eq.phi, pt[1] - eq.y) <= tol

    start_sad = next((e for e in saddles if near(e, start, 1e-3)), None)
    end_sad = next((e for e in saddles if near(e, end, 1.01 * sep_tol)), None)
    if start_sad is not None and end_sad is not None:
        if pair is not None and {id(start_sad), id(end_sad)} == {id(pair[0]), id(pair[1])}:
            jump = abs(pair[0].y - pair[1].y)
            side = "left" if np.min(xs[:, 0]) < s - 1e-12 else "right"
            tg = np.linspace(traj.t[0], traj.t[-1], 4001)
            xi = traj.xi_of_tau(tg)
            label = PEAKON if side == "left" else ANTI_PEAKON
            return OrbitClass(tag=label, amplitude=amp,
                              period_xi=float(abs(xi[-1])),
                              derivative_jump=jump, min_line_distance=0.0,
                              detail=f"{side} arch between the line saddles "
                                     f"(finite xi extent {abs(xi[-1]):.6g})")
        if start_sad is end_sad:
            return OrbitClass(tag=SOLITARY, amplitude=amp,
                              detail=f"homoclinic loop to phi = {start_sad.phi:.6g}")
    return OrbitClass(tag=BOUNDARY_DEGENERATE, amplitude=amp,
                      detail="no recurrence or certified connection within the span")


def _unstable_ray(jacobian):
    """Unit eigenvector and eigenvalue of the positive eigenvalue of a
    saddle's 2x2 Jacobian."""
    (a, b), (c, d) = jacobian
    tr, det = a + d, a * d - b * c
    disc = max(tr * tr - 4.0 * det, 0.0)
    lam = 0.5 * (tr + math.sqrt(disc))
    v = (b, lam - a)
    if math.hypot(*v) < 1e-12:
        v = (lam - d, c)
    nv = math.hypot(*v)
    return (v[0] / nv, v[1] / nv), lam


def shoot_connection(wp: WaveParams, from_eq, to_eq, *, side=None, offset=1e-8,
                     span=None, sep_tol=1e-3, escape_radius=ESCAPE_RADIUS,
                     rtol=1e-12, atol=1e-14):
    """Shoot along the unstable manifold of `from_eq` in the tau plane, stop
    near `to_eq`.  The observer finds connections on the level set instead
    (`atlas.saddle_connections`); this is the integrated reference it is tested
    against.

    `side` picks the ray whose initial phi displacement has that sign
    ("left"/"right"); with side=None both rays are tried.  Returns
    (hit, Trajectory) for the first ray that lands within sep_tol of the
    target (scaled), else (False, last trajectory).  The default span covers
    the ~ln(1/offset)/lambda departure and arrival transients plus one sweep
    of the loop itself.
    """
    ray, lam = _unstable_ray(regular_jacobian(wp, from_eq.point))
    if lam <= 0:
        return False, None
    if span is None:
        span = 60.0 / min(lam, 1.0) + 60.0
    tol = sep_tol * (1.0 + math.hypot(*to_eq.point))

    def ev_arrive(_t, x):
        return math.hypot(x[0] - to_eq.phi, x[1] - to_eq.y) - tol
    ev_arrive.terminal = True
    ev_arrive.direction = -1

    if side is None:
        rays = [ray, (-ray[0], -ray[1])]
    else:
        want = 1.0 if side == "right" else -1.0
        rays = [ray if ray[0] * want > 0 else (-ray[0], -ray[1])]
    rhs = tau_rhs(wp)
    traj = None
    for v in rays:
        start = (from_eq.phi + offset * v[0], from_eq.y + offset * v[1])
        traj, (arrivals,) = _solve(wp, rhs, start, span, rtol, atol,
                                   escape_radius=escape_radius, events=[ev_arrive])
        if len(arrivals) > 0 and not traj.escaped:
            return True, traj
    return False, traj


def measure_axis_period(rhs, start, *, span=200.0, rtol=1e-12, atol=1e-14):
    """Period of a closed orbit of a generic planar `rhs`, via the time
    between the first and third y = 0 crossing starting off-axis.  Returns
    (period, crossing_times); period is None if fewer than 3 crossings."""
    # two periods suffice; don't integrate the full span
    res = solve_ivp(rhs, (0.0, span), [float(start[0]), float(start[1])],
                    method=_FloatDOP853, rtol=rtol, atol=atol, events=_axis_event(4))
    tc = res.t_events[0]
    tc = tc[tc > 1e-12]
    if len(tc) < 3:
        return None, tc
    return float(tc[2] - tc[0]), tc
