"""Numeric orbits of the tau-form system: level curves, saddle connections,
integration and wave-type classification.

Orbits are read off the level curves of the first integral.  Between two
equilibria on the axis B is monotone, so y^2 = (h - B)/A changes sign at
most once there: `walk_level` walks a level one stretch of one sign of y^2
at a time, from a saddle on its own level (`saddle_level_fn`) to find its
connections, or over a whole level.  A closed branch of {H = h} off the
singular line is a periodic orbit; `branch_period` takes its xi-period by
quadrature.  `trace_level_curve` reads a level on a grid, as the reference
the tests compare the walk with.  The integrator serves the conservation
checks, axis periods, and the reference paths the level readings are
tested against (`integrate` + `classify_orbit` for periodic orbits,
`shoot_connection` + `classify_orbit` for connections).
Every integration runs through `_solve`, the package's one `solve_ivp`
call, with dense output and no scipy events.  Its method is
`_FloatDOP853`, scipy's DOP853 with each step taken on Python floats, which
spares the planar system numpy's per-call overhead.  The stepper also tests
the terminal events (leaving the escape disc, the n-th y = 0 crossing when
one is asked for, the arrival when shooting) on each accepted step's
floats and ends the run on the step where one fires; `_solve` then cuts the
trajectory at that event's root as solve_ivp's event loop would.  A
trajectory's y = 0 crossing times are located on its steps only when
`Trajectory.axis_crossings` is first read.  A trajectory is read at any set
of times through `Trajectory.at`, which evaluates all of them in one numpy
pass over the steps' dense-output polynomials, bit for bit as scipy would.
`integrate` monitors the first integral along the trajectory; if the
relative drift exceeds the limit the run is retried once at tighter
tolerances.

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
from functools import cached_property, lru_cache
from itertools import chain, count

import numpy as np
from scipy.integrate import DOP853, OdeSolution, solve_ivp
from scipy.integrate._ivp.ivp import solve_event_equation
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq
from scipy.special import roots_legendre

from .equilibria import EquilibriumCensus, SADDLE
from .field import FirstIntegral, _as_float, _taylor_shift, regular_jacobian
from .params import WaveParams

__all__ = [
    "Trajectory",
    "OrbitClass",
    "LevelBranch",
    "integrate",
    "trace_level_curve",
    "trace_branches",
    "y_squared_fn",
    "branch_period",
    "classify_orbit",
    "saddle_level_fn",
    "level_branch",
    "walk_level",
    "shoot_connection",
    "measure_axis_period",
]

PERIODIC_SMOOTH = "PeriodicSmooth"
PERIODIC_PEAKON = "PeriodicPeakon"
PEAKON = "Peakon"
ANTI_PEAKON = "AntiPeakon"
SOLITARY = "Solitary"
UNBOUNDED = "Unbounded"
BOUNDARY_DEGENERATE = "BoundaryDegenerate"
ESCAPE_RADIUS = 50.0   # default radius of the (phi, y) disc integrations may not leave


@dataclass
class Trajectory:
    """One DOP853 run from `_solve`.  `states` holds the accepted steps;
    `at` reads the dense solution at any times (`dense`, `xi_of_tau` and
    `classify_orbit` all sample through it)."""

    wp: WaveParams
    t: np.ndarray
    states: np.ndarray          # shape (n, 2)
    sol: object                 # scipy OdeSolution (dense); `at` evaluates it
    escaped: bool
    h0: float | None = None
    h_drift_max: float | None = None   # None: not measured on any sample
    drift_samples: int = 0             # dense samples the drift was measured on
    rtol_used: float = 0.0
    status: str = ""
    # the run as the stepper took it, for `axis_crossings`: every step's
    # dense output, y at the start and at each step's end, and the (root,
    # event index) that cut the last step (None: no event did)
    run: tuple | None = None

    @cached_property
    def axis_crossings(self):
        """Times where y = 0, located on first use as solve_ivp locates an
        event of direction 0: a step whose ends have y of opposite signs,
        or y = 0 at either end, holds the root brentq finds on its dense
        output (`solve_event_equation`).  On a step cut by a terminal event
        a root is kept only when it comes before the cut, ties going to the
        earlier event (the axis event is scipy's event 1, after escape)."""
        steps, y, stop = self.run
        active = np.flatnonzero(((y[:-1] <= 0) & (y[1:] >= 0)) | ((y[:-1] >= 0) & (y[1:] <= 0)))
        roots = [solve_event_equation(_on_axis, steps[i], steps[i].t_old, steps[i].t)
                 for i in active]
        if stop is not None and roots and active[-1] == len(steps) - 1 and (roots[-1], 1) > stop:
            roots.pop()
        return np.array(roots)

    @cached_property
    def _segments(self):
        """Each step's DOP853 interpolant as arrays, gathered on first use:
        breakpoints, step starts t_old, step lengths h, start states y_old
        and the coefficient rows F, highest power first."""
        steps = self.sol.interpolants
        return (self.sol.ts, np.array([s.t_old for s in steps]),
                np.array([s.h for s in steps]), np.array([s.y_old for s in steps]),
                np.array([s.F[::-1] for s in steps]))

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
        x = ((t - t_old[seg]) / h[seg])[..., None]
        factors = (x, 1 - x)
        coeffs = F[seg]
        y = np.zeros_like(y_old[seg])
        for i in range(coeffs.shape[-2]):
            y += coeffs[..., i, :]
            y *= factors[i % 2]
        y += y_old[seg]
        return y.T

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


def _tau_rhs(wp: WaveParams):
    """The tau-form right-hand side for solve_ivp, on plain Python floats.

    `x` is any 2-sequence: the stepper passes a tuple of floats, scipy's
    first-step choice and event location an array.  Every coefficient is
    cast to float once.  That is bitwise what mixed float/Fraction
    arithmetic computes anyway (Fraction rounds itself to float first), so
    exact and float coefficients give the same steps."""
    theta, C1 = float(wp.theta), float(wp.C1)
    K, C2, C3 = float(wp.K), float(wp.C2), float(wp.C3)
    y2_c = theta - 0.5

    def rhs(_t, x):
        phi, y = x
        return (y * (theta * phi - C1),
                y2_c * y * y + phi * (K + phi * (0.5 + phi * (C2 + phi * C3))))
    return rhs


def _on_axis(_t, x):
    return x[1]


class _Stops:
    """The terminal events of one `_solve` run, which `_FloatDOP853` tests
    on each accepted step's end state by the rule of scipy's
    `find_active_events`: an event is active on a step when its value has
    opposite signs at the step's ends, or is 0 at either end, in its
    `direction` (up, down, or both for 0).  An event stops the run when it
    has been active `terminal` times.  `hit` lists the (index, event) pairs
    that reached their count on the step that stopped the run; the index is
    the event's place in `events`, which orders equal roots."""

    def __init__(self, events, t0, x0):
        self.watch = [(i, ev, getattr(ev, "direction", 0))
                      for i, ev in enumerate(events) if ev.terminal]
        self.left = [int(ev.terminal) for _, ev, _ in self.watch]
        self.g = [ev(t0, x0) for _, ev, _ in self.watch]
        self.hit = []

    def reached(self, t, x):
        """Test the step that ended at (t, x); True when it stops the run."""
        for k, (i, ev, direction) in enumerate(self.watch):
            g, g_new = self.g[k], ev(t, x)
            self.g[k] = g_new
            if (g <= 0 <= g_new and direction >= 0) or (g >= 0 >= g_new and direction <= 0):
                self.left[k] -= 1
                if self.left[k] == 0:
                    self.hit.append((i, ev))
        return bool(self.hit)


def _nonzero(row):
    """The (index, coefficient) pairs of a tableau row's nonzero entries."""
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


def _combine(row, k0, k1):
    """sum_j a_j K_j over a sparse tableau row's (j, a_j), per component of
    the stages k0, k1, summed left to right."""
    d0 = d1 = 0.0
    for j, a in row:
        d0 += k0[j] * a
        d1 += k1[j] * a
    return d0, d1


class _FloatDOP853(DOP853):
    """scipy's DOP853 for a planar system, each step taken on Python floats.

    `__init__` is scipy's: tolerance checks, the first step and its `nfev`.
    A step is DOP853's RK step, error norm and step-size controller, with
    scipy's constants, on the class's own tableau kept as sparse float rows.
    The RHS gets the state as a tuple of floats, and numpy only holds the
    accepted state and the dense output, which keeps DOP853's form
    (`Dop853DenseOutput`), so OdeSolution, event location and
    `Trajectory.at` read it as they read scipy's.  Sums run left to right in
    plain loops, never through np.dot or `sum()` (compensated from Python
    3.12), so results differ from scipy's only by rounding.  With `stops`
    (a `_Stops`) each accepted step is tested for its terminal events, and
    the step where one fires becomes the last: `t_bound` moves to its end.
    """

    _STAGES = tuple((float(c), _nonzero(a[:s])) for s, (a, c) in
                    enumerate(zip(DOP853.A[1:], DOP853.C[1:]), 1))
    _EXTRA = tuple((float(c), _nonzero(a[:s])) for s, (a, c) in
                   enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), DOP853.n_stages + 1))
    _B, _E3, _E5 = _nonzero(DOP853.B), _nonzero(DOP853.E3), _nonzero(DOP853.E5)
    _D = tuple(_nonzero(row) for row in DOP853.D)
    SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0   # scipy's RungeKutta controller

    def __init__(self, fun, t0, y0, t_bound, stops=None, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun   # scipy keeps only its numpy-wrapped copy
        self._stops = stops
        self._tols = (float(self.rtol), *np.broadcast_to(self.atol, (2,)).tolist())
        self.f = tuple(self.f.tolist())
        n_ext = len(self.A_EXTRA[0])
        self._k = ([0.0] * n_ext, [0.0] * n_ext)   # stages per component

    def _step_impl(self):
        rhs, (k0, k1), (rtol, atol0, atol1) = self._rhs, self._k, self._tols
        t, t_bound, direction = self.t, self.t_bound, float(self.direction)
        y0, y1 = self.y.tolist()
        k0[0], k1[0] = self.f
        fsal = self.n_stages   # the stage row that holds f at the new state
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if self.h_abs > self.max_step:
            h_abs = self.max_step
        elif self.h_abs < min_step:
            h_abs = min_step
        else:
            h_abs = float(self.h_abs)   # the first step comes as np.float64
        rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            for s, (c, row) in enumerate(self._STAGES, 1):
                d0, d1 = _combine(row, k0, k1)
                k0[s], k1[s] = rhs(t + c * h, (y0 + d0 * h, y1 + d1 * h))
            d0, d1 = _combine(self._B, k0, k1)
            n0, n1 = y0 + h * d0, y1 + h * d1
            k0[fsal], k1[fsal] = rhs(t + h, (n0, n1))
            self.nfev += fsal   # stages 1 to 11, and f at the new state
            scale0 = atol0 + max(abs(y0), abs(n0)) * rtol
            scale1 = atol1 + max(abs(y1), abs(n1)) * rtol
            e50, e51 = _combine(self._E5, k0, k1)
            e30, e31 = _combine(self._E3, k0, k1)
            e50, e51, e30, e31 = e50 / scale0, e51 / scale1, e30 / scale0, e31 / scale1
            err5 = e50 * e50 + e51 * e51
            err3 = e30 * e30 + e31 * e31
            denom = (err5 + 0.01 * err3) * 2
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            elif denom == 0:   # underflow: scipy's 0/0 also rejects with factor 0.2
                error_norm = math.inf
            else:
                error_norm = h_abs * err5 / math.sqrt(denom)
            if error_norm < 1:
                if error_norm == 0:
                    factor = self.MAX_FACTOR
                else:
                    factor = min(self.MAX_FACTOR,
                                 self.SAFETY * error_norm ** self.error_exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(self.MIN_FACTOR, self.SAFETY * error_norm ** self.error_exponent)
            rejected = True
        self.h_previous = h
        self.y_old = self.y
        self.t = t_new
        self.y = np.array((n0, n1))
        self.h_abs = h_abs
        self.f = (k0[fsal], k1[fsal])
        if self._stops is not None and self._stops.reached(t_new, (n0, n1)):
            self.t_bound = t_new
        return True, None

    def _dense_output_impl(self):
        (k0, k1), h, t_old = self._k, self.h_previous, self.t_old
        y0, y1 = self.y_old.tolist()
        for s, (c, row) in enumerate(self._EXTRA, self.n_stages + 1):
            d0, d1 = _combine(row, k0, k1)
            k0[s], k1[s] = self._rhs(t_old + c * h, (y0 + d0 * h, y1 + d1 * h))
        self.nfev += len(self._EXTRA)
        n0, n1 = self.y.tolist()
        (f0, f1), (g0, g1) = (k0[0], k1[0]), self.f
        dy0, dy1 = n0 - y0, n1 - y1
        F = [(dy0, dy1), (h * f0 - dy0, h * f1 - dy1),
             (2 * dy0 - h * (g0 + f0), 2 * dy1 - h * (g1 + f1))]
        for row in self._D:
            d0, d1 = _combine(row, k0, k1)
            F.append((h * d0, h * d1))
        return Dop853DenseOutput(t_old, self.t, self.y_old, np.array(F))


def _solve(wp, rhs, start, span, rtol, atol, *, escape_radius=math.inf,
           axis_stop=None, events=()):
    """Integrate `rhs` from `start` over [0, span] with dense DOP853
    (`_FloatDOP853`) until it leaves the disc of `escape_radius`, reaches
    the `axis_stop`-th y = 0 crossing (if given) or one of `events`
    (terminal events in scipy's form, each stopping at its first
    occurrence).  Returns the Trajectory (recording `wp`, read with
    `Trajectory.at`) and the times each of `events` fired.

    These are the results solve_ivp gives with the events [escape, axis,
    *events] (the axis event terminal after `axis_stop` crossings), bit
    for bit, but solve_ivp gets none of them: the stepper tests the
    terminal ones on its floats and ends the run on the step where one
    fires.  Here the firing events' roots on that step are found with
    scipy's `solve_event_equation`, and the trajectory is cut at the first
    of them (equal roots: the earlier event) as solve_ivp's
    `handle_events` cuts it: the last point becomes the root and its state,
    or, when the root is the step's start, the step is dropped (solve_ivp's
    `donot_append` rule).  The axis crossings are located when read.
    """
    r2 = escape_radius * escape_radius

    def ev_escape(_t, x):
        return x[0] * x[0] + x[1] * x[1] - r2
    ev_escape.terminal = True

    def ev_axis(_t, x):
        return x[1]
    ev_axis.terminal = axis_stop

    x0 = (float(start[0]), float(start[1]))
    stops = _Stops([ev_escape, ev_axis, *events], 0.0, x0)
    res = solve_ivp(rhs, (0.0, span), list(x0), method=_FloatDOP853, rtol=rtol,
                    atol=atol, dense_output=True, stops=stops)
    t, states, sol, stop = res.t, res.y.T, res.sol, None
    if stops.hit:
        step = sol.interpolants[-1]
        stop = min((solve_event_equation(ev, step, step.t_old, step.t), i)
                   for i, ev in stops.hit)
        if len(t) > 2 and t[-2] == stop[0]:
            t, states = t[:-1], states[:-1]
            sol = OdeSolution(t, sol.interpolants[:-1])
        else:
            t = np.append(t[:-1], stop[0])
            states = np.vstack((states[:-1], step(stop[0])))
            sol = OdeSolution(t, sol.interpolants)
    fired = stop[1] if stop is not None else None
    traj = Trajectory(wp=wp, t=t, states=states, sol=sol, escaped=fired == 0,
                      rtol_used=rtol, run=(res.sol.interpolants, res.y[1], stop),
                      status="ok" if res.success else (res.message or "solver failure"))
    return traj, [np.array([stop[0]] if fired == i else []) for i in range(2, 2 + len(events))]


def integrate(wp: WaveParams, start, tau_span=10.0, *, fi: FirstIntegral | None = None,
              rtol=1e-10, atol=1e-12, escape_radius=ESCAPE_RADIUS,
              drift_limit=1e-8, max_retries=1,
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
    integrating hundreds of redundant cycles.
    """
    rhs = _tau_rhs(wp)
    attempt_rtol, attempt_atol = rtol, atol
    best = None
    for _ in range(max_retries + 1):
        traj, _ = _solve(wp, rhs, start, tau_span, attempt_rtol, attempt_atol,
                         escape_radius=escape_radius, axis_stop=stop_after_crossings)
        if fi is not None:
            _tg, xs = traj.dense(512)
            p, y = xs[:, 0], xs[:, 1]
            # next to the line H and grad H overflow to inf or nan; the mask
            # below drops those samples, so numpy's warnings say nothing
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                h0 = fi.eval(*start)
                traj.h0 = h0
                if wp.m < 0:
                    cert = drift_limit * max(abs(h0), 1e-9)
                    off = p != float(fi.line)
                    p, y = p[off], y[off]
                    dhp, dhy = fi.partials(p, y)
                    err = (np.abs(dhp) + np.abs(dhy)) * attempt_rtol * (1.0 + np.hypot(p, y))
                    kept = err <= cert
                    p, y = p[kept], y[kept]
                hs = fi.eval(p, y)
            traj.drift_samples = len(hs)
            if len(hs) == 0:
                return traj
            traj.h_drift_max = float(np.max(np.abs(hs - h0))) / _h_scale(hs, h0)
            if traj.h_drift_max > drift_limit and attempt_rtol > 1e-13:
                if best is None or traj.h_drift_max < best.h_drift_max:
                    best = traj
                attempt_rtol, attempt_atol = attempt_rtol * 1e-2, attempt_atol * 1e-2
                continue
        return traj
    return best if best is not None else traj


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


@lru_cache(maxsize=8)
def _gauss_legendre(n):
    return roots_legendre(n)


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
    to 1e-9 relative.  Tiny orbits around a center at a level just off the
    center's can miss that: there y^2 = (h - B)/A is a difference of nearly
    equal numbers, and its rounding moves the sums by about 1e-8.
    """
    a, b = branch.phi_range
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    y = branch.y
    dips = np.flatnonzero((y[1:-1] < y[:-2]) & (y[1:-1] <= y[2:])) + 1
    cuts = np.arcsin(np.clip((branch.phi[dips] - mid) / half, -1.0, 1.0))
    edges = np.concatenate(([-0.5 * math.pi], cuts, [0.5 * math.pi]))
    t0, t1 = edges[:-1, None], edges[1:, None]
    prev = None
    n = 32
    while n <= 1024:
        x, w = _gauss_legendre(n)
        t = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)       # (panels, n)
        v = y2(mid + half * np.sin(t))
        if not np.all((v > 0.0) & (v < math.inf)):
            return None
        dphi_over_y = half * np.cos(t) / np.sqrt(v)
        total = float(np.sum(0.5 * (t1 - t0) * w * dphi_over_y)) * 2.0
        if prev is not None and abs(total - prev) <= 1e-9 * abs(total):
            return total
        prev = total
        n *= 2
    return None


TURNING_POINT = "turning-point"
DOUBLE_ROOT = "double-root"
SINGULAR_LINE = "singular-line"
ESCAPE = "escape"


def saddle_level_fn(fi: FirstIntegral, phi0: float, on_line: bool = False):
    """phi -> y^2 on the level of H through the saddle at phi0, for a float
    or an array of phi, without the cancellation of h - B next to the saddle.

    The level is h = B(phi0) for an axis saddle (y = 0), and for the
    singular-line pair (`on_line`, m >= 0: A vanishes on the line), so
    y^2 = -(B(phi) - B(phi0))/A(phi).  The difference is taken term by term
    about phi0: the polynomial part Taylor-shifted to u = phi - phi0 with
    its constant dropped, the logarithm as log1p(u/w0), each pole's
    difference w^-j - w0^-j with its factor u taken out.  On the line the quotient is the polynomial
    -(sum_(i > m) b_i w^(i-m-1))/a, which passes through the line with the
    pair's own y*^2.
    """
    line, a, p = float(fi.line), float(fi.y2_coeff), fi.y2_power
    poly = [float(c) for c in fi.poly_shifted]
    if on_line:
        if fi.singular_on_line:
            raise ValueError("H has no finite level on the singular line")
        q = poly[p:][::-1]
        return lambda phi: _as_float(-np.polyval(q, np.asarray(phi, dtype=float) - line) / a)
    w0 = phi0 - line
    d = _taylor_shift(poly, w0)[::-1]
    d[-1] = 0.0
    log_c = float(fi.log_coeff)
    poles = [(j, float(c)) for j, c in fi.pole_coeffs]

    def y2(phi):
        phi = np.asarray(phi, dtype=float)
        u, w = phi - phi0, phi - line
        with np.errstate(divide="ignore", invalid="ignore"):
            dB = np.polyval(d, u)
            if log_c:
                dB = dB + log_c * np.log1p(u / w0)
            for j, c in poles:   # w^-j - w0^-j = -u sum(w^k w0^(j-1-k)) / (w w0)^j
                dB = dB - c * u * sum(w**k * w0 ** (j - 1 - k) for k in range(j)) / (w * w0) ** j
            return _as_float(-dB / (a * w**p))

    return y2


def level_branch(y2, a, b, closed) -> LevelBranch:
    """The branch y = sqrt(y^2) of a run, at 257 points from a to b gathered at both ends."""
    phi = a + (b - a) * (0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, 257))))
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
    rhs = _tau_rhs(wp)
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
    traj, _ = _solve(None, rhs, start, span, rtol, atol, axis_stop=4)
    tc = traj.axis_crossings
    tc = tc[tc > 1e-12]
    if len(tc) < 3:
        return None, tc
    return float(tc[2] - tc[0]), tc
