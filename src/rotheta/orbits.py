"""Numeric orbits of the tau-form system that need scipy's event loop:
drift-controlled integration, wave-type classification, and the references
the level walk (`levels`) is tested against.

The observer reads orbits off the level curves with no integration
(`levels.walk_level`), and `rotheta verify` integrates with `dop853`, which
needs numpy alone; this module holds the integrations that hand their stops
to scipy.  `integrate` + `classify_orbit` are the reference for periodic
orbits, `shoot_connection` + `classify_orbit` for connections, and
`integrate` the oracle every lane of `integrate_many` is tested against.
`trace_level_curve` reads a level on a grid, as the reference the tests
compare the walk with.

Every run here goes through `_solve`: `solve_ivp` with `_FloatDOP853`,
which takes `dop853`'s steps on Python floats and so spares the planar
system numpy's per-call overhead, with dense output and the escape disc,
the y = 0 crossings and any arrival handed to scipy's event loop as
events.  `integrate` monitors the first integral along each trajectory; if
the relative drift exceeds the limit the run is retried once at tighter
tolerances.  This module imports scipy on load (the benchmark's tracer
looks for `solve_ivp` bound here), and re-exports `dop853`'s
`integrate_many` and `measure_axis_period`; nothing on the observer's or
`rotheta verify`'s path imports it.

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

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

from .dop853 import (
    ATOL, DRIFT_LIMIT, ESCAPE_RADIUS, RETRIES, RTOL, TIGHT_ATOL, TIGHT_RTOL, _EXTRA, _FSAL,
    _N_STAGES, Trajectory,
    _dense_rows, _escape_event, _float_step, _measure_drift, _settle, _xi_along,
    integrate_many, measure_axis_period,
)
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


class _FloatDOP853(DOP853):
    """scipy's DOP853 for a planar system, each step taken forward on
    Python floats.

    `__init__` is scipy's: tolerance checks, the first step and its `nfev`.
    A step is `dop853._float_step`, the shared step arithmetic on floats:
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
        F = _dense_rows(self._rhs, self.t_old, self.h_previous, self.y_old.tolist(),
                        self.y.tolist(), self._k)
        self.nfev += len(_EXTRA)
        return Dop853DenseOutput(self.t_old, self.t, self.y_old, np.array(F))


def _axis_event(terminal):
    """The event of crossing y = 0, terminal at its `terminal`-th
    occurrence (never when None)."""
    def ev_axis(_t, x):
        return x[1]
    ev_axis.terminal = terminal
    return ev_axis


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
    integrating hundreds of redundant cycles.  `dop853.integrate_many` runs
    many trials at once with the same answers.
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


def trace_level_curve(fi: FirstIntegral, h: float, phi_window):
    """Branches of {H = h} inside phi_window, each as the y >= 0 half.

    The grid run is split at the singular line (level curves only meet the
    line at the critical level); see `trace_branches`.
    """
    return trace_branches(y_squared_fn(fi, h), phi_window, line=float(fi.line))


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


def classify_orbit(wp: WaveParams, traj: Trajectory, census: EquilibriumCensus) -> OrbitClass:
    """Assign a wave-type label to an integrated trajectory.

    Closed orbits (two same-direction axis crossings returning to the same
    state within CLOSE_TOL * scale) are PeriodicPeakon when (a) the singular
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
    CLOSE_TOL = 1e-5   # recurrence distance, per unit of the orbit's scale
    SEP_TOL = 1e-3     # arrival distance at a saddle, as shoot_connection's default
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
        if np.hypot(*(s3 - s1)) <= CLOSE_TOL * scale:
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
    end_sad = next((e for e in saddles if near(e, end, 1.01 * SEP_TOL)), None)
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


def shoot_connection(wp: WaveParams, from_eq, to_eq, *, side=None, span=None, sep_tol=1e-3):
    """Shoot along the unstable manifold of `from_eq` in the tau plane, stop
    near `to_eq`.  The observer finds connections on the level set instead
    (`atlas.saddle_connections`); this is the integrated reference it is tested
    against.

    `side` picks the ray whose initial phi displacement has that sign
    ("left"/"right"); with side=None both rays are tried.  Returns
    (hit, Trajectory) for the first ray that lands within sep_tol of the
    target (scaled), else (False, last trajectory).  Each ray starts OFFSET
    off the saddle and runs at `TIGHT_RTOL` and `TIGHT_ATOL` inside the disc
    of ESCAPE_RADIUS.  The default span covers the ~ln(1/OFFSET)/lambda
    departure and arrival transients plus one sweep of the loop itself.
    """
    OFFSET = 1e-8
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
        start = (from_eq.phi + OFFSET * v[0], from_eq.y + OFFSET * v[1])
        traj, (arrivals,) = _solve(wp, rhs, start, span, TIGHT_RTOL, TIGHT_ATOL,
                                   escape_radius=ESCAPE_RADIUS, events=[ev_arrive])
        if len(arrivals) > 0 and not traj.escaped:
            return True, traj
    return False, traj
