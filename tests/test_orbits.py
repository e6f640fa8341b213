"""Numeric orbit machinery: integration, level tracing, classification.

Reference regime for the peakon geometry: theta = 1/4, C1 = 0.3,
(C2, C3, K) = (2, -1, 3).  Centers sit at phi = 0 and phi ~ 2.6256, the
singular line at phi = 1.2 carries the saddle pair (1.2, +-4.776), and the
arch level is exactly h = 0 (H vanishes identically on the line).
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

from rotheta import orbits
from rotheta.atlas import (level_branches, observation_plane, observe_wave_menu,
                           saddle_connections, tau_plane)
from rotheta.closedform import params_from_roots
from rotheta.equilibria import census, linearization_determinant
from rotheta.field import build_first_integral, eval_f_prime, rhs_regular, rhs_singular
from rotheta.orbits import (_tau_rhs, branch_period, classify_orbit, integrate,
                            measure_axis_period, saddle_level_fn, shoot_connection,
                            trace_level_curve, y_squared_fn)
from rotheta.params import WaveParams
from rotheta.verification import DEFAULT_SEED, T3_BASE, _conservation_draw


@pytest.fixture(scope="module")
def regime():
    wp = WaveParams(Fraction(1, 4), 0.3, 2.0, -1.0, 3.0)
    return wp, census(wp), build_first_integral(wp)


# --- integrate ----------------------------------------------------------------


def test_equilibrium_start_stays_put(regime):
    wp, cen, fi = regime
    traj = integrate(wp, (0.0, 0.0), tau_span=5.0, fi=fi)
    assert traj.diameter <= 1e-12
    oc = classify_orbit(wp, traj, cen)
    assert oc.tag == "BoundaryDegenerate"
    assert "stationary" in oc.detail


def test_small_loop_returns_to_start(regime):
    wp, cen, fi = regime
    start = (0.05, 0.0)
    traj = integrate(wp, start, tau_span=30.0, fi=fi)
    assert traj.h_drift_max <= 1e-8
    # return-map oracle: after the transient the orbit re-visits the start
    tg = np.linspace(5.0, traj.t[-1], 4001)
    xs = traj.at(tg).T
    i = int(np.argmin(np.hypot(xs[:, 0] - start[0], xs[:, 1] - start[1])))
    fine = np.linspace(tg[max(i - 1, 0)], tg[min(i + 1, len(tg) - 1)], 2001)
    xf = traj.at(fine).T
    d = np.min(np.hypot(xf[:, 0] - start[0], xf[:, 1] - start[1]))
    assert d <= 1e-6
    oc = classify_orbit(wp, traj, cen)
    assert oc.tag == "PeriodicSmooth"


def test_escape_is_flagged(regime):
    wp, cen, fi = regime
    traj = integrate(wp, (4.5, 0.0), tau_span=20.0, escape_radius=10.0)
    assert traj.escaped
    assert classify_orbit(wp, traj, cen).tag == "Unbounded"


def test_drift_bound_random_draws(regime):
    wp, _, fi = regime
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        start = rng.uniform(-1.0, 1.0, 2)
        if abs(0.25 * start[0] - 0.3) < 0.1:
            continue
        traj = integrate(wp, tuple(start), tau_span=10.0, fi=fi)
        worst = max(worst, traj.h_drift_max)
    assert worst <= 1e-8


def test_drift_is_unverified_when_no_sample_is_measurable():
    # theta = 1/2 (m = -1): the orbit runs into the singular line phi = 2 C1,
    # where grad H blows up and every dense sample is excluded
    wp = WaveParams(Fraction(1, 2), -0.4765643203477026, 0.11186695468380914,
                    -1.4238409023448009, 0.8541582655748021)
    traj = integrate(wp, (-1.2456036934136288, -0.8798763700237017),
                     tau_span=10.0, fi=build_first_integral(wp))
    assert traj.drift_samples == 0
    assert traj.h_drift_max is None


@pytest.mark.parametrize("C1, K, start", [(1e-170, 0.0, (0.0, 0.5)),
                                          (2.225073858507e-311, 0.0, (0.0, 0.0)),
                                          (2.945604540210024e-264, 1.0, (0.0, 0.0))],
                         ids=["overflow", "invalid", "divide"])
def test_drift_filter_next_to_the_line_is_silent(C1, K, start):
    # theta = 1 (m = -2): orbits next to the line phi = C1 overflow H and
    # grad H; those samples are dropped without a numpy warning, and none is
    # left
    wp = WaveParams(Fraction(1, 1), C1, 0.0, -1.0, K)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = integrate(wp, start, tau_span=10.0, fi=build_first_integral(wp))
    assert traj.h_drift_max is None


@given(theta=st.sampled_from([Fraction(1, 2), Fraction(1, 1)]),
       C1=st.floats(-1.0, 1.0), C2=st.floats(-1.0, 1.0),
       C3=st.floats(-2.0, -0.2), K=st.floats(-1.0, 1.0),
       start=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)))
# error estimates near 1e-163, whose squares underflow in the error norm
@example(theta=Fraction(1, 2), C1=7.647929034267432e-163, C2=0.0, C3=-1.0, K=0.0,
         start=(0.0, 0.375))
@settings(max_examples=25, deadline=None)
def test_drift_is_a_number_only_when_measured(theta, C1, C2, C3, K, start):
    wp = WaveParams(theta, C1, C2, C3, K)
    assume(float(theta) * start[0] != C1)  # H is undefined on the line
    traj = integrate(wp, start, tau_span=10.0, fi=build_first_integral(wp))
    if traj.drift_samples == 0:
        assert traj.h_drift_max is None
    else:
        assert isinstance(traj.h_drift_max, float)


def test_xi_tau_reparametrization_consistency(regime):
    # on a segment with theta phi - C1 > 0 throughout, integrating the
    # singular form directly in xi must match the reparametrized tau run
    wp, _, fi = regime
    start = (2.2, 0.0)                     # loop around the right center
    traj = integrate(wp, start, tau_span=6.0, fi=fi)
    assert traj.states[:, 0].min() > 1.2 + 0.5   # stays right of the line
    tg = np.linspace(0.0, traj.t[-1], 8001)   # trapezoid error ~ O(dtau^2)
    xi_grid = traj.xi_of_tau(tg)
    assert np.all(np.diff(xi_grid) > 0)

    res = solve_ivp(lambda _x, x: rhs_singular(wp, x), (0.0, xi_grid[-1]),
                    list(start), method="DOP853", rtol=1e-12, atol=1e-14,
                    dense_output=True)
    direct = res.sol(xi_grid).T
    repar = traj.at(tg).T
    err = float(np.max(np.hypot(direct[:, 0] - repar[:, 0],
                                direct[:, 1] - repar[:, 1])))
    assert err <= 1e-6


def test_period_converges_to_linearization(regime):
    wp, _, _ = regime
    J = linearization_determinant(wp, (0.0, 0.0))
    assert J > 0
    period, _ = measure_axis_period(lambda _t, x: rhs_regular(wp, x), (1e-3, 0.0))
    assert period == pytest.approx(2.0 * math.pi / math.sqrt(J), rel=1e-2)


# --- reading a trajectory ------------------------------------------------------


@pytest.fixture
def solved(monkeypatch):
    """(args, kwargs, Trajectory) of every `_solve` call made while the test
    runs."""
    calls = []
    solve = orbits._solve

    def recording(*args, **kwargs):
        out = solve(*args, **kwargs)
        calls.append((args, kwargs, out[0]))
        return out
    monkeypatch.setattr(orbits, "_solve", recording)
    return calls


def _run_reading_cases(regime):
    """Nine `_solve` runs of every kind: a periodic orbit, an escape, a stop
    at the fourth axis crossing, a retried theta = 1/2 draw, a theta = 1
    run, a single step, a shot arch and an axis period."""
    wp, cen, fi = regime
    integrate(wp, (0.05, 0.0), tau_span=30.0, fi=fi)
    assert integrate(wp, (4.5, 0.0), tau_span=20.0, escape_radius=10.0).escaped
    integrate(wp, (0.5, 0.0), tau_span=40.0, fi=fi, stop_after_crossings=4)
    # theta = 1/2 draw of the conservation check (seed 7) that is retried
    wp2 = WaveParams(Fraction(1, 2), 0.4373320529391518, -0.3812625527332747,
                     -0.390032636347341, -0.21184101399724953)
    retried = integrate(wp2, (0.015485211109185215, 1.1316458086786465),
                        tau_span=10.0, fi=build_first_integral(wp2))
    assert retried.rtol_used == pytest.approx(1e-12)
    wp3 = WaveParams(Fraction(1), 0.3, 2.0, -1.0, 3.0)
    integrate(wp3, (0.5, 0.2), tau_span=10.0, fi=build_first_integral(wp3))
    assert len(integrate(wp3, (0.5, 0.2), tau_span=1e-3).t) == 2   # one step
    up, dn = sorted(cen.line_pair, key=lambda e: -e.y)
    assert shoot_connection(wp, up, dn, side="left")[0]
    measure_axis_period(lambda _t, x: rhs_regular(wp, x), (1e-3, 0.0))


def test_trajectory_reads_as_scipy_solution(regime, solved):
    # Trajectory.at must give OdeSolution's bits: the same step at every
    # breakpoint, the same Horner order, the end steps beyond the ends.  This
    # breaks if a scipy release lays the dense segments out differently.
    _run_reading_cases(regime)
    assert len(solved) == 9

    rng = np.random.default_rng(0)
    for *_, traj in solved:
        t0, t1 = traj.t[0], traj.t[-1]
        tg = np.concatenate([np.linspace(t0 - 0.5, t1 + 0.5, 1001), traj.t,
                             rng.uniform(t0, t1, 200)])
        got, want = traj.at(tg), traj.sol(tg)
        assert got.shape == want.shape == (2, len(tg))
        assert np.array_equal(got, want)
        for t in [*traj.t, *tg[::50]]:
            got, want = traj.at(t), traj.sol(t)
            assert got.shape == want.shape == (2,)
            assert np.array_equal(got, want)


def test_trajectory_breakpoint_rule_matches_scipy():
    # DOP853's neighbouring steps agree to the last bit at almost every
    # breakpoint, so make them disagree: random interpolants, each starting
    # off the previous one's end, the last one running past ts[-1] as a step
    # cut short by a terminal event does.  OdeSolution reads a breakpoint on
    # the earlier step (a forward run).
    rng = np.random.default_rng(3)
    ts = np.cumsum(rng.uniform(0.1, 1.0, 9))
    steps = [Dop853DenseOutput(a, b + 0.3 * (k == 7), rng.normal(size=2),
                               rng.normal(size=(7, 2)))
             for k, (a, b) in enumerate(zip(ts[:-1], ts[1:]))]
    sol = OdeSolution(ts, steps)
    traj = orbits.Trajectory(wp=None, t=ts, states=None, sol=sol, escaped=False)
    tg = np.concatenate([ts, ts - 1e-3, ts + 1e-3])
    assert not np.array_equal(steps[3](ts[4]), steps[4](ts[4]))
    assert np.array_equal(traj.at(tg), sol(tg))
    for t in tg:
        assert np.array_equal(traj.at(t), sol(t))


def _assert_solve_is_scipys_event_loop(wp, rhs, start, span, rtol, atol, *,
                                       escape_radius=math.inf, axis_stop=None, events=()):
    # `_solve` against scipy's own event loop on the same stepper, handed
    # the events `_solve` stops at: bit for bit the same points, escape,
    # axis crossings, arrival times and status
    traj, arrivals = orbits._solve(wp, rhs, start, span, rtol, atol, escape_radius=escape_radius,
                                   axis_stop=axis_stop, events=events)
    r2 = escape_radius * escape_radius

    def ev_escape(_t, x):
        return x[0] * x[0] + x[1] * x[1] - r2
    ev_escape.terminal = True

    def ev_axis(_t, x):
        return x[1]
    ev_axis.terminal = axis_stop

    res = solve_ivp(rhs, (0.0, span), [float(start[0]), float(start[1])],
                    method=orbits._FloatDOP853, rtol=rtol, atol=atol, dense_output=True,
                    events=[ev_escape, ev_axis, *events])
    assert np.array_equal(traj.t, res.t)
    assert np.array_equal(traj.states, res.y.T)
    assert traj.escaped == (len(res.t_events[0]) > 0)
    assert np.array_equal(traj.axis_crossings, res.t_events[1])
    assert len(arrivals) == len(res.t_events) - 2
    for got, want in zip(arrivals, res.t_events[2:]):
        assert np.array_equal(got, want)
    assert traj.status == ("ok" if res.success else res.message)
    return traj


def test_solve_stops_as_scipys_event_loop(regime, solved, monkeypatch):
    rng = np.random.default_rng(DEFAULT_SEED)
    for theta in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        for _ in range(100):
            wp, start = _conservation_draw(rng, theta)
            integrate(wp, start, tau_span=10.0, fi=build_first_integral(wp))
    assert len(solved) == 307
    _run_reading_cases(regime)
    assert len(solved) == 316
    # a homoclinic shot starts inside its arrival disc: leaving it is not
    # an arrival (direction -1), coming back is
    wp, _h = params_from_roots([3.0, 1.0, 1.0, -2.0])
    sad = next(e for e in census(wp).saddles() if abs(e.phi - 1.0) < 1e-6)
    assert shoot_connection(wp, sad, sad, side="right")[0]
    monkeypatch.undo()   # stop recording
    for args, kwargs, _ in solved:
        _assert_solve_is_scipys_event_loop(*args, **kwargs)

    def spiral(_t, x):
        return (-0.5 * x[0] - x[1], x[0] - 0.5 * x[1])

    def line(c):   # a straight line, which DOP853 takes in steps growing tenfold
        return lambda _t, _x: (1.0, c)

    # a start outside the disc escapes when it re-enters
    traj = _assert_solve_is_scipys_event_loop(None, spiral, (12.0, 0.0), 20.0, 1e-10, 1e-12,
                                              escape_radius=10.0)
    assert traj.escaped and len(traj.axis_crossings) == 1
    # a start on the circle escapes at once: the root is the step's start
    traj = _assert_solve_is_scipys_event_loop(None, spiral, (3.0, 4.0), 20.0, 1e-10, 1e-12,
                                              escape_radius=5.0)
    assert traj.escaped and list(traj.t) == [0.0, 0.0]
    # one last step holds the axis crossing before the escape root, the
    # other after it
    traj = _assert_solve_is_scipys_event_loop(None, line(-1.0), (0.0, 3.0), 100.0, 1e-10, 1e-12,
                                              escape_radius=10.0)
    assert traj.escaped and traj.axis_crossings[-1] > traj.run[0][-1].t_old
    # the same step, with the first crossing terminal too: the earlier root stops it
    traj = _assert_solve_is_scipys_event_loop(None, line(-1.0), (0.0, 3.0), 100.0, 1e-10, 1e-12,
                                              escape_radius=10.0, axis_stop=1)
    assert not traj.escaped and traj.t[-1] == pytest.approx(3.0)
    traj = _assert_solve_is_scipys_event_loop(None, line(-0.2), (0.0, 1.0), 100.0, 1e-10, 1e-12,
                                              escape_radius=3.0)
    assert traj.escaped and len(traj.axis_crossings) == 0
    assert traj.run[0][-1](traj.run[0][-1].t)[1] < 0.0   # y crossed 0 in the last step
    # y stays 0: every step crosses at its start, and the fourth crossing
    # falls on the last breakpoint, so the step it was found on is dropped
    traj = _assert_solve_is_scipys_event_loop(None, line(0.0), (0.0, 0.0), 100.0, 1e-10, 1e-12,
                                              axis_stop=4)
    assert len(traj.t) == 4 and list(traj.axis_crossings) == list(traj.t)


def _rhs_as_given(wp, phi, y):
    """The tau-form RHS on np.float64 state and the coefficients as given,
    the arithmetic the pinned trajectories were first made with."""
    theta, C1 = float(wp.theta), float(wp.C1)
    phi, y = np.float64(phi), np.float64(y)
    return (y * (theta * phi - C1),
            (theta - 0.5) * y * y + phi * (wp.K + phi * (0.5 + phi * (wp.C2 + phi * wp.C3))))


_coeff = st.floats(-10.0, 10.0)
_exact = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)


@given(theta=st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
       C1=_coeff, coeffs=st.one_of(st.tuples(_coeff, _coeff, _coeff),
                                   st.tuples(_exact, _exact, _exact)),
       phi=st.floats(-1e3, 1e3), y=st.floats(-1e3, 1e3))
@settings(max_examples=300, deadline=None)
def test_tau_rhs_is_bitwise_the_rhs_as_given(theta, C1, coeffs, phi, y):
    K, C2, C3 = coeffs
    wp = WaveParams(theta, C1, C2, C3, K)
    got = np.array(_tau_rhs(wp)(0.0, (phi, y)))   # as the stepper calls it
    want = np.array(_rhs_as_given(wp, phi, y), dtype=float)
    assert got.tobytes() == want.tobytes()


# --- level readers -------------------------------------------------------------

# (phi-window) -> branches of a level: the grid tracer, which the tests keep as
# the reference, and the walk's reader in the observer's plane
LEVEL_READERS = {
    "grid": lambda wp, h, window: trace_level_curve(build_first_integral(wp), h, window),
    "walk": lambda wp, h, window: level_branches(observation_plane(wp), h, window),
}


def test_center_level_has_no_extended_branch(regime):
    # the level through a center meets a neighborhood of it only in the
    # point itself; neither reader returns a branch of positive length there
    wp, cen, fi = regime
    h0 = fi.eval(0.0, 0.0)
    for name, read in LEVEL_READERS.items():
        for br in read(wp, h0, (-0.4, 0.4)):
            assert br.phi[-1] - br.phi[0] <= 1e-5, name


def test_one_closed_branch_between_center_and_arch_levels(regime):
    wp, cen, fi = regime
    h0 = fi.eval(0.0, 0.0)                 # center level ~ 1.0997
    h = 0.5 * h0                           # between arch (0) and center
    for name, read in LEVEL_READERS.items():
        branches = [b for b in read(wp, h, (-1.0, 1.19))
                    if b.phi[-1] - b.phi[0] > 1e-5]
        assert len(branches) == 1, name
        assert branches[0].closed, name
        # winding oracle: the closed branch must straddle the center abscissa
        assert branches[0].phi[0] < 0.0 < branches[0].phi[-1], name


def test_branch_points_match_orbit_polynomial_roots():
    # theta = 1/2, C1 = 0: turning points are quartic roots; companion oracle
    wp = WaveParams(Fraction(1, 2), 0.0, 0.9, -1.0, -0.05)
    h = 0.03
    coeffs = [float(wp.C3), 4.0 * float(wp.C2) / 3.0, 1.0, 4.0 * float(wp.K), -4.0 * h]
    want = sorted(float(r.real) for r in np.roots(coeffs) if abs(r.imag) < 1e-9)
    assert len(want) == 4
    for name, read in LEVEL_READERS.items():
        branches = [b for b in read(wp, h, (-2.0, 2.5))
                    if b.phi[-1] - b.phi[0] > 1e-6]
        got = sorted(x for b in branches if b.closed for x in (b.phi[0], b.phi[-1]))
        assert len(got) == 4, name
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-10), name


def test_empty_level_returns_no_branches(regime):
    wp, cen, fi = regime
    for name, read in LEVEL_READERS.items():
        assert read(wp, 1e6, (-0.5, 1.0)) == [], name


# --- a saddle's own level ------------------------------------------------------


@pytest.mark.parametrize("theta", [Fraction(1, 4), Fraction(1, 2), Fraction(1)],
                         ids=["polynomial", "log", "pole"])
def test_saddle_level_fn_is_the_level_without_cancellation(theta):
    # the line beyond phi1 ~ 2.6256 makes phi1 an axis saddle
    wp = WaveParams(theta, 3.4 * float(theta), 2.0, -1.0, 3.0)
    cen, fi = census(wp), build_first_integral(wp)
    (sad,) = [e for e in cen.saddles() if e.y == 0.0]
    y2 = saddle_level_fn(fi, sad.phi)
    raw = y_squared_fn(fi, fi.eval(sad.phi, 0.0))
    far = sad.phi + np.array([-0.6, -0.3, 0.3, 0.6])
    assert np.allclose(y2(far), raw(far), rtol=1e-9, atol=0.0)
    # next to the saddle y^2 ~ kappa u^2, kappa = -f'(phi0) / (2 a (phi0 - s))
    kappa = -eval_f_prime(wp, sad.phi) / (
        2.0 * float(fi.y2_coeff) * (sad.phi - float(fi.line)))
    assert kappa > 0.0
    for u in (-1e-7, 1e-7):
        assert y2(sad.phi + u) / u**2 == pytest.approx(kappa, rel=1e-5)


def test_saddle_level_fn_passes_the_line_with_the_pairs_y2(regime):
    wp, cen, fi = regime
    up = max(cen.line_pair, key=lambda e: e.y)
    y2 = saddle_level_fn(fi, up.phi, on_line=True)
    assert y2(up.phi) == pytest.approx(up.y**2, rel=1e-12)
    far = np.array([-0.5, 0.5, 2.0])
    assert np.allclose(y2(far), y_squared_fn(fi, 0.0)(far), rtol=1e-9, atol=0.0)


# --- classification of the peakon geometry ------------------------------------


def test_left_arch_is_a_peakon(regime):
    wp, cen, fi = regime
    pair = sorted(cen.line_pair, key=lambda e: e.y)
    dn, up = pair
    hit, traj = shoot_connection(wp, up, dn, side="left")
    assert hit
    oc = classify_orbit(wp, traj, cen)
    assert oc.tag == "Peakon"
    assert oc.derivative_jump == pytest.approx(up.y - dn.y, rel=1e-6)
    assert oc.derivative_jump > 9.0
    assert oc.period_xi is not None        # finite xi extent of the arch


def test_periodic_peakon_family_approaches_arch_period(regime):
    wp, cen, fi = regime
    pair = sorted(cen.line_pair, key=lambda e: e.y)
    hit, arch = shoot_connection(wp, pair[1], pair[0], side="left")
    assert hit
    tg = np.linspace(arch.t[0], arch.t[-1], 4001)
    arch_xi = abs(arch.xi_of_tau(tg)[-1])

    periods = []
    for phi0 in (0.9, 1.0, 1.1, 1.15, 1.19):   # h decreasing toward 0
        traj = integrate(wp, (phi0, 0.0), tau_span=40.0, fi=fi,
                         stop_after_crossings=4)
        oc = classify_orbit(wp, traj, cen)
        assert oc.tag == "PeriodicPeakon"
        assert oc.derivative_jump >= 0.1 * oc.amplitude
        periods.append(oc.period_xi)
    # monotone decrease onto the arch's xi extent
    assert all(a > b for a, b in zip(periods, periods[1:]))
    assert all(p > arch_xi for p in periods)
    assert periods[-1] - arch_xi <= 5e-3


def test_periodic_peakon_branches_approach_arch_period(regime):
    # quadrature twin of the integrated family above: the closed branch
    # through (phi0, 0) around the center at 0, with phi0 -> line, lies in
    # the observer's arch-bounded family on the left
    wp, cen, fi = regime
    pair = sorted(cen.line_pair, key=lambda e: e.y)
    hit, arch = shoot_connection(wp, pair[1], pair[0], side="left")
    assert hit
    tg = np.linspace(arch.t[0], arch.t[-1], 4001)
    arch_xi = abs(arch.xi_of_tau(tg)[-1])
    _obs, diag = observe_wave_menu(wp, cen, fi)
    (family,) = [d for d in diag if d["kind"] == "family" and d["side"] == "left"]
    assert family["bound"] == "arch"

    periods = []
    for phi0 in (0.9, 1.0, 1.1, 1.15, 1.19):   # h decreasing toward 0
        h = fi.eval(phi0, 0.0)
        assert family["bottom"] < h < family["top"]
        br = next(b for b in trace_level_curve(fi, h, (-1.0, 1.2))
                  if b.closed and b.phi[0] < 0.0 < b.phi[-1])
        assert br.phi[-1] == pytest.approx(phi0, abs=1e-9)
        periods.append(branch_period(y_squared_fn(fi, h), br))
    assert all(a > b for a, b in zip(periods, periods[1:]))
    assert all(p > arch_xi for p in periods)
    assert periods[-1] - arch_xi <= 5e-3


def test_smooth_family_far_from_line(regime):
    wp, cen, fi = regime
    traj = integrate(wp, (0.5, 0.0), tau_span=40.0, fi=fi, stop_after_crossings=4)
    oc = classify_orbit(wp, traj, cen)
    assert oc.tag == "PeriodicSmooth"
    assert oc.period_xi is not None and oc.period_tau is not None


def test_homoclinic_loop_is_solitary():
    # theta = 1/2, C1 = 0 with an axis saddle at phi = 1 (double root of the
    # orbit polynomial): the right loop closes back onto the saddle
    wp, _h = params_from_roots([3.0, 1.0, 1.0, -2.0])
    cen = census(wp)
    sad = next(e for e in cen.saddles() if abs(e.phi - 1.0) < 1e-6)
    hit, traj = shoot_connection(wp, sad, sad, side="right")
    assert hit
    oc = classify_orbit(wp, traj, cen)
    assert oc.tag == "Solitary"
    assert traj.states[:, 0].max() == pytest.approx(3.0, abs=1e-3)


@pytest.mark.parametrize("c1, phi0, side", [(0.04600000000000001, 0.0, "right"),
                                            (-0.0020000000000000018, 0.0875, "left")])
def test_near_line_loop_needs_a_long_shooting_span(c1, phi0, side):
    # T3 atlas-grid samples whose loop turns within ~1e-6 of the singular
    # line: the tau-flow crawls there, so the default span ends the shot
    # before it arrives; a span of 5000 finds the loop the level walk finds
    wp = WaveParams(C1=c1, **T3_BASE)
    cen = census(wp)
    (conn,) = [c for c in saddle_connections(tau_plane(wp, cen))
               if c.kind == "loop" and c.side == side
               and c.saddle.phi == pytest.approx(phi0, abs=1e-4)]
    assert (conn.hit, conn.tag) == (True, "Solitary")
    assert not shoot_connection(wp, conn.saddle, conn.saddle, side=side, sep_tol=1e-4)[0]
    hit, traj = shoot_connection(wp, conn.saddle, conn.saddle, side=side, sep_tol=1e-4,
                                 span=5000.0)
    assert hit
    assert classify_orbit(wp, traj, cen).tag == "Solitary"
