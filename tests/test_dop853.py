"""`dop853`'s ports of scipy, checked against scipy itself: the tableau,
the DOP853 constructor's first step, the axis-period run against
`solve_ivp` with its y = 0 event, and check 5's reference K(0.5)."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853, quad, solve_ivp
from scipy.integrate._ivp import rk

from rotheta import dop853, orbits
from rotheta.closedform import closed_form_menu, orbit_polynomial, params_from_roots, profile_rhs
from rotheta.field import tau_rhs
from rotheta.params import WaveParams
from rotheta.verification import _quadrature_K_half


def _dense(row, n):
    """A sparse tableau row as a dense row of length n."""
    out = np.zeros(n)
    for j, a in row:
        out[j] = a
    return out


def test_tableau_is_scipys():
    n = DOP853.n_stages
    assert (dop853._FSAL, dop853._N_STAGES) == (n, len(DOP853.A_EXTRA[0]))
    assert dop853._ERROR_ORDER == DOP853.error_estimator_order
    assert (dop853.SAFETY, dop853.MIN_FACTOR, dop853.MAX_FACTOR) == \
        (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
    assert dop853.TOO_SMALL_STEP == DOP853.TOO_SMALL_STEP
    assert len(dop853._STAGES) == n - 1
    assert np.array_equal([0.0, *(c for c, _row in dop853._STAGES)], DOP853.C)
    assert np.array_equal(np.array([np.zeros(n)] + [_dense(row, n) for _c, row in dop853._STAGES]),
                          DOP853.A)
    assert np.array_equal([c for c, _row in dop853._EXTRA], DOP853.C_EXTRA)
    width = DOP853.A_EXTRA.shape[1]
    assert np.array_equal([_dense(row, width) for _c, row in dop853._EXTRA], DOP853.A_EXTRA)
    for ours, theirs in ((dop853._B, DOP853.B), (dop853._E3, DOP853.E3), (dop853._E5, DOP853.E5)):
        assert np.array_equal(_dense(ours, len(theirs)), theirs)
    assert np.array_equal([_dense(row, DOP853.D.shape[1]) for row in dop853._D], DOP853.D)


def _constructed(make):
    """What `make()` returns, or the error it raises, with the messages of
    the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = make()
        except ValueError as exc:
            out = ("ValueError", str(exc))
    return out, [str(w.message) for w in caught]


def _assert_first_step_is_scipys(rhs, start, span, rtol, atol):
    def ours():
        y, f, h_abs, r, a, nfev = dop853._first_step(rhs, start, span, rtol, atol)
        return tuple(y.tolist()), f, h_abs, r, a, nfev

    def scipys():
        solver = DOP853(rhs, 0.0, start, span, rtol=rtol, atol=atol)
        return (tuple(solver.y.tolist()), tuple(solver.f.tolist()), float(solver.h_abs),
                float(solver.rtol), float(solver.atol), solver.nfev)

    got, want = _constructed(ours), _constructed(scipys)
    assert got == want
    return got


_coeff = st.floats(-2.0, 2.0)
_tol = st.floats(1e-15, 1e-6)


@given(theta=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
       coeffs=st.tuples(_coeff, _coeff, _coeff, _coeff),
       start=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))),
       span=st.one_of(st.sampled_from([1e-9, 1e-3, 10.0]), st.floats(1e-6, 200.0)),
       rtol=_tol, atol=_tol)
@settings(max_examples=400, deadline=None)
def test_first_step_is_the_dop853_constructors(theta, coeffs, start, span, rtol, atol):
    # (0, 0) is an equilibrium of every tau-form; rtol below 100 EPS is
    # clamped with a warning
    C1, C2, C3, K = coeffs
    rhs = tau_rhs(WaveParams(theta=theta, C1=C1, C2=C2, C3=C3, K=K))
    (_y, _f, _h, checked_rtol, *_rest), messages = _assert_first_step_is_scipys(
        rhs, start, span, rtol, atol)
    assert checked_rtol == max(rtol, 100 * dop853.EPS)
    assert len(messages) == (rtol < 100 * dop853.EPS)


def test_first_step_rejects_what_the_constructor_rejects():
    rhs = tau_rhs(WaveParams(theta=Fraction(1, 4), C1=0.1, C2=0.3, C3=-1.0, K=0.2))
    negative = _assert_first_step_is_scipys(rhs, (0.5, 0.2), 10.0, 1e-10, -1e-12)
    assert negative == (("ValueError", "`atol` must be positive."), [])
    clamped_too = _assert_first_step_is_scipys(rhs, (0.5, 0.2), 10.0, 1e-16, -1e-12)
    assert clamped_too[0] == negative[0] and len(clamped_too[1]) == 1
    infinite = _assert_first_step_is_scipys(rhs, (math.inf, 0.2), 10.0, 1e-10, 1e-12)
    assert infinite[0][0] == "ValueError"


def test_interpolant_is_scipys():
    # event roots are cut on `_dense_at`, which must give Dop853DenseOutput's
    # bits at the step's ends, inside it and beyond it
    rng = np.random.default_rng(5)
    for _ in range(200):
        t_old = float(rng.uniform(0.0, 10.0))
        t_new = t_old + float(rng.uniform(1e-6, 1.0))
        y_old, F = rng.normal(size=2), rng.normal(size=(7, 2)) * 10.0 ** rng.integers(-8, 2)
        step = rk.Dop853DenseOutput(t_old, t_new, y_old, F)
        h = t_new - t_old
        for t in (t_old, t_new, *rng.uniform(t_old - h, t_new + h, 5).tolist()):
            got = dop853._dense_at(t_old, h, y_old.tolist(), F.tolist(), t)
            assert got == tuple(step(t).tolist())


def _check6_runs():
    """(rhs, start) of check 6's period runs: each periodic closed-form
    profile's orbit from the middle of its phi-range."""
    runs = []
    for roots in ([3.0, 1.6, 0.4, -2.0], [2.0, -1.0, 0.5 + 0.8j, 0.5 - 0.8j]):
        wp, h = params_from_roots(roots)
        pol = orbit_polynomial(wp, h)
        for s in closed_form_menu(wp, h):
            phi0 = 0.5 * (s.phi_range[0] + s.phi_range[1])
            runs.append((profile_rhs(wp), (phi0, math.sqrt(max(float(pol(phi0)), 0.0)))))
    return runs


def _spiral(_t, x):
    return (-0.5 * x[0] - x[1], x[0] - 0.5 * x[1])


_AXIS_RUNS = [
    *((rhs, start, 200.0) for rhs, start in _check6_runs()),
    # a start on the axis, whose first crossing is the start itself
    (tau_rhs(WaveParams(Fraction(1, 4), 0.3, 2.0, -1.0, 3.0)), (1e-3, 0.0), 200.0),
    (_spiral, (1.0, 0.0), 200.0),
    (_spiral, (0.0, 1.0), 200.0),
    # the span ends the run before its fourth crossing
    (_spiral, (1.0, 0.5), 3.5),
]


@pytest.mark.parametrize("rhs, start, span", _AXIS_RUNS)
def test_axis_period_takes_solve_ivps_crossings(rhs, start, span):
    res = solve_ivp(rhs, (0.0, span), [float(start[0]), float(start[1])],
                    method=orbits._FloatDOP853, rtol=1e-12, atol=1e-14,
                    events=orbits._axis_event(4))
    want = res.t_events[0]
    want = want[want > 1e-12]
    period, tc = dop853.measure_axis_period(rhs, start, span=span)
    assert tc.dtype == want.dtype and tc.tobytes() == want.tobytes()
    assert period == (float(want[2] - want[0]) if len(want) >= 3 else None)


def test_axis_period_runs_cover_every_ending():
    # four crossings after an off-axis start, three after a start on the
    # axis (the start is the first), fewer when the span ends the run
    kept = [len(dop853.measure_axis_period(rhs, start, span=span)[1])
            for rhs, start, span in _AXIS_RUNS]
    assert kept == [4, 4, 4, 3, 3, 4, 1]


def test_check5_reference_is_k_half():
    K = _quadrature_K_half()
    Kq, _err = quad(lambda t: 1.0 / math.sqrt(1.0 - 0.5 * math.sin(t) ** 2),
                    0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-14)
    assert abs(K - Kq) <= 1e-15
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(K) - mpmath.ellipk(mpmath.mpf(1) / 2)) <= 1e-15
