"""Jacobi kernel: scipy.special's bits, identities, limits, periodicity,
and adaptive quadrature of the defining integral as an independent oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ellipj, ellipk

from rotheta.elliptic import complete_K, jacobi

params = st.floats(min_value=0.0, max_value=0.999, allow_nan=False)
# where scipy's ellipj would switch to its expansion about m = 1
near_one = st.floats(min_value=0.9999999999, max_value=1.0, exclude_max=True)
args = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def _sech(u):
    try:
        return 1.0 / math.cosh(u)
    except OverflowError:
        return 0.0


def _scipy_jacobi(u, m):
    """`jacobi` as it was written on `scipy.special`: `ellipj`, and near
    m = 1 its reduction into [-K, K] and one descending Landen step.  At
    m = 1, where `ellipj` gives nan at a finite u (|u| > 355.58), the limits
    tanh u and 1/cosh u instead."""
    if m == 1.0:
        cols = [np.array(col, dtype=float) for col in ellipj(u, m)[:3]]
        over = np.isfinite(u) & np.isnan(cols[0])
        for col, limit in zip(cols, (math.tanh, _sech, _sech)):
            col[over] = [limit(x) for x in np.asarray(u, dtype=float)[over]]
        return tuple(col[()] for col in cols)
    if not 0.9999999999 <= m < 1.0:
        return ellipj(u, m)[:3]
    half = 2.0 * float(ellipk(m))
    n = np.rint(np.divide(u, half))
    sign = 1.0 - 2.0 * (n % 2.0)
    kp = math.sqrt(1.0 - m)
    r = (1.0 - kp) / (1.0 + kp)
    sv, cv, dv, _ph = ellipj((u - n * half) / (1.0 + r), r * r)
    d = 1.0 + r * sv * sv
    return sign * (1.0 + r) * sv / d, sign * cv * dv / d, (1.0 - r * sv * sv) / d


def _assert_same_bits(ours, theirs):
    """Same type, shape and bits; any nan matches any nan."""
    assert type(ours) is type(theirs)
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.shape == theirs.shape
    nan = np.isnan(ours)
    assert np.array_equal(nan, np.isnan(theirs))
    assert np.array_equal(ours[~nan].view(np.uint64), theirs[~nan].view(np.uint64))


# m uniform, log-spaced next to 0 and to 1, and each branch's edge
bit_params = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-17.0, -1.0).map(lambda e: 10.0 ** e),
    st.floats(-17.0, -1.0).map(lambda e: 1.0 - 10.0 ** e),
    st.sampled_from([0.0, 1e-9, 0.9999999999, 1.0]))
non_finite = st.sampled_from([math.inf, -math.inf, math.nan])


@given(m=bit_params, data=st.data())
@settings(max_examples=200, deadline=None)
def test_jacobi_and_K_are_scipys_bit_for_bit(m, data):
    # |u| up to 800 at m = 1, where cosh u and sinh u overflow past 710
    span = 800.0 if m == 1.0 else 40.0
    us = data.draw(st.lists(st.one_of(st.floats(-span, span), non_finite), max_size=12))
    # each drawn u as a scalar, all of them as 1-D and 2-D arrays, an empty
    # array, and with grids that meet dn's rarer branch and, log-spaced,
    # small u (where the AGM's eighth step shows, next to m = 1 - 1e-8)
    small = np.geomspace(1e-6, span, 500)
    grid = np.concatenate([us, np.linspace(-span, span, 2001), -small, small])
    for u in [*us, np.array(us), np.array(us + us).reshape(2, -1), np.array([]), grid]:
        with np.errstate(invalid="ignore"):   # an infinite u reduced near m = 1
            pairs = list(zip(jacobi(u, m), _scipy_jacobi(u, m)))
        for ours, theirs in pairs:
            _assert_same_bits(ours, theirs)
    if m < 1.0:
        assert complete_K(m).hex() == float(ellipk(m)).hex()


@pytest.mark.parametrize("m", [1.0 - 2.5e-10, 1.0 - 2e-8])
def test_jacobi_takes_the_agms_eighth_step(m):
    # next to m = 1 the AGM takes all eight of its steps, directly at
    # 1 - 2e-8 and after the Landen step at 1 - 2.5e-10; on the Hypothesis
    # test's grid an AGM capped at seven steps gives hundreds of mismatches
    small = np.geomspace(1e-6, 40.0, 500)
    grid = np.concatenate([np.linspace(-40.0, 40.0, 2001), -small, small])
    for ours, theirs in zip(jacobi(grid, m), _scipy_jacobi(grid, m)):
        _assert_same_bits(ours, theirs)


def test_complete_K_trivial_and_edges():
    assert complete_K(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    with pytest.raises(ValueError):
        complete_K(1.0)            # logarithmic divergence
    with pytest.raises(ValueError):
        complete_K(-0.1)
    with pytest.raises(ValueError):
        complete_K(1.5)


def test_complete_K_matches_quadrature():
    for m in (0.1, 0.5, 0.9, 0.99):
        ref, err = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                        0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-12
        assert complete_K(m) == pytest.approx(ref, abs=1e-12)


def test_jacobi_at_zero():
    for m in (0.0, 0.3, 0.8, 1.0):
        assert jacobi(0.0, m) == (0.0, 1.0, 1.0)


def test_jacobi_at_m_one_past_cosh_overflow():
    # cosh(u)^2 overflows past |u| = 355.58, and cosh u itself past 710.5;
    # scipy's ellipj gives nan in both ranges
    sech400 = 1.0 / math.cosh(400.0)
    assert jacobi(400.0, 1.0) == (1.0, sech400, sech400)
    assert jacobi(-400.0, 1.0) == (-1.0, sech400, sech400)
    u = np.array([-800.0, -400.0, -355.0, -1.0, -0.0, 0.5, 355.0, 356.0, 400.0, 800.0,
                  math.inf, math.nan])
    sn, cn, dn = jacobi(u, 1.0)
    finite = u[:-2].tolist()
    assert sn[:-2].tolist() == [math.tanh(x) for x in finite]
    assert cn[:-2].tolist() == dn[:-2].tolist() == [_sech(x) for x in finite]
    assert np.isnan([sn[-2:], cn[-2:], dn[-2:]]).all()
    assert np.isnan(ellipj(400.0, 1.0)[:3]).all()


def test_jacobi_degenerate_limits():
    for u in (-2.3, 0.4, 1.9):
        assert jacobi(u, 0.0) == (math.sin(u), math.cos(u), 1.0)
        sech = 1.0 / math.cosh(u)
        assert jacobi(u, 1.0) == (math.tanh(u), sech, sech)


@given(args, st.one_of(params, near_one))
def test_pythagorean_identities(u, m):
    sn, cn, dn = jacobi(u, m)
    assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
    assert abs(m * sn * sn + dn * dn - 1.0) <= 1e-12
    assert abs(sn) <= 1.0 + 1e-12 and dn >= 0.0
    # half-period antiperiodicity: sn and cn change sign, dn does not
    sn2, cn2, dn2 = jacobi(u + 2.0 * complete_K(m), m)
    assert abs(sn2 + sn) <= 1e-12
    assert abs(cn2 + cn) <= 1e-12
    assert abs(dn2 - dn) <= 1e-12


@given(args, st.floats(min_value=0.05, max_value=0.95))
def test_real_periodicity(u, m):
    per = 4.0 * complete_K(m)
    sn1, cn1, dn1 = jacobi(u, m)
    sn2, cn2, dn2 = jacobi(u + per, m)
    assert sn1 == pytest.approx(sn2, abs=1e-10)
    assert cn1 == pytest.approx(cn2, abs=1e-10)
    assert dn1 == pytest.approx(dn2, abs=1e-10)


def test_sn_by_inverting_the_incomplete_integral():
    # u = integral_0^am (1 - m sin^2 t)^(-1/2) dt defines the amplitude am(u);
    # sn = sin(am).  Solve for am by bracketed root finding on the quadrature.
    m, u = 0.7, 1.3

    def incomplete(am):
        val, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                      0.0, am, epsabs=1e-13, epsrel=1e-13)
        return val

    am = brentq(lambda a: incomplete(a) - u, 0.0, math.pi / 2.0, xtol=1e-14)
    sn, cn, dn = jacobi(u, m)
    assert sn == pytest.approx(math.sin(am), abs=1e-10)
    assert cn == pytest.approx(math.cos(am), abs=1e-10)
    assert dn == pytest.approx(math.sqrt(1.0 - m * math.sin(am) ** 2), abs=1e-10)


def test_grid_identity_sweep():
    # the acceptance-grade sweep in miniature: 2000 points, 1e-12
    us = np.linspace(-8.0, 8.0, 500)
    for m in (0.1, 0.5, 0.9, 0.999):
        worst = max(abs(jacobi(u, m)[0] ** 2 + jacobi(u, m)[1] ** 2 - 1.0) for u in us)
        assert worst <= 1e-12
