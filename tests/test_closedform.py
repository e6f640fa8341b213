"""Closed-form wave profiles at theta = 1/2, C1 = 0.

Scenario parameters are synthesized backwards from prescribed root
configurations of the orbit polynomial P(phi) = (phi')^2, so every test
knows its exact turning points.  Correctness always comes down to the ODE
residual and to agreement with direct numeric integration of the profile
equation -- oracles that share nothing with the elliptic formulas.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rotheta.closedform import (closed_form_menu, ode_residual, orbit_polynomial,
                                params_from_roots, profile_rhs, q_coeffs)
from rotheta.elliptic import complete_K, jacobi
from rotheta.orbits import measure_axis_period
from rotheta.params import WaveParams


_coeff = st.floats(-10.0, 10.0)
_exact = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)


@given(coeffs=st.one_of(st.tuples(_coeff, _coeff, _coeff), st.tuples(_exact, _exact, _exact)),
       phi=st.floats(-1e3, 1e3), y=st.floats(-1e3, 1e3))
@settings(max_examples=300, deadline=None)
def test_orbit_polynomial_and_profile_rhs_are_bitwise_as_written(coeffs, phi, y):
    # both come from g's coefficient row; they must keep the bits of
    # Q = C3 phi^4 + (4 C2 / 3) phi^3 + phi^2 + 4 K phi and y' = 2 g(phi)
    K, C2, C3 = coeffs
    wp = WaveParams(Fraction(1, 2), 0.0, C2, C3, K)
    C2, C3, K = float(C2), float(C3), float(K)
    want_q = (C3, 4.0 * C2 / 3.0, 1.0, 4.0 * K, 0.0)
    want_rhs = (y, 2.0 * (K + phi * (0.5 + phi * (C2 + phi * C3))))
    assert np.array(q_coeffs(wp)).tobytes() == np.array(want_q).tobytes()
    assert np.array(profile_rhs(wp)(0.0, (phi, y))).tobytes() == np.array(want_rhs).tobytes()


def test_root_synthesis_round_trips():
    wp, h = params_from_roots([3.0, 1.0, -1.0, -2.0])
    pol = orbit_polynomial(wp, h)
    assert [mult for _, mult in pol.real_roots] == [1, 1, 1, 1]
    assert [r for r, _ in pol.real_roots] == pytest.approx([-2.0, -1.0, 1.0, 3.0], abs=1e-9)
    assert pol.complex_pairs == ()


def test_double_root_detected():
    wp, h = params_from_roots([3.0, 1.0, 1.0, -2.0])
    pol = orbit_polynomial(wp, h)
    assert sorted(mult for _, mult in pol.real_roots) == [1, 1, 2]
    d = next(r for r, mult in pol.real_roots if mult == 2)
    assert d == pytest.approx(1.0, abs=1e-7)


def test_level_tangency_gives_double_root():
    # h at an equilibrium level makes P tangent there: census-free check
    # using the critical points of B(phi) = H(phi, 0)
    wp, _ = params_from_roots([3.0, 1.6, 0.4, -2.0])
    from rotheta.field import build_first_integral
    fi = build_first_integral(wp)
    # equilibria of the profile system are the g-roots
    from rotheta.equilibria import find_g_roots
    for r, mult in find_g_roots(wp):
        if mult != 1:
            continue
        h_eq = fi.eval(r, 0.0)
        pol = orbit_polynomial(wp, h_eq)
        assert any(m >= 2 and abs(root - r) <= 1e-5 for root, m in pol.real_roots)


def test_orbit_polynomial_requires_reduced_parameters():
    with pytest.raises(ValueError):
        orbit_polynomial(WaveParams(Fraction(1, 4), 0.0, 0.0, -1.0, 0.1), 0.0)
    with pytest.raises(ValueError):
        orbit_polynomial(WaveParams(Fraction(1, 2), 0.3, 0.0, -1.0, 0.1), 0.0)


def test_orbit_polynomial_rejects_a_cubic_naming_c3():
    # C3 = 0 leaves P a cubic, which no quartic constructor takes
    with pytest.raises(ValueError, match="C3 = 0"):
        orbit_polynomial(WaveParams(Fraction(1, 2), 0.0, 0.9, 0.0, -0.05), 0.01)


def test_polynomial_matches_level_solve():
    # y^2 from P(phi) equals y^2 solved from H(phi, y) = h
    from rotheta.field import build_first_integral
    wp, h = params_from_roots([3.0, 1.6, 0.4, -2.0])
    fi = build_first_integral(wp)
    pol = orbit_polynomial(wp, h)
    for phi in np.linspace(1.7, 2.9, 20):     # inside the right orbit [1.6, 3]
        y2 = pol(phi)
        assert y2 > 0
        y = math.sqrt(y2)
        assert fi.eval(phi, y) == pytest.approx(h, rel=1e-10, abs=1e-12)


# --- the three constructions -------------------------------------------------


def test_sn_wave_turning_points_and_period():
    wp, h = params_from_roots([3.0, 1.6, 0.4, -2.0])
    waves = closed_form_menu(wp, h)
    assert sorted(w.kind for w in waves) == ["sn-periodic-left", "sn-periodic-right"]
    right = next(w for w in waves if w.kind.endswith("right"))
    assert right(0.0) == pytest.approx(1.6, abs=1e-9)          # phi(0) = p2
    u_half = complete_K(right.modulus_m) / right.omega
    assert right(np.array([u_half]))[0] == pytest.approx(3.0, abs=1e-8)  # sn^2 = 1
    assert right.period == pytest.approx(2.0 * complete_K(right.modulus_m) / right.omega,
                                         rel=1e-14)
    assert ode_residual(right) <= 1e-8

    # numeric period oracle: integrate the profile equation from the
    # bottom turning point's midpoint on the same level
    phi0 = 0.5 * (1.6 + 3.0)
    y0 = math.sqrt(orbit_polynomial(wp, h)(phi0))
    period, _ = measure_axis_period(profile_rhs(wp), (phi0, y0))
    assert period == pytest.approx(right.period, rel=1e-6)

    left = next(w for w in waves if w.kind.endswith("left"))
    assert left(0.0) == pytest.approx(-2.0, abs=1e-9)          # phi(0) = p4
    assert left.period == pytest.approx(right.period, rel=1e-12)
    assert ode_residual(left) <= 1e-8


def test_cn_wave_range_and_residual():
    wp, h = params_from_roots([2.0, -1.0, 0.5 + 0.8j, 0.5 - 0.8j])
    waves = closed_form_menu(wp, h)
    assert [w.kind for w in waves] == ["cn-periodic"]
    cn = waves[0]
    assert ode_residual(cn) <= 1e-8
    # oscillates exactly between the two real roots
    xi = np.linspace(-0.5 * cn.period, 0.5 * cn.period, 4001)
    prof = cn(xi)
    assert prof.min() == pytest.approx(-1.0, abs=1e-8)
    assert prof.max() == pytest.approx(2.0, abs=1e-8)
    assert cn(0.0) == pytest.approx(-1.0, abs=1e-10)           # phi(0) = p2
    # numeric period oracle
    phi0 = 0.5
    y0 = math.sqrt(orbit_polynomial(wp, h)(phi0))
    period, _ = measure_axis_period(profile_rhs(wp), (phi0, y0))
    assert period == pytest.approx(cn.period, rel=1e-6)


def test_solitary_tails_and_crest():
    wp, h = params_from_roots([3.0, 1.0, 1.0, -2.0])
    waves = closed_form_menu(wp, h)
    assert sorted(w.kind for w in waves) == ["solitary-left", "solitary-right"]
    right = next(w for w in waves if w.kind.endswith("right"))
    left = next(w for w in waves if w.kind.endswith("left"))
    assert right.period is None and math.isnan(right.modulus_m)
    assert right(0.0) == pytest.approx(3.0, abs=1e-9)          # crest at far root
    assert left(0.0) == pytest.approx(-2.0, abs=1e-9)          # trough at far root
    for w in (right, left):
        assert w(np.array([30.0]))[0] == pytest.approx(1.0, abs=1e-6)
        assert w(np.array([-30.0]))[0] == pytest.approx(1.0, abs=1e-6)
        assert ode_residual(w) <= 1e-8


def test_outermost_double_root_bounds_no_orbit():
    # double root outside the simple pair: no closed-form family there
    wp, h = params_from_roots([3.0, 3.0, 1.0, -2.0])
    assert closed_form_menu(wp, h) == []


def test_residual_detector_sanity():
    wp, h = params_from_roots([3.0, 1.6, 0.4, -2.0])
    right = next(w for w in closed_form_menu(wp, h) if w.kind.endswith("right"))
    good = ode_residual(right)
    assert good <= 1e-8
    shifted = replace(right)
    shifted.profile = lambda xi: right.profile(xi) + 0.01
    assert ode_residual(shifted) >= 1e-3


def test_constant_equilibrium_profile_has_zero_residual():
    # phi identically at a g-root solves the profile equation exactly
    wp, _ = params_from_roots([3.0, 1.6, 0.4, -2.0])
    from rotheta.equilibria import find_g_roots
    r = find_g_roots(wp)[0][0]
    from rotheta.field import build_first_integral
    h_eq = float(build_first_integral(wp).eval(r, 0.0))
    # a constant WaveSolution built through the public dataclass
    from rotheta.closedform import WaveSolution
    sol = WaveSolution(kind="constant", wp=wp, h=h_eq, modulus_m=float("nan"),
                       omega=1.0, period=None, phi_range=(r, r), roots=(r,),
                       profile=lambda xi: np.full_like(xi, r))
    assert ode_residual(sol, halfwidth=5.0) <= 1e-10


def test_cn_degenerates_to_solitary_as_pair_collapses():
    # complex pair 0.5 +- i eps -> double root at 0.5: near the crest the cn
    # profile converges to the right-solitary profile
    eps = 1e-6
    wp_cn, h_cn = params_from_roots([2.0, -1.0, complex(0.5, eps), complex(0.5, -eps)])
    wp_so, h_so = params_from_roots([2.0, 0.5, 0.5, -1.0])
    cn = closed_form_menu(wp_cn, h_cn)[0]
    so = next(w for w in closed_form_menu(wp_so, h_so) if w.kind.endswith("right"))
    # align crests: cn has phi(0) = p2 = -1 (trough); crest half a period away
    shift = 0.5 * cn.period
    xi = np.linspace(-6.0, 6.0, 801)
    sup = float(np.max(np.abs(cn(xi + shift) - so(xi))))
    assert cn.modulus_m > 0.999
    assert sup <= 1e-4


def test_sn_degenerates_to_solitary_as_roots_merge():
    gap = 5e-7
    wp_sn, h_sn = params_from_roots([3.0, 1.0 + gap, 1.0 - gap, -2.0])
    wp_so, h_so = params_from_roots([3.0, 1.0, 1.0, -2.0])
    sn = next(w for w in closed_form_menu(wp_sn, h_sn) if w.kind.endswith("right"))
    so = next(w for w in closed_form_menu(wp_so, h_so) if w.kind.endswith("right"))
    shift = complete_K(sn.modulus_m) / sn.omega      # sn crest sits at K/omega
    xi = np.linspace(-8.0, 8.0, 401)
    sup = float(np.max(np.abs(sn(xi + shift) - so(xi))))
    assert sup <= 1e-6


# --- profile symmetry and confinement, property-style ------------------------

simple_root = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(st.lists(simple_root, min_size=4, max_size=4, unique=True))
def test_profiles_even_and_confined(roots):
    assume(min(b - a for a, b in zip(sorted(roots), sorted(roots)[1:])) >= 0.3)
    wp, h = params_from_roots(roots)
    assume(abs(float(wp.C3)) >= 1e-3)
    for w in closed_form_menu(wp, h):
        lo, hi = w.phi_range
        xi = np.linspace(0.0, (w.period or 8.0 / w.omega), 200)
        plus, minus = w(xi), w(-xi)
        assert np.allclose(plus, minus, atol=1e-9)          # even profiles
        assert np.all(plus >= lo - 1e-7) and np.all(plus <= hi + 1e-7)


# --- each profile keeps the bits of its formula written out per side ----------


def _written_out(w, xi):
    """The five profile formulas, one per side, on the roots, omega and m
    the WaveSolution carries."""
    if w.kind == "cn-periodic":
        p1, p2, z = w.roots
        b1, a1 = z.real, z.imag
        A1, B1 = math.hypot(p1 - b1, a1), math.hypot(p2 - b1, a1)
        cn = jacobi(w.omega * xi, w.modulus_m)[1]
        return (p1 * B1 * (1.0 - cn) + p2 * A1 * (1.0 + cn)) / \
               ((A1 + B1) + (A1 - B1) * cn)
    if w.kind.startswith("sn"):
        p1, p2, p3, p4 = w.roots
        sn2 = jacobi(w.omega * xi, w.modulus_m)[0] ** 2
        if w.kind == "sn-periodic-right":
            return (p2 * (p1 - p3) - p3 * (p1 - p2) * sn2) / \
                   ((p1 - p3) - (p1 - p2) * sn2)
        return (p4 * (p1 - p3) + p1 * (p3 - p4) * sn2) / \
               ((p1 - p3) + (p3 - p4) * sn2)
    p1, d, p3 = w.roots
    a, b = (p1 - d) * (d - p3), p1 - 2.0 * d + p3
    if w.kind == "solitary-right":
        return d + 2.0 * a / ((p1 - p3) * np.cosh(w.omega * xi) - b)
    return d - 2.0 * a / ((p1 - p3) * np.cosh(w.omega * xi) + b)


@st.composite
def _pattern_roots(draw):
    """(family, roots) for a drawn root set of one of the three patterns."""
    family = draw(st.sampled_from(["cn", "sn", "solitary"]))
    if family == "cn":
        p1, p2, b = draw(simple_root), draw(simple_root), draw(simple_root)
        c = draw(st.floats(0.01, 3.0))
        return family, [p1, p2, complex(b, c), complex(b, -c)]
    if family == "sn":
        return family, draw(st.lists(simple_root, min_size=4, max_size=4))
    p3, d, p1 = sorted(draw(st.lists(simple_root, min_size=3, max_size=3)))
    return family, [p1, d, d, p3]


@settings(max_examples=200, deadline=None)
@given(drawn=_pattern_roots(), x=st.floats(-20.0, 20.0))
@example(drawn=("cn", [2.3, -1.1, complex(0.4, 0.7), complex(0.4, -0.7)]), x=1.9)
@example(drawn=("sn", [2.9, 1.3, 0.7, -2.1]), x=0.3)
@example(drawn=("solitary", [0.1, 0.0, 0.0, -0.1]), x=0.5)
def test_profiles_are_bitwise_their_written_out_formulas(drawn, x):
    family, roots = drawn
    reals = sorted({r for r in roots if not isinstance(r, complex)})
    assume(min(np.diff(reals), default=1.0) >= 0.05)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            waves = closed_form_menu(*params_from_roots(roots))
    except (ValueError, ArithmeticError):
        assume(False)
    assume(waves and all(w.kind.startswith(family) for w in waves))
    for w in waves:
        # omega xi in [700, 709] takes a solitary wave's a / X below the
        # normal range, the one place where (2 a) / X and 2 (a / X) round
        # apart; a double root d = 0 lets that show in phi
        xi = np.concatenate((np.linspace(-12.0, 12.0, 97),
                             np.linspace(700.0, 709.0, 19) / w.omega))
        assert np.array_equal(w(xi), _written_out(w, xi)), w.kind
        assert w(x) == _written_out(w, np.asarray(x)), w.kind
