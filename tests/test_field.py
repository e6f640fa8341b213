"""Vector fields and first integrals.

The conservation oracle here is deliberately primitive: partial derivatives
of H by central differences of `FirstIntegral.eval` (never `.partials`),
dotted with the flow.  Anything conserved must kill that dot product to
rounding; the published theta=1/2 and theta=1 forms must NOT.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotheta.field import (SingularLineError, _conservation_spot_check,
                           build_first_integral, conservation_defect, eval_f,
                           eval_g, eval_f_prime, published_first_integral,
                           rhs_singular, tau_rhs)
from rotheta.levels import saddle_level_fn
from rotheta.orbits import y_squared_fn
from rotheta.params import WaveParams

T14 = Fraction(1, 4)
T12 = Fraction(1, 2)
T11 = Fraction(1, 1)

coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def wp_of(theta, C1, C2, C3, K):
    return WaveParams(theta=theta, C1=C1, C2=C2, C3=C3, K=K)


# --- f, g, and the two rhs forms -------------------------------------------


@given(coeff, coeff, coeff, coeff)
def test_f_vanishes_at_zero(C1, C2, C3, K):
    assert eval_f(wp_of(T14, C1, C2, C3, K), 0.0) == 0.0


@given(coeff, coeff, coeff, st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_f_factors_through_g(C2, C3, K, phi):
    wp = wp_of(T14, 0.0, C2, C3, K)
    scale = 1.0 + abs(phi) ** 4 * (1.0 + abs(C3))
    assert abs(eval_f(wp, phi) - phi * eval_g(wp, phi)) <= 1e-12 * scale


def test_rhs_forms_agree_off_line():
    wp = wp_of(T14, 0.3, -0.7, -1.1, 0.4)
    for phi, y in [(-1.4, 0.8), (0.2, -0.5), (2.0, 1.7)]:
        den = float(wp.theta) * phi - float(wp.C1)
        xs = rhs_singular(wp, (phi, y))
        xt = tau_rhs(wp)(0.0, (phi, y))
        assert xs[0] == pytest.approx(xt[0] / den, rel=1e-14)
        assert xs[1] == pytest.approx(xt[1] / den, rel=1e-14)


def test_rhs_singular_raises_on_line():
    wp = wp_of(T14, 0.25, 0.0, -1.0, 1.0)
    with pytest.raises(SingularLineError):
        rhs_singular(wp, (1.0, 0.5))       # phi = C1/theta = 1


def test_origin_is_stationary_for_any_c1():
    wp = wp_of(T14, 0.7, 1.0, -1.0, 2.0)
    assert tau_rhs(wp)(0.0, (0.0, 0.0)) == (0.0, 0.0)


def test_phi_frozen_on_line():
    wp = wp_of(T14, 0.5, 0.3, -1.0, 1.0)
    s = float(wp.singular_line)
    for y in (-2.0, -0.1, 1.3):
        assert tau_rhs(wp)(0.0, (s, y))[0] == 0.0


def test_line_pair_is_stationary():
    # at theta = 1/4 the on-line equilibria are (4C1, +-2 sqrt(f(4C1)))
    wp = wp_of(T14, 0.3, 2.0, -1.0, 3.0)
    s = float(wp.singular_line)
    fs = eval_f(wp, s)
    assert fs > 0.0
    ystar = 2.0 * math.sqrt(fs)
    for y in (ystar, -ystar):
        pdot, ydot = tau_rhs(wp)(0.0, (s, y))
        assert abs(pdot) <= 1e-14 and abs(ydot) <= 1e-12


# --- conservation of the constructed first integral ------------------------


def fd_flow_derivative(fi, wp, phi, y, step=1e-6):
    """Finite-difference dH/dtau, sharing no code with fi.partials."""
    hp = (fi.eval(phi + step, y) - fi.eval(phi - step, y)) / (2 * step)
    hy = (fi.eval(phi, y + step) - fi.eval(phi, y - step)) / (2 * step)
    pdot, ydot = tau_rhs(wp)(0.0, (phi, y))
    scale = max(1.0, abs(hp * pdot), abs(hy * ydot))
    return abs(hp * pdot + hy * ydot) / scale


@pytest.mark.parametrize("theta", [T14, T12, T11, Fraction(1, 3)])
def test_flow_derivative_vanishes(theta):
    wp = wp_of(theta, 0.4, -0.6, -1.2, 0.9)
    fi = build_first_integral(wp)
    s = float(wp.singular_line)
    worst = 0.0
    for dphi in (-1.9, -0.8, 0.7, 1.6):
        for y in (-1.1, 0.4, 1.8):
            worst = max(worst, fd_flow_derivative(fi, wp, s + dphi, y))
    # central differences at step 1e-6 floor out around 1e-10
    assert worst <= 5e-9


def test_quarter_theta_polynomial_matches_printed_form_exactly():
    # exact Fraction coefficients; the printed polynomial tail in ascending
    # powers phi^1..phi^6 (the phi^0 gauge constant is free)
    C1, C2, C3, K = (Fraction(3, 10), Fraction(2), Fraction(-1), Fraction(3))
    fi = build_first_integral(wp_of(T14, C1, C2, C3, K))
    printed_tail = [
        Fraction(0),                       # phi^1
        -2 * C1 * K,                       # phi^2
        (K - 2 * C1) / 3,                  # phi^3
        Fraction(1, 8) - C1 * C2,          # phi^4
        (C2 - 4 * C1 * C3) / 5,            # phi^5
        C3 / 6,                            # phi^6
    ]
    assert fi.phi_poly_coeffs()[1:] == printed_tail
    assert fi.y2_coeff == Fraction(-1, 8)
    assert fi.y2_power == 2
    assert fi.line == 4 * C1
    assert fi.log_coeff == 0 and fi.pole_coeffs == ()


def test_quarter_theta_H_zero_at_origin():
    # the printed polynomial has no constant term, so H(0, 0) = 0 in that
    # convention; the constructed H matches it up to a single gauge constant
    wp = wp_of(T14, 0.4, 1.0, -1.0, 2.0)
    printed = published_first_integral(wp)
    assert printed(0.0, 0.0) == 0.0
    fi = build_first_integral(wp)
    gauge = fi.eval(0.0, 0.0) - printed(0.0, 0.0)
    for phi, y in [(-1.2, 0.5), (0.8, -1.1), (2.4, 0.3)]:
        assert fi.eval(phi, y) - printed(phi, y) == pytest.approx(gauge, abs=1e-9)


def test_half_theta_log_coefficient_vanishes_with_c1():
    fi = build_first_integral(wp_of(T12, Fraction(0), Fraction(9, 10),
                                    Fraction(-1), Fraction(-1, 20)))
    assert fi.log_coeff == 0
    assert fi.pole_coeffs == ()


def test_half_theta_eval_raises_on_line():
    wp = wp_of(T12, 0.3, 0.5, -1.0, 0.2)
    fi = build_first_integral(wp)
    assert fi.log_coeff != 0
    with pytest.raises(SingularLineError):
        fi.eval(0.6, 1.0)                  # phi = 2 C1


def test_full_theta_carries_pole():
    fi = build_first_integral(wp_of(T11, 0.5, 0.3, -1.0, 0.7))
    assert fi.y2_power == -1
    assert any(j == 1 for j, _ in fi.pole_coeffs)


unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([T14, T12, T11]), unit, unit,
       st.floats(min_value=-2.0, max_value=-0.2), unit)
def test_construction_conserved_for_random_parameters(theta, C1, C2, C3, K):
    wp = wp_of(theta, C1, C2, C3, K)
    fi = build_first_integral(wp)      # internal spot check runs here too
    s = float(wp.singular_line)
    # 1e-7 sits well above the FD noise floor (~2e-8 at |H| ~ 1e2) and far
    # below the >= 1e-3 defect of a non-conserved candidate
    assert fd_flow_derivative(fi, wp, s + 1.3, 0.8) <= 1e-7


# --- the published closed forms, audited as black boxes ---------------------

PROBES = [(0.9, 0.4), (-0.7, 1.1), (1.8, -0.6), (0.3, 0.9)]


def shifted_probes(wp):
    s = float(wp.singular_line)
    return [(s + dphi, y) for dphi, y in PROBES]


def test_published_quarter_theta_is_conserved():
    wp = wp_of(T14, 0.3, 2.0, -1.0, 3.0)
    defect = conservation_defect(published_first_integral(wp), wp, shifted_probes(wp))
    assert defect <= 1e-6


@pytest.mark.parametrize("theta,C", [
    (T12, dict(C1=0.3, C2=0.5, C3=-1.0, K=0.2)),
    (T11, dict(C1=0.5, C2=0.3, C3=-1.0, K=0.7)),
])
def test_published_forms_flagged_not_conserved(theta, C):
    wp = wp_of(theta, **C)
    probes = shifted_probes(wp)
    published = conservation_defect(published_first_integral(wp), wp, probes)
    machine = conservation_defect(build_first_integral(wp).eval, wp, probes)
    assert published >= 1e-3               # defective as printed
    assert machine <= 1e-6                 # replacement actually conserved


def test_validity_note_mentions_the_discrepancy():
    note = build_first_integral(wp_of(T12, 0.3, 0.5, -1.0, 0.2)).validity_note
    assert "not conserved" in note


# --- partials agree with the finite-difference stencil ----------------------


@given(st.floats(min_value=-2, max_value=2, allow_nan=False),
       st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_partials_match_finite_differences(dphi, y):
    wp = wp_of(T11, 0.4, 0.2, -0.8, 0.6)
    fi = build_first_integral(wp)
    s = float(wp.singular_line)
    phi = s + (dphi if abs(dphi) > 0.3 else 0.3 + abs(dphi))
    hp, hy = fi.partials(phi, y)
    step = 1e-6
    hp_fd = (fi.eval(phi + step, y) - fi.eval(phi - step, y)) / (2 * step)
    hy_fd = (fi.eval(phi, y + step) - fi.eval(phi, y - step)) / (2 * step)
    scale = 1.0 + abs(hp) + abs(hy)
    assert abs(hp - hp_fd) <= 2e-7 * scale
    assert abs(hy - hy_fd) <= 2e-7 * scale


def test_spot_check_rejects_nan_residual():
    wp = wp_of(T14, 0.3, 2.0, -1.0, 3.0)
    fi = build_first_integral(wp)
    broken = replace(fi, poly_shifted=fi.poly_shifted[:-1] + (math.nan,))
    with pytest.raises(RuntimeError):
        _conservation_spot_check(broken, wp)


# --- a line too far out for floats is rejected as invalid parameters --------

# theta, |C1| and how the self-check tells rounding from a defect: theta phi
# - C1 rounds to the residual (1/3 has no exact binary form), a probe rounds
# onto a log (1/2) or pole (1) line, or f's Taylor shift overflows (1/4)
FAR_LINES = [(Fraction(1, 3), 2e7, "is rounding in theta phi - C1"),
             (T12, 1e16, "rounds onto the line, where H is undefined"),
             (T11, 6e15, "rounds onto the line, where H is undefined"),
             (T14, 1e80, "Taylor shift to the line overflows"),
             (T14, 1e200, "Taylor shift to the line overflows")]


@pytest.mark.parametrize("theta, c1, why", FAR_LINES)
def test_far_line_raises_value_error_naming_c1_and_theta(theta, c1, why):
    for c in (c1, -c1):
        with pytest.raises(ValueError) as exc:
            build_first_integral(wp_of(theta, c, 2.0, -1.0, 3.0))
        assert f"C1 = {c:.6g} puts the singular line at theta = {theta}" in str(exc.value)
        assert why in str(exc.value)


def test_spot_check_tells_a_defect_from_rounding_far_out():
    # at theta = 1/3, C1 = 1e5 rounding leaves about 1e-10: H's f(s) w term
    # off by 1e-6 is still a defect
    wp = wp_of(Fraction(1, 3), 1e5, 2.0, -1.0, 3.0)
    fi = build_first_integral(wp)
    poly = list(fi.poly_shifted)
    poly[1] *= 1.0 + 1e-6
    broken = replace(fi, poly_shifted=tuple(poly))
    with pytest.raises(RuntimeError):
        _conservation_spot_check(broken, wp)


# --- array calls agree with the per-point scalar calls ----------------------

ARRAY_THETAS = (T14, Fraction(1, 3), T12, T11)       # m = 1, 0, -1, -2
off_line = st.tuples(st.floats(min_value=0.05, max_value=3.0),
                     st.sampled_from((-1.0, 1.0)),
                     st.floats(min_value=-2.0, max_value=2.0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ARRAY_THETAS), coeff, coeff, coeff, coeff,
       st.lists(off_line, min_size=1, max_size=12),
       st.floats(min_value=-5.0, max_value=5.0))
def test_array_calls_match_scalar_calls(theta, C1, C2, C3, K, points, h):
    fi = build_first_integral(wp_of(theta, C1, C2, C3, K))
    s = float(fi.line)
    phi = np.array([s + side * d for d, side, _y in points])
    y = np.array([v for _d, _side, v in points])

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    close(list(fi.eval(phi, y)), [fi.eval(p, v) for p, v in zip(phi, y)])
    dphi, dy = fi.partials(phi, y)
    scalar = [fi.partials(p, v) for p, v in zip(phi, y)]
    close(list(dphi), [d for d, _ in scalar])
    close(list(dy), [d for _, d in scalar])

    y2 = y_squared_fn(fi, h)
    grid = np.append(phi, s)                       # the line itself too
    close(list(y2(grid)), [y2(p) for p in grid])

    # the level function through the first point, on that point's side
    level = saddle_level_fn(fi, float(phi[0]), h=h)
    side = phi[(phi - s) * (phi[0] - s) > 0.0]
    close(list(level(side)), [level(float(p)) for p in side])
