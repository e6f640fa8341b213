"""Equilibrium censuses: root locations, linearizations, case labels.

Root-count oracle: numpy.roots on f = phi * g with an imaginary-part filter.
Jacobian oracle: finite differences of tau_rhs.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rotheta.atlas import observe_wave_menu
from rotheta.equilibria import (census, classify, find_g_roots,
                                g_critical_points, linearization_determinant)
from rotheta.field import eval_f, eval_f_prime, tau_rhs
from rotheta.params import WaveParams

T14 = Fraction(1, 4)


def wp14(C1, C2, C3, K):
    return WaveParams(theta=T14, C1=C1, C2=C2, C3=C3, K=K)


# --- roots of g --------------------------------------------------------------


def test_g_roots_symmetric_cubic():
    # g = -phi^3 + phi/2: zeros at 0 and +-1/sqrt(2); bisection cross-check
    wp = wp14(0.0, 0.0, -1.0, 0.0)
    got = find_g_roots(wp)
    want = [-1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)]
    assert [mult for _, mult in got] == [1, 1, 1]
    for (r, _), w in zip(got, want):
        assert r == pytest.approx(w, abs=1e-12)
    # independent bisection on the sign changes
    for w in want:
        lo, hi = w - 0.2, w + 0.2
        g = lambda p: -p**3 + 0.5 * p
        if g(lo) * g(hi) < 0:
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if g(lo) * g(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            assert abs(0.5 * (lo + hi) - w) <= 1e-12


def test_g_roots_constructed_double():
    # g = -(phi - 1)^2 (phi + 2) has K = -2, C2 = 0, expanded:
    # -phi^3 + 0 phi^2 + 3 phi - 2 ... with the phi coefficient fixed at 1/2
    # the family is g = C3 phi^3 + C2 phi^2 + phi/2 + K; scale the target
    # double-root cubic so its linear coefficient is 1/2:
    # -(1/6)(phi-1)^2(phi+2) = -phi^3/6 + phi/2 - 1/3
    wp = wp14(0.0, 0.0, -1.0 / 6.0, -1.0 / 3.0)
    got = find_g_roots(wp)
    assert [(round(r, 9), mult) for r, mult in got] == [(-2.0, 1), (1.0, 2)]


def test_g_linear_when_cubic_terms_vanish():
    wp = wp14(0.0, 0.0, 0.0, 0.7)
    assert find_g_roots(wp) == [(-1.4, 1)]    # phi/2 + K = 0


def test_g_critical_points_identified_by_curvature():
    # C3 < 0 flips the +- formula order; the semantic labels must not flip
    lo, hi = g_critical_points(wp14(0.0, 0.0, -1.0, 0.0))
    assert lo < hi                  # min at -1/sqrt(6), max at +1/sqrt(6)
    lo2, hi2 = g_critical_points(wp14(0.0, 2.0, 1.0, 0.0))
    assert lo2 > hi2                # positive lead: max sits left of min
    assert g_critical_points(wp14(0.0, 0.0, 1.0, 0.0)) == (None, None)  # Delta < 0


# --- linearization -----------------------------------------------------------


def fd_jacobian(wp, point, step=1e-6):
    J = np.empty((2, 2))
    for j in range(2):
        lo = list(point)
        hi = list(point)
        lo[j] -= step
        hi[j] += step
        J[:, j] = (np.array(tau_rhs(wp)(0.0, hi)) - np.array(tau_rhs(wp)(0.0, lo))) / (2 * step)
    return J


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1),
       st.floats(min_value=-2, max_value=-0.2), st.floats(min_value=-1, max_value=1))
def test_axis_determinant_formula(C1, C2, C3, K):
    wp = wp14(C1, C2, C3, K)
    for phi_i, mult in [(0.0, 1)] + find_g_roots(wp):
        if mult != 1 or abs(eval_f(wp, phi_i)) > 1e-9:
            continue
        den = 0.25 * phi_i - C1
        assume(abs(den) > 1e-3)
        J = linearization_determinant(wp, (phi_i, 0.0))
        assert J == pytest.approx(-den * eval_f_prime(wp, phi_i), rel=1e-9, abs=1e-12)
        num = fd_jacobian(wp, (phi_i, 0.0))
        assert float(np.linalg.det(num)) == pytest.approx(J, rel=1e-5, abs=1e-5)
        assert float(np.trace(num)) == pytest.approx(0.0, abs=1e-6)


def test_determinant_requires_stationary_point():
    wp = wp14(0.3, 2.0, -1.0, 3.0)
    with pytest.raises(ValueError):
        linearization_determinant(wp, (0.5, 0.5))


def test_classify_table():
    assert classify(-1.0, 0.0) == "Saddle"
    assert classify(1.0, 0.0) == "Center"
    assert classify(1.0, 3.0) == "Node"
    assert classify(0.0, 0.0, multiplicity=2) == "Cusp"
    # g's roots 0 and -2.4e-7 merged at K = 1.2e-7: J reads the gap, not a center
    assert classify(1.192092896e-07, 0.0, multiplicity=2) == "Cusp"
    assert classify(0.0, 0.0, multiplicity=1) == "Degenerate"


# --- full census -------------------------------------------------------------


def numpy_axis_roots(wp, imag_tol=1e-9):
    """Real roots of f = phi g via the companion matrix, unmerged."""
    rs = np.roots([float(wp.C3), float(wp.C2), 0.5, float(wp.K), 0.0])
    return sorted(float(r.real) for r in rs if abs(r.imag) <= imag_tol * (1 + abs(r)))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-1, max_value=1), st.floats(min_value=-1, max_value=1),
       st.floats(min_value=-2, max_value=-0.2), st.floats(min_value=-1, max_value=1))
def test_axis_census_matches_companion_count(C1, C2, C3, K):
    wp = wp14(C1, C2, C3, K)
    cen = census(wp)
    if cen.is_boundary:
        return                       # flagged draws carry no count claim
    reals = numpy_axis_roots(wp)
    # census merges clusters at ~1e-7 relative; stay out of the ambiguous
    # ring where merge decisions (either way) are defensible
    gap = 1e-7 * (1.0 + max((abs(r) for r in reals), default=0.0))
    dists = [b - a for a, b in zip(reals, reals[1:])]
    assume(all(d <= 0.3 * gap or d >= 3.0 * gap for d in dists))
    merged = []
    for r in reals:
        if not merged or r - merged[-1] > gap:
            merged.append(r)
    assert len(cen.axis) == len(merged)


def test_line_pair_exists_iff_f_positive_at_line():
    wp = wp14(0.3, 2.0, -1.0, 3.0)
    s = float(wp.singular_line)
    assert eval_f(wp, s) > 0
    cen = census(wp)
    pair = cen.line_pair
    assert len(pair) == 2
    ys = sorted(e.y for e in pair)
    ystar = 2.0 * math.sqrt(eval_f(wp, s))   # y*^2 = f(s)/(1/2 - 1/4)
    assert ys == pytest.approx([-ystar, ystar], rel=1e-12)
    assert all(e.kind == "Saddle" for e in pair)

    far = wp14(0.8, 2.0, -1.0, 3.0)          # f(3.2) < 0: no pair
    assert eval_f(far, float(far.singular_line)) < 0
    assert census(far).line_pair == ()


def test_no_line_pair_at_half_theta():
    wp = WaveParams(Fraction(1, 2), 0.3, 0.9, -1.0, -0.05)
    assert census(wp).line_pair == ()


def test_case_counts_from_reference_configurations():
    # the three catalogued cases: counts 4 / 6 / 3 with the line pair alive
    cases = [
        ("1i", wp14(-0.125, 0.0, -1.0, -1.0), 4),
        ("1iii", wp14(0.05, 0.9, -1.0, -0.05), 6),
        ("3iii", wp14(0.1, 0.1, 1.0, 0.0), 3),
    ]
    for label, wp, count in cases:
        cen = census(wp)
        assert cen.case_label == label
        assert len(cen.equilibria) == count
        assert eval_f(wp, float(wp.singular_line)) > 0


def test_census_flags_line_through_equilibrium():
    wp = wp14(0.0, 2.0, -1.0, 3.0)           # line phi = 0 hits the origin
    cen = census(wp)
    assert cen.is_boundary
    assert "singular line passes through equilibrium" in cen.boundary_note


def test_census_flags_an_untyped_line_pair():
    # y*^2 = 1.2e-7 clears the pair's tolerance, but J = -1.5e-8 does not:
    # the pair exists and is typed Degenerate, so the portrait is a boundary
    cen = census(wp14(6.1e-5, 0.0, -1.0, 0.0))
    assert [e.kind for e in cen.line_pair] == ["Degenerate", "Degenerate"]
    assert cen.line_pair[0].J == pytest.approx(-1.49e-8, rel=1e-2)
    assert cen.is_boundary
    assert "singular-line pair is untyped" in cen.boundary_note


def test_saddles_centers_partition():
    cen = census(wp14(0.3, 2.0, -1.0, 3.0))
    kinds = {e.kind for e in cen.equilibria}
    assert kinds <= {"Saddle", "Center", "Node", "Cusp", "Degenerate"}
    assert set(cen.saddles()) | set(cen.centers()) <= set(cen.equilibria)


@pytest.mark.parametrize("theta", [Fraction(1, 4), Fraction(1, 2), Fraction(1)])
def test_overflowing_cubic_is_rejected_naming_the_coefficients(theta):
    # |C2/C3|, 1/|C3| or |K/C3| so large that g's cubic formula overflows;
    # at K = 1e300 it once gave g the root nan, and the census case 1v.  The
    # message names the ratio to C3 whose power dominates the discriminant
    for C2, C3, K, ratio in ((2.0, -1e-100, 3.0, "C2/C3"), (2.0, -1e-300, 3.0, "C2/C3"),
                             (2.0, -1.0, 1e300, "K/C3"), (0.0, -1e-200, 0.0, "1/(2 C3)"),
                             (1e-100, 1e-200, 1e110, "K/C3")):
        wp = WaveParams(theta=theta, C1=0.3, C2=C2, C3=C3, K=K)
        with pytest.raises(ValueError, match=re.escape(
                f"C2 = {C2:g}, C3 = {C3:g}, K = {K:g}: |{ratio}| is too large")):
            census(wp)
        with pytest.raises(ValueError, match="cubic formula"):
            observe_wave_menu(wp)
