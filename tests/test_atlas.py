"""Region classification, menu prediction, and numeric observation."""

import hashlib
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rotheta.atlas import (ObservedMenu, PRESENT, WaveMenu, _sweep_one, classify_region,
                           family_levels, level_branches, menu_agrees, observation_plane,
                           observe_wave_menu, predict_wave_menu, saddle_connections,
                           sweep_singular_line)
from rotheta.closedform import (closed_form_menu, is_reduced_point, orbit_polynomial,
                                profile_rhs, q_coeffs)
from rotheta.equilibria import CENTER, SADDLE, census, g_critical_points
from rotheta.field import build_first_integral, eval_f, eval_g, rhs_singular
from rotheta.levels import _gauss_legendre, branch_period, level_branch, saddle_level_fn
from rotheta.orbits import (classify_orbit, integrate, measure_axis_period, shoot_connection,
                            trace_branches, y_squared_fn)
from rotheta.params import WaveParams, derive_coriolis, derive_wave_params
from rotheta.verification import T1_BASE, T3_BASE


D1_REGIME = WaveParams(Fraction(1, 4), 0.3, 2.0, -1.0, 3.0)


def test_quarter_theta_window_label():
    wp = D1_REGIME
    lab = classify_region(wp, census(wp))
    assert (lab.theorem, lab.domain) == ("T1", "D1")
    assert lab.in_peakon_window
    assert not lab.boundary
    assert lab.singular_line_position == "0 < 4C1 < phi1"
    assert len(lab.phi_roots) == 1
    assert lab.phi_roots[0] == pytest.approx(2.6256, abs=1e-3)


def test_quarter_theta_outside_window():
    wp = replace(D1_REGIME, C1=0.8)        # line at 3.2 > phi1
    lab = classify_region(wp, census(wp))
    assert lab.domain == "D1"
    assert not lab.in_peakon_window
    assert lab.singular_line_position == "4C1 > phi1"
    menu = predict_wave_menu(lab)
    assert menu.peakon == 0 and menu.periodic_peakon == 0
    assert menu.smooth_any


def test_half_theta_labels():
    wp = WaveParams(Fraction(1, 2), 0.5, 0.9, -1.0, -0.05)
    lab = classify_region(wp, census(wp))
    assert (lab.theorem, lab.domain) == ("T2", "D5")
    assert not lab.in_peakon_window        # window language is theta = 1/4 only
    menu = predict_wave_menu(lab)
    assert menu.peakon == 0 and menu.periodic_peakon == 0 and menu.smooth_any

    wp0 = replace(wp, K=0.0)
    assert classify_region(wp0, census(wp0)).domain == "D6"

    wp3 = replace(wp, C1=0.0)
    lab3 = classify_region(wp3, census(wp3))
    assert (lab3.theorem, lab3.domain) == ("T3", "D3")
    menu3 = predict_wave_menu(lab3)
    assert menu3.solitary == 2 and menu3.periodic_smooth == 2


# the reduced-point tolerance 1e-9 and values on either side of it
REDUCED_C1_EDGES = [0.0, 1e-12, -1e-12, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9]
# an sn, a cn and the solitary level of the reduced T3_BASE point
REDUCED_LEVELS = (0.03, 0.16972480807741305, -0.0022746161548261655)


def _accepts(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return False
    return True


@given(st.sampled_from(REDUCED_C1_EDGES) | st.floats(min_value=-0.2, max_value=0.2))
@settings(max_examples=40, deadline=None)
def test_one_rule_for_the_reduced_point(c1):
    # the atlas labels T3 exactly where the closed forms accept the point,
    # and an accepted C1 != 0 gives the C1 = 0 profiles bit for bit
    wp = WaveParams(C1=c1, **T3_BASE)
    t3 = classify_region(wp, census(wp)).theorem == "T3"
    assert _accepts(profile_rhs, wp) == t3
    for h in REDUCED_LEVELS:
        assert _accepts(closed_form_menu, wp, h) == t3
    if not t3:
        return
    wp0 = WaveParams(C1=0.0, **T3_BASE)
    xi = np.linspace(-3.0, 3.0, 61)
    for h in REDUCED_LEVELS:
        menu, menu0 = closed_form_menu(wp, h), closed_form_menu(wp0, h)
        assert menu0 and [repr(s) for s in menu] == [repr(s) for s in menu0]
        assert all(np.array_equal(s(xi), s0(xi)) for s, s0 in zip(menu, menu0))


def test_zero_k_domain_at_quarter_theta():
    wp = replace(D1_REGIME, K=0.0)
    lab = classify_region(wp, census(wp))
    assert lab.domain == "D5"
    assert lab.in_peakon_window            # line at 1.2 < phi1 ~ 2.22
    menu = predict_wave_menu(lab)
    assert menu.peakon == 1 and menu.periodic_peakon == 2


def test_tangent_minimum_gives_d2():
    # g = -(1/6)(phi + 1)^2 (phi - 2): exact double root at the minimum
    wp = WaveParams(Fraction(1, 4), 0.3, 0.0, -1.0 / 6.0, 1.0 / 3.0)
    lab = classify_region(wp, census(wp))
    assert lab.domain == "D2"
    assert not lab.boundary
    assert lab.in_peakon_window
    menu = predict_wave_menu(lab)
    assert menu.peakon == 0 and menu.periodic_peakon == 2


def test_uncatalogued_parameters():
    wp = WaveParams(Fraction(1, 4), 0.3, 0.0, 1.0, 3.0)   # 4 C2^2 < 6 C3
    lab = classify_region(wp, census(wp))
    assert lab.domain == "UNCOVERED"
    menu = predict_wave_menu(lab)
    assert menu.peakon is PRESENT and not menu.smooth_any

    with pytest.raises(ValueError):
        classify_region(WaveParams(Fraction(1, 3), 0.3, 2.0, -1.0, 3.0),
                        census(WaveParams(Fraction(1, 3), 0.3, 2.0, -1.0, 3.0)))


def test_boundary_label_refuses_prediction():
    wp = replace(D1_REGIME, K=1e-8)        # inside the K ~ 0 boundary band
    lab = classify_region(wp, census(wp))
    assert lab.boundary
    with pytest.raises(ValueError):
        predict_wave_menu(lab)


def _label_points():
    """Both atlas grids, then the 30 x 61 (Omega, c) grids at theta = 1/4
    and 1/2."""
    yield from _atlas_grid(T1_BASE, (0.85, -0.1), 1)
    yield from _atlas_grid(T3_BASE, (0.2, -0.198), 1)
    for theta in (Fraction(1, 4), Fraction(1, 2)):
        for omega in np.linspace(0.05, 3.0, 30):
            cor = derive_coriolis(float(omega))
            for c in np.linspace(-3.0, 3.0, 61):
                yield derive_wave_params(cor, float(c), theta)


# sha256 of the discrete label fields and the prediction at every
# `_label_points` point
LABEL_DIGEST = "50c197bac245d8e026dc00fc3b5cde0886273447aa0323f85cf153f3e823c6cf"


def test_labels_and_predictions_are_pinned():
    digest, n = hashlib.sha256(), 0
    for wp in _label_points():
        lab = classify_region(wp, census(wp))
        try:
            pred = repr(predict_wave_menu(lab))
        except ValueError:
            pred = "boundary"
        digest.update(repr((lab.theorem, lab.domain, lab.boundary, lab.singular_line_position,
                            lab.in_peakon_window, lab.note, pred)).encode())
        n += 1
    assert n == 400 + 2 * 30 * 61
    assert digest.hexdigest() == LABEL_DIGEST


# domain at K set so the entry is 0, +1e-8 and -1e-8 (C2 = 0.9, C3 = -1),
# "*" marking a boundary; T3 reads no K, and its D3 row bands g_max alone,
# so g_min = -1e-8 is a clean D3
EDGE_LABELS = {
    ("T1", 0.3, "K"): ("D5", "D4*", "D4*"),
    ("T1", 0.3, "g_min"): ("D2", "D1*", "D4*"),
    ("T1", 0.3, "g_max"): ("D3", "D4*", "UNCOVERED*"),
    ("T2", 0.5, "K"): ("D6", "D5*", "D5*"),
    ("T2", 0.5, "g_min"): ("D2", "D1*", "D5*"),
    ("T2", 0.5, "g_max"): ("D3", "D5*", "D4*"),
    ("T3", 0.0, "K"): ("D3", "D3", "D3"),
    ("T3", 0.0, "g_min"): ("D1*", "D1*", "D3"),
    ("T3", 0.0, "g_max"): ("D2*", "D3*", "D2*"),
}


@pytest.mark.parametrize("theorem, c1, entry", EDGE_LABELS)
def test_labels_at_each_entrys_zero(theorem, c1, entry):
    theta = Fraction(1, 4) if theorem == "T1" else Fraction(1, 2)
    base = WaveParams(theta, c1, 0.9, -1.0, 0.0)
    phi = dict(zip(("g_min", "g_max"), g_critical_points(base)))
    k0 = -eval_g(base, phi[entry]) if entry in phi else 0.0
    got = []
    for offset in (0.0, 1e-8, -1e-8):
        wp = replace(base, K=k0 + offset)
        lab = classify_region(wp, census(wp))
        assert lab.theorem == theorem
        got.append(lab.domain + "*" * lab.boundary)
    assert tuple(got) == EDGE_LABELS[theorem, c1, entry]


@given(st.floats(min_value=0.05, max_value=0.55))
@settings(max_examples=30, deadline=None)
def test_label_is_locally_constant(c1):
    wp = replace(D1_REGIME, C1=c1)
    cen = census(wp)
    lab = classify_region(wp, cen)
    assume(not lab.boundary)
    s = 4.0 * c1
    assume(all(abs(s - e) > 1e-6 for e in (0.0,) + lab.phi_roots))
    wp2 = replace(wp, C1=c1 * (1.0 + 1e-9))
    assert classify_region(wp2, census(wp2)) == lab


# --- where the singular line sits among 0 and g's roots ------------------------

# theta = 1/4 bases: one root; three roots (2, -1, -3), the second window in
# D4; K = 0, where the root at 0 ties with the mark "0" and is named first
LINE_BASES = {
    "D1": WaveParams(Fraction(1, 4), 0.0, 2.0, -1.0, 3.0),
    "D4": WaveParams(Fraction(1, 4), 0.0, -0.2, -0.1, 0.6),
    "D5": WaveParams(Fraction(1, 4), 0.0, 0.9, -1.0, 0.0),
}
# (base, mark's name): (in a window 1e-12 below the mark, 1e-12 above it)
MARK_WINDOWS = {
    ("D1", "0"): (False, True), ("D1", "phi1"): (True, False),
    ("D4", "phi1"): (True, False), ("D4", "0"): (False, True),
    ("D4", "phi2"): (True, False), ("D4", "phi3"): (False, True),
    ("D5", "phi1"): (True, False), ("D5", "phi2"): (True, True),
    ("D5", "phi3"): (False, True),
}


def _marks(base):
    """0 and g's roots by name, as the descriptor names them."""
    roots = sorted((r for r, _ in census(base).g_roots), reverse=True)
    return {"0": 0.0, **{f"phi{i + 1}": r for i, r in enumerate(roots)}}


def _at_line(base, s):
    wp = replace(base, C1=s / 4.0)
    return classify_region(wp, census(wp))


@pytest.mark.parametrize("domain, mark", MARK_WINDOWS)
def test_line_on_a_mark_and_1e12_either_side(domain, mark):
    base = LINE_BASES[domain]
    v = _marks(base)[mark]
    for offset, window in zip((0.0, -1e-12, 1e-12), (False, *MARK_WINDOWS[domain, mark])):
        lab = _at_line(base, v + offset)
        assert lab.domain == domain
        assert lab.singular_line_position == f"4C1 = {mark}"
        assert lab.in_peakon_window == window, offset


def test_root_at_zero_is_named_before_the_zero_mark():
    marks = _marks(LINE_BASES["D5"])
    assert marks["phi2"] == 0.0
    assert _at_line(LINE_BASES["D5"], 0.0).singular_line_position == "4C1 = phi2"


@pytest.mark.parametrize("domain", ["D1", "D4"])
def test_window_edge_band_is_1e3_of_each_mark(domain):
    base = LINE_BASES[domain]
    for v in _marks(base).values():
        band = 1e-3 * (1.0 + abs(v))
        for f in (-1.1, -0.9, 0.9, 1.1):
            sample = _sweep_one(base, (v + f * band) / 4.0)
            assert not sample.label.boundary
            assert sample.boundary == (abs(f) < 1.0), (v, f)
            assert (sample.agreement is None) == sample.boundary


def test_window_edge_band_is_t1_only():
    base = WaveParams(Fraction(1, 2), 0.0, 0.9, -1.0, -0.05)
    for r, _ in census(base).g_roots:
        sample = _sweep_one(base, (r + 0.5e-3 * (1.0 + abs(r))) / 2.0)
        assert sample.label.theorem == "T2"
        assert not sample.boundary


def test_window_guards_c3_and_f():
    # g = (phi - 1)(phi - 2)(phi - 3)/22: C3 > 0, the line at 1.5 in
    # (phi3, phi2) and (0, phi1) with f > 0 there
    wp = WaveParams(Fraction(1, 4), 0.375, -6.0 / 22.0, 1.0 / 22.0, -6.0 / 22.0)
    lab = classify_region(wp, census(wp))
    assert lab.domain == "D4"
    assert lab.singular_line_position == "phi3 < 4C1 < phi2"
    assert eval_f(wp, 1.5) > 0.0
    assert not lab.in_peakon_window
    # g = -(phi - 2)(phi - 1)(phi + 3)/14: the line at 0.5 in (0, phi1) and
    # (phi3, phi2), where f < 0
    wp = WaveParams(Fraction(1, 4), 0.125, 0.0, -1.0 / 14.0, -3.0 / 7.0)
    lab = classify_region(wp, census(wp))
    assert lab.domain == "D4"
    assert lab.singular_line_position == "0 < 4C1 < phi2"
    assert eval_f(wp, 0.5) < 0.0
    assert not lab.in_peakon_window


def test_menu_agreement_semantics():
    claim = WaveMenu(peakon=1, periodic_peakon=2, smooth_any=True)
    assert menu_agrees(claim, ObservedMenu(peakon=2, periodic_peakon=2,
                                           periodic_smooth=1))
    assert not menu_agrees(claim, ObservedMenu(peakon=0, periodic_peakon=2,
                                               periodic_smooth=1))
    assert not menu_agrees(claim, ObservedMenu(peakon=1, periodic_peakon=2))
    zero = WaveMenu(peakon=0, periodic_peakon=0)
    assert not menu_agrees(zero, ObservedMenu(peakon=1))
    assert menu_agrees(WaveMenu(), ObservedMenu())     # vacuous claims


# --- observation ---------------------------------------------------------------


def test_window_regime_observes_claimed_menu():
    wp = D1_REGIME
    cen = census(wp)
    menu = predict_wave_menu(classify_region(wp, cen))
    obs, diag = observe_wave_menu(wp, cen)
    assert menu_agrees(menu, obs)
    assert obs.peakon >= 1
    assert obs.periodic_peakon >= 2
    arch_tags = {d["tag"] for d in diag if d["kind"] == "arch"}
    assert "Peakon" in arch_tags


def test_second_window_observes_peakons():
    # three g-roots (2, -1, -3) with the line in the left window (phi3, phi2)
    wp = WaveParams(Fraction(1, 4), -0.5, -0.2, -0.1, 0.6)
    cen = census(wp)
    lab = classify_region(wp, cen)
    assert lab.domain == "D4"
    assert lab.singular_line_position == "phi3 < 4C1 < phi2"
    assert lab.in_peakon_window
    obs, _ = observe_wave_menu(wp, cen)
    assert menu_agrees(predict_wave_menu(lab), obs)
    assert obs.peakon >= 1
    assert obs.periodic_peakon >= 2


def test_reduced_point_observation_is_exact():
    wp = WaveParams(Fraction(1, 2), 0.0, 0.9, -1.0, -0.05)
    obs, diag = observe_wave_menu(wp)
    assert diag[0]["kind"] == "plane"      # profile-plane observer
    assert obs.solitary == 2
    assert obs.periodic_smooth >= 2
    assert obs.peakon == 0 and obs.periodic_peakon == 0

    one = WaveParams(Fraction(1, 2), 0.0, 0.0, -1.0, 1.0)
    obs1, _ = observe_wave_menu(one)
    assert (obs1.solitary, obs1.periodic_smooth) == (0, 1)


@given(theta=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), None]),
       c1=st.floats(-1.0, 1.0), c2=st.floats(-3.0, 3.0),
       c3=st.floats(-3.0, -0.1) | st.floats(0.1, 3.0), k=st.floats(-3.0, 3.0))
@settings(max_examples=150, deadline=None)
def test_plane_stops_and_ends_read_b(theta, c1, c2, c3, k):
    # theta None is the reduced point theta = 1/2, C1 = 0.  A stop's level is
    # B there; an end's level is B's limit: a finite one is B next to the
    # end, an infinite one has the sign B takes far out (1e6 from the line)
    # or next to the line (1e-12 (1 + |line|) from it)
    wp = (WaveParams(Fraction(1, 2), 0.0, c2, c3, k) if theta is None
          else WaveParams(theta, c1, c2, c3, k))
    plane = observation_plane(wp)
    fi = plane.fi
    s = float(fi.line)
    # next to the line B's leading term is f(s) ln|w| (m = -1) or -f(s)/w
    # (m = -2): it dominates there only if f(s) is not tiny
    assume(plane.line is None or not fi.singular_on_line or abs(eval_f(wp, s)) >= 1e-6)
    for phi, level in plane.stops:
        assert level == fi.eval(phi, 0.0)
    for side, _sign, ends in plane.sides:
        for (phi, level), inward in zip(ends, (1.0, -1.0)):
            near = (s - inward * 1e6 if math.isinf(phi)
                    else phi + inward * 1e-12 * (1.0 + abs(phi)))
            b = fi.eval(near, 0.0)
            if math.isinf(level):
                assert math.copysign(1.0, b) == math.copysign(1.0, level), (side, phi, b)
            else:
                assert b == pytest.approx(level, rel=1e-9, abs=1e-9), (side, phi, b)


@given(C2=st.floats(-3.0, 3.0), C3=st.floats(-3.0, -0.1) | st.floats(0.1, 3.0),
       K=st.floats(-3.0, 3.0))
# g's root within 1e-172 of 0: the quartic's resolvent root underflows there
@example(C2=0.0, C3=-1.0, K=2.8556198701669017e-173)
@example(C2=0.0, C3=1.0, K=3.6079613651182447e-258)
# the stop's level and Q(r)/4 are one subnormal unit apart here
@example(C2=0.0, C3=-1.0, K=7.280021008666932e-160)
@settings(max_examples=60, deadline=None)
def test_profile_plane_levels_are_the_closed_forms(C2, C3, K):
    # at the reduced point H is the profile energy (Q - y^2)/4: a stop's
    # level is Q(r)/4, and y^2 on it is the orbit polynomial P = Q - 4h
    wp = WaveParams(Fraction(1, 2), 0.0, C2, C3, K)
    plane = observation_plane(wp)
    q = q_coeffs(wp)
    assert plane.line is None and plane.stops
    roots = [r for r, _h in plane.stops]
    phi = np.linspace(min(roots) - 1.0, max(roots) + 1.0, 41)
    for r, h in plane.stops:
        # rounding of Q's terms, with phi measured from 0 or from r, but
        # never finer than the subnormal spacing
        assert abs(h - np.polyval(q, r) / 4.0) <= max(
            1e-14 * np.polyval(np.abs(q), abs(r)), math.ulp(0.0))
        y2 = saddle_level_fn(plane.fi, r)(phi)
        scale = np.polyval(np.abs(q), np.abs(phi) + abs(r))
        assert np.all(np.abs(y2 - orbit_polynomial(wp, h)(phi)) <= 1e-13 * scale)


def test_levels_of_a_profile_plane_with_no_stop():
    # g = phi^2 + phi/2 + 1 has no real root, so the profile plane has no
    # stop; on H = h, y^2 = Q - 4h has one real root and one open branch
    wp = WaveParams(Fraction(1, 2), 0.0, 1.0, 0.0, 1.0)
    plane = observation_plane(wp)
    assert plane.line is None and not plane.stops
    for h in (0.5, -3.0):
        (branch,) = level_branches(plane, h, (-5.0, 5.0))
        (root,) = [r.real for r in np.roots(q_coeffs(wp)[1:4] + (-4.0 * h,)) if r.imag == 0.0]
        assert not branch.closed and branch.phi_range == pytest.approx((root, 5.0))


# T3 domain -> (K, observed (solitary, periodic_smooth), loop entries
# (phi, side, tag), family entries (phi, top, bottom, bound)), at theta =
# 1/2, C1 = 0 with T3_BASE's C2 and C3.  D3 has three families: one inside
# each loop and the outer cn family around both, which never ends.
PINNED_PROFILE_PLANE = {
    "D1": (1.0, (0, 1), [], [(1.6018573348351801, 1.8304074335070182, None, None)]),
    "D2": (-1.0, (0, 1), [], [(-0.8977413085775057, 0.7197840278583149, None, None)]),
    "D3": (T3_BASE["K"], (2, 3), [
        (0.0875461687524971, "left", "Solitary"),
        (0.0875461687524971, "right", "Solitary"),
    ], [
        (1.264217316031118, 0.30391224376443776, -0.0022746161548261655, "loop"),
        (-0.4517634847836151, 0.03553737239038836, -0.0022746161548261655, "loop"),
        (0.0875461687524971, -0.0022746161548261655, None, None),
    ]),
}


@pytest.mark.parametrize("domain", sorted(PINNED_PROFILE_PLANE))
def test_profile_plane_observations_are_pinned(domain):
    K, (solitary, periodic), loops, families = PINNED_PROFILE_PLANE[domain]
    wp = WaveParams(C1=0.0, **dict(T3_BASE, K=K))
    assert classify_region(wp, census(wp)).domain == domain
    obs, diag = observe_wave_menu(wp)
    assert obs == ObservedMenu(solitary=solitary, periodic_smooth=periodic)
    # the order the two rays of a saddle are shot in is not an observation
    assert sorted((d["phi"], d["side"], d["tag"])
                  for d in diag if d["kind"] == "loop") == loops
    assert [(d["side"], d["phi"], d["top"], d["bottom"], d["bound"])
            for d in diag if d["kind"] == "family"] == [(None, *f) for f in families]


# Points where the families were once counted on sampled levels and missed
# one next to a window edge or inside the D4 window; each is scored and agrees.
MENDED_POINTS = {
    "atlas-grid-C1=0.00025": WaveParams(C1=0.00025125628140709733, **T1_BASE),
    "sweep-C1=0.00108": WaveParams(C1=0.0010822570814502108, **T1_BASE),
    "sweep-C1=0.00105": WaveParams(C1=0.0010474939963613303, **T1_BASE),
    "grid40-C1=0.65513": WaveParams(C1=0.6551282051282051, **T1_BASE),
    "D4-window": WaveParams(Fraction(1, 4), 0.1274, -1.6444, -0.3736, 2.4495),
}


@pytest.mark.parametrize("wp", MENDED_POINTS.values(), ids=MENDED_POINTS.keys())
def test_families_next_to_window_edges_are_counted(wp):
    sample = _sweep_one(wp, wp.C1)
    assert sample.label.in_peakon_window
    assert sample.agreement is True
    assert sample.observed.periodic_peakon == 2


@pytest.mark.parametrize("c1", [1e-4, 5e-5, 1e-6])
def test_small_c1_arches_pass_the_center(c1):
    # the center at phi = 0 sits just left of the line at 4 C1; its level,
    # about K (4 C1)^3 / 6, is tiny but not the pair's level 0, so the left
    # arch walks past it to its turning point
    obs, diag = observe_wave_menu(WaveParams(C1=c1, **T1_BASE))
    assert [(d["side"], d["end"]) for d in diag if d["kind"] == "arch"] == \
        [("left", "turning-point"), ("right", "turning-point")]
    assert obs.peakon == obs.periodic_peakon == 2


@given(theta=st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]),
       c1=st.floats(-1.0, 1.0), c2=st.floats(-3.0, 3.0), c3=st.floats(-3.0, -0.1),
       k=st.floats(-3.0, 3.0))
# a center 2e-5 from a saddle, their levels 1.3e-15 apart: rounding
# inverts them unless the peak is read on the level through it
@example(theta=Fraction(1, 4), c1=0.5, c2=0.0, c3=-2.0, k=1e-5)
# g's roots 0 and -2.4e-7 merged into one double root, once typed a center
@example(theta=Fraction(1, 4), c1=1.0, c2=1.0, c3=-0.5, k=1.192092896e-07)
@settings(max_examples=150, deadline=None)
def test_families_start_at_centers_and_end_at_walked_arches(theta, c1, c2, c3, k):
    # the family sweep against the census's linear types and the arch walks
    wp = WaveParams(theta, c1, c2, c3, k)
    assume(not is_reduced_point(wp))
    cen = census(wp)
    # a census off its boundaries that types every equilibrium (no cusp, no
    # degenerate pair), with no two axis equilibria within 1e-5 (1 + |phi|):
    # a family between those is shallower than the levels' rounding (5e-21
    # deep at a gap of 2.4e-7)
    phis = sorted(e.phi for e in cen.axis)
    assume(not cen.is_boundary
           and all(e.kind in (CENTER, SADDLE) for e in cen.equilibria)
           and all(b - a > 1e-5 * (1.0 + abs(a)) for a, b in zip(phis, phis[1:])))
    _obs, diag = observe_wave_menu(wp, cen)
    families = [d for d in diag if d["kind"] == "family"]
    starts = [d["phi"] for d in families]
    for e in cen.centers():
        if not e.on_singular_line:
            assert starts.count(e.phi) == 1, (e, families)
    # the other families start where two closed intervals merge
    assert {e.phi for e in cen.saddles()} >= set(starts) - {e.phi for e in cen.centers()}
    # an arch walk that met an equilibrium on the pair's level (within 1e-10
    # of the larger level) called the portrait degenerate: no verdict
    arches = [d for d in diag if d["kind"] == "arch"]
    assume(all(d["end"] != "double-root" for d in arches))
    walked = {d["side"] for d in arches if d["tag"]}
    assert {d["side"] for d in families if d["bound"] == "arch"} <= walked


# --- sweep ---------------------------------------------------------------------


def test_sweep_across_the_window_edge():
    rep = sweep_singular_line(D1_REGIME, (0.75, 0.05), 5)
    c1s = [s.c1 for s in rep.samples]
    assert c1s == sorted(c1s, reverse=True)
    assert rep.n_boundary == 0
    assert rep.agreement_fraction == 1.0
    assert rep.disagreements() == []
    # line leaves the window between the first two samples
    assert rep.samples[0].label.singular_line_position == "4C1 > phi1"
    assert not rep.samples[0].label.in_peakon_window
    assert rep.samples[0].observed.peakon == 0
    for s in rep.samples[1:]:
        assert s.label.singular_line_position == "0 < 4C1 < phi1"
        assert s.label.in_peakon_window
        assert s.observed.peakon >= 1
        assert s.observed.periodic_peakon >= 2


def test_sweep_scores_the_reduced_point():
    base = WaveParams(Fraction(1, 2), 0.1, 0.9, -1.0, -0.05)
    rep = sweep_singular_line(base, (0.1, -0.1), 5)
    mid = rep.samples[2]
    assert mid.c1 == 0.0
    assert mid.label.theorem == "T3"
    assert mid.agreement is True           # scored, not boundary-excluded
    assert {s.label.theorem for s in rep.samples} == {"T2", "T3"}
    assert rep.agreement_fraction == 1.0


# (c1, (peakon, periodic_peakon, solitary, periodic_smooth), agreement,
# boundary) per sample, with one periodic family per period annulus.
PINNED_SWEEPS = [
    (T1_BASE, (0.85, -0.1), [
        (0.85, (0, 0, 1, 1), True, False),
        (0.7636363636363637, (0, 0, 1, 1), True, False),
        (0.6772727272727272, (0, 0, 1, 1), True, False),
        (0.5909090909090908, (2, 2, 0, 2), True, False),
        (0.5045454545454545, (2, 2, 0, 2), True, False),
        (0.41818181818181815, (2, 2, 0, 2), True, False),
        (0.3318181818181818, (2, 2, 0, 2), True, False),
        (0.24545454545454548, (2, 2, 0, 2), True, False),
        (0.15909090909090906, (2, 2, 0, 2), True, False),
        (0.07272727272727264, (2, 2, 0, 2), True, False),
        (-0.013636363636363669, (0, 0, 1, 1), True, False),
        (-0.1, (0, 0, 1, 1), True, False),
    ]),
    (T3_BASE, (0.2, -0.198), [
        (0.2, (0, 0, 2, 4), True, False),
        (0.12040000000000001, (0, 0, 2, 4), True, False),
        (0.0408, (0, 0, 2, 2), True, False),
        (-0.0388, (0, 0, 2, 4), True, False),
        (-0.1184, (0, 0, 2, 4), True, False),
        (-0.198, (0, 0, 2, 4), True, False),
    ]),
]


@pytest.mark.parametrize("base, c1_range, expected", PINNED_SWEEPS,
                         ids=["T1", "T3"])
def test_sweep_observations_are_pinned(base, c1_range, expected):
    rep = sweep_singular_line(WaveParams(C1=0.0, **base), c1_range, len(expected))
    got = [(s.c1, (s.observed.peakon, s.observed.periodic_peakon,
                   s.observed.solitary, s.observed.periodic_smooth),
            s.agreement, s.boundary) for s in rep.samples]
    assert got == expected


def test_sweep_input_validation():
    with pytest.raises(ValueError):
        sweep_singular_line(D1_REGIME, (0.75, 0.05), 1)
    with pytest.raises(ValueError):
        sweep_singular_line(D1_REGIME, (0.05, 0.75), 5)


# --- periodic families against the integrated reference --------------------------

# level-orbit tolerances the observer integrated with before it read closed
# orbits off the level curves
FAST_LEVEL_ORBIT = dict(rtol=1e-9, atol=1e-11, drift_limit=1e-6, max_retries=0)


def _observed_branches(wp, frac):
    """(h, branch, first integral, family entry) for every periodic family
    the tau-plane observer counts: the closed level branch around the stop
    the family starts at (`phi`), a fraction `frac` of the way from its top
    to its bottom.  A family with no bottom is taken to span 0.02 (1 + |top|)
    beyond its top: further out its orbits can come within rounding of a
    line where B has a logarithm.  The branch is traced on the family's side
    up to 1e-12 (1 + |line|) off the line, so that a turning point next to
    the line is bracketed."""
    cen = census(wp)
    plane = observation_plane(wp, cen)
    fi = plane.fi
    signs = {side: sign for side, sign, _ends in plane.sides}
    phis = [e.phi for e in cen.equilibria] + [plane.line]
    pad = 1.0 + 0.5 * (max(phis) - min(phis))
    gap = 1e-12 * (1.0 + abs(plane.line))
    windows = {"left": (min(phis) - pad, plane.line - gap),
               "right": (plane.line + gap, max(phis) + pad)}
    _obs, diag = observe_wave_menu(wp, cen)
    for fam in (d for d in diag if d["kind"] == "family"):
        top, bottom, side = fam["top"], fam["bottom"], fam["side"]
        span = signs[side] * 0.02 * (1.0 + abs(top)) if bottom is None else bottom - top
        h = top + frac * span
        (br,) = [b for b in trace_branches(y_squared_fn(fi, h), windows[side], n=20001)
                 if b.phi[0] < fam["phi"] < b.phi[-1]]
        assert br.closed, (wp.C1, fam, frac)
        yield h, br, fi, fam


REFERENCE_POINTS = (
    [WaveParams(C1=c1, **base)
     for base, c1_range, expected in PINNED_SWEEPS for c1, *_ in expected]
    + [WaveParams(C1=0.3, **T1_BASE), WaveParams(C1=0.8, **T1_BASE)])


def test_families_match_integration():
    # the pinned sweep grids and the two peakon-detection points: an orbit
    # near the top of a family is smooth, and so is one near its bound,
    # unless the bound is the arch, which the orbit then hugs with a slope
    # jump at the line
    n = 0
    for wp in REFERENCE_POINTS:
        cen = census(wp)
        for frac in (0.02, 0.98):
            for h, br, fi, fam in _observed_branches(wp, frac):
                traj = integrate(wp, br.interior_point(), tau_span=3000.0, fi=fi,
                                 stop_after_crossings=3, **FAST_LEVEL_ORBIT)
                peakon = frac > 0.5 and fam["bound"] == "arch"
                want = "PeriodicPeakon" if peakon else "PeriodicSmooth"
                assert classify_orbit(wp, traj, cen).tag == want, (wp.C1, fam, frac)
                n += 1
    assert n >= 80


@pytest.mark.parametrize("wp", [WaveParams(C1=0.3, **T1_BASE),
                                WaveParams(C1=0.12, **T3_BASE)],
                         ids=["theta=1/4", "theta=1/2"])
def test_branch_period_matches_tight_integration(wp):
    # the xi-form's own time between the first and third axis crossing
    n = 0
    for frac in (0.25, 0.5, 0.75):
        for h, br, fi, _fam in _observed_branches(wp, frac):
            period = branch_period(y_squared_fn(fi, h), br)
            ref, _tc = measure_axis_period(lambda _t, x: rhs_singular(wp, x),
                                           br.interior_point(), span=500.0)
            assert period == pytest.approx(ref, rel=1e-7), (h, br.phi_range)
            n += 1
    assert n >= 6


def test_branch_period_matches_closed_forms():
    # theta = 1/2, C1 = 0: profile-plane branches of y^2 = Q(phi) - 4h
    wp = WaveParams(C1=0.0, **T3_BASE)
    q = q_coeffs(wp)
    n = 0
    for h in family_levels(observation_plane(wp), (0.25, 0.5, 0.75)):
        def y2(phi):
            return np.polyval(q, phi) - 4.0 * h
        branches = [b for b in trace_branches(y2, (-4.0, 4.0)) if b.closed]
        for sol in closed_form_menu(wp, h):
            if sol.period is None:
                continue
            br = next(b for b in branches
                      if np.allclose(b.phi_range, sol.phi_range, atol=1e-8))
            assert branch_period(y2, br) == pytest.approx(sol.period, rel=1e-9)
            n += 1
    assert n >= 4


def test_level_branches_match_the_grid_reference():
    # the walk's runs against the grid tracer on the portrait's window, at
    # levels inside each family and 1e-3 of the stops' level spread off each
    # stop's level: the same runs, closed alike, with the same turning points
    n = 0
    for wp in REFERENCE_POINTS:
        cen = census(wp)
        plane = observation_plane(wp, cen)
        levels = [h for _phi, h in plane.stops]
        dh = 1e-3 * ((max(levels) - min(levels)) or 1.0 + abs(levels[0]))
        phis = [e.phi for e in cen.equilibria] + [plane.line]
        pad = 1.0 + 0.5 * (max(phis) - min(phis))
        window = (min(phis) - pad, max(phis) + pad)
        step = (window[1] - window[0]) / 20000
        for h in (family_levels(plane, (0.02, 0.5, 0.98))
                  + [h + d for h in levels for d in (-dh, dh)]):
            walked = level_branches(plane, h, window)
            traced = trace_branches(y_squared_fn(plane.fi, h), window, n=20001, line=plane.line)
            assert len(walked) == len(traced), (wp.C1, h)
            for bw, bt in zip(walked, traced):
                # the grid cannot bracket a turning point between the line and
                # its first point off it: ends there are not compared
                ends = [end for end in (0, -1) if abs(bt.phi[end] - plane.line) > 2.0 * step]
                if len(ends) == 2:
                    assert bw.closed == bt.closed, (wp.C1, h, bt.phi_range)
                for end in ends:
                    assert bw.phi[end] == pytest.approx(bt.phi[end], abs=1e-10), (wp.C1, h)
            n += len(walked)
    assert n >= 200


def test_branch_period_is_none_at_an_unresolved_node():
    # README point, left family: 1e-6 of the depth below its top (the center
    # at phi = 0) y^2 = (h - B)/A cancels to 0 at a quadrature node, where
    # the sum once came out -inf
    wp = D1_REGIME
    fi = build_first_integral(wp)
    _obs, diag = observe_wave_menu(wp)
    (fam,) = [d for d in diag if d["kind"] == "family" and d["side"] == "left"]
    h = fam["top"] + 1e-6 * (fam["bottom"] - fam["top"])
    (br,) = [b for b in trace_branches(y_squared_fn(fi, h), (-1.0, 1.2))
             if b.phi[0] < 0.0 < b.phi[-1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert branch_period(y_squared_fn(fi, h), br) is None


def _fresh_branch_period(y2, branch):
    """`branch_period` written plainly: every rule mapped onto the panels
    afresh (nodes, sines, cosines, weights) from numpy's `leggauss`, as
    cached by `levels`, and y^2 taken on one rule at a time: (period or
    None, why)."""
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
        t = 0.5 * (t1 - t0) * x + 0.5 * (t1 + t0)
        v = y2(mid + half * np.sin(t))
        if not np.all((v > 0.0) & (v < math.inf)):
            return None, "bad node"
        dphi_over_y = half * np.cos(t) / np.sqrt(v)
        total = float(np.sum(0.5 * (t1 - t0) * w * dphi_over_y)) * 2.0
        if prev is not None and abs(total - prev) <= 1e-9 * abs(total):
            return total, f"{len(edges) - 1} panels, {n} nodes"
        prev = total
        n *= 2
    return None, "no convergence"


def test_branch_period_is_the_fresh_loops_bit_for_bit():
    # every arch of both atlas-agreement grids, as the observer prices it,
    # and periodic branches of every 7th sample at levels a fraction
    # 1 - 1e-3 and 1 - 1e-6 of the way from each family's top to its bound
    # (multi-panel next to a separatrix) and 1e-7 and 1e-9 of the way (tiny
    # orbits around a center, where both None cases occur)
    seen = {}
    for base, c1_range in ((T1_BASE, (0.85, -0.1)), (T3_BASE, (0.2, -0.198))):
        for k, wp in enumerate(_atlas_grid(base, c1_range, 1)):
            plane = observation_plane(wp)
            cases = [(conn.y2, level_branch(conn.y2, *sorted((conn.saddle.phi, conn.phi_end)), True))
                     for conn in saddle_connections(plane) if conn.kind == "arch" and conn.hit]
            if k % 7 == 0:
                for h in family_levels(plane, (1.0 - 1e-3, 1.0 - 1e-6, 1e-7, 1e-9)):
                    q = min(plane.stops, key=lambda s: abs(s[1] - h))[0]
                    y2 = saddle_level_fn(plane.fi, q, h=h)
                    cases += [(y2, br) for br in level_branches(plane, h, (-50.0, 50.0))
                              if br.closed]
            for y2, br in cases:
                with np.errstate(all="ignore"):
                    want, why = _fresh_branch_period(y2, br)
                    got = branch_period(y2, br)
                assert (got is None if want is None else got.hex() == want.hex()), (wp.C1, why)
                seen[why] = seen.get(why, 0) + 1
    assert sum(n for why, n in seen.items() if why.startswith("2 panels")) >= 20, seen
    assert seen.get("bad node", 0) >= 5 and seen.get("no convergence", 0) >= 5, seen
    assert seen["1 panels, 64 nodes"] >= 500, seen


def test_level_branch_grid_is_the_fresh_expression():
    y2 = lambda phi: 1.0 - phi * phi   # noqa: E731
    for a, b in ((-1.0, 1.0), (-0.3, 0.7), (2.5, 2.5 + 1e-9), (-1e6, 3.0)):
        br = level_branch(y2, a, b, True)
        phi = a + (b - a) * (0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, 257))))
        assert br.phi.tobytes() == phi.tobytes()
        assert br.y.tobytes() == np.sqrt(np.maximum(y2(phi), 0.0)).tobytes()


# --- saddle connections on the level set against shooting -----------------------


def _atlas_grid(base, c1_range, every):
    return [WaveParams(C1=float(c1), **base)
            for c1 in np.linspace(*c1_range, 200)[::every]]


def test_level_connections_match_shooting():
    # the reference points, every 10th sample of both 200-sample
    # atlas-agreement grids, a point with unbounded levels (C3 > 0) and
    # theta = 1/3 (m = 0)
    unbounded = WaveParams(Fraction(1, 4), 0.3, 2.0, 1.0, 3.0)
    points = (REFERENCE_POINTS
              + _atlas_grid(T1_BASE, (0.85, -0.1), 10)
              + _atlas_grid(T3_BASE, (0.2, -0.198), 10)
              + [unbounded, WaveParams(Fraction(1, 3), 0.3, 2.0, -1.0, 3.0)])
    n = hits = 0
    for wp in points:
        if is_reduced_point(wp):
            continue   # profile plane: its loops are pinned in PINNED_PROFILE_PLANE
        cen = census(wp)
        plane = observation_plane(wp, cen)
        for conn in saddle_connections(plane):
            arch = conn.kind == "arch"
            hit, traj = shoot_connection(wp, conn.saddle,
                                         plane.pair[1] if arch else conn.saddle,
                                         side=conn.side, sep_tol=1e-3 if arch else 1e-4)
            want = classify_orbit(wp, traj, cen).tag if hit else None
            assert (conn.hit, conn.tag) == (hit, want), \
                (wp.C1, conn.kind, conn.saddle.phi, conn.side, conn.end)
            n += 1
            hits += hit
    assert n >= 120 and 0 < hits < n
    # with C3 > 0 the right arch and the left loop run off to infinity
    ends = {(c.kind, c.side): c.end for c in saddle_connections(observation_plane(unbounded))}
    assert ends[("arch", "right")] == ends[("loop", "left")] == "escape"


# Points where the walks' old escape radius of 50 cut a connection whose
# level closes farther out.
RADIUS_CUTS = {
    "T3/D3": (WaveParams(Fraction(1, 2), 0.0, -2.0625, -0.1342, 0.5837), "solitary", 2),
    "T1/D1-window": (WaveParams(Fraction(1, 4), 0.2257, 2.838, -0.1066, 0.5351), "peakon", 2),
}


@pytest.mark.parametrize("wp, tag, count", RADIUS_CUTS.values(), ids=RADIUS_CUTS.keys())
def test_connections_past_the_old_escape_radius(wp, tag, count):
    sample = _sweep_one(wp, wp.C1)
    assert getattr(sample.observed, tag) == count
    assert sample.agreement is True
    ends = [d["end"] for d in sample.diagnostics if d["kind"] in ("arch", "loop")]
    assert ends == ["turning-point"] * count


@pytest.mark.parametrize("c1", [0.1, 0.3, 0.5])
def test_arch_xi_extent_matches_adaptive_quadrature(c1):
    # on the pair's level y^2 = (B(s) - B(phi)) / (a (phi - s)^2), a quartic
    # once the double root at the line is divided out
    wp = WaveParams(C1=c1, **T1_BASE)
    fi, s = build_first_integral(wp), float(wp.singular_line)
    num = -np.array([float(c) for c in fi.phi_poly_coeffs()][::-1])
    num[-1] += fi.eval(s, 0.0)
    quartic, rem = np.polydiv(num, np.poly([s, s]) * float(fi.y2_coeff))
    assert np.max(np.abs(rem)) <= 1e-9 * np.max(np.abs(num))
    roots = np.roots(quartic)
    turning = roots.real[np.abs(roots.imag) < 1e-9]
    _obs, diag = observe_wave_menu(wp)
    arches = {d["side"]: d for d in diag if d["kind"] == "arch"}
    assert {d["end"] for d in arches.values()} == {"turning-point"}
    for side, tp in (("left", turning[turning < s].max()), ("right", turning[turning > s].min())):
        lo, hi = sorted((tp, s))
        ref, _err = quad(lambda phi: 2.0 / np.sqrt(np.polyval(quartic, phi)), lo, hi,
                         epsabs=0.0, epsrel=1e-11, limit=200)
        assert arches[side]["xi_extent"] == pytest.approx(ref, rel=1e-9), side
        assert arches[side]["jump"] == pytest.approx(2.0 * np.sqrt(np.polyval(quartic, s)),
                                                     rel=1e-12)
