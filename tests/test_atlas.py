"""Region classification, menu prediction, and numeric observation."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from rotheta.atlas import (ObservedMenu, PRESENT, WaveMenu, canonical_levels,
                           classify_region, menu_agrees, observe_wave_menu,
                           predict_wave_menu, saddle_connections,
                           sweep_singular_line, tau_plane)
from rotheta.closedform import closed_form_menu, is_reduced_point, profile_rhs, q_coeffs
from rotheta.equilibria import census
from rotheta.field import build_first_integral, rhs_singular
from rotheta.orbits import (branch_period, classify_level_branch, classify_orbit,
                            integrate, measure_axis_period, shoot_connection,
                            trace_branches)
from rotheta.params import WaveParams
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


# T3 domain -> (K, observed (solitary, periodic_smooth), loop entries
# (phi, side, tag), level-orbit entries (h, interval, branch, tag,
# period_xi)), at theta = 1/2, C1 = 0 with T3_BASE's C2 and C3, as the
# profile-plane observer reported them before it shared the tau plane's
# shooting and level loop.
PINNED_PROFILE_PLANE = {
    "D1": (1.0, (0, 1), [], [
        (1.8275770260735111, 0, 0, "PeriodicSmooth", 2.1396605288946944),
    ]),
    "D2": (-1.0, (0, 1), [], [
        (0.7180642438304565, 0, 0, "PeriodicSmooth", 2.3641995657464885),
    ]),
    "D3": (T3_BASE["K"], (2, 4), [
        (0.0875461687524971, "left", "Solitary"),
        (0.0875461687524971, "right", "Solitary"),
    ], [
        (0.016631378117781096, 1, 0, "PeriodicSmooth", 5.171516347837305),
        (0.016631378117781096, 1, 1, "PeriodicSmooth", 5.171516347841184),
        (0.16972480807741305, 2, 0, "PeriodicSmooth", 3.5062992878292927),
        (-0.0025808030147454293, 0, 0, "PeriodicSmooth", 17.42567580415071),
        (-0.0019684292949069017, 1, 0, "PeriodicSmooth", 8.722901951731444),
        (-0.0019684292949069017, 1, 1, "PeriodicSmooth", 8.722901951730357),
        (0.0352311855304691, 1, 0, "PeriodicSmooth", 4.624730279106708),
        (0.0352311855304691, 1, 1, "PeriodicSmooth", 4.624730279188844),
        (0.03584355925030762, 2, 0, "PeriodicSmooth", 4.612082242607649),
        (0.3036060569045185, 2, 0, "PeriodicSmooth", 3.1272983904760214),
    ]),
}


@pytest.mark.parametrize("domain", sorted(PINNED_PROFILE_PLANE))
def test_profile_plane_observations_are_pinned(domain):
    K, (solitary, periodic), loops, levels = PINNED_PROFILE_PLANE[domain]
    wp = WaveParams(C1=0.0, **dict(T3_BASE, K=K))
    assert classify_region(wp, census(wp)).domain == domain
    obs, diag = observe_wave_menu(wp)
    assert obs == ObservedMenu(solitary=solitary, periodic_smooth=periodic)
    # the order the two rays of a saddle are shot in is not an observation
    assert sorted((d["phi"], d["side"], d["tag"])
                  for d in diag if d["kind"] == "loop") == loops
    assert [(d["h"], d["interval"], d["branch"], d["tag"], d["period_xi"])
            for d in diag if d["kind"] == "level-orbit"] == levels


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
# boundary) per sample, as the per-point scalar observer reported them; the
# array evaluation of the first integral must not change any of them.
PINNED_SWEEPS = [
    (T1_BASE, (0.85, -0.1), [
        (0.85, (0, 0, 1, 1), True, False),
        (0.7636363636363637, (0, 0, 1, 1), True, False),
        (0.6772727272727272, (0, 0, 1, 1), True, False),
        (0.5909090909090908, (2, 3, 0, 2), True, False),
        (0.5045454545454545, (2, 3, 0, 2), True, False),
        (0.41818181818181815, (2, 2, 0, 3), True, False),
        (0.3318181818181818, (2, 2, 0, 3), True, False),
        (0.24545454545454548, (2, 3, 0, 2), True, False),
        (0.15909090909090906, (2, 3, 0, 2), True, False),
        (0.07272727272727264, (2, 2, 0, 2), True, False),
        (-0.013636363636363669, (0, 0, 1, 1), True, False),
        (-0.1, (0, 0, 1, 1), True, False),
    ]),
    (T3_BASE, (0.2, -0.198), [
        (0.2, (0, 0, 2, 8), True, False),
        (0.12040000000000001, (0, 0, 2, 8), True, False),
        (0.0408, (0, 0, 2, 4), True, False),
        (-0.0388, (0, 0, 2, 8), True, False),
        (-0.1184, (0, 0, 2, 8), True, False),
        (-0.198, (0, 0, 2, 6), True, False),
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


# --- level-branch classification against the integrated reference ---------------

# level-orbit tolerances the observer integrated with before it classified
# closed branches by quadrature
FAST_LEVEL_ORBIT = dict(rtol=1e-9, atol=1e-11, drift_limit=1e-6, max_retries=0)


def _observed_branches(wp):
    """(h, branch, first integral, census) for every closed, non-point level
    branch the tau-plane observer classifies."""
    cen, fi = census(wp), build_first_integral(wp)
    plane = tau_plane(wp, cen, fi)
    for h in plane.samples:
        for br in plane.branches(h):
            if br.closed and not br.is_point:
                yield h, br, fi, cen


REFERENCE_POINTS = (
    [WaveParams(C1=c1, **base)
     for base, c1_range, expected in PINNED_SWEEPS for c1, *_ in expected]
    + [WaveParams(C1=0.3, **T1_BASE), WaveParams(C1=0.8, **T1_BASE)])


def test_level_branch_tags_match_integration():
    # the pinned sweep grids and the two peakon-detection points
    n = 0
    for wp in REFERENCE_POINTS:
        for h, br, fi, cen in _observed_branches(wp):
            traj = integrate(wp, br.interior_point(), tau_span=3000.0, fi=fi,
                             stop_after_crossings=3, **FAST_LEVEL_ORBIT)
            want = classify_orbit(wp, traj, cen).tag
            got = classify_level_branch(wp, fi, h, br, cen).tag
            assert got == want, (wp.C1, h, br.phi_range)
            n += 1
    assert n >= 150


@pytest.mark.parametrize("wp", [WaveParams(C1=0.3, **T1_BASE),
                                WaveParams(C1=0.12, **T3_BASE)],
                         ids=["theta=1/4", "theta=1/2"])
def test_branch_period_matches_tight_integration(wp):
    # the xi-form's own time between the first and third axis crossing
    n = 0
    for h, br, fi, cen in _observed_branches(wp):
        period = classify_level_branch(wp, fi, h, br, cen).period_xi
        ref, _tc = measure_axis_period(lambda _t, x: rhs_singular(wp, x),
                                       br.interior_point(), span=500.0)
        assert period == pytest.approx(ref, rel=1e-7), (h, br.phi_range)
        n += 1
    assert n >= 8


def test_branch_period_matches_closed_forms():
    # theta = 1/2, C1 = 0: profile-plane branches of y^2 = Q(phi) - 4h
    wp = WaveParams(C1=0.0, **T3_BASE)
    q = q_coeffs(wp)
    _crit, samples = canonical_levels(wp)
    n = 0
    for h in samples:
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


# --- saddle connections on the level set against shooting -----------------------


def _atlas_grid(base, c1_range, every):
    return [WaveParams(C1=float(c1), **base)
            for c1 in np.linspace(*c1_range, 200)[::every]]


def test_level_connections_match_shooting():
    # the reference points, every 10th sample of both 200-sample
    # atlas-agreement grids, an escaping arch (C3 > 0) and theta = 1/3 (m = 0)
    points = (REFERENCE_POINTS
              + _atlas_grid(T1_BASE, (0.85, -0.1), 10)
              + _atlas_grid(T3_BASE, (0.2, -0.198), 10)
              + [WaveParams(Fraction(1, 4), 0.3, 2.0, 1.0, 3.0),
                 WaveParams(Fraction(1, 3), 0.3, 2.0, -1.0, 3.0)])
    n = hits = 0
    for wp in points:
        if is_reduced_point(wp):
            continue   # profile plane: its loops are pinned in PINNED_PROFILE_PLANE
        cen, fi = census(wp), build_first_integral(wp)
        plane = tau_plane(wp, cen, fi)
        for conn in saddle_connections(plane, 50.0):
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


def test_escape_radius_drops_a_loop_as_shooting_does():
    wp = WaveParams(C1=0.85, **T1_BASE)
    loop = next(c for c in saddle_connections(tau_plane(wp), 50.0)
                if c.kind == "loop" and c.hit)
    extent = float(np.max(np.hypot(loop.branch.phi, loop.branch.y)))
    radius = 0.5 * (abs(loop.saddle.phi) + extent)
    assert abs(loop.saddle.phi) < radius < extent
    assert observe_wave_menu(wp)[0].solitary == 1
    obs, diag = observe_wave_menu(wp, escape_radius=radius)
    assert obs.solitary == 0
    assert not [d for d in diag if d["kind"] == "loop"]
    assert not shoot_connection(wp, loop.saddle, loop.saddle, side=loop.side,
                                sep_tol=1e-4, escape_radius=radius)[0]
    assert [c.end for c in saddle_connections(tau_plane(wp), radius)
            if c.kind == "loop"] == ["escape", "escape"]


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
