"""Named verification checks with pinned tolerances and runtime budgets.

Each check is a standalone function returning (passed, detail lines); the
runner wraps timing and budget bookkeeping.  The same checks back both the
`verify` CLI command and the acceptance test suite, so tolerances live here
and nowhere else.  Reports deliberately contain no wall-clock numbers --
identical runs must produce identical ledgers (budgets are reported only as
met/exceeded).  The checks that integrate import `dop853` when they run,
and the elliptic checks take K and sn/cn/dn from `elliptic`; both need
numpy alone, so a full run loads no scipy module.  The seeded checks draw
with `pcg64`, numpy's `default_rng` ported bit for bit, imported when they
run; so a full run loads no `numpy.random` module and no OpenSSL either.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .atlas import observe_wave_menu, sweep_singular_line
from .closedform import (
    closed_form_menu, ode_residual, orbit_polynomial, params_from_roots, profile_rhs,
)
from .elliptic import complete_K, jacobi
from .equilibria import census
from .field import (
    build_first_integral, conservation_defect, eval_f,
    published_first_integral,
)
from .levels import _gauss_legendre
from .params import WaveParams, derive_coriolis, derive_wave_params

__all__ = ["CheckResult", "CHECKS", "run_checks", "render_report"]

DEFAULT_SEED = 7

# reference scenarios used by the peakon / atlas checks
T1_BASE = dict(theta=Fraction(1, 4), C2=2.0, C3=-1.0, K=3.0)
T3_BASE = dict(theta=Fraction(1, 2), C2=0.9, C3=-1.0, K=-0.05)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: tuple

    @property
    def within_budget(self) -> bool:
        return self.elapsed <= self.budget

    @property
    def ok(self) -> bool:
        return self.passed and self.within_budget


# ---------------------------------------------------------------------------
# 1. parameter identities


def check_parameter_identities(seed=None):
    cor = derive_coriolis(0.0)
    det = [f"k(Omega=0) = {cor.k!r}",
           f"|omega1| = {abs(cor.omega1):.3e}, |omega2| = {abs(cor.omega2):.3e}",
           f"beta0/beta - 3/5 = {cor.beta0 / cor.beta - 0.6:.3e}"]
    ok = (cor.k == 1.0
          and abs(cor.omega1) <= 1e-15 and abs(cor.omega2) <= 1e-15
          and abs(cor.beta0 / cor.beta - 0.6) <= 1e-14)
    wp = derive_wave_params(cor, 2.0, "1/4")
    det.append(f"Omega=0, c=2: C2={wp.C2!r} C3={wp.C3!r} K={wp.K!r}")
    ok = ok and wp.C2 == 0.0 and wp.C3 == 0.0 and wp.K == -1.0
    return ok, det


# ---------------------------------------------------------------------------
# 2. first-integral conservation


def _conservation_draw(rng, theta):
    """Parameter/start draw for conservation trials: physical-sign C3,
    O(1) coefficients, start away from the singular line."""
    while True:
        wp = WaveParams(theta=theta,
                        C1=rng.uniform(-1.0, 1.0), C2=rng.uniform(-1.0, 1.0),
                        C3=rng.uniform(-2.0, -0.2), K=rng.uniform(-1.0, 1.0))
        start = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(float(theta) * start[0] - float(wp.C1)) >= 0.1:
            return wp, start


CONSERVATION_THETAS = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 1))


def _conservation_trials(rng):
    """The conservation check's trials as (theta, WaveParams, start), 100 at
    each theta, drawn in the check's order."""
    return [(theta, *_conservation_draw(rng, theta))
            for theta in CONSERVATION_THETAS for _ in range(100)]


def _drift_ledger(runs):
    """(passed, ledger lines) of conservation trials from their (theta,
    Trajectory) pairs, taken in any order: per theta, the worst relative H
    drift against 1e-8 and the number of trials whose drift could not be
    measured (h_drift_max None)."""
    worst = dict.fromkeys(CONSERVATION_THETAS, 0.0)
    unverified = dict.fromkeys(CONSERVATION_THETAS, 0)
    for theta, traj in runs:
        if traj.h_drift_max is None:
            unverified[theta] += 1
        else:
            worst[theta] = max(worst[theta], traj.h_drift_max)
    return (all(w <= 1e-8 for w in worst.values()),
            [f"theta = {theta}: max relative H drift {worst[theta]:.3e} (<= 1e-8) "
             f"({unverified[theta]} unverified)" for theta in CONSERVATION_THETAS])


def check_conservation(seed=DEFAULT_SEED):
    from .dop853 import integrate_many
    from .pcg64 import default_rng

    rng = default_rng(seed)
    # The trials draw first, 100 per theta in turn, and the exact draws
    # below follow them in the rng stream.  The trials then integrate
    # together as lanes (`integrate_many`), each giving the Trajectory
    # `integrate` gives it, and the ledger reads each as it settles.
    trials = _conservation_trials(rng)
    thetas, wps, starts = zip(*trials)
    runs = integrate_many(wps, starts, 10.0, fis=[build_first_integral(wp) for wp in wps])
    ok, det = _drift_ledger((thetas[i], traj) for i, traj in runs)

    # theta = 1/4: machine coefficients equal the published polynomial
    # exactly (Fraction arithmetic); the forms differ only by the additive
    # gauge constant (machine H vanishes on the singular line).
    exact_ok = True
    for _ in range(5):
        C1, C2, C3, K = (Fraction(int(rng.integers(-9, 10)) or 1,
                                  int(rng.integers(2, 13)))
                         for _ in range(4))
        wp = WaveParams(theta=Fraction(1, 4), C1=C1, C2=C2, C3=C3, K=K)
        fi = build_first_integral(wp)
        printed_tail = [Fraction(0),
                        -2 * C1 * K,
                        (K - 2 * C1) / 3,
                        Fraction(1, 8) - C1 * C2,
                        (C2 - 4 * C1 * C3) / 5,
                        C3 / 6]
        coeffs = fi.phi_poly_coeffs()
        exact_ok = (exact_ok
                    and list(coeffs[1:]) == printed_tail
                    and fi.y2_coeff == Fraction(-1, 8)
                    and fi.y2_power == 2
                    and fi.line == 4 * C1)
    det.append("theta = 1/4 coefficients match the published form exactly "
               "(up to the additive gauge constant): "
               + ("yes" if exact_ok else "NO"))
    return ok and exact_ok, det


# ---------------------------------------------------------------------------
# 3. printed-formula audit


def check_published_audit(seed=None):
    probes = [(0.9, 0.4), (-0.7, 1.1), (1.8, -0.6), (0.3, 0.9)]
    cases = [(Fraction(1, 4), dict(C1=0.2, C2=0.5, C3=-1.0, K=0.3), True),
             (Fraction(1, 2), dict(C1=0.3, C2=0.5, C3=-1.0, K=0.2), False),
             (Fraction(1, 1), dict(C1=0.4, C2=0.5, C3=-1.0, K=0.2), False)]
    ok = True
    det = []
    for theta, cs, conserved in cases:
        wp = WaveParams(theta=theta, **cs)
        d_pub = conservation_defect(published_first_integral(wp), wp, probes)
        fi = build_first_integral(wp)
        d_mach = conservation_defect(lambda p, y: fi.eval(p, y), wp, probes)
        ok = ok and d_mach <= 1e-6
        if conserved:
            ok = ok and d_pub <= 1e-6
            det.append(f"theta = {theta}: printed form conserved "
                       f"(defect {d_pub:.3e}), machine {d_mach:.3e}")
        else:
            ok = ok and d_pub >= 1e-3
            det.append(f"theta = {theta}: printed form FLAGGED non-conserved "
                       f"(defect {d_pub:.3e}), machine replacement {d_mach:.3e}")
    return ok, det


# ---------------------------------------------------------------------------
# 4. equilibrium census vs sign-scan oracle


def _bisect_root(fn, lo, hi, iters=80):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan_real_root_count(coeffs):
    """Distinct real roots of a quartic by monotone segmentation: exact
    quadratic roots of p'', bisected roots of p' on its monotone pieces,
    then sign changes of p between consecutive p'-roots.  Independent of
    the production root finder."""
    a4, a3, a2, a1, a0 = coeffs

    def p(x):
        return (((a4 * x + a3) * x + a2) * x + a1) * x + a0

    def dp(x):
        return ((4 * a4 * x + 3 * a3) * x + 2 * a2) * x + a1

    bound = 1.0 + max(abs(a3), abs(a2), abs(a1), abs(a0)) / abs(a4)
    # p'' = 12 a4 x^2 + 6 a3 x + 2 a2
    disc = 36 * a3 * a3 - 96 * a4 * a2
    inner = []
    if disc > 0:
        rt = math.sqrt(disc)
        inner = sorted(((-6 * a3 - rt) / (24 * a4), (-6 * a3 + rt) / (24 * a4)))
    knots = [-bound] + inner + [bound]
    dp_roots = []
    for lo, hi in zip(knots, knots[1:]):
        if dp(lo) == 0.0:
            dp_roots.append(lo)
        if (dp(lo) < 0) != (dp(hi) < 0):
            dp_roots.append(_bisect_root(dp, lo, hi))
    seg = [-bound] + sorted(dp_roots) + [bound]
    count = 0
    prev_zero = False
    for lo, hi in zip(seg, seg[1:]):
        plo, phi_ = p(lo), p(hi)
        if plo == 0.0 and not prev_zero:
            count += 1
        prev_zero = phi_ == 0.0
        if phi_ == 0.0:
            count += 1
        elif (plo < 0) != (phi_ < 0):
            count += 1
    return count


def check_census_oracle(seed=DEFAULT_SEED):
    from .pcg64 import default_rng

    rng = default_rng(seed)
    theta = Fraction(1, 4)
    mismatch = 0
    unflagged = 0
    for _ in range(1000):
        wp, _start = _conservation_draw(rng, theta)
        cen = census(wp)
        coeffs = (float(wp.C3), float(wp.C2), 0.5, float(wp.K), 0.0)
        axis_expected = _scan_real_root_count(coeffs)
        v = eval_f(wp, float(wp.singular_line)) / (0.5 - float(theta))
        pair_expected = 2 if v > 0.0 else 0
        axis_got = sum(1 for e in cen.equilibria if not e.on_singular_line)
        pair_got = len(cen.line_pair)
        if axis_got != axis_expected or pair_got != pair_expected:
            mismatch += 1
            if not cen.is_boundary:
                unflagged += 1
    ok = mismatch <= 1 and unflagged == 0
    det = [f"1000 draws: {1000 - mismatch} matches, {mismatch} mismatches "
           f"({unflagged} not boundary-flagged; <= 1 allowed, all flagged)"]

    # catalogued counts: cases 1(i) / 1(iii) / 3(iii) with the line pair on
    spots = [
        ("1i", WaveParams(theta=theta, C1=-0.125, C2=0.0, C3=-1.0, K=-1.0), 4),
        ("1iii", WaveParams(theta=theta, C1=0.05, C2=0.9, C3=-1.0, K=-0.05), 6),
        ("3iii", WaveParams(theta=theta, C1=0.1, C2=0.1, C3=1.0, K=0.0), 3),
    ]
    for case, wp, expected in spots:
        cen = census(wp)
        got = len(cen.equilibria)
        fs = eval_f(wp, float(wp.singular_line))
        good = cen.case_label == case and got == expected and fs > 0.0
        ok = ok and good
        det.append(f"case {case}: {got} equilibria (expected {expected}), "
                   f"label {cen.case_label}, f(line) = {fs:.3g} > 0")
    return ok, det


# ---------------------------------------------------------------------------
# 5. elliptic kernel


def _quadrature_K_half():
    """K(0.5) = integral over [0, pi/2] of dt / sqrt(1 - sin(t)^2 / 2), by
    the 64-node Gauss-Legendre rule (numpy's `leggauss`, cached by
    `levels`), with no elliptic kernel: the integrand is analytic well
    beyond the interval, so the rule has converged to rounding."""
    x, w = _gauss_legendre(64)
    t = 0.25 * math.pi * (x + 1.0)
    return float(0.25 * math.pi * np.sum(w / np.sqrt(1.0 - 0.5 * np.sin(t) ** 2)))


def check_elliptic(seed=None):
    ms = (0.1, 0.5, 0.9, 0.999)
    us = np.linspace(-8.0, 8.0, 500)
    worst1 = worst2 = 0.0
    for m in ms:
        sn, cn, dn = jacobi(us, m)
        worst1 = max(worst1, float(np.max(np.abs(sn * sn + cn * cn - 1.0))))
        worst2 = max(worst2, float(np.max(np.abs(m * sn * sn + dn * dn - 1.0))))
    per = 0.0
    us = np.linspace(-3.0, 3.0, 100)
    for m in (0.5, 0.9):
        s0 = jacobi(us, m)[0]
        s1 = jacobi(us + 4.0 * complete_K(m), m)[0]
        per = max(per, float(np.max(np.abs(s1 - s0))))
    dK = abs(complete_K(0.5) - _quadrature_K_half())
    ok = worst1 <= 1e-12 and worst2 <= 1e-12 and per <= 1e-10 and dK <= 1e-12
    det = [f"identity residuals {worst1:.3e}, {worst2:.3e} (<= 1e-12) on 2000 points",
           f"sn periodicity over 4K: {per:.3e} (<= 1e-10)",
           f"K(0.5) vs quadrature: {dK:.3e} (<= 1e-12)"]
    return ok, det


# ---------------------------------------------------------------------------
# 6. closed-form residuals and degeneration


def check_closedform(seed=None):
    from .dop853 import measure_axis_period

    det = []
    ok = True

    # one scenario per catalogued root pattern, built from prescribed roots
    scenarios = [
        ("sn", [3.0, 1.6, 0.4, -2.0]),
        ("cn", [2.0, -1.0, 0.5 + 0.8j, 0.5 - 0.8j]),
        ("solitary", [3.0, 1.0, 1.0, -2.0]),
    ]
    for family, roots in scenarios:
        wp, h = params_from_roots(roots)
        menu = closed_form_menu(wp, h)
        families = {s.kind.split("-")[0] for s in menu}
        ok = ok and families == {family} and len(menu) >= 1
        worst_res = max(ode_residual(s) for s in menu)
        ok = ok and worst_res <= 1e-8
        line = f"{family}: {len(menu)} profile(s), max ODE residual {worst_res:.3e}"

        # periodic profiles: closed-form period vs measured orbit period
        rhs = profile_rhs(wp)
        pol = orbit_polynomial(wp, h)
        mism = []
        for s in menu:
            if s.period is None:
                continue
            n_quarters = 2.0 if s.kind.startswith("sn") else 4.0
            conv = n_quarters * complete_K(s.modulus_m) / s.omega
            ok = ok and abs(s.period - conv) <= 1e-12 * conv
            phi0 = 0.5 * (s.phi_range[0] + s.phi_range[1])
            y0 = math.sqrt(max(float(pol(phi0)), 0.0))
            per, _tc = measure_axis_period(rhs, (phi0, y0))
            if per is None:
                ok = False
            else:
                mism.append(abs(per - s.period) / s.period)
        if mism:
            ok = ok and max(mism) <= 1e-6
            line += f", period mismatch {max(mism):.3e} (<= 1e-6)"
        det.append(line)

    # modulus -> 1 degeneration at root gap 1e-6
    gap = 1e-6
    sn_menu = closed_form_menu(*params_from_roots([3.0, 1.0 + gap / 2, 1.0 - gap / 2, -2.0]))
    so_menu = closed_form_menu(*params_from_roots([3.0, 1.0, 1.0, -2.0]))
    sn_wave, = (s for s in sn_menu if s.kind == "sn-periodic-right")
    so_wave, = (s for s in so_menu if s.kind == "solitary-right")
    shift = complete_K(sn_wave.modulus_m) / sn_wave.omega
    xs = np.linspace(-8.0, 8.0, 401)
    sup = float(np.max(np.abs(sn_wave(xs + shift) - so_wave(xs))))
    ok = ok and sup <= 1e-6
    det.append(f"sn(m={sn_wave.modulus_m:.9f}) vs solitary sup-error {sup:.3e} "
               "(<= 1e-6 at root gap 1e-6)")
    return ok, det


# ---------------------------------------------------------------------------
# 7. peakon detection


def check_peakon_detection(seed=None):
    wp_in = WaveParams(C1=0.3, **T1_BASE)
    obs, diag = observe_wave_menu(wp_in)
    jumps = [d["jump"] for d in diag if d.get("kind") == "arch" and d.get("jump")]
    ok = (obs.peakon >= 1 and obs.periodic_peakon >= 2
          and bool(jumps) and min(jumps) >= 0.1)
    det = [f"0 < 4C1 < phi1: {obs.peakon} arch(es), "
           f"{obs.periodic_peakon} periodic-peakon families, "
           f"slope jumps {[f'{j:.3f}' for j in jumps]}"]
    wp_out = WaveParams(C1=0.8, **T1_BASE)
    obs2, _ = observe_wave_menu(wp_out)
    ok = ok and obs2.peakon == 0 and obs2.periodic_peakon == 0
    det.append(f"4C1 > phi1: {obs2.peakon} arches, "
               f"{obs2.periodic_peakon} periodic-peakon families (0/0 required)")
    return ok, det


# ---------------------------------------------------------------------------
# 8. atlas agreement


def check_atlas_agreement(seed=None):
    ok = True
    det = []
    sweeps = [("T1", WaveParams(C1=0.0, **T1_BASE), (0.85, -0.1)),
              ("T3", WaveParams(C1=0.0, **T3_BASE), (0.2, -0.198))]
    for name, base, c1_range in sweeps:
        rep = sweep_singular_line(base, c1_range, 200)
        frac = rep.agreement_fraction
        ok = ok and frac >= 0.95
        det.append(f"{name} sweep: agreement {frac:.4f} "
                   f"({rep.n_boundary} boundary-excluded of 200)")
        det += ["  disagreement at " + s.describe() for s in rep.disagreements()]
    return ok, det


# ---------------------------------------------------------------------------
# 9. determinism


def check_determinism(seed=None):
    from .cli import render_portrait_artifacts

    wp = WaveParams(C1=0.3, **T1_BASE)
    svg1, csv1 = render_portrait_artifacts(wp)
    svg2, csv2 = render_portrait_artifacts(wp)
    ok = svg1 == svg2 and csv1 == csv2
    det = [f"portrait SVG bytes: {len(svg1)} == {len(svg2)}: {svg1 == svg2}",
           f"portrait CSV bytes: {len(csv1)} == {len(csv2)}: {csv1 == csv2}"]
    return ok, det


# ---------------------------------------------------------------------------
# runner


CHECKS = (
    ("parameter-identities", check_parameter_identities, 1.0),
    ("first-integral-conservation", check_conservation, 60.0),
    ("printed-formula-audit", check_published_audit, 30.0),
    ("equilibrium-census", check_census_oracle, 30.0),
    ("elliptic-kernel", check_elliptic, 5.0),
    ("closed-form-residuals", check_closedform, 30.0),
    ("peakon-detection", check_peakon_detection, 60.0),
    ("atlas-agreement", check_atlas_agreement, 300.0),
    ("determinism", check_determinism, 60.0),
)


def run_checks(seed=DEFAULT_SEED, names=None):
    results = []
    for name, fn, budget in CHECKS:
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        passed, details = fn(seed=seed)
        elapsed = time.perf_counter() - t0
        results.append(CheckResult(name=name, passed=passed, elapsed=elapsed,
                                   budget=budget, details=tuple(details)))
    return results


def render_report(results, seed) -> str:
    lines = [f"verification ledger (seed {seed})"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        budget = "met" if r.within_budget else "EXCEEDED"
        lines.append(f"[{status}] {r.name}  (budget {r.budget:.0f}s: {budget})")
        for d in r.details:
            lines.append(f"    {d}")
    n_ok = sum(1 for r in results if r.ok)
    overall = "PASS" if n_ok == len(results) else "FAIL"
    lines.append(f"overall: {overall} ({n_ok}/{len(results)} checks)")
    return "\n".join(lines) + "\n"
