"""Closed-form root finders vs the companion-matrix oracle (numpy.roots).

numpy.roots shares nothing with the Ferrari/Cardano path under test, so any
systematic agreement failure is a genuine defect on one side.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rotheta.polyroots import (cubic_real_roots, merge_close_roots,
                               poly_eval, quadratic_roots, quartic_roots)

root_val = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def numpy_real_roots(coeffs, imag_tol=1e-7):
    rs = np.roots(coeffs)
    return sorted(float(r.real) for r in rs if abs(r.imag) <= imag_tol * (1.0 + abs(r)))


def test_quadratic_simple():
    assert quadratic_roots(1.0, -3.0, 2.0) == ([1.0, 2.0], None)
    real, pair = quadratic_roots(1.0, 0.0, 1.0)
    assert real == [] and pair == 1j


def test_quadratic_cancellation_stable():
    # x^2 - 1e8 x + 1 = 0: naive formula loses the small root entirely
    real, _ = quadratic_roots(1.0, -1e8, 1.0)
    small = min(real)
    assert small == pytest.approx(1e-8, rel=1e-12)


def test_cubic_three_real():
    got = sorted(cubic_real_roots(1.0, 0.0, -7.0, 6.0))   # (x-1)(x-2)(x+3)
    assert got == pytest.approx([-3.0, 1.0, 2.0], abs=1e-12)


@pytest.mark.parametrize("coeffs", [(-1.0, 2.0, 0.5, 1e300), (1e-300, 0.0, 0.0, 1e300)],
                         ids=["q-squared", "q"])
def test_cubic_formula_overflow_raises(coeffs):
    # q = d/a = 1e300 squares past the float range, and 1e300/1e-300 is inf;
    # either once gave a nan root
    with pytest.raises(OverflowError):
        cubic_real_roots(*coeffs)


def test_cubic_degenerate_to_quadratic():
    assert sorted(cubic_real_roots(0.0, 1.0, -1.0, -2.0)) == pytest.approx([-1.0, 2.0])


def test_quartic_four_simple_real():
    coeffs = np.poly([3.0, 1.0, -1.0, -2.0])
    real, pairs = quartic_roots(*coeffs)
    assert pairs == []
    assert sorted(real) == pytest.approx([-2.0, -1.0, 1.0, 3.0], abs=1e-10)
    merged = merge_close_roots(real)
    assert [mult for _, mult in merged] == [1, 1, 1, 1]


def test_quartic_exact_double_root_regression():
    # lead -1/3 with roots {-2, 1, 1, 3}: an unguarded Newton polish turns
    # the converged double root 1.0 into p(x)/p'(x) noise-ratio garbage
    # (both values sit at the rounding floor), walking it off to ~0.984
    coeffs = (-1.0 / 3.0) * np.poly([3.0, 1.0, 1.0, -2.0])
    real, pairs = quartic_roots(*coeffs)
    assert pairs == []
    merged = merge_close_roots(real)
    assert [(round(r, 6), mult) for r, mult in merged] == [(-2.0, 1), (1.0, 2), (3.0, 1)]
    d = next(r for r, mult in merged if mult == 2)
    assert abs(d - 1.0) <= 1e-7


def test_quartic_complex_pair():
    # (x^2+1)(x-1)(x+2) = x^4 + x^3 - x^2 + x - 2
    real, pairs = quartic_roots(1.0, 1.0, -1.0, 1.0, -2.0)
    assert sorted(real) == pytest.approx([-2.0, 1.0], abs=1e-10)
    assert len(pairs) == 1
    assert pairs[0] == pytest.approx(1j, abs=1e-10)


def test_quartic_biquadratic_branch():
    # q = 0 path: x^4 - 5x^2 + 4 = (x^2-1)(x^2-4)
    real, pairs = quartic_roots(1.0, 0.0, -5.0, 0.0, 4.0)
    assert pairs == []
    assert sorted(real) == pytest.approx([-2.0, -1.0, 1.0, 2.0], abs=1e-12)


@pytest.mark.parametrize("eps", [1e-100, 1e-160, 1e-300])
@pytest.mark.parametrize("lead", [-1.0, 1.0])
def test_quartic_with_underflowing_resolvent_root(eps, lead):
    # lead x^4 + x^2 + eps x: roots 0 and about -eps, and +-1 or +-i; for
    # eps below about 1e-154 the resolvent's root m ~ eps^2/2 underflows
    real, pairs = quartic_roots(lead, 0.0, 1.0, eps, 0.0)
    assert len(real) + 2 * len(pairs) == 4
    tiny = sorted(x for x in real if abs(x) < 1e-6)
    assert tiny == pytest.approx([-eps, 0.0], abs=1e-12)
    if lead < 0.0:
        assert sorted(x for x in real if abs(x) > 1e-6) == pytest.approx([-1.0, 1.0])
    else:
        assert pairs == [pytest.approx(complex(0.0, 1.0))]


@settings(max_examples=200, deadline=None)
@given(root_val, root_val, root_val, root_val,
       st.floats(min_value=0.2, max_value=3.0))
def test_quartic_matches_companion_matrix(r1, r2, r3, r4, lead):
    # generic (well-separated) roots only: at a near-multiple root both
    # finders may legitimately split it into a conjugate noise pair, and the
    # dedicated multiplicity tests above pin that behavior deterministically
    assume(all(abs(a - b) >= 0.05
               for a, b in itertools.combinations((r1, r2, r3, r4), 2)))
    coeffs = lead * np.poly([r1, r2, r3, r4])
    real, pairs = quartic_roots(*coeffs)
    assert pairs == []
    want = numpy_real_roots(coeffs)
    got = sorted(real)
    assert len(got) == len(want) == 4
    span = 1.0 + max(abs(r) for r in (r1, r2, r3, r4))
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-7 * span


@settings(max_examples=200, deadline=None)
@given(root_val, root_val, root_val,
       st.floats(min_value=-4.0, max_value=4.0),
       st.floats(min_value=0.3, max_value=3.0))
def test_quartic_with_forced_pair_matches(r1, r2, re, im_raw, lead):
    assume(abs(r1 - r2) >= 0.05)           # see separation note above
    im = 0.5 + abs(im_raw)                 # keep the pair clearly complex
    coeffs = lead * np.real(np.poly([r1, r2, complex(re, im), complex(re, -im)]))
    real, pairs = quartic_roots(*coeffs)
    assert sorted(real) == pytest.approx(sorted([r1, r2]), abs=1e-6)
    assert len(pairs) == 1
    assert pairs[0].real == pytest.approx(re, abs=1e-6)
    assert abs(pairs[0].imag) == pytest.approx(im, abs=1e-6)


@settings(max_examples=150, deadline=None)
@given(st.lists(root_val, min_size=4, max_size=4),
       st.floats(min_value=0.2, max_value=2.0))
def test_quartic_residual_small_at_reported_roots(roots, lead):
    coeffs = lead * np.poly(roots)
    real, _ = quartic_roots(*coeffs)
    scale = float(np.max(np.abs(coeffs))) * (1.0 + max(abs(r) for r in roots)) ** 4
    for r in real:
        assert abs(poly_eval(list(coeffs), r)) <= 1e-7 * scale


def test_merge_close_roots():
    assert merge_close_roots([]) == []
    assert merge_close_roots([2.0, 1.0, 1.0 + 1e-9]) == [(1.0 + 5e-10, 2), (2.0, 1)]
    assert merge_close_roots([0.5, -0.5]) == [(-0.5, 1), (0.5, 1)]
