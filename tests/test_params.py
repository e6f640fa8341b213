"""Frame-constant derivations, checked against exact rational arithmetic.

The float pipeline in rotheta.params is re-derived here with Fraction (and
decimal for the one irrational spot value) so every assertion has an oracle
that shares no code with the implementation.
"""

import math
import re
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rotheta.params import (WaveParams, derive_coriolis, derive_wave_params,
                            parse_theta)


def rational_constants(k: Fraction):
    """alpha, beta0, beta, omega1, omega2 at an exact rational k."""
    k2 = k * k
    one = 1 + k2
    alpha = k / one
    beta0 = k * (k2 * k2 + 6 * k2 - 1) / (6 * one)
    beta = (3 * k2 * k2 + 8 * k2 - 1) / (6 * one)
    omega1 = -3 * k * (k2 - 1) * (k2 - 2) / (2 * one**3)
    omega2 = (k2 - 2) * (k2 - 1) ** 2 * (8 * k2 - 1) / (2 * one**5)
    return alpha, beta0, beta, omega1, omega2


def test_rotation_free_limit_exact():
    cor = derive_coriolis(0.0)
    assert cor.k == 1.0
    alpha, beta0, beta, omega1, omega2 = rational_constants(Fraction(1))
    assert (alpha, beta0, beta) == (Fraction(1, 2), Fraction(1, 2), Fraction(5, 6))
    assert omega1 == 0 and omega2 == 0
    assert cor.alpha == 0.5
    assert cor.beta0 == 0.5
    assert abs(cor.beta - 5.0 / 6.0) <= 1e-16
    assert abs(cor.omega1) <= 1e-15
    assert abs(cor.omega2) <= 1e-15
    assert abs(cor.beta0 / cor.beta - Fraction(3, 5)) <= 1e-14


def test_k_at_unit_rotation():
    # k = sqrt(1 + 1) - 1 = sqrt(2) - 1, pinned with 50-digit decimal sqrt
    getcontext().prec = 50
    k_ref = Decimal(2).sqrt() - 1
    cor = derive_coriolis(1.0)
    assert abs(Decimal(cor.k) - k_ref) < Decimal("1e-16")


@given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
def test_k_round_trips_to_omega(omega):
    # Omega = (1 - k^2) / (2k) inverts k = sqrt(1 + Omega^2) - Omega
    k = derive_coriolis(omega).k
    assert 0.0 < k <= 1.0
    back = (1.0 - k * k) / (2.0 * k)
    assert abs(back - omega) <= 1e-12 * (1.0 + omega)


@given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
       st.floats(min_value=1e-6, max_value=10.0, allow_nan=False))
def test_k_decreases_with_rotation(omega, gap):
    assert derive_coriolis(omega).k > derive_coriolis(omega + gap).k


@given(st.fractions(min_value=Fraction(1, 64), max_value=1,
                    max_denominator=64))
def test_constants_match_rational_oracle(k):
    # feed the implementation the Omega whose k is exactly representable,
    # then compare each constant against the Fraction evaluation at that k
    omega = (1 - k * k) / (2 * k)
    cor = derive_coriolis(float(omega))
    alpha, beta0, beta, omega1, omega2 = rational_constants(Fraction(cor.k).limit_denominator(10**12))
    # the limit_denominator round trip keeps the oracle honest to ~1e-12
    assert abs(cor.alpha - float(alpha)) <= 1e-10
    assert abs(cor.beta0 - float(beta0)) <= 1e-10
    assert abs(cor.beta - float(beta)) <= 1e-10
    assert abs(cor.omega1 - float(omega1)) <= 1e-10
    assert abs(cor.omega2 - float(omega2)) <= 1e-10


def test_derive_coriolis_rejects_bad_omega():
    with pytest.raises(ValueError):
        derive_coriolis(-1.0)
    with pytest.raises(ValueError):
        derive_coriolis(float("nan"))
    with pytest.raises(ValueError):
        derive_coriolis(float("inf"))


def test_wave_params_rotation_free():
    cor = derive_coriolis(0.0)
    wp = derive_wave_params(cor, 2.0, "1/4")
    assert wp.C2 == 0.0
    assert wp.C3 == 0.0
    assert wp.K == -1.0          # K = -c + k = -2 + 1
    assert abs(wp.C1 - (2.0 - 0.6)) <= 1e-14
    assert wp.c == 2.0


def test_wave_params_rejects_nonfinite_speed():
    cor = derive_coriolis(0.3)
    with pytest.raises(ValueError):
        derive_wave_params(cor, float("inf"), "1/4")


@given(st.sampled_from(["C1", "C2", "C3", "K", "c"]),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_wave_params_rejects_nonfinite_coefficients(name, bad):
    fields = dict(C1=0.3, C2=2.0, C3=-1.0, K=3.0, c=1.0)
    fields[name] = bad
    with pytest.raises(ValueError, match=f"^{name} = "):
        WaveParams(theta=Fraction(1, 4), **fields)


def test_wave_params_rejects_beta_zero_rotation():
    # beta = 0 at 3k^4 + 8k^2 - 1 = 0, i.e. k^2 = (-4 + sqrt(19))/3; the
    # corresponding Omega is real, so the guard must be reachable
    k = math.sqrt((-4.0 + math.sqrt(19.0)) / 3.0)
    omega = (1.0 - k * k) / (2.0 * k)
    cor = derive_coriolis(omega)
    assert abs(cor.beta) < 1e-15
    with pytest.raises(ValueError):
        derive_wave_params(cor, 1.0, "1/2")


@pytest.mark.parametrize("omega", [1e108, 1e153, 1e200])
def test_wave_params_rejects_underflowing_alpha(omega):
    # alpha ~ 1/(2 Omega), so alpha^3 underflows to 0 past Omega ~ 3.7e107
    cor = derive_coriolis(omega)
    assert cor.alpha**3 == 0.0
    with pytest.raises(ValueError, match=re.escape(f"Omega = {omega}")):
        derive_wave_params(cor, 1.0, "1/4")


def test_parse_theta():
    assert parse_theta("1/4") == Fraction(1, 4)
    assert parse_theta(Fraction(1, 2)) == Fraction(1, 2)
    assert parse_theta(1) == Fraction(1)
    assert parse_theta(0.25) == Fraction(1, 4)   # exact binary float
    with pytest.raises(ValueError):
        parse_theta(0.3)                         # not an exact ratio
    with pytest.raises(TypeError):
        parse_theta(object())


def test_reduction_exponent():
    assert WaveParams(Fraction(1, 4), 0.0, 0.0, 0.0, 0.0).m == 1
    assert WaveParams(Fraction(1, 2), 0.0, 0.0, 0.0, 0.0).m == -1
    assert WaveParams(Fraction(1), 0.0, 0.0, 0.0, 0.0).m == -2
    assert WaveParams(Fraction(1, 3), 0.0, 0.0, 0.0, 0.0).m == 0
    with pytest.raises(ValueError):
        WaveParams(Fraction(2, 5), 0.0, 0.0, 0.0, 0.0)
    for theta in (Fraction(0), Fraction(-1), Fraction(-1, 2)):   # m = -3, -4, -5
        with pytest.raises(ValueError, match="not admissible"):
            WaveParams(theta, 0.0, 0.0, 0.0, 0.0)


def test_singular_line_position():
    wp = WaveParams(Fraction(1, 4), Fraction(3, 10), 0.0, 0.0, 0.0)
    assert wp.singular_line == Fraction(6, 5)    # C1/theta = 4 C1, exact
