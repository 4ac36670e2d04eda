"""The oracle utilities get checked against a well-known independent library
(mpmath) and against their own analytic constraints (functional equation,
product-vs-sum agreement), so the rest of the suite can lean on them."""

import math

import mpmath
import pytest

from vorokit.lseries import (
    euler_product_l_delta,
    hardy_z,
    l_delta_smoothed,
    zeta_em,
    zeta_zero_bisect,
)

FIRST_ZERO = 14.134725141734693


def test_zeta_em_against_mpmath():
    for s in (2.0, 0.5 + 14.1j, 0.5 + 13j, 0.7 + 14.134725j, 3.0 - 2.5j, 0.4 + 1j, 0.3 + 25j):
        ref = complex(mpmath.zeta(s))
        assert zeta_em(s) == pytest.approx(ref, rel=5e-13)
    assert zeta_em(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-15)


def test_zeta_em_pole_guard():
    with pytest.raises(ValueError):
        zeta_em(1.0)


def test_hardy_z_sign_change_and_bisect():
    assert hardy_z(14.0) * hardy_z(14.25) < 0
    rho = zeta_zero_bisect()
    assert abs(rho - FIRST_ZERO) < 5e-14
    # ζ really is small there
    assert abs(zeta_em(0.5 + 1j * rho)) < 1e-13
    with pytest.raises(ValueError):
        zeta_zero_bisect(2.0, 3.0)  # Z has no zero that low


def test_l_delta_functional_equation():
    # Λ(s) = (2π)^{−(s+11/2)} Γ(s+11/2) L(s) must be symmetric under s ↦ 1−s
    def lam(s):
        pref = complex(mpmath.mpc(2 * mpmath.pi) ** (-(s + 5.5)) * mpmath.gamma(s + 5.5))
        return pref * l_delta_smoothed(s)

    for s in (0.3, 0.25 + 2j, 0.5 + 5j):
        assert abs(lam(s) - lam(1 - s)) < 1e-16


def test_l_delta_smoothed_stability_and_central_value():
    assert l_delta_smoothed(2.0) == pytest.approx(l_delta_smoothed(2.0, terms=26), abs=1e-16)
    central = l_delta_smoothed(0.5)
    assert abs(central.imag) < 1e-16
    assert central.real == pytest.approx(0.7921228386460306, abs=1e-12)


def test_euler_product_agrees_where_it_converges():
    ls = l_delta_smoothed(2.0)
    le = euler_product_l_delta(2.0, pbound=10000)
    assert abs(le - ls) < 1e-7
    # refinement moves it toward the smoothed value
    assert abs(euler_product_l_delta(2.0, pbound=30000) - ls) < abs(le - ls)


def test_euler_product_refuses_critical_strip():
    with pytest.raises(ValueError):
        euler_product_l_delta(1.2)
