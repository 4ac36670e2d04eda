"""Classical L-value oracles, independent of the kernel machinery.

Everything here is deliberately old-fashioned: Euler–Maclaurin for ζ, Hardy's
Z for locating the first critical zero, and the weight-12 L-value either as a
truncated Euler product (absolutely convergent half-plane only) or through the
incomplete-Γ smoothed sum that converges everywhere.  These routes share no
code with the kernel pairings they are used to judge.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import mpmath
import numpy as np

from .voronoi import tau_coefficients

__all__ = [
    "zeta_em",
    "hardy_theta",
    "hardy_z",
    "zeta_zero_bisect",
    "l_delta_smoothed",
    "euler_product_l_delta",
]


# B_{2j} for j = 1..12, enough for double precision in moderate strips
_BERN = (
    1 / 6,
    -1 / 30,
    1 / 42,
    -1 / 30,
    5 / 66,
    -691 / 2730,
    7 / 6,
    -3617 / 510,
    43867 / 798,
    -174611 / 330,
    854513 / 138,
    -236364091 / 2730,
)


def zeta_em(s: complex) -> complex:
    """ζ(s) by Euler–Maclaurin: partial sum to n = max(20, 8 + 1.1·|Im s|),
    then the twelve Bernoulli corrections of ``_BERN``.

    Accurate to ~1e-14 for |Im s| up to a few tens; not meant for large height
    or far left of the critical strip.
    """
    s = complex(s)
    if abs(s - 1) < 1e-12:
        raise ValueError("ζ has its pole at s = 1")
    n = max(20, int(8 + 1.1 * abs(s.imag)))
    ks = np.arange(1, n, dtype=float)
    total = complex(np.sum(ks ** (-s)))
    total += n ** (1 - s) / (s - 1) + 0.5 * n ** (-s)
    rising = s  # s(s+1)...(s+2j-2), grown incrementally
    fact = 2.0  # (2j)!
    npow = n ** (-s - 1)  # N^{-s-2j+1}
    for j, bern in enumerate(_BERN, 1):
        total += bern / fact * rising * npow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        npow /= n * n
    return total


def hardy_theta(t: float) -> float:
    """θ(t) = arg Γ(1/4 + it/2) − (t/2)·log π, the Riemann–Siegel phase (log Γ from mpmath)."""
    return float(mpmath.loggamma(0.25 + 0.5j * t).imag) - 0.5 * t * math.log(math.pi)


def hardy_z(t: float) -> float:
    """Z(t) = e^{iθ(t)} ζ(1/2 + it) — real for real t, so sign changes are zeros."""
    val = cmath.exp(1j * hardy_theta(t)) * zeta_em(0.5 + 1j * t)
    return val.real


def zeta_zero_bisect(t_lo: float = 14.0, t_hi: float = 14.25, tol: float = 5e-15) -> float:
    """Bisect a sign change of Hardy's Z down to tol; defaults bracket the first zero."""
    z_lo, z_hi = hardy_z(t_lo), hardy_z(t_hi)
    if z_lo * z_hi >= 0:
        raise ValueError(f"no sign change of Z on [{t_lo}, {t_hi}]")
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        z_mid = hardy_z(mid)
        if z_mid == 0.0:
            return mid
        if z_lo * z_mid < 0:
            t_hi = mid
        else:
            t_lo, z_lo = mid, z_mid
    return 0.5 * (t_lo + t_hi)


# ---- the weight-12 L-function -----------------------------------------------


@lru_cache(maxsize=8)
def _tau_exact(n: int) -> tuple:
    return tau_coefficients(n).exact


def l_delta_smoothed(s: complex, terms: int = 18) -> complex:
    """L(s) for the weight-12 form via the incomplete-Γ smoothed sum.

    The completed function Λ(s) = (2π)^{−(s+11/2)} Γ(s+11/2) L(s) equals
    Σ_n τ(n) [(2πn)^{−s'} Γ(s',2πn) + (2πn)^{s'−12} Γ(12−s',2πn)] with
    s' = s + 11/2, by splitting its integral representation at 1 and using
    the weight-12 modular inversion.  The terms die like e^{−2πn}, so this
    converges for every s and serves as the critical-strip oracle.  The sum
    runs at 32 significant digits.
    """
    tau = _tau_exact(terms)
    with mpmath.workdps(32):
        sp = mpmath.mpc(s) + mpmath.mpf(11) / 2
        acc = mpmath.mpc(0)
        for m in range(1, terms + 1):
            z = 2 * mpmath.pi * m
            acc += tau[m - 1] * (
                z ** (-sp) * mpmath.gammainc(sp, z)
                + z ** (sp - 12) * mpmath.gammainc(12 - sp, z)
            )
        val = acc * (2 * mpmath.pi) ** sp / mpmath.gamma(sp)
        return complex(val)


def _primes_upto(n: int) -> list:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def euler_product_l_delta(s: complex, pbound: int = 10000) -> complex:
    """L(s) as ∏_{p ≤ pbound} (1 − λ(p) p^{−s} + p^{−2s})^{−1}, Re s > 3/2 only.

    The truncation error is the omitted tail of the product; past the
    abscissa of absolute convergence that tail is wildly wrong, so the
    function refuses rather than pretend.  The product runs at 30 significant
    digits.
    """
    s = complex(s)
    if s.real <= 1.5:
        raise ValueError("Euler product used outside Re s > 3/2")
    tau = _tau_exact(pbound)
    primes = _primes_upto(pbound)
    with mpmath.workdps(30):
        sm = mpmath.mpc(s)
        acc = mpmath.mpc(1)
        for p in primes:
            acc *= 1 - tau[p - 1] * mpmath.power(p, -sm - mpmath.mpf(11) / 2) + mpmath.power(p, -2 * sm)
        return complex(1 / acc)
