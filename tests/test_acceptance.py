"""Acceptance gate: the primary verification criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the `[A#]` lines as they
complete.  Tolerances and time budgets here are contractual; each test prints
its verdict before asserting so a FAIL still leaves a diagnosis behind.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction as F

import numpy as np

from vorokit.archimedean import DS2Block, GL1Block, RealPlaceParams
from vorokit.bessel import bessel_real_batch
from vorokit.contours import build_contour, check_admissible
from vorokit.gj import DualGrid, KernelSpec, h_kernel, split_zeta_identity, zero_criterion_pairing
from vorokit.hankel import hankel_convolution_batch, hankel_mellin_batch, local_fe_residual, make_bump
from vorokit.lseries import zeta_zero_bisect
from vorokit.padic import (
    PAdicMat,
    QSqrt,
    SatakeParams,
    local_l_series_check,
    psi_phase,
    ramified_transform_gl2,
    satake_from_eigenvalue,
    v_p,
    whittaker_diag,
    whittaker_general,
)
from vorokit.voronoi import VoronoiJob, tau_coefficients, voronoi_residual

GL1R = RealPlaceParams((GL1Block(0, 0.0),))
DS11 = RealPlaceParams((DS2Block(11, 0.0),))
W40 = make_bump(1.0, 40.0)

TAU_P = {2: -24, 3: 252, 5: 4830, 7: -16744}


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"\n[{tag}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{tag}: {detail}"


# ---- exact local data -------------------------------------------------------


def test_a1_local_l_series_exact():
    t0 = time.time()
    rng = random.Random(1001)
    cases = []
    for p, tau in TAU_P.items():
        # the weight-12 Satake pair (α_p, α_p⁻¹) with α+α⁻¹ = τ(p)/p^{11/2}
        cases.append(satake_from_eigenvalue(p, QSqrt(p, F(0), F(tau, p**6))))
    while len(cases) < 20:
        q = rng.choice((2, 3, 5, 7, 11, 13))
        rank = rng.choice((1, 2, 2, 3))
        alpha = tuple(
            F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4))) for _ in range(rank)
        )
        cases.append(SatakeParams(q, alpha))
    ok = all(local_l_series_check(sp, 30)[1] for sp in cases)
    dt = time.time() - t0
    _verdict(
        "A1",
        ok and dt < 5.0,
        f"h·L ≡ 1 exactly to order 30 for {len(cases)} Satake tuples "
        f"(incl. weight-12 pairs at p=2,3,5,7) in {dt:.2f}s",
    )


def test_a10_whittaker_invariance_and_ramified_dual():
    t0 = time.time()

    def integral_frac(p, rng, vmin=0):
        num = rng.randrange(-40, 41) or 3
        den = rng.choice([1, 3, 7, 9, 11])
        return F(num, den) * F(p) ** rng.randrange(vmin, 3)

    def unit_frac(p, rng):
        while True:
            x = integral_frac(p, rng)
            if v_p(x, p) == 0:
                return x

    def random_k(p, rng):
        m = PAdicMat.identity(p, 2)
        for _ in range(3):
            i, j = rng.sample(range(2), 2)
            m = m @ PAdicMat.elementary(p, 2, i, j, integral_frac(p, rng))
        return m @ PAdicMat.diagonal(p, (unit_frac(p, rng), unit_frac(p, rng)))

    def random_g(p, rng):
        while True:
            g = PAdicMat(
                p,
                tuple(
                    tuple(
                        F(rng.randrange(-30, 31), rng.choice([1, 3, 7])) * F(p) ** rng.randrange(-2, 3)
                        for _ in range(2)
                    )
                    for _ in range(2)
                ),
            )
            if g.det() != 0:
                return g

    rng = random.Random(1010)
    invariant = True
    for trial in range(20):
        p = (2, 5)[trial % 2]
        sp = satake_from_eigenvalue(p, F(3, 4) if p == 2 else F(2, 3))
        g, k = random_g(p, rng), random_k(p, rng)
        invariant &= whittaker_general(sp, g @ k) == whittaker_general(sp, g)
        y = integral_frac(p, rng, vmin=-3)
        left = whittaker_general(sp, PAdicMat.elementary(p, 2, 0, 1, y) @ g)
        invariant &= left == whittaker_general(sp, g).rotated(psi_phase(y, p))

    sp5 = satake_from_eigenvalue(5, F(2, 3))
    ramified = True
    for zeta in (F(0), F(2), F(5)):
        for m in (-1, 0, 1, 2):
            got = ramified_transform_gl2(sp5, zeta, F(3) * F(5) ** m)
            if m < 0:
                ramified &= got.is_zero
            else:
                ramified &= got.turns == 0 and got.scalar() == whittaker_diag(sp5, m)

    dt = time.time() - t0
    _verdict(
        "A10",
        invariant and ramified and dt < 10.0,
        f"K-invariance and ψ-equivariance exact over 20 matrices at p∈{{2,5}}; "
        f"integral-twist transform equals the untwisted dual ({dt:.2f}s)",
    )


# ---- archimedean kernels ----------------------------------------------------


def test_a2_gl1_plane_wave():
    t0 = time.time()
    xs = np.linspace(0.05, 20.0, 50)
    vals, _ = bessel_real_batch(GL1R, xs, tol=1e-9)
    err = max(abs(v - cmath.exp(2j * math.pi * x)) for x, v in zip(xs, vals))
    dt = time.time() - t0
    _verdict("A2", err < 1e-8 and dt < 60.0, f"GL(1)/ℝ kernel vs e^(2πix): max abs error {err:.2e} on 50 points ({dt:.1f}s)")


def test_a3_contour_independence():
    t0 = time.time()
    rng = random.Random(1003)
    base = build_contour(DS11)
    other = base.shifted(-0.15)
    check_admissible(other, DS11)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(0.05, 20.0)
        (a,), _ = bessel_real_batch(DS11, [x], 1e-9, base)
        (b,), _ = bessel_real_batch(DS11, [x], 1e-9, other)
        worst = max(worst, abs(a - b))
    dt = time.time() - t0
    _verdict("A3", worst < 1e-8 and dt < 120.0, f"two admissible contours agree to {worst:.2e} at 10 points ({dt:.1f}s)")


def test_a4_local_functional_equation():
    t0 = time.time()
    rep = local_fe_residual(
        DS11, 2, W40, [0.2, 0.5, 0.8, 0.5 + 2j, 0.5 - 2j], tol=1e-6, y_max=51200.0
    )
    parities = {e["parity"] for e in rep["samples"]}
    worst = rep["max_rel_residual"]
    dt = time.time() - t0
    _verdict(
        "A4",
        worst < 1e-6 and parities == {0, 1} and dt < 300.0,
        f"local FE residual ≤ {worst:.2e} at s∈{{0.2,0.5,0.8,0.5±2i}}, both parities ({dt:.1f}s)",
    )


def test_a5_dual_routes_agree():
    t0 = time.time()
    xs = [0.5, 1.0, 2.0, 5.0]
    mv, _ = hankel_mellin_batch(DS11, W40, xs, tol=1e-9)
    cv, _ = hankel_convolution_batch(DS11, W40, xs, tol=1e-9)
    rel = max(abs(m - c) / max(abs(m), abs(c)) for m, c in zip(mv, cv))
    dt = time.time() - t0
    _verdict("A5", rel < 1e-5 and dt < 300.0, f"mellin vs convolution dual: max rel gap {rel:.2e} at x∈{{0.5,1,2,5}} ({dt:.1f}s)")


# ---- global identities ------------------------------------------------------


def test_a6_voronoi_identity():
    t0 = time.time()
    untwisted = voronoi_residual(VoronoiJob(a=0, c=1, w=W40, n_trunc=4096, tol=1e-7))
    ok_untwisted = untwisted["rel_residual"] < 1e-6
    co = tau_coefficients(6500)
    lhs, rels = {}, {}
    for a in (1, 2, 3, 4):
        rep = voronoi_residual(VoronoiJob(a=a, c=5, w=W40, n_trunc=6500, tol=1e-6, coeffs=co))
        lhs[a], rels[a] = rep["lhs"], rep["rel_residual"]
    ok_twisted = all(r < 1e-4 for r in rels.values())
    min_gap = min(
        abs(lhs[i] - lhs[j]) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4) if i < j
    )
    dt = time.time() - t0
    _verdict(
        "A6",
        ok_untwisted and ok_twisted and min_gap > 1e-3 and dt < 600.0,
        f"summation identity: untwisted rel {untwisted['rel_residual']:.1e}; "
        f"c=5 numerators max rel {max(rels.values()):.1e}; min LHS separation {min_gap:.3f} ({dt:.0f}s)",
    )


def test_a7_split_identity():
    t0 = time.time()
    grid = DualGrid(W40, tol=1e-7)
    at2 = split_zeta_identity(W40, 2.0, tol=1e-7, grid=grid)
    ok2 = at2["l_route"] == "euler-product" and at2["defect"] < 1e-6 * abs(at2["reference"])
    at_half = split_zeta_identity(W40, 0.5, tol=1e-7, grid=grid)
    ok_half = at_half["l_route"] == "smoothed-sum" and at_half["defect"] < 1e-5
    dt = time.time() - t0
    _verdict(
        "A7",
        ok2 and ok_half and dt < 300.0,
        f"split identity defect {at2['defect']:.1e} vs Euler product at s=2 "
        f"(|ref| {abs(at2['reference']):.3g}), {at_half['defect']:.1e} vs smoothed sum at s=1/2 ({dt:.0f}s)",
    )


def test_a8_pairing_dip_at_first_zero():
    t0 = time.time()
    rho = zeta_zero_bisect(14.0, 14.25, tol=1e-8)
    located = abs(rho - 14.134725) < 1e-6
    res = zero_criterion_pairing(
        "tate", [complex(0.5, rho), 0.5 + 13j, complex(0.7, rho)]
    )
    d_zero, d_line, d_off = (r.defect for r in res)
    ratio = min(d_line, d_off) / d_zero
    dt = time.time() - t0
    _verdict(
        "A8",
        located and ratio >= 100.0 and dt < 300.0,
        f"pairing at 1/2+{rho:.6f}i is {ratio:.3g}× below the off-zero points "
        f"({d_zero:.1e} vs {d_line:.1e}, {d_off:.1e}) ({dt:.1f}s)",
    )


def test_a9_kernel_support_and_steps():
    t0 = time.time()
    co = tau_coefficients(64)
    rng = random.Random(1009)
    vanishes = True
    for _ in range(50):
        s = complex(rng.uniform(0.1, 2.0), rng.uniform(-3.0, 3.0))
        x = rng.uniform(1e-6, 0.999999) * rng.choice((-1.0, 1.0))
        vanishes &= h_kernel(KernelSpec(co, s, "cuspidal"), x) == 0j
    worst = 0.0
    for _ in range(20):
        g = rng.randrange(1, 60)
        s = complex(rng.uniform(0.1, 2.0), rng.uniform(-3.0, 3.0))
        spec = KernelSpec(co, s, "cuspidal")
        x1 = g + rng.uniform(0.05, 0.45)
        x2 = g + rng.uniform(0.55, 0.95)
        p1 = x1 ** (0.5 - s) * h_kernel(spec, x1)
        p2 = x2 ** (0.5 - s) * h_kernel(spec, x2)
        worst = max(worst, abs(p1 - p2) / max(abs(p1), 1e-30))
    dt = time.time() - t0
    _verdict(
        "A9",
        vanishes and worst < 1e-12 and dt < 1.0,
        f"kernel ≡ 0 on |x|<1 exactly; |x|^(1/2−s)·H constant between integers to {worst:.1e} ({dt:.2f}s)",
    )
