"""Kernel and pairing tests.

The Tate pairing has a closed resummation (π^{−s/2}Γ(s/2)ζ(s) for the plain
Gaussian), so the gap-by-gap quadrature route is checked against analysis,
not against itself; the split identity is judged by the L-value oracles."""

import math
import random

import numpy as np
import pytest

from vorokit import gj, hankel
from vorokit.gj import (
    CoeffRangeExceeded,
    DualGrid,
    KernelSpec,
    PoleAtOne,
    SchwartzGaussian,
    _completed_zeta,
    _prefix_sums,
    _tate_pairing,
    h_kernel,
    split_zeta_identity,
    unit_coeffs,
    zero_criterion_pairing,
)
from vorokit.hankel import make_bump
from vorokit.lseries import l_delta_smoothed
from vorokit.quadrature import ToleranceNotMet
from vorokit.voronoi import TailNotConverged, tau_coefficients

CO16 = tau_coefficients(16)


# ---- kernels ----------------------------------------------------------------


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(CO16, 2.0, "weird")
    with pytest.raises(PoleAtOne):
        KernelSpec(unit_coeffs(4), 1.0 + 1e-10, "tate")
    KernelSpec(CO16, 1.0)  # cuspidal has no residue term, s = 1 is fine
    with pytest.raises(ValueError):
        unit_coeffs(0)


def test_tate_kernel_values():
    spec = KernelSpec(unit_coeffs(8), 2.0, "tate")
    assert h_kernel(spec, 0.5) == 1.0  # empty sum leaves −κ/(1−s)
    assert h_kernel(spec, 2.5) == pytest.approx(4.125, rel=1e-14)
    assert h_kernel(spec, -2.5) == h_kernel(spec, 2.5)  # depends on |x| only
    # ζ_ℚ is self-dual (D = 1): a spec over the smallest dual table that covers x = 2.5 reads the same value
    small = KernelSpec(unit_coeffs(2), 2.0, "tate")
    assert h_kernel(small, 2.5) == h_kernel(spec, 2.5) == pytest.approx(4.125, rel=1e-14)
    with pytest.raises(PoleAtOne):
        KernelSpec(unit_coeffs(2), 1.0 + 1e-12, "tate")
    with pytest.raises(ValueError):
        h_kernel(spec, 0.0)


def test_cuspidal_kernel_values():
    spec = KernelSpec(CO16, 2.0)
    for x in (0.03, 0.5, 0.999999, -0.2):
        assert h_kernel(spec, x) == 0j  # exactly
    want = 2.5**1.5 * (CO16.lam(1) + CO16.lam(2) / 4)
    assert h_kernel(spec, 2.5) == pytest.approx(want, rel=1e-14)
    # ζ coefficients: the classic 2.5^{1.5}·(1 + 1/4)
    riem = KernelSpec(unit_coeffs(8), 2.0)
    assert h_kernel(riem, 2.5) == pytest.approx(4.941058844013092, rel=1e-12)
    with pytest.raises(CoeffRangeExceeded):
        h_kernel(spec, 20.5)


def test_step_structure():
    # h·|x|^{1/2−s} is constant on (g, g+1) and jumps by a_{g+1}(g+1)^{−s}
    rng = random.Random(414)
    spec = KernelSpec(CO16, 0.0, "cuspidal")
    for _ in range(25):
        s = complex(rng.uniform(-1, 2.5), rng.uniform(-3, 3))
        sp = KernelSpec(CO16, s)
        g = rng.randrange(1, 15)
        x1 = g + rng.uniform(0.05, 0.45)
        x2 = g + rng.uniform(0.55, 0.95)
        v1 = h_kernel(sp, x1) * x1 ** (0.5 - s)
        v2 = h_kernel(sp, x2) * x2 ** (0.5 - s)
        assert v1 == pytest.approx(v2, rel=1e-11, abs=1e-13)
        step = h_kernel(sp, g + 1.25) * (g + 1.25) ** (0.5 - s) - v1
        assert step == pytest.approx(CO16.lam(g + 1) * (g + 1) ** (-s), rel=1e-10, abs=1e-12)
    assert spec.variant == "cuspidal"


def test_prefix_sums():
    c = _prefix_sums(CO16, 0.3 + 2j, 16)
    assert len(c) == 17 and c[0] == 0j
    for g in (1, 7, 16):
        direct = sum(CO16.values[n - 1] * n ** (-(0.3 + 2j)) for n in range(1, g + 1))
        assert c[g] == pytest.approx(direct, rel=1e-13)
    assert _prefix_sums(CO16, 2.0, 0).tolist() == [0j]
    with pytest.raises(CoeffRangeExceeded):
        _prefix_sums(CO16, 2.0, 17)


# ---- Schwartz family --------------------------------------------------------


def test_schwartz_gaussian_family():
    phi = SchwartzGaussian(1.0, -2.0)
    back = phi.fourier().fourier()
    assert back.c0 == pytest.approx(phi.c0, rel=1e-15)
    assert back.c2 == pytest.approx(phi.c2, rel=1e-15)
    # closed-form integral vs brute numeric
    xs = np.linspace(-8, 8, 20001)
    assert phi.integral() == pytest.approx(np.trapezoid(phi(xs), xs), abs=1e-10)
    assert SchwartzGaussian().label == "gaussian"
    assert "x²" in phi.label


def test_tate_pairing_matches_completed_zeta():
    for s in (2.0, 0.5 + 13j, 0.7 + 14.134725j, 0.4 + 3j):
        val = _tate_pairing(complex(s), SchwartzGaussian())
        assert val == pytest.approx(_completed_zeta(complex(s)), rel=1e-10, abs=1e-14)
    assert _tate_pairing(2.0, SchwartzGaussian()) == pytest.approx(math.pi / 6, rel=1e-13)
    with pytest.raises(PoleAtOne):
        _tate_pairing(1.0 + 1e-12, SchwartzGaussian())
    with pytest.raises(PoleAtOne):
        _tate_pairing(1e-12, SchwartzGaussian())


# an independent rule: 60 Gauss–Legendre points on each panel, pointwise kernels
_U60, _V60 = np.polynomial.legendre.leggauss(60)


def _pointwise_integral(f, edges):
    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        xs = 0.5 * (a + b) + 0.5 * (b - a) * _U60
        total += 0.5 * (b - a) * sum(v * f(x) for v, x in zip(_V60, xs))
    return total


@pytest.mark.parametrize("phi", [SchwartzGaussian(), SchwartzGaussian(1.0, -2.0)], ids=lambda p: p.label)
def test_tate_pairing_integrates_the_pointwise_kernels(phi):
    phih = phi.fourier()
    for s in (2.0, 0.4 + 3j, 0.5 + 14.134725j):
        h = KernelSpec(unit_coeffs(12), s, "tate")
        k = KernelSpec(unit_coeffs(12), 1 - s, "tate")
        want = 2 * _pointwise_integral(
            lambda x: h_kernel(h, x) * phih(x) + h_kernel(k, x) * phi(x), range(13)
        )
        assert abs(_tate_pairing(s, phi) - want) < 1e-13


def test_zero_criterion_dip():
    zero = 0.5 + 14.134725j
    away = (0.5 + 13j, 0.7 + 14.134725j)
    # the dip must not be an artifact of the particular Schwartz witness
    for phi in (SchwartzGaussian(), SchwartzGaussian(1.0, -2.0)):
        res = zero_criterion_pairing("tate", [zero, *away], phi=phi)
        dip = res[0].defect
        for r in res[1:]:
            assert r.defect > 100 * dip
        assert res[0].variant == "tate" and res[0].phi == phi.label
    with pytest.raises(ValueError):
        zero_criterion_pairing("bogus", [2.0])


# ---- split identity ---------------------------------------------------------


W40 = make_bump(1.0, 40.0)
CO1K = tau_coefficients(1024)


def test_split_identity_grid():
    grid = DualGrid(W40, tol=1e-7)
    routes = {}
    for s in (0.4, 0.7, 1.0 + 1.5j, 1.3, 2.0):
        # the one Euler-product point needs the deeper truncation: at this
        # scale (|reference| ≈ 35) the default pbound's tail alone is ~1e-6
        rep = split_zeta_identity(W40, s, CO1K, tol=1e-7, grid=grid, euler_pbound=30000)
        assert rep["defect"] < 1e-6  # 10·tol, uniformly on the strip grid
        assert abs(rep["i2"]) < 1e-3 * abs(rep["i1"])  # dual side is a correction here
        routes[s] = rep["l_route"]
    assert routes[2.0] == "euler-product"
    assert routes[0.4] == "smoothed-sum"
    assert routes[1.0 + 1.5j] == "smoothed-sum"
    # every octave after the first extends the grid's one kernel model
    counts = [oc["kernel_panels"] for oc in grid.windows]
    assert len(counts) >= 3 and counts[0]["built"] > 0 and counts[0]["reused"] == 0
    assert all(c["reused"] > 0 for c in counts[1:])


def test_octaves_report_the_dual_tolerance_they_met(monkeypatch):
    real = gj.hankel_convolution_batch
    asked = []

    def first_octave_misses(*args, tol, cache):
        asked.append(tol)
        if len(asked) == 1:
            raise ToleranceNotMet(tol, 2 * tol, "forced")
        return real(*args, tol=tol, cache=cache)

    monkeypatch.setattr(gj, "hankel_convolution_batch", first_octave_misses)
    w = make_bump(1.0, 4.0)
    grid = DualGrid(w, tol=1e-5)
    rep = split_zeta_identity(w, 0.5, CO1K, tol=1e-5, grid=grid)
    wtol = 1e-7  # min(1e-7, max(2e-9, tol/100))
    met = [oc["dual_tol"] for oc in grid.windows]
    assert asked[:2] == [wtol, 8 * wtol]
    assert len(met) >= 2 and met[0] == 8 * wtol and met[1:] == [wtol] * (len(met) - 1)
    assert rep["dual_tol"] == 8 * wtol and rep["defect"] < 1e-5
    # a grid whose batches all met wtol reports wtol
    monkeypatch.undo()
    assert split_zeta_identity(w, 0.5, CO1K, tol=1e-5)["dual_tol"] == wtol


def test_split_identity_critical_point():
    rep = split_zeta_identity(W40, 0.5, CO1K, tol=1e-7)
    assert rep["defect"] < 1e-9
    assert rep["l_value"] == pytest.approx(l_delta_smoothed(0.5), abs=1e-15)


def test_split_identity_direct_side_integrates_the_pointwise_kernel():
    w = make_bump(1.3, 7.6)  # non-integer ends: the first and last gaps are clipped
    s = 0.7 + 2j
    rep = split_zeta_identity(w, s, CO1K, tol=1e-5)
    h = KernelSpec(CO1K, s)
    want = _pointwise_integral(lambda x: w(x) * h_kernel(h, x) / x, [1.3, 2, 3, 4, 5, 6, 7, 7.6])
    assert rep["i1"] == pytest.approx(want, rel=1e-12)


def test_split_identity_zero_function():
    zero = hankel.TestFunction(1.0, 2.0, lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    rep = split_zeta_identity(zero, 0.8, CO16, tol=1e-7)
    assert rep["value"] == 0j and rep["reference"] == 0j and rep["defect"] == 0.0


def test_split_identity_guards():
    two_sided = hankel.TestFunction(1.0, 2.0, lambda x: x, lambda x: x)
    with pytest.raises(ValueError):
        split_zeta_identity(two_sided, 0.5, CO16)
    with pytest.raises(CoeffRangeExceeded):
        split_zeta_identity(W40, 0.5, CO16)  # support to 40, table to 16
    grid = DualGrid(W40, tol=1e-7)
    with pytest.raises(TailNotConverged):
        split_zeta_identity(W40, 2.0, tau_coefficients(64), tol=1e-7, grid=grid)
    # the octave the 64 coefficients cannot reach is refused before it is built
    assert all(oc["hi"] <= 64 + 1 for oc in grid.windows)
    # the L-value oracles are Δ's: ζ's table is refused, naming its place, before any octave
    grid = DualGrid(W40, tol=1e-7)
    with pytest.raises(ValueError, match="GL1Block"):
        split_zeta_identity(make_bump(1, 40), 2.0, unit_coeffs(1024), tol=1e-7, grid=grid)
    assert grid.windows == []
    with pytest.raises(ValueError, match="GL1Block"):
        zero_criterion_pairing("cuspidal", [2.0], w=W40, coeffs=unit_coeffs(1024), tol=1e-7)


def test_split_identity_refuses_a_grid_built_for_another_w_or_tol():
    # a DualGrid samples the w̃ of the w and tol it was built for; a sum of another's is refused unread
    grid = DualGrid(W40, tol=1e-7)
    with pytest.raises(ValueError, match="another test function or tol"):
        split_zeta_identity(make_bump(1, 40), 2.0, CO1K, tol=1e-7, grid=grid)
    with pytest.raises(ValueError, match="another test function or tol"):
        split_zeta_identity(W40, 2.0, CO1K, tol=1e-6, grid=grid)
    assert grid.windows == []


def test_cuspidal_proxy():
    res = zero_criterion_pairing("cuspidal", [0.5], w=W40, coeffs=CO1K, tol=1e-7)
    assert res[0].defect < 1e-9
    assert res[0].phi == "bump(1,40)"
