import math
import random

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from vorokit import hankel
from vorokit.archimedean import DS2Block, GL1Block, PoleError, RealPlaceParams
from vorokit.bessel import bessel_real_batch
from vorokit.hankel import (
    BadSupport,
    hankel_convolution_batch,
    hankel_mellin_batch,
    local_fe_residual,
    make_bump,
    signed_mellin,
)
from vorokit.quadrature import ToleranceNotMet, adaptive_segment, gauss_nodes

GL1_TRIVIAL = RealPlaceParams((GL1Block(0, 0.0),))
DS2_5 = RealPlaceParams((DS2Block(5, 0.0),))
DS2_11 = RealPlaceParams((DS2Block(11, 0.0),))

# ∫₁² exp(−1/(1−u²)) dx/x at u=2x−3, 50-digit quadrature, two node splits agreeing
MELLIN_BUMP12_AT_0 = 0.1506997584319221141147643683747025647211137743503902


def test_bump_profile():
    w = make_bump(1.0, 2.0)
    assert w(1.5) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert w(1.0) == 0.0
    assert w(3.0) == 0.0
    assert w(0.5) == 0.0
    assert w(-1.5) == 0.0  # one-sided by default
    xs = np.array([0.3, 1.2, 1.5, 1.9999, 2.4])
    vals = w(xs)
    assert vals.shape == (5,)
    assert vals[0] == 0.0 and vals[4] == 0.0
    assert vals[2] == pytest.approx(math.exp(-1.0))
    # off-center support
    assert make_bump(2.0, 5.0)(3.5) == pytest.approx(math.exp(-1.0))


def test_bump_support_validation():
    for a, b in [(0.0, 1.0), (-1.0, 2.0), (2.0, 2.0), (3.0, 1.0)]:
        with pytest.raises(BadSupport):
            make_bump(a, b)


def test_signed_mellin_golden_value():
    w = make_bump(1.0, 2.0)
    assert signed_mellin(w, 0, 0.0) == pytest.approx(MELLIN_BUMP12_AT_0, abs=1e-13)
    # supported on (0,∞): independent of parity
    assert signed_mellin(w, 1, 0.0) == pytest.approx(MELLIN_BUMP12_AT_0, abs=1e-13)


def test_signed_mellin_two_sided_parity_split():
    wp = make_bump(1.0, 2.0)
    neg_profile = lambda x: 2.0 * wp.pos(x)
    f = hankel.TestFunction(1.0, 2.0, wp.pos, neg_profile)
    z = 0.4 - 1.3j
    mp = signed_mellin(wp, 0, z)
    m0 = signed_mellin(f, 0, z)
    m1 = signed_mellin(f, 1, z)
    assert m0 == pytest.approx(3.0 * mp, rel=1e-11)
    assert m1 == pytest.approx(-1.0 * mp, rel=1e-10, abs=1e-13)


def test_signed_mellin_linearity():
    f = make_bump(1.0, 2.0)
    g = make_bump(1.5, 3.0)
    rng = random.Random(411)
    for _ in range(6):
        z = complex(rng.uniform(-1, 2), rng.uniform(-25, 25))
        lhs = signed_mellin(f + g, 0, z, 1e-11)
        rhs = signed_mellin(f, 0, z, 1e-12) + signed_mellin(g, 0, z, 1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def _fourier_oracle(w, x):
    # n=1 trivial parameters: w̃(x) = ∫ e^{2πi x t} w(t) dt, directly
    f = lambda t: np.exp(2j * math.pi * x * t.real) * w(t.real)
    val, _ = adaptive_segment(f, complex(w.a), complex(w.b), 1e-12)
    return val


def test_mellin_route_n1_fourier_oracle():
    w = make_bump(1.0, 2.0)
    for x in (1.0, 0.45, -2.2):
        vals, errs = hankel_mellin_batch(GL1_TRIVIAL, 1, w, [x], 1e-9)
        assert errs[0] <= 1e-9
        assert vals[0] == pytest.approx(_fourier_oracle(w, x), abs=5e-9)


def test_convolution_route_n1_matches_mellin():
    w = make_bump(1.0, 2.0)
    for x in (1.0, -1.7):
        conv, _ = hankel_convolution_batch(GL1_TRIVIAL, 1, w, [x], 1e-8)
        mell, _ = hankel_mellin_batch(GL1_TRIVIAL, 1, w, [x], 1e-8)
        assert abs(conv[0] - mell[0]) < 2e-8


def test_route_agreement_ds2():
    w = make_bump(1.0, 2.0)
    for x in (0.5, 1.0, 2.0):
        conv, _ = hankel_convolution_batch(DS2_11, 2, w, [x], 1e-8)
        mell, _ = hankel_mellin_batch(DS2_11, 2, w, [x], 1e-8)
        assert abs(conv[0] - mell[0]) < 2e-8
    # no γ-parity dependence and one-sided w: the dual vanishes on x < 0
    vals, _ = hankel_mellin_batch(DS2_11, 2, w, [-1.0, -3.7], 1e-9)
    assert np.max(np.abs(vals)) < 1e-12


def test_route_agreement_random_pairs():
    rng = random.Random(1393)
    pool = [
        (GL1_TRIVIAL, 1),
        (DS2_5, 2),
        (RealPlaceParams((GL1Block(0, 0.0), GL1Block(1, 0.0))), 2),
    ]
    w = make_bump(1.0, 2.0)
    for _ in range(10):
        params, n = pool[rng.randrange(len(pool))]
        x = rng.uniform(0.4, 6.0) * rng.choice([1, -1])
        conv, _ = hankel_convolution_batch(params, n, w, [x], 1e-7)
        mell, _ = hankel_mellin_batch(params, n, w, [x], 1e-7)
        assert abs(conv[0] - mell[0]) < 2e-7, (params, x)


@pytest.mark.parametrize(
    "params, n",
    [(GL1_TRIVIAL, 1), (DS2_5, 2), (RealPlaceParams((GL1Block(0, 0.0), GL1Block(1, 0.0))), 2)],
    ids=["gl1", "ds2_5", "gl1_gl1"],
)
def test_route_agreement_two_sided_test_function(params, n):
    # w lives on both half-lines: the convolution route pairs both kernel
    # signs with the negative t-part, the mellin route sums both parities
    bump = make_bump(1.0, 2.0)
    w = hankel.TestFunction(1.0, 2.0, bump.pos, lambda x: 0.5 * bump.pos(x))
    xs = [0.7, -0.7, 2.3, -2.3]
    conv, _ = hankel_convolution_batch(params, n, w, xs, 1e-7)
    mell, _ = hankel_mellin_batch(params, n, w, xs, 1e-7)
    assert np.max(np.abs(conv - mell)) < 2e-7
    if params is DS2_5:
        # one-sided, this dual vanishes on x < 0; the negative part made it nonzero
        assert abs(mell[1]) > 1e-3


def test_scaling_law():
    # w_λ(t) = w(λt) has dual λ^{n−2} w̃(λx) ... evaluated through the route
    lam = 2.0
    w = make_bump(1.0, 2.0)
    w_lam = hankel.TestFunction(w.a / lam, w.b / lam, lambda t: w(lam * t))
    for params, n in ((DS2_5, 2), (GL1_TRIVIAL, 1)):
        for x in (1.3, 3.1):
            lhs, _ = hankel_mellin_batch(params, n, w_lam, [x], 1e-9)
            rhs, _ = hankel_mellin_batch(params, n, w, [x / lam], 1e-9)
            assert lhs[0] == pytest.approx(lam ** (n - 2) * rhs[0], rel=1e-7, abs=1e-9)


def test_dual_decay_beyond_support():
    # w̃ oscillates through zeros, so compare window envelopes, not samples
    w = make_bump(1.0, 2.0)
    windows = [(20.0, 25.0, 30.0, 35.0), (60.0, 75.0, 90.0, 105.0), (250.0, 300.0, 350.0, 400.0)]
    xs = [x for win in windows for x in win]
    vals, _ = hankel_mellin_batch(DS2_11, 2, w, xs, 1e-10)
    envs = [np.max(np.abs(vals[4 * i : 4 * i + 4])) for i in range(3)]
    assert envs[0] > envs[1] > envs[2]


def test_convolution_zero_function():
    zero = hankel.TestFunction(1.0, 2.0, lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    vals, errs = hankel_convolution_batch(DS2_5, 2, zero, [0.5, 2.0], 1e-8)
    assert np.all(vals == 0)
    assert np.all(errs == 0)


def test_rank_mismatch_rejected():
    w = make_bump(1.0, 2.0)
    with pytest.raises(ValueError):
        hankel_mellin_batch(DS2_5, 3, w, [1.0])
    with pytest.raises(TypeError):
        from vorokit.archimedean import ComplexBlock, ComplexPlaceParams

        hankel_mellin_batch(ComplexPlaceParams((ComplexBlock(0.0, 0),)), 1, w, [1.0])


def test_fe_residual_n1():
    w = make_bump(1.0, 2.0)
    rep = local_fe_residual(GL1_TRIVIAL, 1, w, [0.5, 0.3 + 0.7j], 1e-7)
    assert rep["max_rel_residual"] < 1e-6
    assert len(rep["samples"]) == 4
    parities = {e["parity"] for e in rep["samples"]}
    assert parities == {0, 1}
    assert rep["dual_route"] == "mellin"


def test_fe_residual_ds2():
    # narrow bumps have slowly decaying duals (tail ~ e^{−c·x^{1/4}} for n=2);
    # the wide support keeps the Mellin-integrated left side affordable
    w = make_bump(1.0, 40.0)
    rep = local_fe_residual(DS2_5, 2, w, [0.5, 0.8], 1e-5)
    assert rep["max_rel_residual"] < 1e-4


def test_fe_residual_pole_sample():
    w = make_bump(1.0, 2.0)
    with pytest.raises(PoleError):
        local_fe_residual(DS2_5, 2, w, [3.5], 1e-6)


def test_fe_residual_stops_after_three_doublings(monkeypatch):
    # a dual that never decays: the initial grid and three doublings are checked, no fourth
    calls = []

    def flat(params, n, w, xs, tol):
        calls.append(len(xs))
        return np.ones(len(xs), dtype=complex), np.full(len(xs), 1e-12)

    monkeypatch.setattr(hankel, "hankel_mellin_batch", flat)
    with pytest.raises(ToleranceNotMet):
        local_fe_residual(GL1_TRIVIAL, 1, make_bump(1.0, 2.0), [0.5], 1e-6)
    assert len(calls) == 4


def test_fe_residual_grid_reports_every_batch_error(monkeypatch):
    # the dual vanishes past 2·y_max, so two doublings pass; the extensions are less accurate
    w = make_bump(1.0, 2.0)
    y_max = 20.0 * w.b

    def stand_in(params, n, w, xs, tol):
        ax = np.abs(np.asarray(xs))
        err = 3e-9 if ax.min() > y_max else 1e-12
        return np.where(ax <= 2 * y_max, 1.0 + 0j, 0j), np.full(len(ax), err)

    monkeypatch.setattr(hankel, "hankel_mellin_batch", stand_in)
    rep = local_fe_residual(GL1_TRIVIAL, 1, w, [0.5], 1e-6)
    assert rep["grid"]["y_max"] == pytest.approx(4 * y_max)
    assert rep["grid"]["achieved"] == 3e-9


def _direct_composite(f, delta, zs, base):
    # reference: the unfactored composite, one exponential per (node, z)
    zs = np.asarray(zs, dtype=complex)
    va, vb = math.log(f.a), math.log(f.b)
    maxim = float(np.max(np.abs(zs.imag))) if zs.size else 0.0
    p = base + int(1.3 * maxim * (vb - va) / (2.0 * math.pi))
    gx, gwts = gauss_nodes(hankel._MDEG)
    edges = np.linspace(va, vb, p + 1)
    half = 0.5 * (edges[1] - edges[0])
    v = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * gx[None, :]).ravel()
    wt = np.tile(half * gwts, p)
    fv = hankel._component_vals(f, delta, np.exp(v))
    return (wt * fv) @ np.exp(np.outer(v, zs))


def test_inner_mellin_factored_matches_direct_composite():
    bump = make_bump(1.0, 40.0)
    two_sided = hankel.TestFunction(0.5, 3.0, make_bump(0.5, 3.0).pos, lambda x: 0.7 * make_bump(0.8, 2.5)(x))
    zs = [complex(re, im) for re in (-2.5, 0.3, 1.2, 4.0) for im in (0.0, 13.7, -13.7, 300.0, -300.0, 3000.0, -3000.0)]
    for f in (bump, two_sided):
        absf = hankel.TestFunction(f.a, f.b, lambda x, f=f: np.abs(f(x)), lambda x, f=f: np.abs(f(-x)))
        for delta in (0, 1):
            for base in (12, 44):
                for z in zs:
                    got = hankel._mellin_nodes(f, delta, np.array([z]), base)[0]
                    ref = _direct_composite(f, delta, [z], base)[0]
                    # rounding scales with the summand's mass Σ|wt·f|e^{v·Re z}
                    mass = abs(_direct_composite(absf, 0, [z.real], base)[0])
                    assert abs(got - ref) <= 1e-13 * max(1.0, mass), (f.a, delta, base, z)
    # and against the adaptive transform, at the bases the mellin route runs
    for f in (bump, two_sided):
        for delta in (0, 1):
            for tol in (1e-6, 1.9e-9, 1e-14):
                base = hankel._mellin_base(tol)
                for z in (complex(0.7, -13.7), complex(1.2, 21.3), complex(-2.5, 40.0)):
                    got = hankel._mellin_nodes(f, delta, np.array([z]), base)[0]
                    # each base meets the tolerance it is chosen for, down to the reference's own 1e-11
                    assert abs(got - signed_mellin(f, delta, z, 1e-11)) <= max(tol, 2e-11), (f.a, delta, base, z)


# ---- the Chebyshev kernel model ---------------------------------------------


def _per_panel_chebval(model, args):
    # one Clenshaw evaluation per panel over that panel's points: the plain reading of the model
    u = np.power(args, 1.0 / model.rank)
    idx = np.clip(np.searchsorted(model.edges, u) - 1, 0, model.coeffs.shape[0] - 1)
    out = np.empty(args.shape, dtype=complex)
    for j in np.unique(idx):
        m = idx == j
        lo, hi = model.edges[j], model.edges[j + 1]
        out[m] = chebval((2.0 * u[m] - (lo + hi)) / (hi - lo), model.coeffs[j])
    return out


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_kernel_model_eval_matches_per_panel_chebval(rank):
    rng = np.random.default_rng(rank)
    npan = 37
    edges = np.linspace(0.8, 9.5, npan + 1)
    coeffs = rng.normal(size=(npan, hankel._CHEB_DEG + 1)) + 1j * rng.normal(size=(npan, hankel._CHEB_DEG + 1))
    coeffs *= 0.7 ** np.arange(hankel._CHEB_DEG + 1)  # decaying, as a fitted model's are
    model = hankel._KernelModel(rank, edges, coeffs)
    on_edges = edges**rank  # every panel edge, both ends included
    inside = rng.uniform(edges[0], edges[-1], 5000) ** rank
    args = rng.permutation(np.concatenate([inside, on_edges, on_edges[::-1], [edges[0] ** rank] * 3]))
    got, ref = model.eval(args), _per_panel_chebval(model, args)
    assert got.shape == args.shape and got.dtype == complex
    bound = 1e-14 * np.max(np.abs(ref))
    assert np.max(np.abs(got - ref)) <= bound
    # one call on a concatenation is two calls on its halves
    half = len(args) // 2
    halves = np.concatenate([model.eval(args[:half]), model.eval(args[half:])])
    assert np.max(np.abs(got - halves)) <= bound
    # points in a single panel, and no points at all
    one = np.full(4, ((edges[3] + edges[4]) / 2) ** rank)
    assert np.max(np.abs(model.eval(one) - _per_panel_chebval(model, one))) <= bound
    assert model.eval(np.zeros(0)).shape == (0,)


# ---- the kernel-model cache -------------------------------------------------

H2 = hankel._PANEL_WIDTH / 2  # lattice step in u for rank 2
NODES = hankel._CHEB_DEG + 1  # Bessel nodes per panel


def _bessel_batches(monkeypatch):
    # the size of every Bessel batch the convolution route asks for, in order
    real = hankel.bessel_real_batch
    sizes = []

    def counted(params, xs, tol):
        sizes.append(len(xs))
        return real(params, xs, tol)

    monkeypatch.setattr(hankel, "bessel_real_batch", counted)
    return sizes


def _u_range(j_lo, j_hi):
    # kernel arguments whose u = arg^{1/2} runs from inside panel j_lo to inside panel j_hi
    return ((j_lo + 0.2) * H2) ** 2, ((j_hi + 0.5) * H2) ** 2


def test_kernel_cache_builds_only_uncovered_panels(monkeypatch):
    sizes = _bessel_batches(monkeypatch)
    cache = hankel.KernelCache()
    cache.model(DS2_11, 1, *_u_range(2, 9), 1e-9)
    assert cache.panel_counts() == {"built": 8, "reused": 0}
    assert sizes == [8 * NODES, 2]  # one node batch; probes in panels 2 and 6
    sizes.clear()
    model = cache.model(DS2_11, 1, *_u_range(5, 13), 1e-9)
    assert cache.panel_counts() == {"built": 4, "reused": 5}
    assert sizes == [4 * NODES, 1]  # panels 10..13 only; one probe, in panel 10
    sizes.clear()
    inside = cache.model(DS2_11, 1, *_u_range(6, 8), 1e-9)
    assert cache.panel_counts() == {"built": 0, "reused": 3} and sizes == []
    # the sign the parity cancels costs nothing and counts nothing
    zero = cache.model(DS2_11, -1, *_u_range(2, 9), 1e-9)
    assert cache.panel_counts() == {"built": 0, "reused": 0} and sizes == []
    assert not np.any(zero.eval(np.array([3.0, 7.0])))
    # the served models agree with direct values off the nodes
    args = np.linspace(*_u_range(5, 13), 41)
    direct, _ = bessel_real_batch(DS2_11, args, 1e-12)
    assert np.max(np.abs(model.eval(args) - direct)) <= 1e-9
    some = args[(args > ((6 + 0.2) * H2) ** 2) & (args < ((8 + 0.5) * H2) ** 2)]
    assert len(some) > 3 and np.array_equal(inside.eval(some), model.eval(some))


def test_kernel_cache_rebuilds_a_panel_certified_looser_than_asked():
    cache = hankel.KernelCache()
    lo, hi = _u_range(2, 9)
    cache.model(DS2_11, 1, lo, hi, 1e-9)
    panels = cache._panels[(DS2_11, 1)]
    assert sorted(panels) == list(range(2, 10))
    assert all(0.0 < err <= 1e-9 for _, err in panels.values())
    # panel 5 now claims only 1e-6 and holds garbage: it must be built anew, not served
    panels[5] = (np.zeros(NODES, dtype=complex), 1e-6)
    cache.panel_counts()
    model = cache.model(DS2_11, 1, lo, hi, 1e-9)
    assert cache.panel_counts() == {"built": 1, "reused": 7}
    assert 0.0 < panels[5][1] <= 1e-9 and np.any(panels[5][0])
    args = (np.linspace(5.05, 5.95, 7) * H2) ** 2
    direct, _ = bessel_real_batch(DS2_11, args, 1e-12)
    assert np.max(np.abs(model.eval(args) - direct)) <= 1e-9
    # a request looser than that claim serves the panel as it is
    panels[5] = (panels[5][0], 1e-6)
    cache.model(DS2_11, 1, lo, hi, 1e-6)
    assert cache.panel_counts() == {"built": 0, "reused": 8}


def test_kernel_cache_unchanged_after_failed_validation(monkeypatch):
    cache = hankel.KernelCache()
    cache.model(DS2_11, 1, *_u_range(2, 9), 1e-9)
    cache.panel_counts()
    before = {j: (c.copy(), e) for j, (c, e) in cache._panels[(DS2_11, 1)].items()}
    real = hankel.bessel_real_batch
    calls = []

    def probes_disagree(params, xs, tol):
        vals, errs = real(params, xs, tol)
        calls.append(len(xs))
        return (vals + 1e-6 if len(calls) == 2 else vals), errs

    monkeypatch.setattr(hankel, "bessel_real_batch", probes_disagree)
    with pytest.raises(ToleranceNotMet):
        cache.model(DS2_11, 1, *_u_range(5, 13), 1e-9)
    after = cache._panels[(DS2_11, 1)]
    assert sorted(after) == sorted(before)
    assert all(np.array_equal(after[j][0], c) and after[j][1] == e for j, (c, e) in before.items())
    assert cache.panel_counts() == {"built": 0, "reused": 0}
    # the same request with agreeing probes goes through, as rhs_theta's retry needs
    monkeypatch.setattr(hankel, "bessel_real_batch", real)
    cache.model(DS2_11, 1, *_u_range(5, 13), 1e-9)
    assert cache.panel_counts() == {"built": 4, "reused": 5}
