import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from vorokit import bessel, hankel, quadrature, voronoi
from vorokit.archimedean import DS2Block, GL1Block, PoleError, RealPlaceParams, log_mb_gamma
from vorokit.bessel import ContourIntegrand, bessel_real_batch
from vorokit.hankel import (
    BadSupport,
    hankel_convolution_batch,
    hankel_mellin_batch,
    local_fe_residual,
    make_bump,
    signed_mellin,
)
from vorokit.contours import build_contour
from vorokit.quadrature import ToleranceNotMet, gauss_nodes, panel_nodes, phase_step

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
    # the unmasked product form exp(−(b−a)²/(4(x−a)(b−x))) against the masked exp(−1/(1−u²)),
    # on and off the support and at the floats next to its ends; exp underflows to 0 near the
    # ends in both forms, so only divide, overflow and invalid raise
    for a, b in [(1.0, 2.0), (2.0, 5.0), (1.0, 40.0), (1.2, 1.8)]:
        ends = [np.nextafter(a, b), np.nextafter(b, a), a, b, np.nextafter(a, 0.0), np.nextafter(b, 2 * b)]
        xs = np.concatenate([np.linspace(a - 0.5 * (b - a), b + 0.5 * (b - a), 40001), ends, [0.0, -0.5 * (a + b)]])
        u = (2.0 * xs - (a + b)) / (b - a)
        inside = u * u < 1.0
        masked = np.where(inside, np.exp(-1.0 / (1.0 - np.where(inside, u, 0.0) ** 2)), 0.0)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            vals = make_bump(a, b)(xs)
        assert np.max(np.abs(vals - masked)) <= 2.5e-16
        assert np.all(vals[(xs <= a) | (xs >= b)] == 0.0)
    # near an end the product form keeps its digits where 1 − u² cancels: 40 digits at the double 1.03
    with mpmath.workdps(40):
        x = mpmath.mpf(1.03)
        u = (2 * x - 41) / 39
        want = mpmath.exp(-1 / (1 - u * u))
        assert abs(mpmath.mpf(float(make_bump(1.0, 40.0)(1.03))) - want) <= 1e-13 * want


def test_profiles_are_read_only_strictly_inside_the_support():
    # TestFunction.__call__ is the one owner of w's support: every route and the direct side hand
    # a profile only points of (a, b), so make_bump's product form needs no mask.  (1, 4) puts
    # integers on both ends for the direct side.
    a, b = 1.0, 4.0
    bump, seen = make_bump(a, b), []

    def profile(x):
        seen.append(np.array(x, dtype=float).ravel())
        return bump.pos(x)

    two_sided = hankel.TestFunction(a, b, profile, profile)
    stages = {
        "signed_mellin": lambda: [signed_mellin(two_sided, d, 0.3 - 2.0j, 1e-10) for d in (0, 1)],
        "hankel_mellin_batch": lambda: hankel_mellin_batch(DS2_11, two_sided, [0.7, -2.5], 1e-7),
        "hankel_convolution_batch": lambda: hankel_convolution_batch(DS2_11, two_sided, [0.7, -2.5, 6.0], 1e-7),
        "lhs_theta": lambda: voronoi.lhs_theta(
            voronoi.VoronoiJob(a=1, c=5, w=hankel.TestFunction(a, b, profile), n_trunc=8)
        ),
    }
    for name, run in stages.items():
        seen.clear()
        run()
        pts = np.concatenate(seen)
        assert len(pts) > 0, name
        assert np.all((pts > a) & (pts < b)), (name, pts[(pts <= a) | (pts >= b)])


def test_bump_support_validation():
    profile = make_bump(1.0, 2.0).pos
    for a, b in [(0.0, 1.0), (-1.0, 2.0), (2.0, 2.0), (3.0, 1.0), (1.0, math.inf), (math.nan, 2.0), (1.0, math.nan)]:
        with pytest.raises(BadSupport):
            make_bump(a, b)
        with pytest.raises(BadSupport):  # the test function checks its own support, however it is built
            hankel.TestFunction(a, b, profile)


@pytest.mark.parametrize("route", [hankel_mellin_batch, hankel_convolution_batch])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_both_routes_refuse_a_non_finite_x_like_zero(route, bad):
    w = make_bump(1.0, 4.0)
    for xs in ([0.5, 0.0], [0.5, bad]):
        with pytest.raises(ValueError, match="nonzero"):
            route(DS2_11, w, xs, tol=1e-8)


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
        lhs = signed_mellin(hankel.TestFunction(1.0, 3.0, lambda x: f(x) + g(x)), 0, z, 1e-11)
        rhs = signed_mellin(f, 0, z, 1e-12) + signed_mellin(g, 0, z, 1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def _fourier_oracle(w, delta, x):
    """n = 1 at sgn^δ: w̃(x) = Σ over both signs of t of ∫ sgn(xt)^δ·e(xt)·w(t) dt, by numpy's
    Gauss–Legendre rule on the support, sharing no code with either route."""
    u, wts = np.polynomial.legendre.leggauss(400)
    t = 0.5 * (w.a + w.b) + 0.5 * (w.b - w.a) * u
    return sum(
        0.5 * (w.b - w.a) * np.sum(wts * np.sign(x * s_t) ** delta * np.exp(2j * math.pi * x * s_t * t) * w(s_t * t))
        for s_t in (1.0, -1.0)
    )


@pytest.mark.parametrize("delta", [0, 1])
@pytest.mark.parametrize("route", [hankel_mellin_batch, hankel_convolution_batch], ids=["mellin", "convolution"])
def test_n1_routes_match_the_fourier_oracle(route, delta):
    # w lives on both half-lines, with a different profile on each, so both signs of t and both
    # sign models of the convolution route enter
    bump = make_bump(1.0, 2.0)
    w = hankel.TestFunction(1.0, 2.0, bump.pos, lambda t: 0.7 * make_bump(1.2, 1.8)(t))
    xs = [1.0, 0.45, -2.2]
    vals, errs = route(RealPlaceParams((GL1Block(delta, 0.0),)), w, xs, 1e-9)
    assert np.all(errs <= 1e-9)
    for x, val in zip(xs, vals):
        assert val == pytest.approx(_fourier_oracle(w, delta, x), abs=1e-9)


def test_convolution_route_n1_matches_mellin():
    w = make_bump(1.0, 2.0)
    for x in (1.0, -1.7):
        conv, _ = hankel_convolution_batch(GL1_TRIVIAL, w, [x], 1e-8)
        mell, _ = hankel_mellin_batch(GL1_TRIVIAL, w, [x], 1e-8)
        assert abs(conv[0] - mell[0]) < 2e-8


def test_route_agreement_ds2():
    w = make_bump(1.0, 2.0)
    for x in (0.5, 1.0, 2.0):
        conv, _ = hankel_convolution_batch(DS2_11, w, [x], 1e-8)
        mell, _ = hankel_mellin_batch(DS2_11, w, [x], 1e-8)
        assert abs(conv[0] - mell[0]) < 2e-8
    # no γ-parity dependence and one-sided w: the dual vanishes on x < 0
    vals, _ = hankel_mellin_batch(DS2_11, w, [-1.0, -3.7], 1e-9)
    assert np.max(np.abs(vals)) < 1e-12


def test_route_agreement_random_pairs():
    rng = random.Random(1393)
    pool = [GL1_TRIVIAL, DS2_5, RealPlaceParams((GL1Block(0, 0.0), GL1Block(1, 0.0)))]
    w = make_bump(1.0, 2.0)
    for _ in range(10):
        params = pool[rng.randrange(len(pool))]
        x = rng.uniform(0.4, 6.0) * rng.choice([1, -1])
        conv, _ = hankel_convolution_batch(params, w, [x], 1e-7)
        mell, _ = hankel_mellin_batch(params, w, [x], 1e-7)
        assert abs(conv[0] - mell[0]) < 2e-7, (params, x)


@pytest.mark.parametrize(
    "params",
    [GL1_TRIVIAL, DS2_5, RealPlaceParams((GL1Block(0, 0.0), GL1Block(1, 0.0)))],
    ids=["gl1", "ds2_5", "gl1_gl1"],
)
def test_route_agreement_two_sided_test_function(params):
    # w lives on both half-lines: the convolution route pairs both kernel
    # signs with the negative t-part, the mellin route sums both parities
    bump = make_bump(1.0, 2.0)
    w = hankel.TestFunction(1.0, 2.0, bump.pos, lambda x: 0.5 * bump.pos(x))
    xs = [0.7, -0.7, 2.3, -2.3]
    conv, _ = hankel_convolution_batch(params, w, xs, 1e-7)
    mell, _ = hankel_mellin_batch(params, w, xs, 1e-7)
    assert np.max(np.abs(conv - mell)) < 2e-7
    if params is DS2_5:
        # one-sided, this dual vanishes on x < 0; the negative part made it nonzero
        assert abs(mell[1]) > 1e-3


def test_scaling_law():
    # w_λ(t) = w(λt) has dual λ^{n−2} w̃(λx) ... evaluated through the route
    lam = 2.0
    w = make_bump(1.0, 2.0)
    w_lam = hankel.TestFunction(w.a / lam, w.b / lam, lambda t: w(lam * t))
    for params in (DS2_5, GL1_TRIVIAL):
        for x in (1.3, 3.1):
            lhs, _ = hankel_mellin_batch(params, w_lam, [x], 1e-9)
            rhs, _ = hankel_mellin_batch(params, w, [x / lam], 1e-9)
            assert lhs[0] == pytest.approx(lam ** (params.rank - 2) * rhs[0], rel=1e-7, abs=1e-9)


def test_dual_decay_beyond_support():
    # w̃ oscillates through zeros, so compare window envelopes, not samples
    w = make_bump(1.0, 2.0)
    windows = [(20.0, 25.0, 30.0, 35.0), (60.0, 75.0, 90.0, 105.0), (250.0, 300.0, 350.0, 400.0)]
    xs = [x for win in windows for x in win]
    vals, _ = hankel_mellin_batch(DS2_11, w, xs, 1e-10)
    envs = [np.max(np.abs(vals[4 * i : 4 * i + 4])) for i in range(3)]
    assert envs[0] > envs[1] > envs[2]


# ---- the mellin route's factored x-phase and tail ladder ---------------------


@pytest.mark.parametrize("t", [3.0, 200.0, 700.0])
def test_mellin_integrand_factored_phase_matches_direct(t):
    # G_l·E_h[l]·e^{(ν−c)·lx} against exp(log γ + (ν−s)·lx)·M_δ[w], the latter in 30 digits
    # from the same double inputs; doubles round the phase (ν−s)·lx itself by ~eps·|phase|,
    # however x^{ν−s} is formed (the direct double form is 1.4e-12 off at t = 700, lx = 7)
    delta, nu, w = 0, 0.5, make_bump(1.0, 40.0)
    lx = np.linspace(-7.0, 7.0, 15)
    grids = hankel._MellinGrids(w, hankel._mellin_base(1e-9))
    sigma = build_contour(DS2_11).asymptote
    f = ContourIntegrand(  # as the mellin route builds it
        lambda s: log_mb_gamma(DS2_11, delta, s), DS2_11.rank, lx, nu=nu,
        factor=lambda cs, hs: hankel._mellin_nodes(grids, delta, 1.0 - nu - cs, hs),
        rate=max(abs(grids.va), abs(grids.vb)),
    )
    panels = [  # a miss, a hit on the same half-width, and a slanted detour-like panel
        (complex(sigma, t + 0.375), 0.375j, (1, 0)),
        (complex(sigma, t + 1.125), 0.375j, (1, 1)),
        (complex(sigma + 0.3, t), 0.4 + 0.1j, (2, 1)),
    ]
    for c, h, counts in panels:
        got = f(np.array([c]), np.array([h]), np.eye(21))[0]  # one panel, W = I: the values at every node
        assert (f.phase.cache_info().misses, f.phase.cache_info().hits) == counts
        s = panel_nodes(c, h)
        logg = log_mb_gamma(DS2_11, delta, s)
        mv = _one_panel(grids, delta, 1.0 - nu - c, h)
        with mpmath.workdps(30):
            exact = lambda g, si, m, x: mpmath.exp(mpmath.mpc(g) + (nu - mpmath.mpc(si)) * x) * mpmath.mpc(m)
            ref = np.array([[complex(exact(g, si, m, x)) for x in lx] for g, si, m in zip(logg, s, mv)])
        bound = (1e-13 + np.finfo(float).eps * np.abs(np.outer(nu - s, lx))) * np.abs(ref)
        assert np.all(np.abs(got - ref) <= bound), (t, c, h)


def _recording_tables(phase, sizes):
    """``phase`` that appends the memo's size after each table it serves to ``sizes``."""

    def rec(h):
        out = phase(h)
        sizes.append(phase.cache_info().currsize)
        return out

    rec.cache_info = phase.cache_info
    return rec


def _record_mellin_walk(monkeypatch, params, w, xs, tol):
    """Run the mellin route, recording every tail panel summed, with the phase step it was cut
    under, every starting panel the walk laid out, and the memo's size after each table."""
    steps, panels, summed, sizes = [], [], [], []
    Tail, tables = quadrature._Tail, bessel.phase_tables
    Bisection = quadrature.Bisection

    class Recorded(Bisection):
        def __call__(self, roots):  # the polyline's panels and the tails' blocks
            panels.extend((a, b) for a, b, _, _ in roots)
            yield from Bisection.__call__(self, roots)

    class TailRec(Tail):
        def take(self, block, results):
            done = len(self.errors)
            try:
                return Tail.take(self, block, results)
            finally:  # the panels this block summed, as the tail laid them out
                for _, (a, b, _, _) in block[: len(self.errors) - done]:
                    steps.append((quadrature.phase_step(self.omega(a.imag)), abs(b - a)))
                    summed.append((a, b))

    def tables_rec(lx):
        return _recording_tables(tables(lx), sizes)

    monkeypatch.setattr(quadrature, "Bisection", Recorded)
    monkeypatch.setattr(quadrature, "_Tail", TailRec)
    monkeypatch.setattr(bessel, "phase_tables", tables_rec)  # the x-phase of bessel.ContourIntegrand
    counts = Counter()
    hankel_mellin_batch(params, w, xs, tol, counts=counts)
    return steps, panels, summed, sizes, counts


# detour heights 0 and 1.3: the tails start at 2 and at 3.3 rounded up to 3.3125
@pytest.mark.parametrize("params", [DS2_11, RealPlaceParams((GL1Block(0, 0.3j), GL1Block(1, -0.3j)))])
def test_tail_steps_sit_on_the_ladder(monkeypatch, params):
    w = make_bump(1.0, 2.0)
    steps, panels, tails, _, counts = _record_mellin_walk(monkeypatch, params, w, [0.3, -2.0, 40.0], 1e-9)
    contour = build_contour(params)
    sigma, h0 = contour.asymptote, quadrature.tail_grid_ceil(contour.detour_height + 2.0)
    # the polyline's vertical pieces below h0 sit on σ too; a tail panel starts at |Im s| ≥ h0 and climbs
    laid_out = [(a, b) for a, b in panels if a.real == b.real == sigma and h0 <= abs(a.imag) < abs(b.imag)]
    assert set(tails) <= set(laid_out)  # and the ones laid out ahead of each stop besides
    assert len(tails) == len(steps) == counts["tail_panels"] > 0
    for (p, step), (a, b) in zip(steps, tails):
        m, _ = math.frexp(step)
        assert m in (0.5, 0.75) and p / 1.5 < step <= p
        t = abs(a.imag)
        assert t * 64 == int(t * 64)  # the tails start on a multiple of 1/64 and stay on it
        assert (t + step) - t == step and abs(b.imag) == t + step
        # down to the finest sub-panel the bisection halves exactly
        assert Fraction(t + step / 4096) == Fraction(t) + Fraction(step) / 4096
    # every rung, every ladder cut just below it, and the clamps of phase_step
    rungs = [math.ldexp(m, e) for e in range(-3, 3) for m in (0.5, 0.75)]
    for p in rungs + [np.nextafter(r, 0.0) for r in rungs] + [phase_step(1e9), phase_step(1e-9), 0.1, 2.999]:
        step = quadrature._ladder_step(p)
        assert step <= p and step > p / 1.5 and math.frexp(step)[0] in (0.5, 0.75)


def test_panel_rung_is_the_smallest_ladder_count_not_below_p():
    ladder = sorted({1 << k for k in range(16)} | {3 << k for k in range(15)})
    for p in range(1, 20000):
        rung = hankel._panel_rung(p)
        assert rung == min(r for r in ladder if r >= p), p
    assert [hankel._panel_rung(p) for p in (1, 2, 3, 4, 5, 6, 7, 12, 13)] == [1, 2, 3, 4, 6, 6, 8, 12, 16]


def test_phase_memo_holds_at_most_two_tables(monkeypatch):
    w = make_bump(1.0, 2.0)
    _, _, _, sizes, counts = _record_mellin_walk(monkeypatch, DS2_11, w, [0.3, -2.0, 40.0], 1e-9)
    assert max(sizes) == quadrature._PHASE_MEMO == 2
    assert len(sizes) == counts["memo_built"] + counts["memo_reused"]
    assert counts["memo_reused"] > 5 * counts["memo_built"]


def test_mellin_error_bars_cover_the_gap_to_a_tighter_convolution_route():
    # five magnitude groups (ratio 16) over y ∈ [1e-3, 800], both signs
    w = make_bump(1.0, 2.0)
    ys = np.array([1e-3, 0.02, 0.4, 8.0, 160.0, 800.0])
    xs = np.concatenate([ys, -ys[1::2]])
    mell, merr = hankel_mellin_batch(DS2_11, w, xs, 1e-7)
    assert len(hankel.magnitude_groups(np.abs(xs), 16.0)) == 5
    for x, m, e in zip(xs, mell, merr):
        conv, cerr = hankel_convolution_batch(DS2_11, w, [x], 1e-9)
        assert cerr[0] < e / 10 and abs(m - conv[0]) <= e + cerr[0], x


def test_convolution_zero_function():
    zero = hankel.TestFunction(1.0, 2.0, lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    vals, errs = hankel_convolution_batch(DS2_5, zero, [0.5, 2.0], 1e-8)
    assert np.all(vals == 0)
    assert np.all(errs == 0)


def test_rank_mismatch_rejected():
    # local_fe_residual is the one function that takes n beside the place; the batch routes read params.rank
    with pytest.raises(ValueError, match="rank mismatch"):
        local_fe_residual(DS2_5, 3, make_bump(1.0, 2.0), [0.5], 1e-6)


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

    def flat(params, w, xs, tol, counts):
        calls.append(len(xs))
        return np.ones(len(xs), dtype=complex), np.full(len(xs), 1e-12)

    monkeypatch.setattr(hankel, "hankel_mellin_batch", flat)
    with pytest.raises(ToleranceNotMet):
        local_fe_residual(GL1_TRIVIAL, 1, make_bump(1.0, 2.0), [0.5], 1e-6)
    assert len(calls) == 4


def test_fe_residual_tail_check_sees_the_odd_component():
    # an odd w makes the even component I₀ vanish: only w̃(y) − w̃(−y) can say the tail is long
    bump = make_bump(1.0, 2.0)
    odd = hankel.TestFunction(1.0, 2.0, bump.pos, lambda x: -bump.pos(x))
    with pytest.raises(ToleranceNotMet, match="y_max"):
        local_fe_residual(GL1_TRIVIAL, 1, odd, [0.3, 0.7], 1e-6, y_max=1.0)
    rep = local_fe_residual(GL1_TRIVIAL, 1, odd, [0.3, 0.7], 1e-6)
    assert rep["grid"]["y_max"] == pytest.approx(2 * 20.0 * odd.b)
    assert rep["max_rel_residual"] < 1e-8


def test_fe_residual_grid_reports_every_batch_error(monkeypatch):
    # the dual vanishes past 2·y_max, so two doublings pass; the extensions are less accurate
    w = make_bump(1.0, 2.0)
    y_max = 20.0 * w.b

    def stand_in(params, w, xs, tol, counts):
        ax = np.abs(np.asarray(xs))
        err = 3e-9 if ax.min() > y_max else 1e-12
        return np.where(ax <= 2 * y_max, 1.0 + 0j, 0j), np.full(len(ax), err)

    monkeypatch.setattr(hankel, "hankel_mellin_batch", stand_in)
    rep = local_fe_residual(GL1_TRIVIAL, 1, w, [0.5], 1e-6)
    assert rep["grid"]["y_max"] == pytest.approx(4 * y_max)
    assert rep["grid"]["achieved"] == 3e-9


def _direct_composite(f, delta, zs, base):
    # reference: the unfactored composite, one exponential per (node, z), on the rung p
    zs = np.asarray(zs, dtype=complex)
    va, vb = math.log(f.a), math.log(f.b)
    maxim = float(np.max(np.abs(zs.imag))) if zs.size else 0.0
    p = hankel._panel_rung(base + int(1.3 * maxim * (vb - va) / (2.0 * math.pi)))
    gx, gwts = gauss_nodes(hankel._MDEG)
    edges = np.linspace(va, vb, p + 1)
    half = 0.5 * (edges[1] - edges[0])
    v = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * gx[None, :]).ravel()
    wt = np.tile(half * gwts, p)
    fv = hankel._component_vals(f, delta, np.exp(v))
    return (wt * fv) @ np.exp(np.outer(v, zs))


def _one_panel(grids, delta, z0, h):
    """The inner transform's 21 node values on the one panel (z0, h)."""
    return hankel._mellin_nodes(grids, delta, np.array([z0]), np.array([h]))[0]


def _two_sided():
    return hankel.TestFunction(0.5, 3.0, make_bump(0.5, 3.0).pos, lambda x: 0.7 * make_bump(0.8, 2.5)(x))


def _abs_function(f):
    return hankel.TestFunction(f.a, f.b, lambda x: np.abs(f(x)), lambda x: np.abs(f(-x)))


def _at_centre(grids, delta, z):
    # the route's panel form read at the centre node (ξ = 0) of a panel of real half-width
    return _one_panel(grids, delta, z, 0.5)[10]


def test_inner_mellin_factored_matches_direct_composite():
    bump = make_bump(1.0, 40.0)
    two_sided = _two_sided()
    zs = [complex(re, im) for re in (-2.5, 0.3, 1.2, 4.0) for im in (0.0, 13.7, -13.7, 300.0, -300.0, 3000.0, -3000.0)]
    for f in (bump, two_sided):
        absf = _abs_function(f)
        for delta in (0, 1):
            for base in (12, 44):
                grids = hankel._MellinGrids(f, base)
                for z in zs:
                    got = _at_centre(grids, delta, z)
                    ref = _direct_composite(f, delta, [z], base)[0]
                    # rounding scales with the summand's mass Σ|wt·f|e^{v·Re z}
                    mass = abs(_direct_composite(absf, 0, [z.real], base)[0])
                    assert abs(got - ref) <= 1e-13 * max(1.0, mass), (f.a, delta, base, z)
    # and against the adaptive transform, at the bases the mellin route runs
    for f in (bump, two_sided):
        for delta in (0, 1):
            for tol in (1e-6, 1.9e-9, 1e-14):
                grids = hankel._MellinGrids(f, hankel._mellin_base(tol))
                for z in (complex(0.7, -13.7), complex(1.2, 21.3), complex(-2.5, 40.0)):
                    got = _at_centre(grids, delta, z)
                    # each base meets the tolerance it is chosen for, down to the reference's own 1e-11
                    assert abs(got - signed_mellin(f, delta, z, 1e-11)) <= max(tol, 2e-11), (f.a, delta, tol, z)


@pytest.mark.parametrize("h", [0.375j, 1.5j, complex(0.4, 0.1)])
def test_inner_mellin_tables_match_direct_composite_on_whole_panels(h):
    # every node z0 − h·ξ_l of a panel, off-centre rows of the phase tables included, against
    # the unfactored composite on the same rung; a second panel of the same h reuses the tables
    for f in (make_bump(1.0, 40.0), _two_sided()):
        absf = _abs_function(f)
        for delta in (0, 1):
            grids = hankel._MellinGrids(f, 44)
            for z0 in (complex(-2.5, 0.0), complex(0.3, 13.7), complex(1.2, -300.0), complex(4.0, 3000.0)):
                zs = panel_nodes(z0, -h)
                got = _one_panel(grids, delta, z0, h)
                ref = _direct_composite(f, delta, zs, 44)
                mass = np.abs(_direct_composite(absf, 0, zs.real, 44))
                assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, mass)), (f.a, delta, z0, h)
            again = _one_panel(grids, delta, complex(4.0, 3000.0), h)
            assert np.array_equal(again, got)
            assert grids.counts() == {"grids_built": 4, "tables_built": 4, "tables_reused": 1}


def test_inner_mellin_blocks_match_direct_composite_on_every_rung():
    # the stacked form, p/r blocks of r ≤ 156 rows summed, against the unfactored sum on each
    # rung 24 … 768, the rung set by the panel's height; the route's own validation reaches
    # rung 48 alone at fe-check's tolerance, one block
    rungs = [24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768]
    assert {p: p // quadrature.table_block(p, hankel._MDEG, 21) for p in (192, 768)} == {192: 2, 768: 6}
    for f in (make_bump(1.0, 40.0), _two_sided()):
        absf, span = _abs_function(f), math.log(f.b) - math.log(f.a)
        for delta in (0, 1):
            grids = hankel._MellinGrids(f, 12)
            for p in rungs:
                # int(1.3·|Im z|·span/2π) = p − 13, whose rung is p
                z0 = complex(0.3, -(p - 12.5) * 2.0 * math.pi / (1.3 * span))
                zs = panel_nodes(z0, -0.375)
                got = _one_panel(grids, delta, z0, 0.375)
                ref = _direct_composite(f, delta, zs, 12)
                mass = np.abs(_direct_composite(absf, 0, zs.real, 12))
                assert np.all(np.abs(got - ref) <= 1e-13 * mass), (f.a, delta, p)
            assert sorted(p for _, p in grids._grids) == rungs


def test_inner_mellin_validation_reads_the_route_tables(monkeypatch):
    # the validation runs the route's tabled form: a corrupted inner table makes it fail,
    # the rows off the centre node alone included (the centre row is 1 whatever h is)
    w = make_bump(1.0, 2.0)
    tables = quadrature.phase_tables

    def corrupted(rows):
        def make(lx):
            memo = tables(lx)

            def table(h):
                out = memo(h).copy()
                out[rows] *= 1.01
                return out

            table.cache_info = memo.cache_info
            return table

        return make

    for rows in (slice(None), [0, 20]):
        monkeypatch.setattr(quadrature, "phase_tables", corrupted(rows))
        with pytest.raises(ToleranceNotMet, match="inner Mellin grid validation"):
            hankel._validate_inner_mellin(hankel._MellinGrids(w, hankel._mellin_base(1e-9)), 0)
        with pytest.raises(ToleranceNotMet, match="inner Mellin grid validation"):
            hankel_mellin_batch(DS2_11, w, [0.3, 2.0], 1e-9)
    monkeypatch.setattr(quadrature, "phase_tables", tables)
    hankel._validate_inner_mellin(hankel._MellinGrids(w, hankel._mellin_base(1e-9)), 0)


# ---- the Chebyshev kernel model ---------------------------------------------


def _per_panel_chebval(model, panels, xi):
    # one Clenshaw evaluation per panel over that panel's abscissae ξ ∈ [−1, 1]: the plain
    # reading of the model
    out = np.empty(len(xi), dtype=complex)
    for j in np.unique(panels):
        m = panels == j
        out[m] = chebval(xi[m], model.coeffs[j])
    return out


def _model_at(model, args, rank):
    # the model at kernel arguments: each point's panel by a binary search of the lattice
    # edges, clipped to the model's panels, and its u = arg^{1/rank} mapped onto [−1, 1]
    npan = model.coeffs.shape[0]
    edges = model.h * np.arange(model.j0, model.j0 + npan + 1)
    u = np.power(args, 1.0 / rank)
    idx = np.clip(np.searchsorted(edges, u) - 1, 0, npan - 1)
    lo, hi = edges[idx], edges[idx + 1]
    return _per_panel_chebval(model, idx, (2.0 * u - (lo + hi)) / (hi - lo))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_kernel_model_table_matches_per_panel_chebval(rank):
    # the model at u in panel j0 + i is that panel's series at ξ = 2·(u/h − j0 − i) − 1, for any
    # shape of u: the random coefficients make neighbouring panels disagree at O(1), so any other
    # panel shows
    rng = np.random.default_rng(rank)
    npan, h, j0 = 37, hankel._PANEL_WIDTH / rank, 3
    coeffs = rng.normal(size=(npan, hankel._CHEB_DEG + 1)) + 1j * rng.normal(size=(npan, hankel._CHEB_DEG + 1))
    coeffs *= 0.7 ** np.arange(hankel._CHEB_DEG + 1)  # decaying, as a fitted model's are
    model = hankel._KernelModel(h, j0, coeffs)
    panels = np.concatenate([rng.integers(0, npan, 8 * npan), np.arange(npan)])
    xi = np.concatenate([rng.uniform(-0.999, 0.999, 8 * npan), np.full(npan, 2.0 * 0.381966 - 1.0)])  # the probe point
    u = h * (j0 + panels + 0.5 * (xi + 1.0))
    got = model.at(u.reshape(9, npan))
    assert got.shape == (9, npan) and got.dtype == complex
    ref = _per_panel_chebval(model, panels, xi)
    # u rounds, so ξ is read back to a few ulps of j0 + npan
    assert np.max(np.abs(got.ravel() - ref)) <= 1e-10 * np.max(np.abs(ref))
    # the kernel arguments u^rank, located on the lattice by a binary search, read the same values
    assert np.max(np.abs(_model_at(model, u**rank, rank) - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert model.at(np.zeros(0)).shape == (0,)


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
    # the served models agree with direct values off the nodes
    args = np.linspace(*_u_range(5, 13), 41)
    direct, _ = bessel_real_batch(DS2_11, args, 1e-12)
    assert np.max(np.abs(_model_at(model, args, 2) - direct)) <= 1e-9
    some = args[(args > ((6 + 0.2) * H2) ** 2) & (args < ((8 + 0.5) * H2) ** 2)]
    assert len(some) > 3 and np.array_equal(_model_at(inside, some, 2), _model_at(model, some, 2))


def test_convolution_batch_builds_no_model_for_the_sign_the_parity_cancels(monkeypatch):
    # DS2(11)'s γ ignores the parity, so 𝔟 vanishes on the negative axis; for a
    # w supported in x > 0 that is every kernel argument of a point x < 0
    sizes = _bessel_batches(monkeypatch)
    cache = hankel.KernelCache()
    w = make_bump(1.0, 2.0)
    vals, errs = hankel_convolution_batch(DS2_11, w, [-0.5, -3.0, -40.0], 1e-8, cache)
    assert vals.dtype == complex and np.array_equal(vals, np.zeros(3)) and np.all(errs > 0)
    assert sizes == [] and cache._panels == {} and cache.panel_counts() == {"built": 0, "reused": 0}
    # a mixed batch builds the positive-sign model only, and its x < 0 point is exactly 0
    mixed, _ = hankel_convolution_batch(DS2_11, w, [0.5, -0.5], 1e-8, cache)
    assert mixed[0] != 0 and mixed[1] == 0
    assert sizes and list(cache._panels) == [(DS2_11, 1)]


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
    assert np.max(np.abs(_model_at(model, args, 2) - direct)) <= 1e-9
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


# ---- the convolution rule on the kernel's u-lattice --------------------------


def test_convolution_rule_covers_the_gap_to_the_mellin_route_below_and_above_one_panel():
    # bump(1, 40) seen at |x| ≤ 0.01, where its support spans less than one lattice panel in
    # u = (|x|t)^{1/2} (0.43 of one at 0.002), and at |x| ≈ 150, where it spans 119; the
    # negative part of w makes the dual nonzero on x < 0 for DS2(11), whose γ ignores the parity
    bump = make_bump(1.0, 40.0)
    w = hankel.TestFunction(1.0, 40.0, bump.pos, lambda x: 0.5 * bump.pos(x))
    xs = np.array([-0.002, 0.01, -0.01, 0.013, 148.0, -150.0])
    spans = np.sqrt(np.abs(xs)) * (np.sqrt(40.0) - 1.0) / H2
    assert np.all(spans[:3] < 1) and spans[0] < 0.5 and spans[-1] > 100
    conv, cerr = hankel_convolution_batch(DS2_11, w, xs, 1e-8)
    mell, merr = hankel_mellin_batch(DS2_11, w, xs, 1e-10)
    assert np.all(np.abs(conv) > 1e-9) and np.all(cerr <= 1e-8)
    assert np.all(np.abs(conv - mell) <= cerr + merr)


def test_a_jump_in_w_exhausts_the_t_quadrature():
    # w jumps from 1 to 0 inside its support: the panels over the jump bisect to depth 12 and
    # still miss their tolerance, so the batch refuses rather than return an uncertified value
    w = hankel.TestFunction(1.0, 40.0, lambda x: np.where(x < 7.3, 1.0, 0.0))
    with pytest.raises(ToleranceNotMet, match="t-quadrature not converged"):
        hankel_convolution_batch(DS2_11, w, [2.0, 3.0], 1e-8)


def test_convolution_batch_imports_no_numpy_ma():
    """A signed batch leaves numpy.ma unloaded: its lazy import would land in the job's time."""
    code = (
        "import sys\n"
        "from vorokit.archimedean import DS2Block, RealPlaceParams\n"
        "from vorokit.hankel import hankel_convolution_batch, make_bump\n"
        "vals, _ = hankel_convolution_batch(RealPlaceParams((DS2Block(11),)), make_bump(1.0, 40.0), [-3.0, 2.5], 1e-6)\n"
        "print(len(vals), 'numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.split() == ["2", "False"], out.stdout + out.stderr
