import math

import mpmath
import numpy as np
import pytest

from vorokit import bessel, hankel, quadrature
from vorokit.archimedean import DS2Block, RealPlaceParams
from vorokit.quadrature import (
    _GK_W,
    _GK_WG,
    _GK_WK,
    _GK_X,
    BENT_RAYS,
    VERTICAL_LADDER,
    ToleranceNotMet,
    contour_integral,
    gauss_nodes,
    gauss_panels,
    magnitude_groups,
    panel_nodes,
    phase_step,
    polyline_walk,
    Bisection,
)


DS11 = RealPlaceParams((DS2Block(11, 0.0),))


# ---- reference copies of the code the shared helpers replaced ---------------


def _greedy_groups(ax, ratio):
    order = np.argsort(ax)
    groups = []
    for i in order:
        if groups and ax[i] <= ax[groups[-1][0]] * ratio:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


def _stacked(vals):
    return _GK_W @ vals


def _separate(vals):
    # the contraction before the integrands took the weights: one row at a time
    return _GK_WK @ vals, _GK_WG @ vals


def _gk_refine(f, a, b, tol, max_depth, contract=_stacked, panels=None):
    # depth-first G10/K21 bisection of the node values f(c, h), the recursive rule the
    # breadth-first one replaced: it stops at panels of length (b - a)/2^(max_depth+1), and
    # ``panels`` collects every panel (c, h) it evaluates
    finest = max_depth + 1

    def refine(pa, pb, ptol, level):
        c, h = 0.5 * (pa + pb), 0.5 * (pb - pa)
        if panels is not None:
            panels.append((c, h))
        k, g = h * np.asarray(contract(f(c, h)))
        err = float(np.max(np.abs(k - g)))
        if err <= ptol or level == finest:
            return k, err
        lv, le = refine(pa, c, 0.6 * ptol, level + 1)
        rv, re_ = refine(c, pb, 0.6 * ptol, level + 1)
        return lv + rv, le + re_

    return refine(a, b, tol, 0)


def _weighted(f, seen=None):
    """The stacked panel integrand (cs, hs, W) ↦ [W @ f(c, h)] of the node values f(c, h),
    appending each panel (c, h) it is handed to ``seen``."""

    def stacked(cs, hs, W):
        if seen is not None:
            seen.extend(zip(cs.tolist(), hs.tolist()))
        return np.stack([W @ f(c, h) for c, h in zip(cs, hs)])

    return stacked


def _segment(f, width, a, b, tol, max_depth):
    """Breadth-first bisection of the one panel a→b down to panels of length (b − a)/2^(max_depth+1),
    f of ``width`` points."""
    (out,) = Bisection(f, width)([(a, b, tol, max_depth + 1)])
    return out


def _same_tree(seen, ref_seen):
    """Both bisections evaluated the same panels, so they accepted the same ones at the same depths."""
    key = lambda p: (p[0].real, p[0].imag, p[1].real, p[1].imag)
    assert sorted(map(key, seen)) == sorted(map(key, ref_seen))


def _old_te_rule(te, deg):
    # the composite rule on fixed panels, built by hand
    gx, gw = gauss_nodes(deg)
    tc, th = 0.5 * (te[:-1] + te[1:]), 0.5 * np.diff(te)
    return (tc[:, None] + th[:, None] * gx[None, :]).ravel(), (th[:, None] * gw[None, :]).ravel()


# ---- the composite rule -----------------------------------------------------


@pytest.mark.parametrize("deg", [16, 24])
def test_gauss_panels_exact_on_monomials(deg):
    edges = [-0.7, -0.55, 0.1, 0.12, 0.6, 1.3]
    x, w = gauss_panels(edges, deg)
    assert x.shape == w.shape == (deg * (len(edges) - 1),)
    a, b = edges[0], edges[-1]
    for k in range(2 * deg):
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        assert np.sum(w * x**k) == pytest.approx(exact, rel=1e-13, abs=1e-15)

    # panels of equal phase on [a^(1/n), b^(1/n)], n = 2
def test_gauss_panels_reproduces_the_hand_built_rules():
    # hankel_convolution_batch's t-panels: equal phase on [a^(1/n), b^(1/n)], n = 2
    for npan in (5, 17, 40):
        te = np.linspace(1.0, 40.0**0.5, npan + 1) ** 2
        x, w = gauss_panels(te, 16)
        ref_x, ref_w = _old_te_rule(te, 16)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    # the per-gap rule g + 1/2 + u/2, weights v/2, of the GJ pairings
    for g, cnt in ((1, 12), (37, 48), (512, 10)):
        u, v = gauss_nodes(cnt)
        x, w = gauss_panels((g, g + 1), cnt)
        assert np.array_equal(x, g + 0.5 + 0.5 * u) and np.array_equal(w, 0.5 * v)


# ---- magnitude grouping -----------------------------------------------------


@pytest.mark.parametrize("ratio", [4.0, 16.0])
def test_magnitude_groups_match_greedy_loop(ratio):
    rng = np.random.default_rng(20240)
    for size in (1, 2, 7, 60, 500):
        mags = np.exp(rng.uniform(-6.0, 8.0, size))
        got = magnitude_groups(mags, ratio)
        ref = _greedy_groups(mags, ratio)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            assert np.array_equal(g, r)
        assert sorted(np.concatenate(got).tolist()) == list(range(size))


@pytest.mark.parametrize("ratio", [4.0, 16.0])
def test_magnitude_groups_ties_and_boundaries(ratio):
    # repeated magnitudes and a point exactly at ratio·(group start)
    mags = np.array([3.0, 1.0, 1.0, ratio, ratio * 1.0000001, 3.0, ratio * ratio * 2.0, 1.0])
    got = magnitude_groups(mags, ratio)
    ref = _greedy_groups(mags, ratio)
    assert [g.tolist() for g in got] == [r.tolist() for r in ref]
    assert sorted(got[0].tolist()) == [0, 1, 2, 3, 5, 7]


def test_magnitude_groups_single_point():
    (only,) = magnitude_groups(np.array([2.5]), 4.0)
    assert only.tolist() == [0]


# ---- the panel integrator ---------------------------------------------------


def test_gk_table_pins_g10_and_k21_exactness():
    x, w = gauss_nodes(10)
    gauss = _GK_WG != 0.0
    assert gauss.sum() == 10 and not gauss[10]  # the centre node is Kronrod-only
    assert np.max(np.abs(_GK_X[gauss] - x)) <= 1e-15
    assert np.max(np.abs(_GK_WG[gauss] - w)) <= 1e-15
    assert np.array_equal(_GK_X, -_GK_X[::-1]) and np.all(np.diff(_GK_X) > 0)

    def miss(weights, d):
        return abs(weights @ _GK_X**d - (1.0 - (-1.0) ** (d + 1)) / (d + 1))

    assert all(miss(_GK_WK, d) <= 1e-15 for d in range(32)) and miss(_GK_WK, 32) > 1e-13
    assert all(miss(_GK_WG, d) <= 1e-15 for d in range(20)) and miss(_GK_WG, 20) > 1e-13


def test_adaptive_segment_1d_unchanged():
    def f(c, h):
        s = panel_nodes(c, h)
        return np.exp(2.3j * s) / (1.0 + s * s)

    for a, b, tol, depth in ((0.1, 5.0, 1e-12, 13), (-2 + 1j, 3 - 0.5j, 1e-9, 11), (0.0, 40.0, 1e-14, 4)):
        seen, ref_seen = [], []
        got = _segment(_weighted(f, seen), 1, complex(a), complex(b), tol, depth)
        ref = _gk_refine(f, complex(a), complex(b), tol, depth, panels=ref_seen)
        assert got[0] == ref[0] and got[1] == ref[1]
        _same_tree(seen, ref_seen)


_BATCH_LAM = np.array([0.4, -1.1 + 2.0j, 3.0j, 7.5])


def _batch_exp(c, h):
    return np.exp(np.outer(panel_nodes(c, h), _BATCH_LAM))


def _kink(c, h):
    return np.abs(panel_nodes(c, h) - 0.3)


def test_adaptive_segment_batched_matches_module_bisection():
    for a, b in ((0.5 - 3j, 0.5 + 2j), (-1 + 1j, 2.5 + 4j)):
        seen, ref_seen = [], []
        val, err = _segment(_weighted(_batch_exp, seen), len(_BATCH_LAM), a, b, 1e-11, 11)
        ref_val, ref_err = _gk_refine(_batch_exp, a, b, 1e-11, 11, panels=ref_seen)
        assert np.array_equal(val, ref_val) and err == ref_err
        _same_tree(seen, ref_seen)


def test_adaptive_segment_kink_exhausts_depth_at_the_finest_panel():
    lengths = []

    def f(cs, hs, W):
        lengths.extend(2.0 * np.abs(hs))  # the panel lengths
        return _weighted(_kink)(cs, hs, W)

    for a, b, depth in ((0.0, 1.0, 6), (-1.7, 2.2, 9)):
        lengths.clear()
        val, err = _segment(f, 1, complex(a), complex(b), 1e-15, depth)
        assert err > 1e-15  # the kink is never resolved: the depth ran out
        assert min(lengths) == pytest.approx((b - a) / 2 ** (depth + 1), rel=1e-12)
        assert val.real == pytest.approx(0.5 * ((b - 0.3) ** 2 + (0.3 - a) ** 2), abs=1e-7)
        seen, ref_seen = [], []
        _segment(_weighted(_kink, seen), 1, complex(a), complex(b), 1e-15, depth)
        _gk_refine(_kink, complex(a), complex(b), 1e-15, depth, panels=ref_seen)
        _same_tree(seen, ref_seen)


def test_breadth_first_levels_one_call_each():
    # every level of the bisection is one call of the integrand, its panels in one stack
    calls = []

    def f(cs, hs, W):
        calls.append(len(cs))
        return _weighted(_batch_exp)(cs, hs, W)

    _segment(f, len(_BATCH_LAM), 0.5 - 3j, 0.5 + 2j, 1e-11, 11)
    ref_seen = []
    _gk_refine(_batch_exp, 0.5 - 3j, 0.5 + 2j, 1e-11, 11, panels=ref_seen)
    widths = sorted({abs(h) for _, h in ref_seen}, reverse=True)
    assert calls[0] == 1 and sum(calls) == len(ref_seen) and len(calls) == len(widths) > 2
    assert calls == [sum(1 for _, h in ref_seen if abs(h) == w) for w in widths]


def test_a_call_returns_at_most_its_entry_budget():
    # 1200 points: the budget at that width sets the panels a call, from the first call on
    lam = np.linspace(-2.0, 2.0, 1200) * 1j
    calls = []

    def f(cs, hs, W):
        calls.append(len(cs))
        return np.stack([W @ np.exp(np.outer(panel_nodes(c, h), lam)) for c, h in zip(cs, hs)])

    panels = [(complex(k), complex(k + 1), 1e-3, 12) for k in range(40)]
    out = list(Bisection(f, len(lam))(panels))
    span = quadrature._CALL_ENTRIES // (2 * len(lam))
    assert span > 1 and calls == [span] * (40 // span) + [40 % span] * (40 % span > 0)  # none is halved
    exact = (np.exp(lam * 40.0) - 1.0) / lam
    assert len(out) == 40 and np.max(np.abs(sum(v for v, _ in out) - exact)) <= 1e-9


@pytest.mark.parametrize(
    "f, a, b, tol, depth, same_panels",
    [
        (_batch_exp, 0.5 - 3j, 0.5 + 2j, 1e-11, 11, True),
        # |values| reach e^{7.5·2.5} ≈ 1.4e8 on this one, so the 1e-11 bar lies under their
        # rounding (~1e-8) and each panel's |K − G| is rounding noise: either contraction
        # bisects on its own noise, and only the sums can agree
        (_batch_exp, -1 + 1j, 2.5 + 4j, 1e-11, 11, False),
        (_kink, 0j, 1 + 0j, 1e-15, 6, True),
        (_kink, -1.7 + 0j, 2.2 + 0j, 1e-15, 9, True),
    ],
)
def test_stacked_weight_rows_match_the_separate_rows(f, a, b, tol, depth, same_panels):
    # the integrator's one (2 × 21) contraction against the two row products it replaced
    panels, ref_panels = [], []
    val, err = _segment(_weighted(f, panels), 1 if f is _kink else len(_BATCH_LAM), a, b, tol, depth)
    ref_val, ref_err = _gk_refine(f, a, b, tol, depth, contract=_separate, panels=ref_panels)
    assert sorted(panels, key=str) == sorted(ref_panels, key=str) or not same_panels
    assert np.all(np.abs(val - ref_val) <= 1e-14 * np.abs(ref_val))
    # the estimates are sums of |K − G|, so they agree to the rounding of the values they difference
    assert abs(err - ref_err) <= 1e-14 * len(ref_panels) * float(np.max(np.abs(ref_val)))


# ---- products on one BLAS thread ------------------------------------------------


def _blas_size(a_shape, b_shape) -> tuple[str, int]:
    """The BLAS call numpy makes for each matrix of np.matmul(a, b), and its size: zgemv's m·n, zgemm's m·n·k."""
    m, k = (a_shape[-2] if len(a_shape) > 1 else 1), a_shape[-1]
    n = b_shape[-1] if len(b_shape) > 1 else 1
    return ("gemv", k * n) if m == 1 else ("gemv", m * k) if n == 1 else ("gemm", m * n * k)


_ONE_THREAD = {"gemm": 65_536, "gemv": 4_095}  # the largest sizes scipy-openblas 0.3.31 runs on one thread


def test_table_matmul_is_matmul_in_slices_of_one_thread():
    rng = np.random.default_rng(3)
    cz = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows, table = cz(2, 21), cz(21, 3703)  # fe-check's largest magnitude group
    out = np.empty((2, 3703), dtype=complex)
    assert quadrature.table_matmul(rows, table, out=out) is out
    slices = [np.matmul(rows, table[:, j : j + 1560]) for j in (0, 1560, 3120)]  # 65 520 = 2·21·1560
    assert np.array_equal(out, np.concatenate(slices, axis=1))
    # within the limits one call; past them, slices into an array of its own, stacked or not
    for a, b in [(cz(6, 128, 20), cz(20, 21)), (cz(6, 1, 128), cz(6, 128, 21)), (cz(2, 21), cz(21, 40)),
                 (rows, table), (cz(3, 1, 2000), cz(3, 2000, 5)), (cz(2000), cz(2000, 5))]:
        assert np.allclose(quadrature.table_matmul(a, b), np.matmul(a, b), rtol=1e-14, atol=0)
    # a contraction too long for one column does not fit one thread, whatever the slices
    for a, b in [(cz(1, 4096), cz(4096, 2)), (cz(21, 196), cz(196)), (cz(21, 3200), cz(3200, 21))]:
        with pytest.raises(ValueError, match="one BLAS thread"):
            quadrature.table_matmul(a, b)


def test_table_block_divides_every_rung_within_one_thread():
    rungs = [p for e in range(3, 10) for p in (1 << e, 3 << (e - 1)) if 24 <= p <= 768]
    assert rungs == [24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768]
    for p in rungs:
        r = quadrature.table_block(p, 20, 21)
        assert p % r == 0 and r == max(d for d in range(1, 157) if p % d == 0)
        assert _blas_size((r, 20), (20, 21))[1] <= 65_536 and _blas_size((1, r), (r, 21))[1] <= 4_095
        assert (r == p) == (p <= 156)


def test_the_mellin_route_issues_no_product_past_one_thread(monkeypatch):
    # every np.matmul of a Mellin batch wide enough to slice the integrand's product, at a
    # tolerance whose inner transform reaches rung 384, where one unstacked product of each
    # kind would wake OpenBLAS's second thread
    seen, matmul = [], np.matmul

    def recorded(a, b, out=None):
        seen.append((np.shape(a), np.shape(b)))
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", recorded)
    xs = np.linspace(1.0, 1.4, 1700)
    hankel.hankel_mellin_batch(DS11, hankel.make_bump(1.0, 40.0), xs, 1e-9)
    over = [(a, b) for a, b in seen if _blas_size(a, b)[1] > _ONE_THREAD[_blas_size(a, b)[0]]]
    assert not over, f"products past one BLAS thread: {sorted(set(over))[:5]}"
    # bessel.ContourIntegrand's (2 × 21) @ (21 × 1700), in column slices
    sliced = {b[1] for a, b in seen if a == (2, 21)}
    assert max(sliced) == 1560 and 1700 - 1560 in sliced
    # hankel._mellin_nodes' (p × 20) @ (20 × 21) and its contraction with e^{c·z0}, in p/r blocks
    stacked = {(a[0] * a[1], a[0]) for a, b in seen if len(a) == 3 and a[2] == 20 and b == (20, 21)}
    contracted = {(a[0] * a[2], a[0]) for a, b in seen if len(a) == 3 and a[1] == 1}
    assert stacked == contracted and max(stacked) == (384, 3)
    assert {p for p, blocks in stacked if blocks > 1} >= {192, 256, 384}


# ---- the polyline walk ------------------------------------------------------


_EXP_LAM = np.array([0.5, -1.0 + 0.5j, 1.5j, -0.3 - 2.0j])
_EXP_PTS = [complex(0.5, -4.0), complex(-0.3, -1.0), complex(0.2, 1.5), complex(0.5, 4.0)]


def _exp_batch(cs, hs, W):
    return W @ np.exp(panel_nodes(cs[:, None], hs[:, None])[:, :, None] * _EXP_LAM)


@pytest.mark.parametrize("omega", [lambda t: 1.0 + abs(t), lambda t: 0.5, lambda t: 200.0])
def test_polyline_walk_exponential_closed_form(omega):
    lam, pts = _EXP_LAM, _EXP_PTS
    tol = 1e-9
    val, err = polyline_walk(Bisection(_exp_batch, len(_EXP_LAM)), pts, omega, tol)
    exact = (np.exp(lam * pts[-1]) - np.exp(lam * pts[0])) / lam
    assert val.shape == lam.shape
    assert np.max(np.abs(val - exact)) <= tol
    assert 0.0 <= err <= tol * 100


def test_polyline_walk_panels_follow_phase_step():
    calls = []

    def f(cs, hs, W):
        calls.extend(cs)
        s = panel_nodes(cs[:, None], hs[:, None])
        return (s * s) @ W.T  # integrated exactly by every panel: no bisection

    # step 14/7 = 2 on a length-10 segment: five panels, one rule call for all of them
    polyline_walk(Bisection(f, 1), [0j, 10j], lambda t: 7.0, 1e-6)
    assert len(calls) == 5
    calls.clear()
    # step clamped to 3: panels 3, 3, 3, 1
    polyline_walk(Bisection(f, 1), [0j, 10j], lambda t: 1.0, 1e-6)
    assert len(calls) == 4
    assert phase_step(1e9) == 0.1 and phase_step(1e-9) == 3.0


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("omega", [lambda t: 1.0 + abs(t), lambda t: 0.5, lambda t: 200.0])
def test_polyline_walk_error_estimate_bounds_the_error(omega, tol):
    val, err = polyline_walk(Bisection(_exp_batch, len(_EXP_LAM)), _EXP_PTS, omega, tol)
    # the closed form to 30 digits: in doubles it is itself ~2e-13 off here
    with mpmath.workdps(30):
        a, b = mpmath.mpc(_EXP_PTS[0]), mpmath.mpc(_EXP_PTS[-1])
        exact = [(mpmath.exp(lam * b) - mpmath.exp(lam * a)) / lam for lam in map(mpmath.mpc, _EXP_LAM)]
        miss = max(float(abs(mpmath.mpc(v) - e)) for v, e in zip(val, exact))
    assert miss <= err


# ---- the contour walk's two tail rules -----------------------------------------

_WALK_PTS = [complex(0.5, -2.0), complex(0.5, 2.0)]


def _secant(kappa, bump=0.0):
    # 1/cos(κ(s − 0.5)), its poles on the real line off 0.5, falls like 2·e^{−κ|Im s|}
    # up and down both rules' tails; the bump adds bump·e^{−(|Im s| − 9)²} on Re s = 0.5
    def f(cs, hs, W):
        s = panel_nodes(cs[:, None], hs[:, None]) - 0.5
        return (1.0 / np.cos(kappa * s) + bump * (np.exp((s - 9j) ** 2) + np.exp((s + 9j) ** 2))) @ W.T

    return f


def _recorded_panels(monkeypatch):
    """→ (summed, laid_out): summed() lists the (a, b, value, error) of each panel the walk
    summed, in the walk's order (the polyline's, then each tail's whole, in the order the tails
    ended, the upper first when both end in one call), and laid_out maps each tail's anchor to the
    (a, b) of every panel it laid out, the ones evaluated ahead of its stop included."""
    line, tails, laid_out = [], {}, {}
    walk, Tail = quadrature.polyline_walk, quadrature._Tail

    def walk_rec(bisect, pts, omega, tol):
        def rec(panels):
            for (a, b, _, _), (val, err) in zip(panels, bisect(panels)):
                line.append((a, b, val, err))
                yield val, err

        return walk(rec, pts, omega, tol)

    class Recorded(Tail):
        def block(self):
            block = Tail.block(self)
            laid_out.setdefault(self.anchor, []).extend((a, b) for _, (a, b, _, _) in block)
            return block

        def take(self, block, results):
            done = len(self.errors)
            try:
                return Tail.take(self, block, results)
            finally:  # the panels this block summed; the tails in the order of their last blocks
                summed = [(a, b, val, err) for (_, (a, b, _, _)), (val, err) in zip(block, results)]
                tails[self] = tails.pop(self, []) + summed[: len(self.errors) - done]

    monkeypatch.setattr(quadrature, "polyline_walk", walk_rec)
    monkeypatch.setattr(quadrature, "_Tail", Recorded)
    return (lambda: line + [p for panels in tails.values() for p in panels]), laid_out


@pytest.mark.parametrize("rule", [BENT_RAYS, VERTICAL_LADDER], ids=["bent", "ladder"])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_a_tail_that_never_decays_gives_up_past_its_length(monkeypatch, rule, side):
    decays = _secant(1.0)

    def f(cs, hs, W):  # 1 on the failing side's panels, a decaying secant on the other's
        failing = (cs.imag > 0) == (side == "upper")
        out = np.empty((len(cs), 2), dtype=complex)
        out[failing] = W @ np.ones(21)
        out[~failing] = decays(cs[~failing], hs[~failing], W)
        return out

    summed, laid_out = _recorded_panels(monkeypatch)
    with pytest.raises(ToleranceNotMet, match=f"{side} {rule.name} tail not converged"):
        contour_integral(f, 1, _WALK_PTS, lambda t: 7.0, rule, 1e-6)
    a, b, _, _ = summed()[-1]
    anchor = _WALK_PTS[-1] if side == "upper" else _WALK_PTS[0]
    assert abs(a - anchor) <= rule.max_length < abs(b - anchor)
    assert laid_out[anchor][-1] == (a, b)  # nothing is laid out past the give-up


# the ladder's run of three binds at κ = 1, tol 1e-6; its 10-unit floor at κ = 2, tol 0.1; and
# there a bump on the panel from 8 to 10 breaks the run, which starts again after it
@pytest.mark.parametrize(
    "rule,kappa,bump,tol,floor_binds",
    [(BENT_RAYS, 1.0, 0.0, 1e-6, False), (BENT_RAYS, 1.0, 0.0, 1e-3, False),
     (VERTICAL_LADDER, 1.0, 0.0, 1e-6, False), (VERTICAL_LADDER, 2.0, 0.0, 0.1, True),
     (VERTICAL_LADDER, 2.0, 0.05, 0.1, False)],
    ids=["bent-1e-6", "bent-1e-3", "ladder-run", "ladder-floor", "ladder-broken-run"],
)
def test_a_decaying_tail_stops_where_its_rule_says(monkeypatch, rule, kappa, bump, tol, floor_binds):
    summed, laid_out = _recorded_panels(monkeypatch)
    values, achieved, tail_panels = contour_integral(_secant(kappa, bump), 1, _WALK_PTS, lambda t: 7.0, rule, tol)
    panels = summed()
    walked = len(panels) - tail_panels
    upper = next(i for i, (a, *_) in enumerate(panels) if a == _WALK_PTS[-1])
    lower = next(i for i, (a, *_) in enumerate(panels) if i > upper and a == _WALK_PTS[0])
    assert upper == walked
    cut = 2 * math.pi * tol / rule.cut  # a panel is small when 2·|value| < cut
    bound = 0.0
    for tail, direction in ((panels[upper:lower], rule.direction), (panels[lower:], rule.direction.conjugate())):
        # the panels summed lead those laid out, which run at most one block past the stop
        ahead = laid_out[tail[0][0]]
        assert ahead[: len(tail)] == [(a, b) for a, b, _, _ in tail]
        assert len(ahead) < len(tail) + quadrature._TAIL_BLOCK
        assert [(b - a) / abs(b - a) for a, b, _, _ in tail] == pytest.approx([direction] * len(tail))
        mags = [abs(complex(val)) for _, _, val, _ in tail]
        small = [2.0 * m < cut for m in mags]
        length = np.cumsum([abs(b - a) for a, b, _, _ in tail])
        runs = [i for i in range(rule.run - 1, len(tail)) if all(small[i + 1 - rule.run : i + 1])]
        stops = [i for i in runs if length[i] >= rule.min_length]
        assert stops[0] == len(tail) - 1 > 0  # past a large panel, to the first stop
        assert (runs[0] < stops[0]) == floor_binds
        if rule is BENT_RAYS:  # the first small panel, after steps 1, 1, 1, 1, 2, 2, 4, 4, …
            assert small[-1] and not any(small[:-1])
            steps = [1, 1, 1, 1, 2, 2, 4, 4, 8, 8, 16, 16]
            assert [abs(b - a) for a, b, _, _ in tail] == pytest.approx(steps[: len(tail)])
        else:  # three small in a row, at least 10 past the start
            assert all(small[-3:]) and length[-1] >= 10.0
            assert (small[:4] == [False, True, True, False]) == (bump > 0)
        bound += rule.factor * max(mags[-rule.run:])
    errs = sum(err for *_, err in panels)  # in the walk's order, as the walk sums them
    assert bound > errs
    assert achieved == (errs + bound) / (2 * math.pi)
    line = sum(val for _, _, val, _ in panels[:walked])
    up, down = (sum(val for _, _, val, _ in t) for t in (panels[upper:lower], panels[lower:]))
    assert abs(values - (line + up - down) / (2j * math.pi)) < 1e-15


# ---- the breadth-first levels inside the library's walks ------------------------


def _recorded_bisections(monkeypatch):
    """Each Bisection the library makes, as [integrand, [(starting panels, results, panels evaluated)], calls]."""
    made, Bisection_ = [], quadrature.Bisection

    class Recorded(Bisection_):
        def __init__(self, f, width):
            record = [f, [], 0]
            made.append(record)

            def seen(cs, hs, W):
                record[2] += 1
                record[1][-1][2].extend(zip(cs.tolist(), hs.tolist()))
                return f(cs, hs, W)

            super().__init__(seen, width)
            self.record = record

        def __call__(self, panels):
            self.record[1].append((panels, [], []))
            for val, err in Bisection_.__call__(self, panels):
                self.record[1][-1][1].append((val, err))
                yield val, err

    monkeypatch.setattr(quadrature, "Bisection", Recorded)
    return made


def _depth_first(f, panels):
    """The recursive rule on each starting panel, f one panel a call: → (results, panels evaluated, levels)."""
    one = lambda c, h: f(np.array([c]), np.array([h]), _GK_W)[0]
    results, seen, levels = [], [], 0
    for a, b, tol, depth in panels:
        mine = []
        results.append(_gk_refine(one, a, b, tol, depth - 1, contract=lambda v: v, panels=mine))
        levels = max(levels, 1 + max(round(math.log2(abs(b - a) / (2 * abs(h)))) for _, h in mine))
        seen += mine
    return results, seen, levels


def _check_against_depth_first(made):
    for f, calls, _ in made:
        for panels, out, seen in calls:
            ref, ref_seen, _ = _depth_first(f, panels)
            _same_tree(seen, ref_seen)
            for (val, err), (ref_val, ref_err) in zip(out, ref):
                scale = float(np.max(np.abs(ref_val))) + ref_err
                assert np.max(np.abs(val - ref_val)) <= 1e-13 * scale and abs(err - ref_err) <= 1e-13 * scale


_SIGNED_40 = np.linspace(1.0, 3.9, 40) * np.where(np.arange(40) % 3, 1.0, -1.0)


def test_bessel_batch_bisects_as_the_recursive_rule(monkeypatch):
    made = _recorded_bisections(monkeypatch)
    bessel.bessel_real_batch(DS11, _SIGNED_40, 1e-10)
    assert len(made) == 1  # one magnitude group, one parity: one walk
    _check_against_depth_first(made)


def test_mellin_route_bisects_as_the_recursive_rule(monkeypatch):
    made = _recorded_bisections(monkeypatch)
    hankel.hankel_mellin_batch(DS11, hankel.make_bump(1.0, 2.0), [0.3, -2.0, 40.0], 1e-9)
    assert len(made) == 4  # the inner transform's validation, then the magnitude groups {0.3, 2} and {40}
    _check_against_depth_first(made)


def test_signed_mellin_bisects_as_the_recursive_rule(monkeypatch):
    made = _recorded_bisections(monkeypatch)
    for z in (0.0, 0.4 - 1.3j, 2.0 + 30.0j):
        hankel.signed_mellin(hankel.make_bump(1.0, 2.0), 0, z)
    assert len(made) == 3
    _check_against_depth_first(made)


def test_a_convolution_batch_is_one_bisection_per_group_and_sign(monkeypatch):
    # one Bisection per (magnitude group, sign of x), started on the kernel's lattice panels
    # [j·h, (j+1)·h] under those points' supports, each with an equal share of the t-tolerance
    # and depth 12; w is read inside those integrands only, apart from the |w|-mass's 479 points
    bump, inside, calls = hankel.make_bump(1.0, 40.0), [], []

    def profile(x):
        calls.append((bool(inside), np.shape(x)))
        return bump.pos(x)

    w = hankel.TestFunction(1.0, 40.0, profile, lambda x: 0.5 * profile(x))
    xs = np.array([0.3, -0.5, 0.9, -1.1, 4.0, -6.0, 12.0, -13.0, 15.0])  # groups |x| ≤ 1.1 and 4 ≤ |x| ≤ 15
    tol, cache = 1e-8, hankel.KernelCache()
    hankel.hankel_convolution_batch(DS11, w, xs, tol, cache)  # fills the cache: the next batch builds no model
    cache.panel_counts()
    made, Recorded = _recorded_bisections(monkeypatch), quadrature.Bisection

    class Flagged(Recorded):
        def __init__(self, f, width):
            def flagged(cs, hs, W):
                inside.append(True)
                try:
                    return f(cs, hs, W)
                finally:
                    inside.pop()

            super().__init__(flagged, width)

    monkeypatch.setattr(quadrature, "Bisection", Flagged)
    calls.clear()
    vals, errs = hankel.hankel_convolution_batch(DS11, w, xs, tol, cache)
    assert cache.panel_counts()["built"] == 0
    quad_tol = 0.5 * tol / math.sqrt(15.0)
    h = hankel._PANEL_WIDTH / 2
    rows = [[0, 2], [1, 3], [4, 6, 8], [5, 7]]  # (group, sign) in order, each ascending in |x|
    assert len(made) == len(rows)
    for (_, ((panels, out, _),), _), r in zip(made, rows):
        ax = np.abs(xs[r])
        j = range(int(math.sqrt(ax[0]) // h), math.ceil(math.sqrt(40.0 * ax[-1]) / h))
        assert [(a, b, depth) for a, b, _, depth in panels] == [(k * h, (k + 1) * h, 12) for k in j]
        assert {t for _, _, t, _ in panels} == {quad_tol / len(j)}
        total, err = sum(v for v, _ in out), sum(e for _, e in out)
        assert np.allclose(vals[r], total * np.sqrt(ax), rtol=1e-14, atol=0.0)
        assert np.all(errs[r] > err * np.sqrt(ax))
    assert any(flag for flag, _ in calls)
    assert {shape for flag, shape in calls if not flag} == {(479,)}
    _check_against_depth_first(made)


def test_a_bessel_walk_calls_log_gamma_once_a_level(monkeypatch):
    # one log_mb_gamma call per level of each run: the polyline in runs of the span its batch's
    # width allows, and each pair of tail blocks.  On exactly the nodes of the panels the
    # recursive rule evaluates, those laid out ahead of a tail's stop included
    sizes, log_mb_gamma = [], bessel.log_mb_gamma
    monkeypatch.setattr(bessel, "log_mb_gamma", lambda *a: sizes.append(np.size(a[2])) or log_mb_gamma(*a))
    made = _recorded_bisections(monkeypatch)
    bessel.bessel_real_batch(DS11, _SIGNED_40, 1e-10)
    ((f, calls, f_calls),) = made
    nodes, sizes[:] = list(sizes), []
    (line, _, _), *tails = calls
    span = quadrature._CALL_ENTRIES // (2 * len(_SIGNED_40))
    runs = [line[i : i + span] for i in range(0, len(line), span)] + [panels for panels, _, _ in tails]
    walk = [_depth_first(f, panels) for panels in runs]
    panels = sum(len(seen) for _, seen, _ in walk)
    assert len(nodes) == f_calls == sum(levels for _, _, levels in walk) < panels
    assert sum(nodes) == 21 * panels


def test_a_bessel_walk_lays_its_panels_on_repeating_half_widths(monkeypatch):
    # the polyline's vertical panels on the ladder {2^k, 1.5·2^k}, each bent-ray step laid out
    # at least twice in a row with one exact half-width, and each round of the two tails' blocks
    # in one integrand call
    blocks, calls, Tail = [], [], quadrature._Tail
    integrand_call = bessel.ContourIntegrand.__call__

    class Recorded(Tail):
        def block(self):
            block = Tail.block(self)
            blocks.append((self.side, [(a, b) for _, (a, b, _, _) in block]))
            return block

    def recorded_call(self, cs, hs, W):
        calls.append(set(cs.tolist()))
        return integrand_call(self, cs, hs, W)

    made = _recorded_bisections(monkeypatch)
    monkeypatch.setattr(quadrature, "_Tail", Recorded)
    monkeypatch.setattr(bessel.ContourIntegrand, "__call__", recorded_call)
    bessel.bessel_real_batch(DS11, _SIGNED_40, 1e-10)
    ((_, ((line, _, _), *_), _),) = made  # one magnitude group, one parity: one walk
    # DS11's polyline is one vertical piece, whose last panel ends at its vertex
    assert all(a.real == b.real for a, b, _, _ in line)
    steps = [(b - a).imag for a, b, _, _ in line[:-1]]
    assert len(steps) > 10 and all(math.frexp(step)[0] in (0.5, 0.75) for step in steps)
    upper = [panels for side, panels in blocks if side == "upper"]
    lower = [panels for side, panels in blocks if side == "lower"]
    assert len(upper) == len(lower) > 3  # this batch's tails are mirror images: they stop together
    for panels in upper + lower:
        assert len(panels) >= 2 and len({b - a for a, b in panels}) == 1
    for up, down in zip(upper, lower):  # the first level of a round: both blocks' panels in one call
        centres = {0.5 * (a + b) for a, b in up + down}
        assert any(centres <= call for call in calls)
