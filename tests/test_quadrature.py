import math

import mpmath
import numpy as np
import pytest

from vorokit import quadrature
from vorokit.quadrature import (
    _GK_W,
    _GK_WG,
    _GK_WK,
    _GK_X,
    BENT_RAYS,
    VERTICAL_LADDER,
    ToleranceNotMet,
    adaptive_segment,
    contour_integral,
    gauss_nodes,
    gauss_panels,
    magnitude_groups,
    panel_nodes,
    phase_step,
    polyline_walk,
)


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
    # G10/K21 bisection of the node values f(c, h) that stops at panels of length
    # (b - a)/2^(max_depth+1); ``panels`` collects every panel's centre
    finest = max_depth + 1

    def refine(pa, pb, ptol, level):
        c, h = 0.5 * (pa + pb), 0.5 * (pb - pa)
        if panels is not None:
            panels.append(c)
        k, g = h * np.asarray(contract(f(c, h)))
        err = float(np.max(np.abs(k - g)))
        if err <= ptol or level == finest:
            return k, err
        lv, le = refine(pa, c, 0.6 * ptol, level + 1)
        rv, re_ = refine(c, pb, 0.6 * ptol, level + 1)
        return lv + rv, le + re_

    return refine(a, b, tol, 0)


def _weighted(f):
    """The panel integrand (c, h, W) ↦ W @ f(c, h) of the node values f(c, h)."""
    return lambda c, h, W: W @ f(c, h)


def _old_te_rule(te, deg):
    # the t-panels hankel_convolution_batch built by hand
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
        got = adaptive_segment(_weighted(f), complex(a), complex(b), tol, max_depth=depth)
        ref = _gk_refine(f, complex(a), complex(b), tol, depth)
        assert got[0] == ref[0] and got[1] == ref[1]


_BATCH_LAM = np.array([0.4, -1.1 + 2.0j, 3.0j, 7.5])


def _batch_exp(c, h):
    return np.exp(np.outer(panel_nodes(c, h), _BATCH_LAM))


def _kink(c, h):
    return np.abs(panel_nodes(c, h) - 0.3)


def test_adaptive_segment_batched_matches_module_bisection():
    for a, b in ((0.5 - 3j, 0.5 + 2j), (-1 + 1j, 2.5 + 4j)):
        val, err = adaptive_segment(_weighted(_batch_exp), a, b, 1e-11, max_depth=11)
        ref_val, ref_err = _gk_refine(_batch_exp, a, b, 1e-11, 11)
        assert np.array_equal(val, ref_val) and err == ref_err


def test_adaptive_segment_kink_exhausts_depth_at_the_finest_panel():
    lengths = []

    def f(c, h, W):
        lengths.append(2.0 * abs(h))  # the panel length
        return W @ _kink(c, h)

    for a, b, depth in ((0.0, 1.0, 6), (-1.7, 2.2, 9)):
        lengths.clear()
        val, err = adaptive_segment(f, complex(a), complex(b), 1e-15, max_depth=depth)
        assert err > 1e-15  # the kink is never resolved: the depth ran out
        assert min(lengths) == pytest.approx((b - a) / 2 ** (depth + 1), rel=1e-12)
        assert val.real == pytest.approx(0.5 * ((b - 0.3) ** 2 + (0.3 - a) ** 2), abs=1e-7)


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
    val, err = adaptive_segment(lambda c, h, W: panels.append(c) or W @ f(c, h), a, b, tol, max_depth=depth)
    ref_val, ref_err = _gk_refine(f, a, b, tol, depth, contract=_separate, panels=ref_panels)
    assert panels == ref_panels or not same_panels
    assert np.all(np.abs(val - ref_val) <= 1e-14 * np.abs(ref_val))
    # the estimates are sums of |K − G|, so they agree to the rounding of the values they difference
    assert abs(err - ref_err) <= 1e-14 * len(ref_panels) * float(np.max(np.abs(ref_val)))


# ---- the polyline walk ------------------------------------------------------


_EXP_LAM = np.array([0.5, -1.0 + 0.5j, 1.5j, -0.3 - 2.0j])
_EXP_PTS = [complex(0.5, -4.0), complex(-0.3, -1.0), complex(0.2, 1.5), complex(0.5, 4.0)]


def _exp_batch(c, h, W):
    return W @ np.exp(np.outer(panel_nodes(c, h), _EXP_LAM))


@pytest.mark.parametrize("omega", [lambda t: 1.0 + abs(t), lambda t: 0.5, lambda t: 200.0])
def test_polyline_walk_exponential_closed_form(omega):
    lam, pts = _EXP_LAM, _EXP_PTS
    tol = 1e-9
    val, err = polyline_walk(_exp_batch, pts, omega, tol)
    exact = (np.exp(lam * pts[-1]) - np.exp(lam * pts[0])) / lam
    assert val.shape == lam.shape
    assert np.max(np.abs(val - exact)) <= tol
    assert 0.0 <= err <= tol * 100


def test_polyline_walk_panels_follow_phase_step():
    calls = []

    def f(c, h, W):
        calls.append(c)
        s = panel_nodes(c, h)
        return W @ (s * s)  # integrated exactly by every panel: no bisection

    # step 14/7 = 2 on a length-10 segment: five panels, one rule call each
    polyline_walk(f, [0j, 10j], lambda t: 7.0, 1e-6)
    assert len(calls) == 5
    calls.clear()
    # step clamped to 3: panels 3, 3, 3, 1
    polyline_walk(f, [0j, 10j], lambda t: 1.0, 1e-6)
    assert len(calls) == 4
    assert phase_step(1e9) == 0.1 and phase_step(1e-9) == 3.0


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("omega", [lambda t: 1.0 + abs(t), lambda t: 0.5, lambda t: 200.0])
def test_polyline_walk_error_estimate_bounds_the_error(omega, tol):
    val, err = polyline_walk(_exp_batch, _EXP_PTS, omega, tol)
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
    def f(c, h, W):
        s = panel_nodes(c, h) - 0.5
        return W @ (1.0 / np.cos(kappa * s) + bump * (np.exp((s - 9j) ** 2) + np.exp((s + 9j) ** 2)))

    return f


def _recorded_panels(monkeypatch):
    """The (a, b, value, error) of each panel handed to adaptive_segment, appended in order."""
    panels, segment = [], quadrature.adaptive_segment

    def segment_rec(f, a, b, tol, max_depth=13):
        val, err = segment(f, a, b, tol, max_depth=max_depth)
        panels.append((a, b, val, err))
        return val, err

    monkeypatch.setattr(quadrature, "adaptive_segment", segment_rec)
    return panels


@pytest.mark.parametrize("rule", [BENT_RAYS, VERTICAL_LADDER], ids=["bent", "ladder"])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_a_tail_that_never_decays_gives_up_past_its_length(monkeypatch, rule, side):
    decays = _secant(1.0)

    def f(c, h, W):  # 1 on the failing side's panels, a decaying secant on the other's
        return W @ np.ones(21) if (c.imag > 0) == (side == "upper") else decays(c, h, W)

    panels = _recorded_panels(monkeypatch)
    with pytest.raises(ToleranceNotMet, match=f"{side} {rule.name} tail not converged"):
        contour_integral(f, _WALK_PTS, lambda t: 7.0, rule, 1e-6)
    a, b, _, _ = panels[-1]
    anchor = _WALK_PTS[-1] if side == "upper" else _WALK_PTS[0]
    assert abs(a - anchor) <= rule.max_length < abs(b - anchor)


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
    panels = _recorded_panels(monkeypatch)
    values, achieved, tail_panels = contour_integral(_secant(kappa, bump), _WALK_PTS, lambda t: 7.0, rule, tol)
    walked = len(panels) - tail_panels
    upper = next(i for i, (a, *_) in enumerate(panels) if a == _WALK_PTS[-1])
    lower = next(i for i, (a, *_) in enumerate(panels) if i > upper and a == _WALK_PTS[0])
    assert upper == walked
    cut = 2 * math.pi * tol / rule.cut  # a panel is small when 2·|value| < cut
    bound = 0.0
    for tail, direction in ((panels[upper:lower], rule.direction), (panels[lower:], rule.direction.conjugate())):
        assert [(b - a) / abs(b - a) for a, b, _, _ in tail] == pytest.approx([direction] * len(tail))
        mags = [abs(complex(val)) for _, _, val, _ in tail]
        small = [2.0 * m < cut for m in mags]
        length = np.cumsum([abs(b - a) for a, b, _, _ in tail])
        runs = [i for i in range(rule.run - 1, len(tail)) if all(small[i + 1 - rule.run : i + 1])]
        stops = [i for i in runs if length[i] >= rule.min_length]
        assert stops[0] == len(tail) - 1 > 0  # past a large panel, to the first stop
        assert (runs[0] < stops[0]) == floor_binds
        if rule is BENT_RAYS:  # the first small panel, after steps 1, 1.35, 1.35², …
            assert small[-1] and not any(small[:-1])
            assert [abs(b - a) for a, b, _, _ in tail[:3]] == pytest.approx([1.0, 1.35, 1.35**2])
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
