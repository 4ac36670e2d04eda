"""Test functions, signed Mellin transforms, and the dual function w̃.

For w ∈ C_c^∞(ℝ^×) the dual function is computed by two deliberately
independent routes, each reading the rank n from the place (``params.rank``):

* **mellin** — inverse Mellin integral of γ(1−s, π×sgn^δ, ψ)·M_δ[w](1−s−ν),
  ν = (n−1)/2, along the admissible contour of :mod:`vorokit.contours`,
  folded by ``bessel.parity_batch``, its panels factored by
  ``bessel.ContourIntegrand`` as the Bessel batch's are.  The transform
  M_δ[w] of a compactly supported w is entire and decays
  super-polynomially on vertical lines, so the tails stay vertical
  (``quadrature.VERTICAL_LADDER``; :mod:`vorokit.quadrature` describes the
  walk and its tail rules).  The factor γ·M_δ[w] does not depend on x, and
  on a panel with centre c and half-width h the x-power at the node
  s = c + h·ξ_l splits as x^{ν−s} = e^{(ν−c)·log|x|}·e^{−h·ξ_l·log|x|}: one
  exponential per point per panel, times a table E_h that depends on the
  panel only through h (the first factor also takes γ's centre value, so
  none overflows).  M_δ[w] at the panel's nodes is one composite rule in
  v = log x whose panel count p, sized off the panel's largest |Im z|, is
  rounded up onto the tail steps' ladder {2^k, 1.5·2^k}.  A batch keeps one
  grid per (δ, rung), and the kernel e^{v·z} at the nodes factors into
  e^{c_i·z0}·e^{η_j·z0} times two phase tables of h, so a panel whose h
  repeats costs p + 20 exponentials, not 21·p.

* **convolution** — w̃(x) = |x|^{(n−1)/2} ∫ 𝔟(xt) w(t) |t|^{(3−n)/2} d×t
  against the Bessel function 𝔟 of :mod:`vorokit.bessel`, with 𝔟 replaced by
  a validated piecewise-Chebyshev model in the variable u = arg^{1/n}.  A job
  keeps one model per (params, sign with 𝔟 ≢ 0) in a :class:`KernelCache`:
  one per ``voronoi.DualWalk`` (one per ``rhs_theta`` call, one per
  ``DualGrid``), a private one for a lone batch.  The walk records, next to
  the tolerance each window's batch met, the panels it built and reused.  A
  model's panels sit on a fixed lattice, panel j = [j·h, (j+1)·h] with
  h = 1.1/n, so every α-window or octave of the job asks for panels the
  earlier ones may already hold, and builds only the rest, in one Bessel
  batch, checked off-node at the golden-section point of every 4th new
  panel.  The windows' tolerances differ, so a panel is served by the error
  it was certified to, not by the tolerance it was asked for: max(3 × its
  node batch's achieved error, the probe error of the chunk it was built
  in).  A panel certified within the request's tolerance is reused and any
  other one is rebuilt, which is the guarantee a fresh build at that
  tolerance gives.  The t-integral is taken in the model's own variable:
  t = u^n/|x| turns it into
  |x|^{(n−3)/2}·∫ 𝔟(±u^n)·w(±u^n/|x|)·n·u^{(n−1)(2−n)/2} du, one
  ``quadrature.Bisection`` per magnitude group (ratio 4) and sign of x.  Its
  starting panels are the lattice panels under those points' supports, each
  with an equal share of quad_tol = tol/(2·max(1, max|x|^ν)) and depth 12, so
  every bisected panel lies inside one lattice panel.  A call reads the model
  (`_KernelModel.at`) at its panels' 21 nodes, contracts W with it and the
  u-factor into a real (P × 4 × 21) array, [Re | Im] of the K and G rows,
  and multiplies that into the real w-values (P × 21 × rows) of the points
  whose support meets the panels, in blocks of at most ``_BLOCK`` entries.
  A point's bar is (Σ|K − G| over its bisection's panels + cw·model_tol)·|x|^ν,
  cw the |w|-mass against the t-power; the batch raises ``ToleranceNotMet``
  when that sum exceeds quad_tol.  The |t|-exponent (3−n)/2 is the
  calibration-resolved reading; the route-agreement test (A5) would fail
  loudly under the opposite convention.  The functional-equation check
  would not: it samples w̃ by the mellin route only and never calls this
  one.

The two routes share the generic panel integrator of :mod:`vorokit.quadrature`,
the panel factoring of ``bessel.ContourIntegrand`` (the mellin route
directly, the convolution route through the Bessel kernels) and the γ-factor.  What stays independent is the integrands — γ·M_δ[w]
on the mellin side, the Bessel convolution on the other — and the external
oracles that pin the shared engine from outside: the GL1 plane wave (A2), the
classical J₁₁ test, the n = 1 Fourier oracle and the :func:`signed_mellin`
golden value.  Route agreement, those oracles, and the vanishing of the local
functional-equation residual computed by :func:`local_fe_residual` are
enforced in the test suite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebvander

from .archimedean import (
    CharTwist,
    RealPlaceParams,
    gamma_factor,
    log_mb_gamma,
)
from . import quadrature
from .bessel import ContourIntegrand, bessel_real_batch, parity_batch
from .contours import build_contour, pole_starts
from .quadrature import (
    VERTICAL_LADDER,
    ToleranceNotMet,
    contour_integral,
    gauss_nodes,
    gauss_panels,
    key_groups,
    magnitude_groups,
    panel_nodes,
    tail_grid_ceil,
)

__all__ = [
    "BadSupport",
    "TestFunction",
    "make_bump",
    "signed_mellin",
    "hankel_mellin_batch",
    "hankel_convolution_batch",
    "KernelCache",
    "local_fe_residual",
]


class BadSupport(ValueError):
    """Support must satisfy 0 < a < b < ∞."""


@dataclass(frozen=True)
class TestFunction:
    """Smooth test function on ℝ^×, supported in {a < |x| < b}.

    ``pos`` is the profile on the positive axis; ``neg``, if given, is the
    profile of x ↦ f(−x) on the same interval, so f lives on both components
    of ℝ^×.  Profiles must accept numpy arrays.  A call is the one place a
    profile is read: it hands the profile only points strictly inside (a, b)
    and gives 0 elsewhere, so a profile need not be defined off (a, b).  A
    call returns an array of the input's shape, 0-d for a scalar.
    """

    a: float
    b: float
    pos: Callable
    neg: Callable | None = None

    def __call__(self, x):
        # off its component a profile is evaluated at the support's midpoint and discarded: no scatter
        ax = np.asarray(x, dtype=float)
        mid = 0.5 * (self.a + self.b)
        m = (ax > self.a) & (ax < self.b)
        out = np.where(m, self.pos(np.where(m, ax, mid)), 0.0)
        if self.neg is not None:
            mn = (-ax > self.a) & (-ax < self.b)
            out = np.where(mn, self.neg(np.where(mn, -ax, mid)), out)
        return out


def make_bump(a: float, b: float) -> TestFunction:
    """The bump exp(−1/(1−u²)), u = (2x−a−b)/(b−a), supported in (a,b) ⊂ (0,∞).

    Its profile is the product form exp(−(b−a)²/(4(x−a)(b−x))), the same
    function since 1 − u² = 4(x−a)(b−x)/(b−a)².  A profile is read only
    strictly inside (a, b), where x − a and b − x are exactly positive, so
    it needs no mask.  Near the edges it is also the more accurate form, as
    nothing cancels: at x = 1.03 on bump(1, 40) it is 2.6e-14 off in
    relative terms, where exp(−1/(1−u²)) is 1.4e-11 off.
    """
    if not 0 < a < b < math.inf:
        raise BadSupport(f"need 0 < a < b < ∞, got ({a}, {b})")
    a, b = float(a), float(b)
    c = (0.5 * (b - a)) ** 2  # 1 − u² = (x−a)(b−x)/c
    return TestFunction(a, b, lambda x: np.exp(-c / ((x - a) * (b - x))))


# ---- signed Mellin transforms ----------------------------------------------


def _component_vals(f: TestFunction, delta: int, x: np.ndarray) -> np.ndarray:
    # f_δ(x) = f(x) + (−1)^δ f(−x) on x > 0
    vals = f(x)
    if f.neg is not None:
        vals = vals + (-1.0) ** delta * f(-x)
    return vals


def signed_mellin(f: TestFunction, delta: int, z: complex, tol: float = 1e-12) -> complex:
    """M_δ[f](z) = ∫_{ℝ^×} f(x) sgn(x)^δ |x|^z d×x, |error| ≤ tol."""
    if delta not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    z = complex(z)

    def integrand(cs, hs, W):
        x = panel_nodes(cs[:, None], hs[:, None]).real
        vals = _component_vals(f, delta, x) * np.exp((z - 1.0) * np.log(x))
        return (W @ vals[:, :, None])[:, :, 0]  # W @ each panel's values, as a lone panel's sum

    ((val, err),) = quadrature.Bisection(integrand, 1)([(complex(f.a), complex(f.b), tol, 14)])
    if err > tol:
        raise ToleranceNotMet(tol, err, "signed Mellin transform")
    return complex(val)


_MDEG = 20


def _mellin_base(tol: float) -> int:
    # the bump is flat at its endpoints (C^∞, not analytic), so the
    # composite rule converges super-algebraically, not geometrically: the
    # base resolution has to track the target accuracy.  Measured worst-case
    # absolute error at Im z = 0 on [1, 40]: 4e-9 (base 12), 6e-10 (16),
    # 6e-11 (20), 6e-12 (24) — about a digit per four panels.
    if tol >= 1e-6:
        return 12
    return 12 + 4 * min(8, int(round(math.log10(1e-6 / tol))))


def _panel_rung(p: int) -> int:
    """The smallest of {2^k, 1.5·2^k} that is ≥ ``p`` (p ≥ 1)."""
    e = (p - 1).bit_length()  # 2^(e−1) < p ≤ 2^e
    return 3 << (e - 2) if e >= 2 and p <= 3 << (e - 2) else 1 << e


class _MellinGrids:
    """The composite rule's grids for M_δ[w], one per (δ, rung), for one batch.

    The rule on p panels is p equal panels of ``_MDEG`` Gauss nodes in
    v = log x on [log a, log b]: nodes v = cᵢ + ηⱼ, cᵢ the panel centres and
    ηⱼ = half·xⱼ the offsets, weighted by fw = half·wtⱼ·f_δ(e^v).  p only
    takes rungs of the ladder {2^k, 1.5·2^k}, so a batch builds a few grids
    and keeps them all.  The grid asked for last also keeps the memo of its
    tables exp(−h·ξ ⊗ (c | η)) from ``quadrature.phase_tables``, so panels of
    a repeated half-width h on one rung reuse them; asking for another grid
    lets that memo go, and a grid asked for again starts a new one.
    """

    def __init__(self, w: TestFunction, base: int):
        self.w, self.base = w, base
        self.va, self.vb = math.log(w.a), math.log(w.b)
        self._grids: dict = {}  # (δ, p) → (fw, centres, offsets)
        self._memo = None  # ((δ, p), table memo) of the grid asked for last
        self._dropped: list = []  # cache_info() of each table memo let go

    def grid(self, delta: int, p: int):
        """(fw, centres, offsets, table memo) of the p-panel rule for parity δ."""
        if (delta, p) not in self._grids:
            gx, gwts = gauss_nodes(_MDEG)
            edges = np.linspace(self.va, self.vb, p + 1)
            half = 0.5 * (edges[1] - edges[0])
            centres, offsets = 0.5 * (edges[:-1] + edges[1:]), half * gx
            fw = half * gwts * _component_vals(self.w, delta, np.exp(centres[:, None] + offsets[None, :]))
            self._grids[(delta, p)] = (fw, centres, offsets)
        fw, centres, offsets = self._grids[(delta, p)]
        if self._memo is None or self._memo[0] != (delta, p):
            if self._memo is not None:
                self._dropped.append(self._memo[1].cache_info())
            # looked up on quadrature, so a wrapper of bessel.phase_tables counts the x-phase alone
            self._memo = ((delta, p), quadrature.phase_tables(np.concatenate([centres, offsets])))
        return fw, centres, offsets, self._memo[1]

    def counts(self) -> dict:
        """Grids built, and phase tables built and reused."""
        memos = self._dropped + ([self._memo[1].cache_info()] if self._memo is not None else [])
        return {
            "grids_built": len(self._grids),
            "tables_built": sum(m.misses for m in memos),
            "tables_reused": sum(m.hits for m in memos),
        }


def _mellin_nodes(grids: _MellinGrids, delta: int, z0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Composite M_δ[w] at the 21 K21 nodes z_l = z0 − h·ξ_l of each panel (z0, h).  → (P × 21)

    A panel's rule has p = base + 1.3·max|Im z_l|·log(b/a)/2π rounded up onto
    the ladder, so never fewer panels than that rule asks.  At a node
    v = cᵢ + ηⱼ of the rule the kernel factors as
    e^{v·z_l} = e^{cᵢ·z0}·e^{ηⱼ·z0}·E_h[l, i]·F_h[l, j], with the tables
    E_h = exp(−h·ξ ⊗ c) and F_h = exp(−h·ξ ⊗ η) of the grid's memo, so
    M(z_l) = Σᵢ e^{cᵢ·z0}·E_h[l, i]·Σⱼ fw[i, j]·e^{ηⱼ·z0}·F_h[l, j]: per panel one
    (21 × ``_MDEG``) @ (``_MDEG`` × p) product and 21·p multiplies, and the
    p + ``_MDEG`` exponentials in one call per rung for all its panels.  Panels
    go rung by rung and, within a rung, grouped by h, so the grid's memo serves
    each h once.  Nodes, weights and f-values are the ones the unfactored sum
    uses, so the quadrature rule is the same; only rounding differs.
    """
    maxim = np.max(np.abs(panel_nodes(z0[:, None], -h[:, None]).imag), axis=1)
    ps = [_panel_rung(grids.base + int(m)) for m in 1.3 * maxim * (grids.vb - grids.va) / (2.0 * math.pi)]
    out = np.empty((len(z0), 21), dtype=complex)
    for p, rung in key_groups(ps).items():
        fw, centres, offsets, tables = grids.grid(delta, p)
        e_off, e_c = np.exp(np.outer(z0[rung], offsets)), np.exp(np.outer(z0[rung], centres))
        for group in key_groups(h[rung].tolist()).values():
            for k in group:
                t = tables(h[rung[k]])
                out[rung[k]] = (t[:, :p] * (t[:, p:] @ (fw * e_off[k]).T)) @ e_c[k]
    return out


# ---- mellin route ----------------------------------------------------------

def _require_rank(params, n: int) -> None:
    if params.rank != n:
        raise ValueError(f"rank mismatch: params have rank {params.rank}, n={n}")


def _dual_vertical(params, delta, grids, nu, lx, tol, contour, counts):
    """One parity component I_δ along the contour, batched over log|x|.  → (values, achieved).

    One ``quadrature.contour_integral`` walk: the polyline up to h0, on the tail grid, then the
    vertical ladder, whose repeating half-widths the integrand's phase memo serves.  ``counts``
    accumulates the tail panels and the phase tables built and reused.
    """
    twist = CharTwist(delta)
    integrand = ContourIntegrand(
        lambda s: log_mb_gamma(params, twist, s), params.rank, lx, nu=nu,
        factor=lambda cs, hs: _mellin_nodes(grids, delta, 1.0 - nu - cs, hs),
        rate=max(abs(grids.va), abs(grids.vb)),  # M_δ[w](1−s−ν)'s own phase rate
    )
    pts = contour.polyline(tail_grid_ceil(contour.detour_height + 2.0))  # up to h0
    values, achieved, tail_panels = contour_integral(integrand, len(lx), pts, integrand.omega, VERTICAL_LADDER, tol)
    memo = integrand.phase.cache_info()
    counts.update(tail_panels=tail_panels, memo_built=memo.misses, memo_reused=memo.hits)
    return values, achieved


def _validate_inner_mellin(grids, delta):
    # the route's composite is checked once against the adaptive transform,
    # through the form the route integrates with: at the centre node of one
    # panel of real half-width 1/2 and at the first node of another, so
    # the phase tables' rows off the centre are read too
    for z0, node in ((complex(0.7, -13.7), 10), (complex(0.7, 21.3), 0)):
        zp = complex(panel_nodes(z0, -0.5)[node])
        ref = signed_mellin(grids.w, delta, zp, 1e-11)
        got = complex(_mellin_nodes(grids, delta, np.array([z0]), np.array([0.5]))[0, node])
        if abs(ref - got) > 1e-9:
            raise ToleranceNotMet(1e-9, abs(ref - got), "inner Mellin grid validation")


def _parities(params, w) -> tuple:
    """(0,) where I₁ = I₀ (γ ignores the parity and w lives on x > 0), else (0, 1)."""
    return (0, 1) if params.parity_dependent or w.neg is not None else (0,)


def hankel_mellin_batch(
    params: RealPlaceParams,
    w: TestFunction,
    xs,
    tol: float,
    counts: Counter | None = None,
):
    """Dual function on a signed batch by the mellin route.  → (values, errors).

    ``counts``, when given, accumulates the route's deterministic work:
    ``tail_panels`` (vertical tail panels before bisection),
    ``memo_built``/``memo_reused`` (x-phase tables made and served again) and
    the inner transform's memo, which lives for this call:
    ``grids_built`` (composite-rule grids, one per parity and rung) and
    ``tables_built``/``tables_reused`` (their phase tables).
    """
    counts = Counter() if counts is None else counts
    nu = 0.5 * (params.rank - 1)
    deltas = _parities(params, w)
    unvalidated = list(deltas)
    grids = _MellinGrids(w, _mellin_base(tol))
    # over ℝ the pole set ignores the twist, so one contour serves both parities
    contour = build_contour(params)

    def component(d, ax):
        while unvalidated:  # every parity's inner Mellin grid, once, before the first walk
            _validate_inner_mellin(grids, unvalidated.pop(0))
        return _dual_vertical(params, d, grids, nu, np.log(ax), tol, contour, counts)

    out = parity_batch(xs, 16.0, deltas, component)
    counts.update(grids.counts())
    return out


# ---- convolution route -----------------------------------------------------

_CHEB_DEG = 20
_PANEL_WIDTH = 1.1  # lattice step in u = arg^{1/n} is _PANEL_WIDTH / n
_BLOCK = 65536  # test-function values (panels × nodes × points) per product


@dataclass
class _KernelModel:
    """Piecewise-Chebyshev model of 𝔟(±arg) in u = arg^{1/n}.

    ``coeffs[i]`` holds the degree-``_CHEB_DEG`` Chebyshev coefficients on
    the lattice panel [(j0+i)·h, (j0+i+1)·h]; `at` is its one evaluation.
    """

    h: float
    j0: int
    coeffs: np.ndarray

    def at(self, u: np.ndarray) -> np.ndarray:
        """Model values at u (any shape), each read on the lattice panel that holds it."""
        t = u / self.h - self.j0
        i = np.clip(np.floor(t).astype(int), 0, len(self.coeffs) - 1)
        return np.einsum("...k,...k->...", chebvander(2.0 * (t - i) - 1.0, _CHEB_DEG), self.coeffs[i])


def _fit_panels(params, sign, js: np.ndarray, h: float, tol: float):
    """Chebyshev coefficients of lattice panels ``js`` from one node batch at tol/3.

    → (coefficients, 3 × each panel's worst achieved node error).
    """
    k = _CHEB_DEG + 1
    cheb_x = np.cos(np.pi * (2 * np.arange(k) + 1) / (2 * k))
    lo, hi = h * js, h * (js + 1)
    unodes = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * cheb_x[None, :]).ravel()
    vals, errs = bessel_real_batch(params, sign * unodes**params.rank, tol / 3.0)
    coeffs = chebfit(cheb_x, vals.reshape(len(js), k).T, _CHEB_DEG).T
    return coeffs, 3.0 * errs.reshape(len(js), k).max(axis=1)


class KernelCache:
    """The convolution route's kernel models for one job, panel by panel.

    The model of 𝔟(±arg) for (params, sign) lives on a fixed lattice in
    u = arg^{1/n}: panel j covers [j·h, (j+1)·h], h = 1.1/n.  Each panel keeps
    the error it was certified to when it was built: max(3 × its node batch's
    achieved error, the off-node probe error of the chunk it was built in).
    `model` serves a panel whose certified error is within the request's
    tolerance and builds every other panel it needs anew, so each request
    gets the guarantee a fresh build at its tolerance gives.  A chunk that
    fails validation leaves the cache as it was.
    """

    def __init__(self) -> None:
        self._panels: dict = {}  # (params, sign) → {j: (coefficients, certified error)}
        self._built = self._reused = 0

    def panel_counts(self) -> dict:
        """Panels built and reused since the last call (or since creation)."""
        out = {"built": self._built, "reused": self._reused}
        self._built = self._reused = 0
        return out

    def model(self, params, sign: int, lo: float, hi: float, tol: float) -> _KernelModel:
        """A model of 𝔟(sign·arg) on lo ≤ arg ≤ hi, accurate to ``tol``."""
        rank = params.rank
        ulo, uhi = lo ** (1.0 / rank), hi ** (1.0 / rank)
        h = _PANEL_WIDTH / rank
        j0 = int(ulo // h)
        js = np.arange(j0, max(j0 + 1, math.ceil(uhi / h)))
        panels = self._panels.setdefault((params, sign), {})
        stale = np.array([j for j in js if j not in panels or panels[j][1] > tol], dtype=int)
        fresh = {}
        if len(stale):
            new, node_err = _fit_panels(params, sign, stale, h, tol)
            fresh = dict(zip(stale.tolist(), new))
        coeffs = np.stack([fresh[j] if j in fresh else panels[j][0] for j in js.tolist()])
        model = _KernelModel(h, j0, coeffs)
        if fresh:
            # validate off-node: golden-section point of every 4th new panel
            probed = stale[::4]
            probe = h * (probed + 0.381966)
            direct, _ = bessel_real_batch(params, sign * probe**rank, tol / 3.0)
            errp = float(np.max(np.abs(model.at(probe) - direct)))
            if errp > tol:
                raise ToleranceNotMet(tol, errp, "kernel model validation")
            panels.update((j, (c, max(e, errp))) for (j, c), e in zip(fresh.items(), node_err))
        self._built += len(fresh)
        self._reused += len(js) - len(fresh)
        return model


def hankel_convolution_batch(
    params: RealPlaceParams,
    w: TestFunction,
    xs,
    tol: float,
    cache: KernelCache | None = None,
):
    """Dual function on a signed batch by the convolution route.  → (values, errors).

    Kernel models come from ``cache``; a job that makes many batches passes
    one cache to all of them, and a batch given none builds its own.
    """
    n = params.rank
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.zeros(0, dtype=complex), np.zeros(0)
    if np.any(xs == 0.0) or not np.all(np.isfinite(xs)):
        raise ValueError("x must be nonzero and finite")
    nu = 0.5 * (n - 1)
    tpow = 0.5 * (3.0 - n) - 1.0

    t_signs = (1, -1) if w.neg is not None else (1,)  # the signs of w's support
    # |w|-mass against the t-power: budgets the kernel-model error
    vm = np.linspace(w.a, w.b, 481)[1:-1]
    wabs = sum(np.abs(w(s_t * vm)) for s_t in t_signs)
    cw = float(np.trapezoid(wabs * vm**tpow, vm))
    if cw == 0.0:
        return np.zeros(len(xs), dtype=complex), np.zeros(len(xs))

    ax = np.abs(xs)
    denom = max(1.0, float(ax.max()) ** nu)
    model_tol = 0.5 * tol / (cw * denom)
    quad_tol = 0.5 * tol / denom
    # 𝔟(xt) at the signs of x times w's; where γ ignores the parity 𝔟 vanishes on x < 0
    kernel_signs = (1, -1) if params.parity_dependent else (1,)
    # the signs x takes, read without np.unique, which imports numpy.ma on first use
    need = {s_x * s_t for s_x in (1, -1) if (s_x * xs > 0).any() for s_t in t_signs}
    lo, hi = float(ax.min() * w.a), float(ax.max() * w.b)
    cache = KernelCache() if cache is None else cache
    models = {s: cache.model(params, s, lo, hi, model_tol) for s in kernel_signs if s in need}
    if not models:  # every kernel argument falls where 𝔟 vanishes
        return np.zeros(len(xs), dtype=complex), cw * model_tol * ax**nu
    h = next(iter(models.values())).h  # both signs' models hold the same lattice panels

    values, quad_err = np.zeros(len(xs), dtype=complex), np.zeros(len(xs))
    for gi in magnitude_groups(ax, 4.0):
        for s_x in (1, -1):
            rows = gi[np.sign(xs[gi]) == s_x]  # ascending in |x|
            terms = [(s_t, models[s_x * s_t]) for s_t in t_signs if s_x * s_t in models]
            if len(rows) == 0 or not terms:
                continue
            # the lattice panels under these rows' supports, inside the models' [lo, hi]
            j_lo = int((ax[rows[0]] * w.a) ** (1.0 / n) // h)
            j_hi = max(j_lo + 1, math.ceil((ax[rows[-1]] * w.b) ** (1.0 / n) / h))
            panels = [(j * h, (j + 1) * h, quad_tol / (j_hi - j_lo), 12) for j in range(j_lo, j_hi)]
            total, err = 0.0, 0.0
            for val, e in quadrature.Bisection(_t_integrand(terms, w, ax[rows], n), len(rows))(panels):
                total, err = total + val, err + e
            if err > quad_tol:
                raise ToleranceNotMet(tol, err * denom, "t-quadrature not converged")
            values[rows], quad_err[rows] = total, err
    return values * ax**nu, (quad_err + cw * model_tol) * ax**nu


def _t_integrand(terms, w: TestFunction, ax: np.ndarray, n: int):
    """The panel integrand in u of the t-integral at the points of magnitudes ``ax`` (ascending).  → (P × 2 × len(ax))

    ``terms`` pairs each sign s_t of w's support with the model of 𝔟 at the sign of x·s_t.  A point
    meets a panel when its support u^n ∈ (|x|·a, |x|·b) does; the others' columns stay 0.
    """
    upow, xfac = 0.5 * (n - 1) * (2 - n), ax ** (0.5 * (n - 3))
    reads = [(s_t / ax, model) for s_t, model in terms]  # w is read at u^n·(s_t/|x|)

    def f(cs, hs, W):
        u = panel_nodes(cs[:, None], hs[:, None])
        un = u**n
        kernels = []
        for recip, model in reads:
            wk = W * (model.at(u) * n * u**upow)[:, None, :]
            kernels.append((recip, np.concatenate([wk.real, wk.imag], axis=1)))
        first = np.searchsorted(ax, (cs - hs) ** n / w.b, side="right")  # the first row meeting each panel
        past = np.searchsorted(ax, (cs + hs) ** n / w.a)  # and past the last
        out = np.zeros((len(cs), 4, len(ax)))
        span = max(1, _BLOCK // (21 * max(1, int(np.max(past - first)))))  # panels a block
        for p0 in range(0, len(cs), span):
            p1 = min(len(cs), p0 + span)
            r0, r1 = int(first[p0:p1].min()), int(past[p0:p1].max())
            step = max(1, _BLOCK // (21 * (p1 - p0)))  # rows a block
            for k0 in range(r0, r1, step):
                k1 = min(r1, k0 + step)
                for recip, kw in kernels:
                    out[p0:p1, :, k0:k1] += kw[p0:p1] @ w(un[p0:p1, :, None] * recip[k0:k1])
        out *= xfac
        return out[:, :2] + 1j * out[:, 2:]

    return f


# ---- local functional equation ---------------------------------------------


def local_fe_residual(
    params: RealPlaceParams,
    n: int,
    w: TestFunction,
    s_samples,
    tol: float,
    y_max: float | None = None,
) -> dict:
    """Residuals of M_δ[w̃](s−ν) = γ(1−s, π×sgn^δ, ψ)·M_δ[w](1−s−ν), ν = (n−1)/2.

    w̃ is sampled by the mellin route on a log-spaced phase-adaptive grid and
    Mellin-integrated; the right side pairs :func:`signed_mellin` with the
    directly evaluated γ-factor, so the two sides share no quadrature.  Below
    the grid the dual is modelled by its leading power y^κ, κ read off the
    rightmost integrand pole, and integrated in closed form.  The grid starts
    at y_min = 1e-3 when κ + Re(s − ν) > 1/2 at every s and at 1e-8 otherwise; it
    ends at ``y_max`` (default 20·b for w supported in |x| < b), doubled at
    most three times until the dual's tail beyond it is negligible.  Returns a
    report dict with one entry per (s, parity) and the maximum relative
    residual.
    """
    _require_rank(params, n)
    nu = 0.5 * (n - 1)
    s_list = [complex(s) for s in s_samples]

    # right-hand sides first: γ-pole samples must surface before heavy work
    rhs = {}
    for d in (0, 1):
        for s in s_list:
            g = gamma_factor(params, CharTwist(d), 1.0 - s)
            rhs[(s, d)] = g * signed_mellin(w, d, 1.0 - s - nu, 1e-12)

    kappa = nu - max(st.real for st in pole_starts(params))
    re_z = [(s - nu).real for s in s_list]
    re_min, re_max = min(re_z), max(re_z)
    y_min = 1e-3 if kappa + re_min > 0.5 else 1e-8
    if y_max is None:
        y_max = 20.0 * w.b
    two_sided = _parities(params, w) == (0, 1)

    def build_panels(vlo, vhi):
        edges = [vlo]
        v = vlo
        while v < vhi:
            freq = (math.exp(v) * w.b) ** (1.0 / n)
            v = min(vhi, v + 1.3 / max(1.0, 1.2 * freq))
            edges.append(v)
        return gauss_panels(edges, 16)

    v_nodes, v_wts = build_panels(math.log(y_min), math.log(y_max))
    weight = max(float(np.sum(v_wts * np.exp(r * v_nodes))) for r in (re_min, re_max))
    gtol = tol * 0.05 / max(weight, 1.0)

    work = Counter()

    def evaluate(vn):
        # the parity components w̃(y) ± w̃(−y) on y = e^v, once per batch
        ys = np.exp(vn)
        pts = np.concatenate([ys, -ys]) if two_sided else ys
        vals, errs = hankel_mellin_batch(params, w, pts, gtol, counts=work)
        pos = vals[: len(ys)]
        neg = vals[len(ys) :] if two_sided else 0.0
        return np.stack([pos + neg, pos - neg]), float(np.max(errs))

    comps, grid_err = evaluate(np.concatenate([[math.log(y_min)], v_nodes]))
    head, comps = comps[:, 0], comps[:, 1:]

    # double y_max, at most three times, until the last panels of both
    # parity components are negligible for every sample
    for doublings in range(4):
        tail_nodes = v_nodes[-48:]
        tail = max(
            float(np.sum(v_wts[-48:] * np.abs(comp[-48:]) * np.exp(r * tail_nodes)))
            for r in (re_min, re_max)
            for comp in comps
        )
        if tail < tol * 0.02:
            break
        if doublings == 3:
            raise ToleranceNotMet(tol, tail, "dual tail not negligible at y_max")
        new_vhi = math.log(y_max) + math.log(2.0)
        vn_ext, wt_ext = build_panels(math.log(y_max), new_vhi)
        ext, ext_err = evaluate(vn_ext)
        grid_err = max(grid_err, ext_err)
        v_nodes = np.concatenate([v_nodes, vn_ext])
        v_wts = np.concatenate([v_wts, wt_ext])
        comps = np.concatenate([comps, ext], axis=1)
        y_max = math.exp(new_vhi)

    samples = []
    for s in s_list:
        z = s - nu
        for d in (0, 1):
            lhs = complex(np.sum(v_wts * comps[d] * np.exp(z * v_nodes)))
            lhs += complex(head[d]) * y_min**z / (z + kappa)
            r = rhs[(s, d)]
            rr = abs(lhs - r) / max(abs(lhs), abs(r), 1e-30)
            samples.append({"s": s, "parity": d, "lhs": lhs, "rhs": r, "rel_residual": rr})

    return {
        "samples": samples,
        "max_rel_residual": max(e["rel_residual"] for e in samples),
        "grid": {
            "y_min": y_min,
            "y_max": y_max,
            "points": int(len(v_nodes)),
            "tol": gtol,
            "achieved": grid_err,
            "tail_panels": work["tail_panels"],
            "phase_memo": {"built": work["memo_built"], "reused": work["memo_reused"]},
            "inner_memo": {k: work[k] for k in ("grids_built", "tables_built", "tables_reused")},
        },
        "dual_route": "mellin",
        "requested_tol": tol,
    }
