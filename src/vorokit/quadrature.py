"""Small shared quadrature helpers.

Everything here integrates vectorised complex-valued functions along
straight segments in the complex plane, a batch of B integrands at a time.
Error control is absolute; for a batch it is the max-norm across the batch.

:class:`Bisection` is the one adaptive panel integrator.  A panel's rule is
the Gauss–Kronrod pair G10/K21 (QUADPACK's qk21, Piessens et al. 1983): the
21-point Kronrod rule K and the 10-point Gauss rule G embedded in it share
its 21 nodes.  The integrand is handed panels and the weights, not nodes:
f(cs, hs, W) gets the centres and complex half-widths of P panels and W, the
K21 and G10 weight rows stacked (2 × 21).  For each panel it returns
W @ values, the values at the nodes c + h·ξ_l (ξ_l the ascending K21
abscissae on [−1, 1]) being ndarray[21] or ndarray[21, B]; so it returns
ndarray[P, 2] or ndarray[P, 2, B], the K and G sums before the factor h.
The integrator is built with that width B (1 for the first shape) and is
breadth-first: it evaluates a whole level of panels in one call, accepts
each panel whose raw difference |K − G| is within its tolerance and bisects
the rest into the next level, so per-call work that does not depend on the
batch is paid once a level, not once a panel.  The value kept is K.  |K − G|
estimates the error of G, the lower-order rule, so where f is smooth on the
panel it overstates the error of the K that is returned.  Across a kink both
rules err alike and |K − G| bounds neither.
An integrand that needs only the nodes forms them with :func:`panel_nodes`.
One whose x-power x^{−s} splits as e^{−c·log x}·e^{−h·ξ_l·log x} takes the
second factor E_h from :func:`phase_tables`, one table per repeated
half-width, and per panel contracts W with its x-free factor G first:
((W·G) @ E_h)·P gives the two rows per point and never forms the 21 × B node
table.  It stacks only its x-free work across the panels of a call; each
panel keeps its own (2 × 21) @ (21 × B) product.  Every product against a
phase table goes through :func:`table_matmul`, which keeps each BLAS call
within the sizes numpy's OpenBLAS runs on one thread (zgemm's m·n·k ≤ 65 536,
zgemv's m·n < 4 096), in column slices, or in stacked blocks that
:func:`table_block` sizes for a long contraction; past them a second thread
wakes and buys no wall time.  The Bessel batch and the Mellin route both do
so through one class, ``bessel.ContourIntegrand``.  Only this module names
the weight rows.

The contour integrals of :mod:`vorokit.bessel` and :mod:`vorokit.hankel` are
one walk, :func:`contour_integral`, with one :class:`Bisection` of its
integrand, built at the batch's width.  Every panel of a walk has a length on
the ladder {2^k, 1.5·2^k}, so half-widths repeat for the :func:`phase_tables`
memo.  :func:`polyline_walk` lays the polyline's panels out first, each the
largest rung within :func:`phase_step`, since their edges depend on the phase
rate alone, and hands them over as one starting level.  Then come the upper
tail from the last vertex along a :class:`TailRule`'s direction and the lower
from the first along the conjugate, each panel to tol_raw/200,
tol_raw = 2π·tol.  A tail's steps depend on the length walked and the phase
rate alone too, so each lays out up to ``_TAIL_BLOCK`` panels of one step at a
time; the live tails' blocks are bisected in one call, and each tail sums its
own in order up to its own stop; a panel laid out past the stop is neither
summed nor counted.  A tail
stops after ``run`` panels in a row with 2·|value| < tol_raw/``cut``, once it
is ``min_length`` long, adds ``factor`` × their largest |value| to the error
bound (a heuristic, not a computed bound) and gives up past ``max_length``.
The two rules differ only in that data.  :data:`BENT_RAYS` (the Bessel
batch) runs 45° past vertical, where γ·x^{−s} decays exponentially, in steps
2^max(0, ⌊log₂ max(u, 1)⌋ − 1) after a length u, 1, 1, 1, 1, 2, 2, 4, 4, 8, …,
each at least twice in a row, so a block holds two panels or more: run 1,
cut 10, factor 2, up to length 2000.  :data:`VERTICAL_LADDER` (the Mellin
route, whose M_δ[w] decays on vertical lines) runs along ±i, each step the
largest rung within :func:`phase_step`: run 3, cut 20, factor 5, at least 10
and up to 6000 long.  From :func:`tail_grid_ceil` a vertical piece's edges are
exact, and so are a bent ray's from an anchor short in binary, since the bend
is short too; there each step's half-width repeats exactly.
The convolution route's t-integral is a :class:`Bisection` too, started on
the kernel model's lattice panels, and so is a signed Mellin transform, on
the one panel of its support.  Fixed-resolution integrals over a real
partition (the v-grid of the local functional equation and the gap-wise GJ
pairings) take their nodes and weights from :func:`gauss_panels`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "gauss_nodes",
    "gauss_panels",
    "panel_nodes",
    "phase_tables",
    "table_matmul",
    "table_block",
    "Bisection",
    "phase_step",
    "polyline_walk",
    "tail_grid_ceil",
    "TailRule",
    "BENT_RAYS",
    "VERTICAL_LADDER",
    "contour_integral",
    "magnitude_groups",
    "key_groups",
    "ToleranceNotMet",
]


class ToleranceNotMet(ArithmeticError):
    """Quadrature could not certify the requested absolute tolerance."""

    def __init__(self, requested: float, achieved: float, where: str):
        self.requested = requested
        self.achieved = achieved
        super().__init__(f"requested abs tol {requested:g}, achieved estimate {achieved:g} ({where})")


# QUADPACK's qk21 table: the nonnegative abscissae of K21, largest first, and
# their Kronrod weights.  xgk[1], xgk[3], …, xgk[9] are the nodes of G10, with
# the Gauss weights wg; the other six nodes, 0 among them, are Kronrod-only.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208417400190,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _mirror(half, sign: float = 1.0):
    # the 21 values on [-1, 1] in ascending node order, from the 11 at x >= 0
    half = np.asarray(half, dtype=float)
    return np.concatenate([sign * half[:-1], half[-1:], half[-2::-1]])


_GK_X = _mirror(_XGK, -1.0)
_GK_WK = _mirror(_WGK)
_GK_WG = _mirror([0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3], 0.0, _WG[4], 0.0])
_GK_W = np.stack([_GK_WK, _GK_WG])  # the W handed to every panel integrand


@lru_cache(maxsize=8)
def gauss_nodes(deg: int):
    x, w = leggauss(deg)
    return x, w


def gauss_panels(edges, deg: int):
    """Nodes and weights of the composite deg-point rule on the panels
    edges[0]→edges[1]→…, panel after panel."""
    x, w = gauss_nodes(deg)
    e = np.asarray(edges, dtype=float)
    c, h = 0.5 * (e[:-1] + e[1:]), 0.5 * np.diff(e)
    return (c[:, None] + h[:, None] * x).ravel(), (h[:, None] * w).ravel()


def panel_nodes(c, h) -> np.ndarray:
    """The 21 G10/K21 nodes c + h·ξ_l of the panel with centre c, half-width h."""
    return c + h * _GK_X


_PHASE_MEMO = 2  # tables kept by a phase_tables memo; each is 21 × len(lx) complex


def phase_tables(lx: np.ndarray):
    """h ↦ E_h = exp(−h·ξ ⊗ lx) on the K21 nodes for a fixed ``lx``, the last ``_PHASE_MEMO``
    kept; ``cache_info()`` counts the tables built (misses) and reused (hits)."""
    return lru_cache(maxsize=_PHASE_MEMO)(lambda h: np.exp(-np.outer(panel_nodes(0.0, h), lx)))


# numpy's BLAS, scipy-openblas 0.3.31, runs a complex product on one thread up to these sizes and
# wakes a second thread past them, which buys the contour walks no wall time (measured on a 2-core
# host, one size per fresh process): zgemm's m·n·k of an (m × k) @ (k × n) product, and zgemv's
# m·n of an (m × n) matrix against a vector on either side
_ZGEMM_ONE_THREAD = 65_536
_ZGEMV_ONE_THREAD = 4_095


def table_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b against a phase table, stacked as ``np.matmul`` stacks, each BLAS product on one thread.

    numpy hands BLAS one product per stacked matrix: a matrix–vector zgemv when a's
    matrices have one row or b's one column, else a zgemm.  b's columns go in slices as wide as keep each
    product within its one-thread size; a contraction too long for one column raises
    ValueError (block it with :func:`table_block`).
    """
    m, k, n = (a.shape[-2] if a.ndim > 1 else 1), a.shape[-1], (b.shape[-1] if b.ndim > 1 else 1)
    width = (_ZGEMV_ONE_THREAD // k) if m == 1 else (_ZGEMM_ONE_THREAD // (m * k))
    if width < 1 or (n == 1 and m * k > _ZGEMV_ONE_THREAD):
        raise ValueError(f"a ({m} × {k}) contraction does not fit one BLAS thread")
    if n <= width:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + a.shape[-2:-1] + (n,), np.result_type(a, b))
    for j in range(0, n, width):
        np.matmul(a, b[..., j : j + width], out=out[..., j : j + width])
    return out


@lru_cache(maxsize=None)
def table_block(p: int, k: int, n: int) -> int:
    """The largest r | p for which (r × k) @ (k × n) and (1 × r) @ (r × n) each run on one BLAS thread.

    So a contraction over p in p/r stacked blocks of r, summed, wakes no second thread.
    """
    cap = min(_ZGEMM_ONE_THREAD // (k * n), _ZGEMV_ONE_THREAD // n, p)
    return max(r for r in range(1, cap + 1) if p % r == 0)


_CALL_ENTRIES = 1 << 14  # entries one integrand call may return, panels × 2 × batch: 256 KiB


class Bisection:
    """Breadth-first G10/K21 bisection of starting panels, for one panel integrand f(cs, hs, W) at ``width`` points.

    Called with starting panels (a, b, tol, depth), it evaluates each level of
    their bisection in one call of f.  A panel is accepted when |K − G| ≤ its
    tol (max over the batch) or its depth is 0; the rest are halved into the
    next level, each half with 0.6·tol and depth − 1, so the accepted panels
    are the recursive rule's.  It yields, for each starting panel in order, the
    sum of K and of |K − G| over its accepted panels, added child by child as
    that rule adds them.

    The starting panels go in runs, each bisected to the end before the next,
    so only one run's values are held at a time.  A run takes the next
    ``span`` starting panels and a call at most ``span`` panels, as many as
    return ``_CALL_ENTRIES`` entries at f's width (panels × 2 × width): a batch
    of up to ``_CALL_ENTRIES``/2P points gets its P panels a level in one call.
    ``span`` is fixed when the integrator is built, and no call changes it.
    """

    def __init__(self, f, width: int):
        self.f, self.span = f, max(1, _CALL_ENTRIES // (2 * width))

    def __call__(self, panels):
        """Yield (value, error) of each starting panel in order, a run at a time."""
        for i in range(0, len(panels), self.span):
            yield from self._run(panels[i : i + self.span])

    def _run(self, level) -> list:
        levels = []  # per level: its values, errors and accepted flags
        while level:
            vals, errs, keep = self._evaluate(level)
            levels.append((vals, errs, keep))
            halves = []
            for (a, b, tol, depth), ok in zip(level, keep):
                if not ok:
                    c = 0.5 * (a + b)
                    halves += [(a, c, 0.6 * tol, depth - 1), (c, b, 0.6 * tol, depth - 1)]
            level = halves
        # deepest first, each bisected panel takes the sums of its halves, the next pair of the next level
        for (vals, errs, keep), (kid_vals, kid_errs, _) in zip(levels[-2::-1], levels[:0:-1]):
            for j, i in enumerate(np.flatnonzero(~keep)):
                vals[i] = kid_vals[2 * j] + kid_vals[2 * j + 1]
                errs[i] = kid_errs[2 * j] + kid_errs[2 * j + 1]
        vals, errs, _ = levels[0]
        return list(zip(vals, errs))

    def _evaluate(self, level):
        """(K of each panel, |K − G| of each, accepted flags) for one level, ``span`` panels a call."""
        vals, errs = [], []
        for i in range(0, len(level), self.span):
            chunk = level[i : i + self.span]
            cs = np.array([0.5 * (a + b) for a, b, _, _ in chunk])
            hs = np.array([0.5 * (b - a) for a, b, _, _ in chunk])
            out = self.f(cs, hs, _GK_W)
            rows = hs.reshape((-1,) + (1,) * (out.ndim - 2))
            kronrod, gauss = rows * out[:, 0], rows * out[:, 1]
            vals += list(kronrod)
            errs += np.abs(kronrod - gauss).reshape(len(chunk), -1).max(axis=1).tolist()
        keep = np.array([err <= tol or depth <= 0 for err, (_, _, tol, depth) in zip(errs, level)])
        return vals, errs, keep


def phase_step(omega: float) -> float:
    """Panel length for a local phase rate omega: ~14 radians, clamped to [0.1, 3]."""
    return min(3.0, max(0.1, 14.0 / omega))


def _ladder_step(step: float) -> float:
    """The largest of {2^k, 1.5·2^k} that is ≤ ``step``, exact in binary."""
    m, e = math.frexp(step)  # step = m·2^e, 1/2 ≤ m < 1
    return math.ldexp(0.75 if m >= 0.75 else 0.5, e)


_TAIL_GRID = 64  # contour tails start on a multiple of 1/_TAIL_GRID


def tail_grid_ceil(height: float) -> float:
    """The least multiple of 1/64 that is ≥ ``height``: where a contour's vertical tails start.

    From there a vertical piece's panel edges are exact in binary, so
    :func:`polyline_walk`'s ladder panels and their bisections repeat h exactly.
    """
    return math.ceil(height * _TAIL_GRID) / _TAIL_GRID


def polyline_walk(bisect: Bisection, pts, omega, tol: float):
    """∫ f along the polyline pts[0]→pts[1]→…, in phase-adaptive panels, by ``bisect``, a :class:`Bisection` of f.

    Each straight piece a→b is cut into panels of length ``_ladder_step(phase_step(omega(t)))``,
    the largest rung of {2^k, 1.5·2^k} within the phase step, t the imaginary part at the
    panel's start.  The edges do not depend on f, so every panel is laid out first and the lot
    is bisected as one starting level, each panel to ``tol`` and down to sub-panels 2^-12 of its
    length.  Edges sit at a + u·pos, u = (b − a)/|b − a|, the last at b: exact on a vertical
    piece from :func:`tail_grid_ceil`, where panels of one rung share h.
    Returns (integral, summed error estimates).
    """
    panels = []
    for a, b in zip(pts[:-1], pts[1:]):
        length = abs(b - a)
        u, pos = (b - a) / length, 0.0
        while pos < length:
            lo = a + u * pos
            pos += _ladder_step(phase_step(omega(lo.imag)))
            panels.append((lo, a + u * pos if pos < length else b, tol, 12))
    total, err_total = 0.0, 0.0
    for val, err in bisect(panels):
        total = total + val
        err_total += err
    return total, err_total


# 45° past vertical: the upper bent ray, (−1 + i)/√2 to 20 bits, so from an anchor short in
# binary its panels' edges are exact and their half-widths repeat
_BEND = complex(-1, 1) * round(math.sqrt(0.5) * 2**20) / 2**20
_MAX_RAY = 2000.0  # a bent ray longer than this has not converged
_MAX_HEIGHT = 6000.0  # nor has a vertical tail this long
_TAIL_BLOCK = 8  # tail panels of one step laid out and evaluated ahead of the tail's stop


def _paired_step(length: float) -> float:
    """2^max(0, ⌊log₂ max(length, 1)⌋ − 1): steps 1, 1, 1, 1, 2, 2, 4, 4, 8, … from lengths 0, 1, 2, 3, 4, 6, 8, …"""
    return math.ldexp(1.0, max(0, math.frexp(max(length, 1.0))[1] - 2))


class TailRule(NamedTuple):
    """How :func:`contour_integral` follows a contour's two tails (see the module docstring)."""

    name: str
    direction: complex  # the upper tail's; the lower tail takes its conjugate
    # (length walked so far, ω at the panel's start) → the panel's step, a rung of {2^k, 1.5·2^k}
    # that repeats while those two change little, so a tail lays out its panels in blocks
    step: Callable[[float, float], float]
    cut: float
    run: int
    min_length: float
    factor: float
    max_length: float


BENT_RAYS = TailRule("bent-ray", _BEND, lambda length, rate: _paired_step(length), 10.0, 1, 0.0, 2.0, _MAX_RAY)
VERTICAL_LADDER = TailRule(
    "vertical-ladder", 1j, lambda length, rate: _ladder_step(phase_step(rate)), 20.0, 3, 10.0, 5.0, _MAX_HEIGHT
)


class _Tail:
    """One tail of a walk under ``rule``: its panels from ``anchor`` along ``direction``, laid out a
    block at a time and summed in order up to the rule's stop.

    A step depends on the length walked and on omega alone, so :meth:`block` lays out up to
    ``_TAIL_BLOCK`` panels of one step, and so of one half-width, none past the first that ends
    beyond ``rule.max_length``.  :meth:`take` sums a block's values up to the stop; a panel laid
    out past it is neither summed nor counted.  ``value`` is the sum of the values summed,
    ``errors`` their errors in order and ``bound`` the tail's bound once it has stopped.
    """

    def __init__(self, rule: TailRule, side: str, anchor: complex, direction: complex, omega, tol: float):
        self.rule, self.side, self.anchor, self.direction, self.omega = rule, side, anchor, direction, omega
        self.tol, self.tol_raw = tol, tol * 2 * math.pi
        self.laid, self.small, self.value, self.errors, self.bound = 0.0, [], 0.0, [], 0.0

    def block(self) -> list:
        """The next block, as (length so far at the panel's end, panel (a, b, tol_raw/200, 12))."""
        rule, u = self.rule, self.laid
        at = lambda length: self.anchor + length * self.direction
        first = step = rule.step(u, self.omega(at(u).imag))
        block = []
        while step == first and len(block) < _TAIL_BLOCK and u <= rule.max_length:
            block.append((u + step, (at(u), at(u + step), self.tol_raw / 200.0, 12)))
            u += step
            step = rule.step(u, self.omega(at(u).imag))
        self.laid = u
        return block

    def take(self, block, results) -> bool:
        """Sum ``results``, the (value, error) of each panel of ``block``, up to the stop.  → whether it stopped.

        Raises ToleranceNotMet at a panel that ends past ``rule.max_length`` before the stop.
        """
        rule = self.rule
        for (length, _), (val, err) in zip(block, results):
            self.value = self.value + val
            self.errors.append(err)
            mag = abs(complex(val.flat[np.argmax(np.abs(val))]))  # the largest |val|, rounded as Python rounds it
            self.small = (self.small + [mag])[-rule.run :] if 2.0 * mag < self.tol_raw / rule.cut else []
            if len(self.small) == rule.run and length >= rule.min_length:
                self.bound = rule.factor * max(self.small)
                return True
            if length > rule.max_length:
                raise ToleranceNotMet(self.tol, mag / (2 * math.pi), f"{self.side} {rule.name} tail not converged")
        return False


def contour_integral(f, width: int, pts, omega, rule: TailRule, tol: float):
    """(1/2πi) ∫ f along the polyline ``pts`` and its two tails under ``rule``.  → (values, achieved, tail panels).

    f is a panel integrand f(cs, hs, W) over a batch of ``width`` points, bisected by one
    :class:`Bisection`, and omega the phase rate :func:`polyline_walk` takes.  The live tails'
    next blocks are bisected in one call, and a tail's panels are added once it stops.
    ``achieved`` is the panels' summed |K − G| and the tails' bounds over 2π; tail panels are
    the ones summed, counted before bisection.  Raises ToleranceNotMet for a tail that never
    stops or an ``achieved`` above ``tol``.
    """
    tol_raw = tol * 2 * math.pi
    bisect = Bisection(f, width)
    total, err_total = polyline_walk(bisect, pts, omega, tol_raw / 200.0)
    upper = _Tail(rule, "upper", pts[-1], rule.direction, omega, tol)
    live, ended = [upper, _Tail(rule, "lower", pts[0], rule.direction.conjugate(), omega, tol)], []
    while live:
        blocks = [tail.block() for tail in live]
        out = bisect([panel for block in blocks for _, panel in block])
        for tail, block in zip(live, blocks):
            if tail.take(block, [next(out) for _ in block]):
                ended.append(tail)
        live = [tail for tail in live if tail not in ended]
    tail_bound, panels = 0.0, 0
    for tail in ended:
        total = total + tail.value if tail is upper else total - tail.value
        for err in tail.errors:
            err_total += err
        tail_bound += tail.bound
        panels += len(tail.errors)
    achieved = (err_total + tail_bound) / (2 * math.pi)
    if achieved > tol:
        raise ToleranceNotMet(tol, achieved, "panel refinement exhausted")
    return total / (2j * math.pi), achieved, panels


def magnitude_groups(mags, ratio: float) -> list[np.ndarray]:
    """Indices of ``mags`` in ascending order, cut greedily into groups.

    A group starts at its smallest magnitude m and takes every following
    magnitude up to ratio·m.
    """
    groups: list[list[int]] = []
    for i in np.argsort(mags):
        if groups and mags[i] <= mags[groups[-1][0]] * ratio:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


def key_groups(keys) -> dict:
    """Each distinct key of ``keys`` → the positions that hold it, in order; keys in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups
