"""Bessel functions of real-place representations, and the kernels b·|x|^{1/2}.

The Bessel function attached to (π, ψ) is the parity-summed inverse Mellin
transform of the γ-factors,

    b(x) = (1/2) Σ_{δ∈{0,1}} (1/2πi) ∫_C γ(1−s, π×sgn^δ, ψ) |x|^{−s} (sgn x)^δ ds,

taken along an admissible contour C from :mod:`vorokit.contours`.

Quadrature (the walk and its tail rules: :mod:`vorokit.quadrature`): the
integrand decays only polynomially up a vertical line, so above all detour
structure and the stationary height ≈ c·|x|^{1/n} both tails bend 45°
(``quadrature.BENT_RAYS``).  The connectors between the paths vanish as the
height grows, so the value is the contour integral's, as the
contour-independence and closed-form tests check.  A walk takes the upper
half alone and the lower half from the conjugate place's upper half, which
is its own where every t of π is real (``archimedean.reflection_factor``).

Evaluation is batched: many x share one path, with the γ-part of the
integrand computed once per node and x^{−s} factored by panel.  One class,
:class:`ContourIntegrand`, factors this integrand and the Mellin route's in
:mod:`vorokit.hankel`; :func:`parity_batch` owns the parity fold of both.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .archimedean import RealPlaceParams, log_mb_gamma, reflection_factor
from .contours import Contour, build_contour
from .params_io import atomic_write, params_from_dict, params_to_dict
from .quadrature import (
    BENT_RAYS,
    ToleranceNotMet,
    contour_integral,
    key_groups,
    magnitude_groups,
    panel_nodes,
    phase_tables,
    table_matmul,
    tail_grid_ceil,
)

__all__ = [
    "parity_batch",
    "bessel_real_batch",
    "kernel_table",
    "KernelTable",
    "ToleranceNotMet",
]

class ContourIntegrand:
    """γ(1−s)·F(s)·xeff^{ν−s} on a stack of G10/K21 panels, batched over lx = log xeff.

    The Bessel batch's γ·xeff^{−s} has ν = 0 and F = 1 (no ``factor``); the
    Mellin route's has F(s) = M_δ[w](1−s−ν).  With lg = ``log_g`` at a panel's
    nodes c + h·ξ_l and lg_10 at its centre ξ = 0, the value at node l and point j
    is G_l·E_h[l, j]·P_j: G_l = e^{lg_l − lg_10}·F_l, E_h from ``phase`` and
    P_j = e^{lg_10 + (ν − c)·lx_j}.  No factor exceeds the centre value or the
    variation across the panel, so none overflows where xeff^{−s} alone would.

    A call f(cs, hs, W) takes P panels and returns (P × 2 × len(lx)).  The work
    that does not depend on x is stacked across the panels: one ``log_g`` call on
    the 21·P nodes, G, and F as one ``factor(cs, hs)`` → (P × 21).  The
    product stays per panel, (W·G) @ E_h, in panels grouped by h so the phase
    memo serves each h once a call: the weight rows meet G before the table, so
    no 21 × len(lx) product is formed.  ``quadrature.table_matmul`` issues it in
    column slices of at most 1560 points, so none wakes a second BLAS thread.
    The P factors of all the panels are one (P × len(lx)) exponential, no larger
    than the call's output.
    """

    def __init__(self, log_g, rank, lx, nu=0.0, factor=None, rate=0.0):
        self.log_g, self.rank, self.lx, self.phase = log_g, rank, lx, phase_tables(lx)
        self.nu, self.factor, self.rate = nu, factor, rate
        self.lx_min, self.lx_max = float(lx.min()), float(lx.max())

    def __call__(self, cs, hs, W) -> np.ndarray:
        lg = self.log_g(panel_nodes(cs[:, None], hs[:, None]))
        centre = lg[:, 10]
        g = np.exp(lg - centre[:, None])
        if self.factor is not None:
            g *= self.factor(cs, hs)
        wg = W * g[:, None, :]
        out = np.empty((len(cs),) + W.shape[:1] + self.lx.shape, dtype=complex)
        for group in key_groups(hs.tolist()).values():
            for i in group:
                table_matmul(wg[i], self.phase(hs[i]), out=out[i])
        p = np.multiply.outer(self.nu - cs, self.lx)
        p += centre[:, None]
        out *= np.exp(p, out=p)[:, None, :]
        return out

    def omega(self, t: float) -> float:
        """Phase rate per unit of Im s at t: γ's ~ n·log(|t|/2π) against the lx range, plus ``rate``."""
        base = self.rank * math.log(max(abs(t), 1.0) / (2 * math.pi))
        return max(abs(base - self.lx_min), abs(base - self.lx_max), 0.5) + self.rate


def _mb_batch(params: RealPlaceParams, twist: int, contour: Contour, xeffs: np.ndarray, tol: float):
    """(1/2πi) ∫_C γ(1−s, π×sgn^δ, ψ) xeff^{−s} ds, δ = ``twist``, for a batch of xeff > 0, its tails on the bent rays.

    The γ-ratio has degree n in s, so by Stirling its phase rate per unit of
    Im s is ~ n·log(|t|/2π) at t = Im s; xeff^{−s} adds −log xeff.  The
    stationary height is 2π·xeff^{1/n}.  One integrand per place that
    ``reflection_factor`` names, so a complex t adds the conjugate place's walk.
    Returns (values, error_estimates) as arrays over the batch.
    """
    c, places = reflection_factor(params, twist)
    lx = np.log(xeffs)
    fs = [ContourIntegrand(partial(log_mb_gamma, place, twist), params.rank, lx) for place in places]
    t_flip = 2 * math.pi * math.exp(fs[0].lx_max / params.rank)
    # on the tail grid, so the vertical panels' edges are exact and their h repeat
    h_bend = tail_grid_ceil(max(contour.detour_height + 2.0, 1.25 * t_flip + 8.0))
    values, achieved, _ = contour_integral(fs, len(xeffs), contour.polyline(h_bend), fs[0].omega, BENT_RAYS, tol, c)
    return values, np.full(len(xeffs), achieved)


# ---- parity fold -----------------------------------------------------------


def parity_batch(xs, ratio: float, deltas, component):
    """The parity fold of b and w̃: ½(I₀ + sgn(x)·I₁), error ½(e₀ + e₁).  → (values, errors).

    ``component(δ, |x|)`` → (I_δ, error) for δ in ``deltas``, (0,) where I₁ = I₀,
    on each magnitude group (|x| within ``ratio`` of its smallest), so each walk
    is sized to its group.  A group's walks take each distinct |x| once, and
    every x of that magnitude, of either sign, folds its value from them, so
    a batch that holds ±x pays for x alone.  An x that is 0 or not finite
    raises ValueError before any component runs.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs == 0) or not np.all(np.isfinite(xs)):
        raise ValueError("x must be nonzero and finite")
    ax = np.abs(xs)
    values = np.zeros(len(xs), dtype=complex)
    errors = np.zeros(len(xs))
    for gi in magnitude_groups(ax, ratio):
        g = ax[gi]  # ascending, so equal magnitudes sit side by side
        first = np.concatenate([[True], g[1:] != g[:-1]])
        at = np.cumsum(first) - 1  # each point's place among the distinct magnitudes
        parts = [component(d, g[first]) for d in deltas]
        (i0, e0), (i1, e1) = parts[0], parts[-1]
        values[gi] = 0.5 * (i0[at] + np.sign(xs[gi]) * i1[at])
        errors[gi] = np.broadcast_to(0.5 * (e0 + e1), i0.shape)[at]  # a walk's error may be one number
    return values, errors


def bessel_real_batch(
    params: RealPlaceParams,
    xs: Sequence[float],
    tol: float,
    contour: Contour | None = None,
):
    """b(x) on a batch that may mix signs, each parity integral to tol/2.  Returns (values, errors)."""
    if contour is None:
        contour = build_contour(params)
    deltas = (0, 1) if params.parity_dependent else (0,)
    return parity_batch(
        xs, 4.0, deltas, lambda d, ax: _mb_batch(params, d, contour, ax, tol / 2.0)
    )


# ---- kernels and tables ----------------------------------------------------


@dataclass(frozen=True)
class KernelTable:
    """Kernel values on a signed grid, with the contour that produced them.

    The kernel sums both parities, so the sidecar's ``twist`` is always 0.
    """

    params: RealPlaceParams
    xs: tuple
    signs: tuple
    values: tuple
    achieved_tol: float
    requested_tol: float
    contour: Contour

    def save(self, path: str) -> None:
        lines = ["x,sign,re,im"]
        for x, s, v in zip(self.xs, self.signs, self.values):
            lines.append(f"{x!r},{s:d},{v.real!r},{v.imag!r}")
        text = "\n".join(lines) + "\n"
        meta = {
            "csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "params": params_to_dict(self.params),
            "twist": 0,
            "achieved_tol": self.achieved_tol,
            "requested_tol": self.requested_tol,
            "contour": {
                "asymptote": self.contour.asymptote,
                "nodes": [[n.real, n.imag] for n in self.contour.nodes],
            },
        }
        atomic_write(path, text)
        atomic_write(path + ".meta.json", json.dumps(meta, indent=1))

    @classmethod
    def load(cls, path: str) -> "KernelTable":
        with open(path + ".meta.json") as fh:
            meta = json.load(fh)
        with open(path, "rb") as fh:
            raw = fh.read()
        # a save cut between its two renames leaves a new CSV beside the old sidecar;
        # sidecars written before the digest existed carry none and are not checked
        if "csv_sha256" in meta and hashlib.sha256(raw).hexdigest() != meta["csv_sha256"]:
            raise ValueError(f"{path} does not match its sidecar: the SHA-256 differs")
        xs, signs, values = [], [], []
        for line in raw.decode().splitlines()[1:]:
            xstr, sstr, restr, imstr = line.split(",")
            xs.append(float(xstr))
            signs.append(int(sstr))
            values.append(complex(float(restr), float(imstr)))
        contour = Contour(
            meta["contour"]["asymptote"],
            tuple(complex(a, b) for a, b in meta["contour"]["nodes"]),
        )
        return cls(
            params_from_dict(meta["params"]),
            tuple(xs),
            tuple(signs),
            tuple(values),
            meta["achieved_tol"],
            meta["requested_tol"],
            contour,
        )


def kernel_table(
    params: RealPlaceParams,
    grid: Sequence[float],
    tol: float,
) -> KernelTable:
    """Tabulate k(sign·x) over a sorted positive grid, the + half first, then the −.

    One batch evaluates every point; if it cannot meet `tol` its
    ToleranceNotMet propagates and no table is made.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if any(x <= 0 for x in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing and positive")
    contour = build_contour(params)
    xs_all = grid + grid
    sg_all = [1] * len(grid) + [-1] * len(grid)
    pts = np.array(xs_all) * np.array(sg_all)
    bvals, errs = bessel_real_batch(params, pts, tol, contour)
    values = bvals * np.sqrt(np.abs(pts))
    achieved = float(np.max(errs))
    return KernelTable(
        params,
        tuple(float(x) for x in xs_all),
        tuple(int(s) for s in sg_all),
        tuple(complex(v) for v in values),
        achieved,
        tol,
        contour,
    )
