"""Small shared quadrature helpers.

Everything here integrates vectorised complex-valued functions
f(s: ndarray[K]) -> ndarray[K] or ndarray[K, B] (a batch of B integrands
sharing the same nodes) along straight segments in the complex plane, using
Gauss–Legendre panels with adaptive bisection.  Error control is absolute and
per batch entry is the max-norm across the batch.

The contour integrals of :mod:`vorokit.bessel` and :mod:`vorokit.hankel` walk
a polyline with :func:`polyline_walk` and then follow their own tails, each
with its own stopping rule, panel by panel through :func:`adaptive_segment`.
Fixed-resolution integrals over a real partition (the dual function's
t-integral, the v-grid of the local functional equation, the gap-wise GJ
pairings) take their nodes and weights from :func:`gauss_panels`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "gauss_nodes",
    "gauss_panels",
    "segment",
    "adaptive_segment",
    "phase_step",
    "polyline_walk",
    "magnitude_groups",
    "ToleranceNotMet",
]


class ToleranceNotMet(ArithmeticError):
    """Quadrature could not certify the requested absolute tolerance."""

    def __init__(self, requested: float, achieved: float, where: str = ""):
        self.requested = requested
        self.achieved = achieved
        super().__init__(
            f"requested abs tol {requested:g}, achieved estimate {achieved:g}"
            + (f" ({where})" if where else "")
        )


_DEG = 24  # Gauss–Legendre points per panel


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


def segment(f, a: complex, b: complex):
    """Plain GL quadrature of f along the straight segment a→b."""
    x, w = gauss_nodes(_DEG)
    half = 0.5 * (b - a)
    nodes = 0.5 * (a + b) + half * x
    return half * (w @ f(nodes))


def adaptive_segment(f, a: complex, b: complex, tol: float, max_depth: int = 13):
    """Adaptive bisection on a→b.  Returns (integral, error_estimate).

    The error estimate is the accumulated |whole − two halves| over accepted
    panels; it overstates the true error of the returned refined value.
    """
    return _adapt(f, a, b, segment(f, a, b), tol, max_depth)


def _adapt(f, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = segment(f, a, mid)
    right = segment(f, mid, b)
    better = left + right
    err = float(np.max(np.abs(whole - better)))
    if err <= tol or depth <= 0:
        return better, err
    lv, le = _adapt(f, a, mid, left, 0.6 * tol, depth - 1)
    rv, re_ = _adapt(f, mid, b, right, 0.6 * tol, depth - 1)
    return lv + rv, le + re_


def phase_step(omega: float) -> float:
    """Panel length for a local phase rate omega: ~14 radians, clamped to [0.1, 3]."""
    return min(3.0, max(0.1, 14.0 / omega))


def polyline_walk(f, pts, omega, tol: float):
    """∫ f along the polyline pts[0]→pts[1]→…, in phase-adaptive panels.

    Each straight piece is cut into panels of length ``phase_step(omega(t))``,
    t the imaginary part at the panel's start, and each panel is integrated
    by :func:`adaptive_segment` to ``tol`` with at most 11 bisections.
    Returns (integral, summed error estimates).
    """
    total, err_total = 0.0, 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        length = abs(b - a)
        pos = 0.0
        while pos < length:
            lo = a + (b - a) * (pos / length)
            step = min(length - pos, phase_step(omega(lo.imag)))
            hi = a + (b - a) * ((pos + step) / length)
            val, err = adaptive_segment(f, lo, hi, tol, max_depth=11)
            total = total + val
            err_total += err
            pos += step
    return total, err_total


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
