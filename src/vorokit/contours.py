"""Mellin–Barnes integration contours.

A contour is an upward-directed path used for the inverse Mellin integrals
defining the Bessel functions: outside a finite detour section it is the
vertical line Re s = σ′, and the detour (an axis-aligned rectangle bulge to
the right) walks the path around any Γ-poles of the integrand that sit to the
right of the asymptote.  Admissibility means

  (1) σ′ < 1/2 + (Re Σ n_j t_j − 1)/n, with n_j the degree of block j
      (1 for GL1, 2 for DS2) and n = Σ n_j,
  (2) every integrand pole lies strictly left of the path with clearance
      ≥ 0.1,
  (3) the path is the vertical line outside the node section.

The integrand γ(1−s, π×χ, ψ) has the poles of L(s, π~×χ̄), so each Γ-piece
(kind, t, a, k) of :mod:`vorokit.archimedean` contributes

  Γ_ℂ piece:  t − a − ℕ
  Γ_ℝ piece:  t − ℕ    (the union of t − a − 2ℕ over both parities
                        a ∈ {0,1}, since one contour serves both)

``build_contour`` places the asymptote at the admissibility bound minus 1/4
and bulges right of any poles within 1/4 of it, so all clearances are ≥ 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .archimedean import RealPlaceParams, gamma_pieces

__all__ = ["Contour", "InfeasibleContour", "build_contour", "pole_starts", "check_admissible"]

CLEARANCE = 0.25  # build target; the admissibility requirement itself is 0.1
_MIN_CLEARANCE = 0.1


class InfeasibleContour(ValueError):
    """Pole clearance cannot be met (degenerate user-supplied parameters)."""


@dataclass(frozen=True)
class Contour:
    """Piecewise-linear Mellin–Barnes path, directed upward.

    ``nodes`` is the finite detour section (possibly empty); away from it the
    path is the vertical line Re s = ``asymptote``.
    """

    asymptote: float
    nodes: tuple = field(default_factory=tuple)

    def shifted(self, dx: float) -> "Contour":
        """Parallel-translate the asymptote (detour nodes keep their bulge)."""
        return Contour(self.asymptote + dx, tuple(n + dx for n in self.nodes))

    @property
    def detour_height(self) -> float:
        """max |Im s| over the detour nodes; 0 without a detour."""
        return max((abs(n.imag) for n in self.nodes), default=0.0)

    def polyline(self, h: float) -> list[complex]:
        """The path truncated to |Im s| ≤ h, as vertices from σ − ih up to σ + ih.

        ``h`` must be at least ``detour_height``.
        """
        return [complex(self.asymptote, -h), *self.nodes, complex(self.asymptote, h)]


def pole_starts(params: RealPlaceParams) -> list[complex]:
    """Rightmost pole per Γ-piece: [start, ...].

    Poles of piece j are start_j − k, k = 0, 1, 2, …  A sign twist moves
    neither t nor a Γ_ℂ piece's a, and a Γ_ℝ piece takes t − ℕ, the poles of
    both parities, so one pole set serves every twist.
    """
    return [complex(t) - (0 if kind == "R" else a) for kind, t, a, _ in gamma_pieces(params, 0)]


def _asymptote_bound(params: RealPlaceParams) -> float:
    # n_j: 1 for a Γ_ℝ piece (GL1), 2 for a Γ_ℂ piece (DS2)
    pieces = gamma_pieces(params, 0)
    tsum = sum((1 if kind == "R" else 2) * complex(t).real for kind, t, _, _ in pieces)
    return 0.5 + (tsum - 1.0) / params.rank


@lru_cache(maxsize=256)
def build_contour(params: RealPlaceParams) -> Contour:
    sigma = _asymptote_bound(params) - CLEARANCE
    bulged: list[complex] = []
    for p in pole_starts(params):
        guard = 0
        while p.real > sigma - CLEARANCE:
            bulged.append(p)
            p -= 1
            guard += 1
            if guard > 1000:
                raise InfeasibleContour(
                    f"more than {guard} poles right of the asymptote {sigma}"
                )
    if not bulged:
        return Contour(sigma)
    rho = max(p.real for p in bulged) + CLEARANCE
    height = max(abs(p.imag) for p in bulged) + 1.0
    nodes = (
        complex(sigma, -height),
        complex(rho, -height),
        complex(rho, height),
        complex(sigma, height),
    )
    return Contour(sigma, nodes)


# ---- admissibility verification -------------------------------------------


def _dist_to_segment(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(p - a)
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def check_admissible(contour: Contour, params: RealPlaceParams) -> None:
    """Raise InfeasibleContour if any admissibility requirement fails."""
    bound = _asymptote_bound(params)
    if not contour.asymptote < bound:
        raise InfeasibleContour(
            f"asymptote {contour.asymptote} violates the decay bound {bound}"
        )
    rho = max((n.real for n in contour.nodes), default=contour.asymptote)
    det_span = contour.detour_height
    for p in pole_starts(params):
        while p.real > contour.asymptote - 2 * CLEARANCE - 1.0:
            # strictly-left check at the pole's own height
            if contour.nodes and abs(p.imag) <= det_span:
                if p.real >= rho:
                    raise InfeasibleContour(f"pole {p} not enclosed by the detour")
            elif p.real >= contour.asymptote:
                raise InfeasibleContour(f"pole {p} lies right of the line Re s = {contour.asymptote}")
            pts = contour.polyline(max(det_span, abs(p.imag)) + 5.0)
            d = min(_dist_to_segment(p, a, b) for a, b in zip(pts, pts[1:]))
            if d < _MIN_CLEARANCE:
                raise InfeasibleContour(f"pole {p} at distance {d:.3g} < {_MIN_CLEARANCE}")
            p -= 1
