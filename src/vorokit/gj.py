"""Sharp-cutoff zeta kernels, their duals, and the pairings that probe L-zeros.

Every kernel here has one gap-wise form.  With the Dirichlet prefix sums
C_g = Σ_{n≤g} a_n n^{−s} (C_0 = 0, formed only by :func:`_prefix_sums`),

    kernel(x) = C_{⌊|x|⌋}·|x|^power + residue,

where :class:`KernelSpec` fixes power and residue by variant: s − 1/2 and no
residue (cuspidal), s − 1 and −1/(1−s) (the Tate case over ℚ).  A spec reads
one table: H_s is the spec over π's table at s, and the dual kernel K_{1−s} is
the spec over π~'s table at 1 − s, the caller naming that table.  The
pointwise value (:func:`h_kernel`) reads one C_g; every pairing integral reads
them gap by gap through :func:`_pair`, the kernel being a
constant times a power of |x| on each unit gap (g, g + 1), so a short
Gauss–Legendre rule per gap, :func:`_gap_rule`, integrates it against a
smooth test factor.

Two global statements are made checkable this way.  The split identity writes
the full zeta integral of a test function as ⟨w, H_s⟩ + ⟨w̃, K_{1−s}⟩ and
compares it against an archimedean Mellin factor times an independently
computed L-value.  The Fourier-duality criterion pairs F(H_s) + K_{1−s}
against a fixed Schwartz function: the result vanishes precisely at zeros of
the underlying L-function, which for ζ is visible as a sharp dip of the
pairing magnitude at the first critical zero.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .archimedean import GL1Block, RealPlaceParams
from .hankel import TestFunction, hankel_convolution_batch, make_bump, signed_mellin
from .lseries import euler_product_l_delta, l_delta_smoothed, zeta_em
from .quadrature import gauss_panels
from .voronoi import DELTA_PLACE, DirichletCoeffs, DualWalk, tau_coefficients

__all__ = [
    "CoeffRangeExceeded",
    "PoleAtOne",
    "KernelSpec",
    "PairingResult",
    "SchwartzGaussian",
    "unit_coeffs",
    "h_kernel",
    "DualGrid",
    "split_zeta_identity",
    "zero_criterion_pairing",
]

_POLE_DISK = 1e-8


class CoeffRangeExceeded(LookupError):
    """A kernel was evaluated past the end of its coefficient table."""


class PoleAtOne(ArithmeticError):
    """The Tate kernels carry the residue term κ/(1−s); s too close to the pole."""


def unit_coeffs(n: int) -> DirichletCoeffs:
    """a_n ≡ 1: the ζ_ℚ table (each ideal of norm n contributes once), at the trivial character's place."""
    if n < 1:
        raise ValueError("need at least one coefficient")
    return DirichletCoeffs(n, np.ones(n, dtype=complex), RealPlaceParams((GL1Block(0),)), (1,) * n)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family: coefficient table, the complex parameter s, and variant.

    variant "cuspidal" uses the |x|^{s−1/2} normalisation and vanishes
    identically on |x| < 1; variant "tate" is Clozel's ζ_ℚ kernel with
    κ = 1, D = 1 baked in (other number fields are out of scope).  The dual
    kernel K_{1−s} of π is KernelSpec(π~'s table, 1 − s, variant).
    """

    coeffs: DirichletCoeffs
    s: complex
    variant: str = "cuspidal"

    def __post_init__(self) -> None:
        if self.variant not in ("cuspidal", "tate"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "tate" and abs(1 - self.s) < _POLE_DISK:
            raise PoleAtOne(f"s = {self.s} is within {_POLE_DISK:g} of the pole at 1")

    @property
    def power(self) -> complex:
        """The exponent of |x|: s − 1/2 (cuspidal) or s − 1 (tate)."""
        return self.s - (0.5 if self.variant == "cuspidal" else 1.0)

    @property
    def residue(self) -> complex:
        """The constant term: none (cuspidal) or −κ/(1−s) with κ = 1 (tate)."""
        return 0.0 if self.variant == "cuspidal" else -1.0 / (1.0 - self.s)


def _prefix_sums(table: DirichletCoeffs, z: complex, g_max: int) -> np.ndarray:
    """C_0 … C_{g_max} with C_g = Σ_{n≤g} a_n n^{−z}; C_0 = 0 is the empty sum."""
    if g_max > table.n:
        raise CoeffRangeExceeded(f"need coefficients to {g_max}, table holds {table.n}")
    ns = np.arange(1, g_max + 1, dtype=float)
    return np.concatenate([[0j], np.cumsum(table.values[:g_max] * ns ** (-z))])


def _pair(spec: KernelSpec, x, wts, gap, values) -> complex:
    """Σ wts·values·C_gap·x^power: the prefix-sum part of a kernel paired with
    samples on nodes x, each lying in the unit gap (gap, gap + 1)."""
    c = _prefix_sums(spec.coeffs, spec.s, int(np.max(gap)))
    return complex(np.sum(wts * values * c[gap] * x**spec.power))


def _gap_rule(edges, count):
    """count(g) Gauss–Legendre nodes on each panel edges[i] → edges[i + 1], each inside the unit
    gap (g, g + 1) of its left edge, g = ⌊edges[i]⌋.  → (x, wts, gap)"""
    gaps = [math.floor(e) for e in edges[:-1]]
    rules = [gauss_panels(edges[i : i + 2], count(g)) for i, g in enumerate(gaps)]
    x = np.concatenate([r[0] for r in rules])
    return x, np.concatenate([r[1] for r in rules]), np.repeat(gaps, [len(r[0]) for r in rules])


def h_kernel(spec: KernelSpec, x: float) -> complex:
    """The kernel at a nonzero real x: |x|^{s−1/2} Σ_{n≤|x|} a_n n^{−s} (cuspidal),
    or |x|^{s−1} Σ_{n≤|x|} a_n n^{−s} − 1/(1−s) (tate); over π~'s table at
    1 − s this is the dual kernel K_{1−s}."""
    ax = abs(float(x))
    if ax == 0.0:
        raise ValueError("kernels live on ℝ^×; x = 0 is not allowed")
    g = math.floor(ax)
    if g == 0:  # empty sum: exactly the residue
        return complex(spec.residue)
    return complex(_prefix_sums(spec.coeffs, spec.s, g)[g] * ax**spec.power + spec.residue)


# ---- Schwartz test family for the Tate pairing ------------------------------


@dataclass(frozen=True)
class SchwartzGaussian:
    """(c0 + c2·x²)·e^{−πx²}: closed under the additive Fourier transform."""

    c0: float = 1.0
    c2: float = 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (self.c0 + self.c2 * x * x) * np.exp(-math.pi * x * x)

    def fourier(self) -> "SchwartzGaussian":
        # F(e^{−πx²}) = e^{−πξ²};  F(x²e^{−πx²}) = (1/(2π) − ξ²)e^{−πξ²}
        return SchwartzGaussian(self.c0 + self.c2 / (2 * math.pi), -self.c2)

    def integral(self) -> float:
        """∫_ℝ φ(x) dx, in closed form."""
        return self.c0 + self.c2 / (2 * math.pi)

    @property
    def label(self) -> str:
        if self.c2 == 0.0:
            return "gaussian" if self.c0 == 1.0 else f"{self.c0:g}·gaussian"
        return f"({self.c0:g}{self.c2:+g}·x²)·gaussian"


def _completed_zeta(s: complex) -> complex:
    """π^{−s/2} Γ(s/2) ζ(s) — what the Gaussian Tate pairing resums to.

    Its log Γ is mpmath's, so the reference shares no code with the kernel routes.
    """
    s = complex(s)
    return cmath.exp(complex(mpmath.loggamma(s / 2)) - 0.5 * s * math.log(math.pi)) * zeta_em(s)


def _tate_pairing(s: complex, phi: SchwartzGaussian) -> complex:
    """⟨H_s, φ̂⟩ + ⟨K_{1−s}, φ⟩ with the additive pairing ∫_ℝ · dx.

    Both kernels are even, so the integral is twice the half-line one: the
    residue constants against ∫φ̂ and ∫φ in closed form, plus the prefix-sum
    parts gap by gap on [1, gmax), where φ and φ̂ are negligible beyond.  ζ is
    self-dual, so K_{1−s} reads H_s's table.
    """
    gmax = 9
    s = complex(s)
    h = KernelSpec(unit_coeffs(gmax - 1), s, "tate")
    k = KernelSpec(h.coeffs, 1.0 - s, "tate")
    phih = phi.fourier()
    height = abs(s.imag)
    x, wts, gap = _gap_rule(range(1, gmax + 1), lambda g: min(48, 12 + 3 * int(height * math.log1p(1.0 / g))))
    total = h.residue * phih.integral() + k.residue * phi.integral()
    total += 2.0 * _pair(h, x, wts, gap, phih(x))
    total += 2.0 * _pair(k, x, wts, gap, phi(x))
    return complex(total)


# ---- split identity for the weight-12 form ----------------------------------


class DualGrid(DualWalk):
    """Dual-function samples on gap-wise quadrature nodes, octave by octave.

    Building w̃ is the expensive part of the K-side integral and depends only
    on the test function, so one grid is shared across every s in a scan.
    It is the :class:`~vorokit.voronoi.DualWalk` whose window j is the octave
    [2^j, 2^{j+1}), sampled at the share tol/100.  Its w̃ is Δ's: the split
    identity's L-value oracles know no other form.  It keeps the ``w`` and
    ``tol`` it was built for, so a sum can refuse a grid built for others.
    """

    def __init__(self, w: TestFunction, tol: float):
        self.w, self.tol = w, tol

        def sample(xs, wtol, cache):
            return hankel_convolution_batch(DELTA_PLACE, w, xs, tol=wtol, cache=cache)[0]

        def octave(j):  # each node's d×x weight and the integer gap it lies in
            lo, hi = 2**j, 2 ** (j + 1)
            # the dual phase swings by 2π·sqrt(b/g) across gap g
            xs, wts, gaps = _gap_rule(
                range(lo, hi + 1), lambda g: min(48, 10 + 3 * int(2.0 * math.pi * math.sqrt(w.b / g)))
            )
            return xs, {"lo": lo, "hi": hi, "wts": wts / xs, "gaps": gaps}

        super().__init__(sample, tol / 100.0, octave)


def split_zeta_identity(
    w: TestFunction,
    s: complex,
    coeffs: DirichletCoeffs | None = None,
    *,
    tol: float = 1e-7,
    grid: DualGrid | None = None,
    euler_pbound: int = 10000,
) -> dict:
    """Check ⟨w, H_s⟩ + ⟨w̃, K_{1−s}⟩ = Z_∞(s, w)·L(s) for the weight-12 form.

    The two sides are computed with disjoint machinery: the left by gap-wise
    quadrature against the kernel partial sums (w̃ from the convolution
    route), the right by a signed Mellin integral times an L-value oracle —
    Euler product for Re s > 3/2, the smoothed incomplete-Γ sum otherwise.
    Those oracles are Δ's, so a table at any other place raises ValueError,
    as does a ``grid`` built for another ``w`` or ``tol``.
    """
    s = complex(s)
    if w.neg is not None or not w.a > 0:
        raise ValueError("the test function must be supported inside (0, ∞)")
    if coeffs is None:
        coeffs = tau_coefficients(1024)
    if coeffs.params != DELTA_PLACE:
        raise ValueError(f"the L-value oracles are Δ's; the coefficient table is at {coeffs.params}")
    if grid is not None and (grid.w != w or grid.tol != tol):
        raise ValueError(f"the dual grid was built for another test function or tol ({grid.tol:g}; here {tol:g})")
    h = KernelSpec(coeffs, s)
    k = KernelSpec(coeffs, 1.0 - s)  # Δ's λ(n) are real: π~ reads π's table

    # direct side: ⟨w, H_s⟩ over the gaps clipped to the support, d×x = dx/x
    edges = np.concatenate([[w.a], np.arange(math.floor(w.a) + 1, math.ceil(w.b)), [w.b]])
    x, wts, gap = _gap_rule(edges, lambda g: 24)
    i1 = _pair(h, x, wts / x, gap, w(x))

    # dual side: octaves of ⟨w̃, K_{1−s}⟩ until two in a row are negligible; octave j needs
    # C_g for g < 2^{j+1}, so the last one the table reaches ends at the largest power of two ≤ n + 1
    grid = grid if grid is not None else DualGrid(w, tol)
    count = (coeffs.n + 1).bit_length() - 1
    reach = f"x = {2 ** count} with {coeffs.n} coefficients"
    i2, sizes = grid.total(lambda oc: _pair(k, oc["xs"], oc["wts"], oc["gaps"], oc["vals"]), tol, count, reach)
    read = grid.windows[: len(sizes)]

    z_arch = signed_mellin(w, 0, s - 0.5, tol=min(1e-12, tol / 10))
    if s.real > 1.5:
        l_value, l_route = euler_product_l_delta(s, pbound=euler_pbound), "euler-product"
    else:
        l_value, l_route = l_delta_smoothed(s), "smoothed-sum"
    value = i1 + i2
    reference = z_arch * l_value
    defect = abs(value - reference)
    return {
        "s": s,
        "i1": i1,
        "i2": i2,
        "value": value,
        "z_arch": z_arch,
        "l_value": l_value,
        "l_route": l_route,
        "reference": reference,
        "defect": defect,
        "rel_defect": defect / max(abs(reference), 1e-30),
        "x_max": read[-1]["hi"],
        "dual_tol": max(oc["dual_tol"] for oc in read),
        "tol": tol,
    }


# ---- zero criterion ---------------------------------------------------------


@dataclass(frozen=True)
class PairingResult:
    """One point of a zero scan: the pairing value, its reference, the defect.

    For the tate variant the defect *is* |value| — vanishing of the pairing
    is the criterion — and reference carries the completed-ζ resummation.
    For the cuspidal variant value is the L-proxy (I₁+I₂)/Z_∞ and defect its
    distance to the oracle.  `phi` records which test function witnessed it.
    `dual_tol` is the split report's: the loosest per-point tolerance the
    dual octaves met (None for tate, which samples no w̃).
    """

    s: complex
    value: complex
    reference: complex
    defect: float
    variant: str
    phi: str
    dual_tol: float | None


def zero_criterion_pairing(
    variant: str,
    s_list,
    *,
    phi: SchwartzGaussian | None = None,
    w: TestFunction | None = None,
    coeffs: DirichletCoeffs | None = None,
    tol: float = 1e-7,
) -> list[PairingResult]:
    """Evaluate the zero-detecting pairing on a list of s values.

    tate: ⟨F(H_s) + K_{1−s}, φ⟩ against a Gaussian-family φ (closed-form
    Fourier transform) by a fixed gap rule, which reads no ``tol`` and
    computes no error bound; cuspidal: the split-identity L-proxy against the
    L-value oracle to ``tol``, sharing one dual grid across the whole scan.
    """
    if variant == "tate":
        phi = phi if phi is not None else SchwartzGaussian()
        out = []
        for s in s_list:
            val = _tate_pairing(complex(s), phi)
            out.append(PairingResult(complex(s), val, _completed_zeta(complex(s)), abs(val), "tate", phi.label, None))
        return out
    if variant != "cuspidal":
        raise ValueError(f"unknown variant {variant!r}")
    w = w if w is not None else make_bump(1.0, 40.0)
    coeffs = coeffs if coeffs is not None else tau_coefficients(1024)
    grid = DualGrid(w, tol)
    out = []
    for s in s_list:
        rep = split_zeta_identity(w, complex(s), coeffs, tol=tol, grid=grid)
        proxy = rep["value"] / rep["z_arch"]
        out.append(
            PairingResult(complex(s), proxy, rep["l_value"], abs(proxy - rep["l_value"]),
                          "cuspidal", f"bump({w.a:g},{w.b:g})", rep["dual_tol"])
        )
    return out
