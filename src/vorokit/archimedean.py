"""Archimedean local factors at the real place.

A representation of GL(n, ℝ) is described here by an ordered list of blocks,
each either a character GL1Block(δ, t) of GL(1) with parity δ ∈ {0,1} or a
two-dimensional discrete-series block DS2Block(l, t) with weight parameter
l ≥ 1.  A sign twist χ = sgn^{δ_χ} is folded into the block data rather than
materialised.

Every factor is a product of the two archimedean Γ-functions

    Γ_ℝ(z) = π^{−z/2} Γ(z/2),      Γ_ℂ(z) = 2 (2π)^{−z} Γ(z).

``gamma_pieces`` gives one Γ-piece (kind, t, a, k) per block, and

    L(s, π×χ) = ∏ Γ_kind(s + t + a),      ε(s, π×χ, ψ) = i^{Σ k},

    block                 piece (kind, t, a, k)
    GL1Block(δ, t)        (ℝ, t, δ', δ')            δ' = δ + δ_χ mod 2
    DS2Block(l, t)        (ℂ, t, l/2, l + 1)

The contragredient π~ twisted by χ̄ has the same pieces with t negated
(``contragredient_params`` builds its parameters for reference).  The
γ-factor is the functional-equation ratio

    γ(s, π×χ, ψ) = ε(s, π×χ, ψ) · L(1−s, π~ × χ̄) / L(s, π×χ).

L-factors are formed as the exp of a sum of log Γ's, and ``gamma_factor``
as the exp of the difference of the two logs, so γ stays finite at heights
where both L-factors underflow.  ``log_mb_gamma`` evaluates log γ(1−s, ·) in a single stable expression for
use on integration contours at large height, where the L-factors individually
overflow double precision.  Every log Γ here is ``loggamma``, one vectorised
Stirling series in numpy (principal branch).

All functions are pure; parameter objects are frozen and hashable.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GL1Block",
    "DS2Block",
    "RealPlaceParams",
    "PoleError",
    "l_factor",
    "epsilon_factor",
    "gamma_factor",
    "contragredient_params",
    "gamma_pieces",
    "log_mb_gamma",
    "loggamma",
]

_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)  # i^k for k mod 4

#: radius of the disk around each pole inside which evaluation refuses to run
POLE_DISK = 1e-12


@dataclass(frozen=True)
class GL1Block:
    delta: int
    t: complex = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.delta, bool) or self.delta not in (0, 1):
            raise ValueError(f"GL1 parity must be 0 or 1, got {self.delta}")


@dataclass(frozen=True)
class DS2Block:
    l: int
    t: complex = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.l, bool) or not (isinstance(self.l, int) and self.l >= 1):
            raise ValueError(f"discrete-series weight must be an integer >= 1, got {self.l}")


@dataclass(frozen=True)
class RealPlaceParams:
    blocks: tuple

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("need at least one block")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for b in self.blocks:
            if not isinstance(b, (GL1Block, DS2Block)):
                raise TypeError(f"unexpected block {b!r}")

    @property
    def rank(self) -> int:
        return sum(1 if isinstance(b, GL1Block) else 2 for b in self.blocks)

    @property
    def parity_dependent(self) -> bool:
        """Whether γ(s, π×sgn^δ, ψ) depends on δ: a sign twist moves GL1 parities only."""
        return any(isinstance(b, GL1Block) for b in self.blocks)


class PoleError(ArithmeticError):
    """Raised when s lands inside the guard disk around a Γ-pole."""

    def __init__(self, block_index: int, pole: complex, s: complex):
        self.block_index = block_index
        self.pole = pole
        self.s = s
        super().__init__(
            f"s={s} is within {POLE_DISK:g} of the pole {pole} of block {block_index}"
        )


# ---- log Γ ------------------------------------------------------------------

#: B_2, B_4, …, B_26 as (numerator, denominator)
_BERNOULLI = (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730), (8553103, 6),
)
#: Stirling's coefficients c_k = B_2k / (2k(2k−1)): log Γ(z) = (z − ½)·log z − z + ½·log 2π + Σ_k c_k·z^{1−2k}
_STIRLING = tuple(np.complex128(p / (q * 2 * k * (2 * k - 1))) for k, (p, q) in enumerate(_BERNOULLI, 1))
#: truncation error allowed to the series, absolute
_STIRLING_TOL = 1e-16
#: ascending 2ρ from which K = 12, 11, …, 2 terms meet the tolerance.  With
#: ρ = (|z| + Re z)/2 = |z|·cos²(½ arg z) the remainder after K terms is at most
#: |c_{K+1}|·sec^{2K+2}(½ arg z)/|z|^{2K+1} ≤ |c_{K+1}|/ρ^{2K+1}, for |arg z| < π.
_TWO_RHO = tuple(
    2 * (float(abs(_STIRLING[k])) / _STIRLING_TOL) ** (1 / (2 * k + 1)) for k in range(len(_STIRLING) - 1, 1, -1)
)
# numpy complex scalars: against a complex array they dispatch faster than Python floats
_HALF = np.complex128(0.5)
_ONE = np.complex128(1.0)
_STIRLING_CONST = np.complex128(0.5 * math.log(2.0 * math.pi) - 0.5)


def loggamma(z) -> np.ndarray:
    """Principal branch of log Γ(z), elementwise: the branch of ``mpmath.loggamma``.

    Stirling's series, with as many terms (2 to 12) as the smallest
    ρ = (|z| + Re z)/2 in the call needs.  An element with ρ below the
    12-term rung ρ_12 ≈ 5.94 is first shifted up by n = ⌈ρ_12 − Re z⌉ through

        log Γ(z) = log Γ(z + n) − Σ_{k<n} Log(z + k),

    which holds with the principal Log on the whole plane slit along (−∞, 0],
    so the shift keeps the principal branch.  On the slit, Log takes the side
    of the sign of Im z (Im z = +0: Im log Γ(−2.5) = −3π, as in mpmath).  The
    shift costs ⌈ρ_12 − Re z⌉ logs per shifted element, so it grows with −Re z
    near the negative axis; the other elements of the call pay nothing for it.
    Poles give +inf.
    """
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.ravel()
    rho2 = np.abs(z)
    rho2 += z.real
    low = rho2.min()
    shift = None
    if low < _TWO_RHO[0]:
        # only the low elements: (n_max × their count), not n_max × the whole call
        need = rho2 < _TWO_RHO[0]
        zn = z[need]
        n = np.ceil(0.5 * _TWO_RHO[0] - zn.real)
        k = np.arange(n.max())[:, None]
        shift = np.log(np.where(k < n, zn + k, 1.0)).sum(axis=0)
        z = z.copy()
        z[need] = zn + n
        low = _TWO_RHO[0]
    terms = len(_STIRLING) - bisect_right(_TWO_RHO, low)
    r = 1.0 / z
    w = r * r
    series = w * _STIRLING[terms - 1]  # Horner in w = z^{−2}, in place
    for c in _STIRLING[terms - 2:0:-1]:
        series += c
        series *= w
    series += _STIRLING[0]
    series *= r
    series += _STIRLING_CONST
    # (z − ½)·log z − z + ½·log 2π = (z − ½)·(log z − 1) + ½·log 2π − ½
    out = np.log(z)
    out -= _ONE
    out *= z - _HALF
    out += series
    if shift is not None:
        out[need] -= shift
    return out.reshape(shape)


# ---- Γ-pieces ---------------------------------------------------------------

#: kind → (h, log c, log f) with Γ_kind(z) = f · c^{−z/h} · Γ(z/h)
_KINDS = {"R": (2, _LOG_PI, 0.0), "C": (1, _LOG_2PI, math.log(2.0))}


@lru_cache(maxsize=256)
def gamma_pieces(params: RealPlaceParams, twist: int) -> tuple:
    """The Γ-pieces (kind, t, a, k) of π×sgn^δ, δ = ``twist``, one per block, kind "R" or "C"."""
    if twist not in (0, 1):
        raise ValueError(f"real-place twist parity must be 0 or 1, got {twist}")
    return tuple(
        ("R", b.t, (b.delta + twist) % 2, (b.delta + twist) % 2) if isinstance(b, GL1Block)
        else ("C", b.t, b.l / 2, b.l + 1)
        for b in params.blocks
    )


# ---- individual factors ----------------------------------------------------


def _log_l(pieces, s: complex) -> complex:
    # log ∏ Γ_kind(s + t + a), one log Γ per piece: finite where the product under- or overflows
    out = 0j
    for j, (kind, t, a, _) in enumerate(pieces):
        h, log_c, log_f = _KINDS[kind]
        z = (s + t + a) / h
        _check_pole(j, z, s, stride=h)
        out += log_f - z * log_c + complex(loggamma(z))
    return out


def l_factor(params: RealPlaceParams, twist: int, s: complex) -> complex:
    """Product over blocks of the local L-factor at s, with the twist folded in."""
    return cmath.exp(_log_l(gamma_pieces(params, twist), s))


def _check_pole(block_index: int, gamma_arg: complex, s: complex, stride: int) -> None:
    # Γ(a) poles sit at a = 0, −1, −2, …; translate the nearest one back to s.
    k = round(gamma_arg.real)
    if k > 0:
        return
    dist = abs(gamma_arg - k) * stride  # stride 2 when the argument is (s+…)/2
    if dist <= POLE_DISK:
        raise PoleError(block_index, s - stride * (gamma_arg - k), s)


def epsilon_factor(params: RealPlaceParams, twist: int) -> complex:
    """The s-independent root of unity i^{Σk} for the twisted parameters."""
    return _I_POW[sum(k for *_, k in gamma_pieces(params, twist)) % 4]


def contragredient_params(params: RealPlaceParams) -> RealPlaceParams:
    """Parameters of the contragredient: negate every t."""
    return RealPlaceParams(tuple(
        GL1Block(b.delta, -b.t) if isinstance(b, GL1Block) else DS2Block(b.l, -b.t)
        for b in params.blocks
    ))


def gamma_factor(params: RealPlaceParams, twist: int, s: complex) -> complex:
    """γ(s, π×χ, ψ) = ε(s, π×χ, ψ) · L(1−s, π~×χ̄) / L(s, π×χ).

    The ratio is formed as exp(log L(1−s, π~×χ̄) − log L(s, π×χ)), so it stays
    finite at heights where both L-factors underflow.  Raises OverflowError
    where γ itself exceeds double range.
    """
    pieces = gamma_pieces(params, twist)
    dual = [(kind, -t, a, k) for kind, t, a, k in pieces]  # π~ × χ̄
    return epsilon_factor(params, twist) * cmath.exp(_log_l(dual, 1 - s) - _log_l(pieces, s))


# ---- stable log form for contour integration -------------------------------


@lru_cache(maxsize=256)
def _mb_plan(params: RealPlaceParams, twist: int) -> tuple:
    """(const, slope, scale, offset): log γ(1−s) = const + slope·s + Σ ±log Γ(scale·s + offset), + on even rows.

    A piece (kind, t, a, k) gives, in v = s/h and with f cancelling,
    (1/h − 2v + 2t/h)·log c + log Γ(v + (a − t)/h) − log Γ(−v + (1 + t + a)/h),
    and k to the phase i^{Σk}: two rows of ``scale``/``offset``, the + row first.
    """
    const, slope, phase = 0j, 0.0, 0
    scale, offset = [], []
    for kind, t, a, k in gamma_pieces(params, twist):
        h, log_c, _ = _KINDS[kind]
        const += (1 + 2 * t) / h * log_c
        slope -= 2 * log_c / h
        scale += [1 / h, -1 / h]
        offset += [(a - t) / h, (1 + t + a) / h]
        phase += k
    return (
        np.complex128(const + cmath.log(_I_POW[phase % 4])),
        np.complex128(slope),
        np.array(scale)[:, None],
        np.array(offset, dtype=complex)[:, None],
    )


def log_mb_gamma(params: RealPlaceParams, twist: int, s) -> np.ndarray:
    """log γ(1−s, π×χ, ψ) as one combined expression, vectorised in s.

    This is the function whose inverse Mellin transform gives the Bessel
    function; combining the Γ-ratios and power factors inside a single log
    keeps the evaluation finite at contour heights where each L-factor alone
    would overflow.  All Γ arguments go to one ``loggamma`` call, stacked
    (2·pieces × points), with the per-(params, twist) plan of ``_mb_plan``.
    """
    const, slope, scale, offset = _mb_plan(params, twist)
    s = np.asarray(s, dtype=complex)
    z = scale * s.reshape(-1)
    z += offset
    lg = loggamma(z)
    # the ± rows summed in order, not by a BLAS product, which wakes a second OpenBLAS thread
    out = lg[0] - lg[1]
    for plus, minus in zip(lg[2::2], lg[3::2]):
        out += plus
        out -= minus
    out = out.reshape(s.shape)
    out += slope * s
    out += const
    return out
