"""Archimedean local factors over ℝ and ℂ.

A representation of GL(n, ℝ) is described here by an ordered list of blocks,
each either a character of GL(1) or a two-dimensional discrete-series block:

    GL1Block(δ, t):   L(s) = π^{-(s+t+δ)/2} Γ((s+t+δ)/2),        ε = i^δ
    DS2Block(l, t):   L(s) = 2 (2π)^{-(s+t+l/2)} Γ(s+t+l/2),     ε = i^{l+1}

with δ ∈ {0,1} the parity and l ≥ 1 the weight parameter.  Over ℂ every block
is a character [z]^l |z|^t of ℂ^× and

    block (t, l):     L(s) = 2 (2π)^{-(s+t+|l|/2)} Γ(s+t+|l|/2),  ε = i^{|l|}.

A unitary twist (sgn^δ over ℝ, [·]^m over ℂ) is folded into the block data
rather than materialised: GL1 parities shift by δ mod 2, complex winding
numbers shift by m, and discrete-series blocks are unchanged.

The γ-factor is the functional-equation ratio

    γ(s, π×χ, ψ) = ε(s, π×χ, ψ) · L(1−s, π~ × χ̄) / L(s, π×χ),

where π~ is the contragredient (parameter negation, see
``contragredient_params``).  ``log_mb_gamma`` evaluates log γ(1−s, ·) in a
single stable expression for use on integration contours at large height,
where the L-factors individually overflow double precision.

All functions are pure; parameter objects are frozen and hashable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import loggamma

__all__ = [
    "GL1Block",
    "DS2Block",
    "RealPlaceParams",
    "ComplexBlock",
    "ComplexPlaceParams",
    "CharTwist",
    "PoleError",
    "l_factor",
    "epsilon_factor",
    "gamma_factor",
    "contragredient_params",
    "log_mb_gamma",
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
        if self.delta not in (0, 1):
            raise ValueError(f"GL1 parity must be 0 or 1, got {self.delta}")


@dataclass(frozen=True)
class DS2Block:
    l: int
    t: complex = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.l, int) and self.l >= 1):
            raise ValueError(f"discrete-series weight must be an integer >= 1, got {self.l}")


RealBlock = Union[GL1Block, DS2Block]


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


@dataclass(frozen=True)
class ComplexBlock:
    t: complex = 0.0
    l: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.l, int):
            raise ValueError(f"winding index must be an integer, got {self.l!r}")


@dataclass(frozen=True)
class ComplexPlaceParams:
    blocks: tuple

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("need at least one block")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        for b in self.blocks:
            if not isinstance(b, ComplexBlock):
                raise TypeError(f"unexpected block {b!r}")

    @property
    def rank(self) -> int:
        return len(self.blocks)


PlaceParams = Union[RealPlaceParams, ComplexPlaceParams]


@dataclass(frozen=True)
class CharTwist:
    """Unitary character twist: winding m ∈ ℤ over ℂ, parity δ ∈ {0,1} over ℝ."""

    value: int = 0


class PoleError(ArithmeticError):
    """Raised when s lands inside the guard disk around a Γ-pole."""

    def __init__(self, block_index: int, pole: complex, s: complex):
        self.block_index = block_index
        self.pole = pole
        self.s = s
        super().__init__(
            f"s={s} is within {POLE_DISK:g} of the pole {pole} of block {block_index}"
        )


def _real_twist(params: RealPlaceParams, twist: CharTwist) -> int:
    d = twist.value
    if d not in (0, 1):
        raise ValueError(f"real-place twist parity must be 0 or 1, got {d}")
    return d


# ---- individual factors ----------------------------------------------------


def l_factor(params: PlaceParams, twist: CharTwist, s: complex) -> complex:
    """Product over blocks of the local L-factor at s, with the twist folded in."""
    out = 1.0 + 0.0j
    if isinstance(params, RealPlaceParams):
        d = _real_twist(params, twist)
        for j, b in enumerate(params.blocks):
            if isinstance(b, GL1Block):
                eps = (b.delta + d) % 2
                a = (s + b.t + eps) / 2
                _check_pole(j, a, s, stride=2)
                out *= cmath.exp(-a * _LOG_PI + loggamma(complex(a)))
            else:
                a = s + b.t + b.l / 2
                _check_pole(j, a, s, stride=1)
                out *= 2.0 * cmath.exp(-a * _LOG_2PI + loggamma(complex(a)))
        return out
    m = twist.value
    for j, b in enumerate(params.blocks):
        a = s + b.t + abs(b.l + m) / 2
        _check_pole(j, a, s, stride=1)
        out *= 2.0 * cmath.exp(-a * _LOG_2PI + loggamma(complex(a)))
    return out


def _check_pole(block_index: int, gamma_arg: complex, s: complex, stride: int) -> None:
    # Γ(a) poles sit at a = 0, −1, −2, …; translate the nearest one back to s.
    k = round(gamma_arg.real)
    if k > 0:
        return
    dist = abs(gamma_arg - k) * stride  # stride 2 when the argument is (s+…)/2
    if dist <= POLE_DISK:
        raise PoleError(block_index, s - stride * (gamma_arg - k), s)


def epsilon_factor(params: PlaceParams, twist: CharTwist) -> complex:
    """The s-independent root of unity ∏ i^{…} for the twisted parameters."""
    k = 0
    if isinstance(params, RealPlaceParams):
        d = _real_twist(params, twist)
        for b in params.blocks:
            k += (b.delta + d) % 2 if isinstance(b, GL1Block) else b.l + 1
    else:
        m = twist.value
        for b in params.blocks:
            k += abs(b.l + m)
    return _I_POW[k % 4]


def contragredient_params(params: PlaceParams) -> PlaceParams:
    """Parameters of the contragredient: negate every t (and l over ℂ)."""
    if isinstance(params, RealPlaceParams):
        blocks = tuple(
            GL1Block(b.delta, -b.t) if isinstance(b, GL1Block) else DS2Block(b.l, -b.t)
            for b in params.blocks
        )
        return RealPlaceParams(blocks)
    return ComplexPlaceParams(tuple(ComplexBlock(-b.t, -b.l) for b in params.blocks))


def _conj_twist(params: PlaceParams, twist: CharTwist) -> CharTwist:
    # sgn^δ is self-conjugate; [·]^m conjugates to [·]^{−m}.
    if isinstance(params, RealPlaceParams):
        return twist
    return CharTwist(-twist.value)


def gamma_factor(params: PlaceParams, twist: CharTwist, s: complex) -> complex:
    """γ(s, π×χ, ψ) = ε(s, π×χ, ψ) · L(1−s, π~×χ̄) / L(s, π×χ)."""
    dual = contragredient_params(params)
    num = l_factor(dual, _conj_twist(params, twist), 1 - s)
    den = l_factor(params, twist, s)
    return epsilon_factor(params, twist) * num / den


# ---- stable log form for contour integration -------------------------------


def log_mb_gamma(params: PlaceParams, twist: CharTwist, s) -> np.ndarray:
    """log γ(1−s, π×χ, ψ) as one combined expression, vectorised in s.

    This is the function whose inverse Mellin transform gives the Bessel
    function; combining the Γ-ratios and power factors inside a single log
    keeps the evaluation finite at contour heights where each L-factor alone
    would overflow.  For complex-place parameters the variable is the doubled
    one (s here is w, the γ-ratio being formed at w/2), matching the contour
    normalisation in :mod:`vorokit.contours`.
    """
    s = np.asarray(s, dtype=complex)
    out = np.zeros_like(s)
    if isinstance(params, RealPlaceParams):
        d = _real_twist(params, twist)
        phase = 0
        for b in params.blocks:
            if isinstance(b, GL1Block):
                eps = (b.delta + d) % 2
                phase += eps
                out = out + (
                    (1 - 2 * s + 2 * b.t) / 2 * _LOG_PI
                    + loggamma((s - b.t + eps) / 2)
                    - loggamma((1 - s + b.t + eps) / 2)
                )
            else:
                phase += b.l + 1
                out = out + (
                    (1 - 2 * s + 2 * b.t) * _LOG_2PI
                    + loggamma(s - b.t + b.l / 2)
                    - loggamma(1 - s + b.t + b.l / 2)
                )
        return out + cmath.log(_I_POW[phase % 4])
    m = twist.value
    phase = 0
    for b in params.blocks:
        a = abs(b.l + m) / 2
        phase += abs(b.l + m)
        out = out + (
            (1 - s + 2 * b.t) * _LOG_2PI
            + loggamma(s / 2 - b.t + a)
            - loggamma(1 - s / 2 + b.t + a)
        )
    return out + cmath.log(_I_POW[phase % 4])
