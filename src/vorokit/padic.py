"""Exact nonarchimedean local toolkit.

Everything here is exact: matrix entries are rationals, Satake data lives in
small closed rings (ℚ and the quadratic fields ℚ(√d), with d = −1 giving
ℚ(i)), and additive-character values are kept as rational *turns* (the
fraction t in e^{2πi t}) rather than floats.  Satake data is made exact on
entry: :class:`SatakeParams` stores each integer it is given as a `Fraction`.
The conversion to floating complex happens once, at the boundary to global
sums, via :meth:`WhittakerValue.to_complex`.

The centrepiece is an exact Iwasawa decomposition g = u·t·k over ℚ_p, one
bottom-up column reduction for every rank, which turns spherical Whittaker
evaluation anywhere on the group into a torus-diagonal lookup: a ψ-phase
from the unipotent part, a power of √q from the modulus character, and one
Schur polynomial s_{(a,b)}(α) = h_a h_b − h_{a+1} h_{b−1} in the Satake
parameters (just h_a when b = 0, as always at rank 2).  On top of that sit
the ramified-twist transform of the basic vector and the rank-3
Kloosterman-type shell sum.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Singular",
    "DepthExceeded",
    "v_p",
    "padic_fractional_part",
    "psi_phase",
    "QSqrt",
    "SatakeParams",
    "satake_from_eigenvalue",
    "contragredient_satake",
    "elementary_symmetric",
    "whittaker_diag",
    "local_l_series_check",
    "PAdicMat",
    "iwasawa",
    "WhittakerValue",
    "whittaker_general",
    "ramified_transform_gl2",
    "twist_depth",
    "vanishing_shells",
    "kloosterman_gl3",
]


class Singular(ArithmeticError):
    """Matrix has determinant zero where an invertible one is required."""


class DepthExceeded(ArithmeticError):
    """Shell enumeration hit its depth bound before contributions vanished."""


# ---- p-adic valuation and additive character -------------------------------


def v_p(x: Fraction | int, p: int) -> float:
    """p-adic valuation of a rational; +inf for 0."""
    fr = Fraction(x)
    if fr == 0:
        return math.inf
    v = 0
    num, den = fr.numerator, fr.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_fractional_part(x: Fraction | int, p: int) -> Fraction:
    """{x}_p ∈ [0, 1): the p-power tail of x, so that x − {x}_p ∈ ℤ_p.

    Computed with a modular inverse of the prime-to-p part of the
    denominator; exact, and additive mod 1.
    """
    fr = Fraction(x)
    v = v_p(fr, p)
    if v >= 0:
        return Fraction(0)
    pk = p ** int(-v)
    rest = fr.denominator // pk
    s = (fr.numerator * pow(rest, -1, pk)) % pk
    return Fraction(s, pk)


def psi_phase(x: Fraction | int, p: int) -> Fraction:
    """Rational turns of ψ_p(x) = e^{−2πi{x}_p}, i.e. −{x}_p mod 1."""
    return (-padic_fractional_part(x, p)) % 1


def _exact_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("float is not exact here; pass int, Fraction or str")
    return Fraction(x)


# ---- closed exact rings ----------------------------------------------------


@dataclass(frozen=True)
class QSqrt:
    """a + b·√d with rational a, b: the smallest ring keeping √d exact.

    d is a fixed radicand: either −1 (the Gaussian rationals ℚ(i), for exactly
    complex Satake data) or a non-square integer ≥ 2.  Division multiplies by
    the conjugate, so the ring is actually a field; mixing two different
    radicands raises TypeError instead of silently demoting to float.
    """

    d: int
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _exact_fraction(self.a))
        object.__setattr__(self, "b", _exact_fraction(self.b))
        if self.d != -1 and (self.d < 2 or math.isqrt(self.d) ** 2 == self.d):
            raise ValueError("radicand must be −1 or a non-square integer ≥ 2")

    # -- coercion
    def _lift(self, other):
        if isinstance(other, QSqrt):
            if other.d != self.d:
                raise TypeError(f"√{self.d} and √{other.d} do not mix exactly")
            return other
        if isinstance(other, (int, Fraction)):
            return QSqrt(self.d, Fraction(other), Fraction(0))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QSqrt(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "QSqrt":
        return QSqrt(self.d, -self.a, -self.b)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QSqrt(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QSqrt(
            self.d,
            self.a * o.a + self.d * self.b * o.b,
            self.a * o.b + self.b * o.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        nrm = o.a * o.a - self.d * o.b * o.b
        if nrm == 0:
            raise ZeroDivisionError("division by zero in ℚ(√d)")
        inv = QSqrt(self.d, o.a / nrm, -o.b / nrm)
        return self * inv

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (1 / self) ** (-n)
        out = QSqrt(self.d, Fraction(1), Fraction(0))
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, QSqrt):
            if other.d != self.d:
                return self.b == 0 == other.b and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as the rational, matching __eq__ across radicands
        if self.b == 0:
            return hash(self.a)
        return hash((self.d, self.a, self.b))

    def __float__(self) -> float:
        if self.d < 0:
            raise TypeError("a Gaussian rational has no float value")
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __complex__(self) -> complex:
        if self.d < 0:
            return complex(float(self.a), float(self.b) * math.sqrt(-self.d))
        return complex(float(self))

    def __repr__(self) -> str:
        return f"({self.a} + {self.b}·√{self.d})"


def _times_sqrt_pow(value, q: int, k: int):
    """value·(√q)^k, exactly.

    A square q contributes the rational (√q)^k.  Otherwise even k stays in
    the ring, and odd k lands in ℚ(√q); if `value` already lives in ℚ(√d)
    with d ≠ q, the product has no exact form here and QSqrt raises
    TypeError.
    """
    root = math.isqrt(q)
    if root * root == q:
        return value * Fraction(root) ** k
    if k % 2 == 0:
        return value * Fraction(q) ** (k // 2)
    return QSqrt(q, Fraction(0), Fraction(q) ** ((k - 1) // 2)) * value


# ---- symmetric functions and Satake data -----------------------------------


def elementary_symmetric(alpha) -> tuple:
    """(e₁, …, e_n) of the given values, via ∏(1 + α_i Y) expanded exactly."""
    coeffs = [Fraction(1)]
    for a in alpha:
        nxt = coeffs + [Fraction(0)]
        for k in range(len(coeffs), 0, -1):
            nxt[k] = nxt[k] + a * coeffs[k - 1]
        coeffs = nxt
    return tuple(coeffs[1:])


def _h_sequence(elem: tuple, m_max: int) -> list:
    """h_0 … h_{m_max} from the Newton-style recursion h_m = Σ (−1)^{i−1} e_i h_{m−i}."""
    h = [Fraction(1)]
    n = len(elem)
    for m in range(1, m_max + 1):
        acc = Fraction(0)
        for i in range(1, min(n, m) + 1):
            term = elem[i - 1] * h[m - i]
            acc = acc + term if i % 2 == 1 else acc - term
        h.append(acc)
    return h


@dataclass(frozen=True)
class SatakeParams:
    """Unramified local datum: residue cardinality q and Satake values α.

    Everything downstream consumes only `elem` — the elementary symmetric
    functions of α — so exactness is preserved whenever `elem` is exact even
    if the α display entries are floating roots (as with
    :func:`satake_from_eigenvalue`).  Each `int` in `alpha` and in a given
    `elem` is stored as its `Fraction`, so 1 / a and e ** −k stay exact.
    """

    q: int
    alpha: tuple
    elem: tuple | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError("residue cardinality must be an integer ≥ 2")
        alpha = tuple(Fraction(a) if isinstance(a, int) else a for a in self.alpha)
        if not alpha:
            raise ValueError("need at least one Satake value")
        if any(a == 0 for a in alpha):
            raise ValueError("Satake values must be nonzero")
        object.__setattr__(self, "alpha", alpha)
        elem = self.elem
        if elem is None:
            elem = elementary_symmetric(alpha)
        else:
            elem = tuple(Fraction(e) if isinstance(e, int) else e for e in elem)
            if len(elem) != len(alpha):
                raise ValueError("need exactly n elementary symmetric values")
            if elem[-1] == 0:
                raise ValueError("top elementary symmetric value must be nonzero")
        object.__setattr__(self, "elem", elem)

    @property
    def n(self) -> int:
        return len(self.alpha)


def satake_from_eigenvalue(q: int, lam) -> SatakeParams:
    """Hecke eigenvalue → Satake pair {α, α⁻¹} (rank 2, trivial central character).

    `lam` may be any exact ring element; the stored symmetric functions are
    (λ, 1) and the display roots solve X² − λX + 1 = 0.
    """
    lamc = complex(lam)
    root = cmath.sqrt(lamc * lamc - 4)
    alpha = ((lamc + root) / 2, (lamc - root) / 2)
    return SatakeParams(q, alpha, elem=(lam, 1))


def contragredient_satake(sp: SatakeParams) -> SatakeParams:
    """Dual datum {α_i⁻¹}; symmetric functions ẽ_i = e_{n−i}/e_n, kept exact."""
    n = sp.n
    e = (Fraction(1), *sp.elem)
    elem = tuple(e[n - i] / e[n] for i in range(1, n + 1))
    alpha = tuple(1 / a for a in sp.alpha)
    return SatakeParams(sp.q, alpha, elem=elem)


# ---- diagonal Whittaker values ----------------------------------------------


def whittaker_diag(sp: SatakeParams, m: int):
    """°W(diag(ϖ^m, 1, …, 1)) = q^{−m(n−1)/2} h_m(α), zero for m < 0."""
    if m < 0:
        return Fraction(0)
    h = _h_sequence(sp.elem, m)[m]
    return _times_sqrt_pow(h, sp.q, -m * (sp.n - 1))


# ---- the local L-identity --------------------------------------------------


def local_l_series_check(sp: SatakeParams, order: int, series=None):
    """(Σ_m h_m X^m)·∏_i(1 − α_i X) ≡ 1 through the given order, exactly.

    Returns h_0 … h_order as a tuple and the verdict.  Passing `series` (a
    sequence) substitutes the h's — the hook the corrupted-coefficient
    negative control uses.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    h = tuple(series) if series is not None else tuple(_h_sequence(sp.elem, order))
    lpoly = [Fraction(1)] + [-e if i % 2 == 1 else e for i, e in enumerate(sp.elem, start=1)]
    product = [
        sum((h[k - j] * lpoly[j] for j in range(min(k, sp.n) + 1)), Fraction(0))
        for k in range(min(len(h) - 1, order) + 1)
    ]
    # == 0, not truthiness: QSqrt defines no __bool__, so every QSqrt is truthy
    return h, product[0] == 1 and all(c == 0 for c in product[1:])


# ---- exact matrices over ℚ_p ----------------------------------------------


@dataclass(frozen=True)
class PAdicMat:
    """Small square matrix of exact rationals, read p-adically."""

    p: int
    entries: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < 2:
            raise ValueError("p must be an integer ≥ 2")
        rows = tuple(tuple(_exact_fraction(x) for x in row) for row in self.entries)
        if len(rows) not in (2, 3) or any(len(r) != len(rows) for r in rows):
            raise ValueError("only square matrices of size 2 or 3")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, p: int, size: int) -> "PAdicMat":
        return cls(p, tuple(tuple(Fraction(int(i == j)) for j in range(size)) for i in range(size)))

    @classmethod
    def diagonal(cls, p: int, diag) -> "PAdicMat":
        d = tuple(diag)
        return cls(p, tuple(tuple(d[i] if i == j else 0 for j in range(len(d))) for i in range(len(d))))

    @classmethod
    def elementary(cls, p: int, size: int, i: int, j: int, y) -> "PAdicMat":
        """Identity plus y in position (i, j) — the unipotent n_{ij}(y) for i ≠ j."""
        rows = [[Fraction(int(a == b)) for b in range(size)] for a in range(size)]
        rows[i][j] = rows[i][j] + Fraction(y)
        return cls(p, tuple(tuple(r) for r in rows))

    def __matmul__(self, other: "PAdicMat") -> "PAdicMat":
        if not isinstance(other, PAdicMat):
            return NotImplemented
        if other.p != self.p or other.size != self.size:
            raise ValueError("matrices live over different local fields or sizes")
        n = self.size
        return PAdicMat(
            self.p,
            tuple(
                tuple(sum(self.entries[i][k] * other.entries[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            ),
        )

    def det(self) -> Fraction:
        e = self.entries
        if self.size == 2:
            return e[0][0] * e[1][1] - e[0][1] * e[1][0]
        return (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )

    def inverse(self) -> "PAdicMat":
        d = self.det()
        if d == 0:
            raise Singular("matrix is not invertible")
        e = self.entries
        if self.size == 2:
            adj = ((e[1][1], -e[0][1]), (-e[1][0], e[0][0]))
        else:
            # cyclic minors: the (j+1, j+2) × (i+1, i+2) ordering already
            # carries the checkerboard sign of the adjugate
            adj = tuple(
                tuple(
                    e[(j + 1) % 3][(i + 1) % 3] * e[(j + 2) % 3][(i + 2) % 3]
                    - e[(j + 1) % 3][(i + 2) % 3] * e[(j + 2) % 3][(i + 1) % 3]
                    for j in range(3)
                )
                for i in range(3)
            )
        return PAdicMat(self.p, tuple(tuple(x / d for x in row) for row in adj))

    def is_integral(self) -> bool:
        return all(v_p(x, self.p) >= 0 for row in self.entries for x in row)

    def has_unit_det(self) -> bool:
        return v_p(self.det(), self.p) == 0


# ---- exact Iwasawa decompositions ------------------------------------------


def _pivot_col(row, cols, p: int) -> int:
    """Leftmost column of minimal valuation among `cols` of the given row."""
    best = cols[0]
    best_v = v_p(row[best], p)
    for c in cols[1:]:
        v = v_p(row[c], p)
        if v < best_v:
            best, best_v = c, v
    return best


def _swap_cols(mat, i: int, j: int) -> None:
    for row in mat:
        row[i], row[j] = row[j], row[i]


def _add_col(mat, dst: int, src: int, factor: Fraction) -> None:
    for row in mat:
        row[dst] = row[dst] + factor * row[src]


def iwasawa(g: PAdicMat):
    """Exact g = u·t·k with k ∈ GL_n(ℤ_p).

    Already-integral unit-determinant matrices pass straight through as the
    k part.  Otherwise the rows are pivoted from the bottom up: row r picks
    its column of minimal valuation among 0..r (ties toward the left),
    swaps it into column r and clears the columns to its left, all by
    integral column operations; the tests confirm the factors re-multiply
    to g exactly.
    """
    if g.det() == 0:
        raise Singular("matrix is not invertible")
    n = g.size
    if g.is_integral() and g.has_unit_det():
        eye = PAdicMat.identity(g.p, n)
        return eye, eye, g
    a = [list(row) for row in g.entries]
    kinv = [list(row) for row in PAdicMat.identity(g.p, n).entries]
    for r in range(n - 1, 0, -1):
        c = _pivot_col(a[r], range(r + 1), g.p)
        if c != r:
            _swap_cols(a, c, r)
            _swap_cols(kinv, c, r)
        for c2 in range(r):
            ratio = a[r][c2] / a[r][r]
            _add_col(a, c2, r, -ratio)
            _add_col(kinv, c2, r, -ratio)
    tdiag = [a[i][i] for i in range(n)]
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / tdiag[j]
    return (
        PAdicMat(g.p, tuple(tuple(row) for row in u)),
        PAdicMat.diagonal(g.p, tdiag),
        PAdicMat(g.p, tuple(tuple(row) for row in kinv)).inverse(),
    )


# ---- Whittaker values off the torus ----------------------------------------


@dataclass(frozen=True)
class WhittakerValue:
    """Exact value e^{2πi·turns}·(√q)^{half}·coef.

    `turns` is the additive-character phase as a rational number of turns,
    `half` ∈ {0, 1} the leftover √q parity (whole q-powers are folded into
    `coef`), and `coef` lives in whatever exact ring the Satake data sits in.
    Zero is canonicalised so `==` means exact equality of values.
    """

    q: int
    turns: Fraction
    half: int
    coef: object

    def __post_init__(self) -> None:
        turns = Fraction(self.turns) % 1
        half, coef = self.half, self.coef
        if half not in (0, 1):
            coef = coef * Fraction(self.q) ** ((half - (half % 2)) // 2)
            half = half % 2
        if coef == 0:
            turns, half, coef = Fraction(0), 0, Fraction(0)
        object.__setattr__(self, "turns", turns)
        object.__setattr__(self, "half", half)
        object.__setattr__(self, "coef", coef)

    @property
    def is_zero(self) -> bool:
        return self.coef == 0

    def rotated(self, dturns: Fraction) -> "WhittakerValue":
        return WhittakerValue(self.q, self.turns + dturns, self.half, self.coef)

    def scalar(self):
        """The value as an exact ring element; only defined for phase 0."""
        if self.turns != 0:
            raise ValueError("value carries a nontrivial phase")
        return _times_sqrt_pow(self.coef, self.q, self.half)

    def to_complex(self) -> complex:
        phase = cmath.exp(2j * math.pi * float(self.turns)) if self.turns else 1.0
        return phase * self.q ** (self.half / 2) * complex(self.coef)

    def describe(self) -> dict:
        return {"turns": str(self.turns), "sqrtq_power": self.half, "coef": repr(self.coef)}


def _check_field(sp: SatakeParams, g: PAdicMat) -> None:
    if g.p != sp.q:
        raise ValueError("matrix prime and Satake residue cardinality disagree")
    if g.size != sp.n:
        raise ValueError("matrix size and Satake rank disagree")


def whittaker_general(sp: SatakeParams, g: PAdicMat) -> WhittakerValue:
    """°W(g) anywhere on GL_n (n = 2, 3), through g = u·t·k.

    With m_i = v_p(t_ii): zero unless m₁ ≥ … ≥ m_n; otherwise the phase
    ψ_p(Σ u_{i,i+1}) times q^{−⟨ρ, m⟩}·e_n^{m_n}·s_{(a,b)}(α), where
    (a, b) = (m₁ − m_n, m₂ − m_n) and the Schur value is h_a when b = 0
    (always so at rank 2) and h_a h_b − h_{a+1} h_{b−1} otherwise.
    """
    _check_field(sp, g)
    u, t, _ = iwasawa(g)
    n = g.size
    m = [int(v_p(t.entries[i][i], g.p)) for i in range(n)]
    if m != sorted(m, reverse=True):
        return WhittakerValue(sp.q, Fraction(0), 0, Fraction(0))
    a, b = m[0] - m[-1], m[1] - m[-1]
    if b == 0:
        schur = _h_sequence(sp.elem, a)[a]
    else:
        h = _h_sequence(sp.elem, a + 1)
        schur = h[a] * h[b] - h[a + 1] * h[b - 1]
    coef = sp.elem[-1] ** m[-1] * schur
    half = -sum((n - 1 - 2 * i) * mi for i, mi in enumerate(m))
    turns = psi_phase(sum((u.entries[i][i + 1] for i in range(1, n - 1)), u.entries[0][1]), g.p)
    return WhittakerValue(sp.q, turns, half, coef)


# ---- ramified additive twist of the basic vector ---------------------------


def ramified_transform_gl2(sp: SatakeParams, zeta_p, x) -> WhittakerValue:
    """Dual of the ζ-twisted basic vector at x, evaluated exactly.

    The twisted function ψ_p(ζx)·°W(diag(x, 1)) has dual the Whittaker value
    at diag(x, 1)·w₂·n(ζ) = [[0, −x], [1, ζ]]; the Iwasawa pipeline does the
    rest.  For integral ζ this collapses to the untwisted dual shell values;
    for v_p(ζ) = −r < 0 the support extends down to v_p(x) = −2r, picking up
    the ψ-phase of −x/ζ on the new shells.  Needs trivial central character
    (so the datum is its own dual).
    """
    if sp.n != 2:
        raise ValueError("rank-2 Satake data required")
    if sp.elem[1] != 1:
        raise ValueError("trivial central character required")
    xq = Fraction(x)
    if xq == 0:
        raise ValueError("x must be a nonzero rational")
    mat = PAdicMat(sp.q, ((0, -xq), (1, Fraction(zeta_p))))
    return whittaker_general(sp, mat)


# ---- valuation shells, and the rank-3 Kloosterman-type shell sum -----------


def twist_depth(zeta, p: int) -> int:
    """2r + 3, r = −v_p(ζ): how deep a shell walk for the twist ζ looks for the end of its support."""
    return 2 * -int(v_p(zeta, p)) + 3


def vanishing_shells(shell, start: int, depth: int):
    """(j, shell(j)) for the valuation shells j = start, start − 1, …, ``shell(j)`` listing shell j's
    nonzero terms, up to the second of two empty shells in a row: the end of the support, an exact
    statement and not a numerical cutoff.  Raises DepthExceeded if that has not come by j = −depth.
    """
    empty = 0
    for j in range(start, -depth - 1, -1):
        terms = shell(j)
        yield j, terms
        empty = 0 if terms else empty + 1
        if empty == 2:
            return
    raise DepthExceeded(f"no vanishing detected within {depth} shells")


def kloosterman_gl3(
    alpha,
    zeta_p,
    sp: SatakeParams,
    shell_depth: int | None = None,
) -> dict:
    """|ζ|_p · Σ over valuation shells of ψ̄(y)·°W̃(τ·n₁₂(y)), exactly.

    τ = [[0, −α/ζ, 0], [1, 0, 0], [0, 0, −ζ]].  The y-line splits into ℤ_p
    (volume 1, ψ̄ trivial — the base term) and shells p^j ℤ_p^× for j ≤ −1,
    each a finite union of classes p^j v₀ + ℤ_p of volume 1 on which both the
    phase and the Whittaker value are constant.  The shells j ≤ −1 are walked
    by :func:`vanishing_shells`: enumeration stops once two consecutive shells
    contribute exactly zero, and raises DepthExceeded if that never happens
    within `shell_depth` (default :func:`twist_depth`) shells.  Returns the
    value with its prefactor |ζ|_p, the shell where vanishing was detected,
    the depth allowed and each shell's exact terms.
    """
    if sp.n != 3:
        raise ValueError("rank-3 Satake data required")
    p = sp.q
    alpha = Fraction(alpha)
    zeta = Fraction(zeta_p)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    r = v_p(zeta, p)
    if not r < 0:
        raise ValueError("|ζ|_p must exceed 1")
    r = int(r)
    if shell_depth is None:
        shell_depth = twist_depth(zeta, p)
    spd = contragredient_satake(sp)
    tau = PAdicMat(p, ((0, -alpha / zeta, 0), (1, 0, 0), (0, 0, -zeta)))
    shells: dict[int, list[WhittakerValue]] = {}
    base = whittaker_general(spd, tau)
    shells[0] = [] if base.is_zero else [base]

    def shell_terms(j):
        mod = p ** (-j)
        terms = []
        for v0 in range(1, mod):
            if v0 % p == 0:
                continue
            y = Fraction(v0, mod)
            wv = whittaker_general(spd, tau @ PAdicMat.elementary(p, 3, 0, 1, y))
            if not wv.is_zero:
                terms.append(wv.rotated(padic_fractional_part(y, p)))
        return terms

    for j, terms in vanishing_shells(shell_terms, -1, shell_depth):
        shells[j] = terms
    vanished_at = j + 1  # the first of the two empty shells
    prefactor = p ** (-r)
    acc = 0j
    for jj in sorted(shells):
        for term in shells[jj]:
            acc += term.to_complex()
    return {
        "value": prefactor * acc,
        "prefactor": prefactor,
        "vanished_at": vanished_at,
        "shell_depth": shell_depth,
        "shells": {jj: [t.describe() for t in ts] for jj, ts in shells.items()},
    }
