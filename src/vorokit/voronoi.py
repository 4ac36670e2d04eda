"""Desk-scale verification of the level-1 GL(2)/ℚ twisted summation identity.

One side is a plainly computable sum Σ e(−na/c)·λ(n)·n^{−1/2}·w(n) over the
Hecke eigenvalues of the form a coefficient table records (by default Δ, the
weight-12 cusp form); the other reassembles the same number from the dual
side: the dual function w̃ at the table's real place (convolution route),
exact ramified transforms of its Satake data at the primes dividing c, and
the untwisted dual coefficients everywhere else.  The two sides share *no*
code path beyond the coefficient table, which is what makes the residual a
real check and not a tautology.

Coefficients are exact integers (eta-product expansion, multimodular in int64);
the ramified local factors are exact ring elements with rational phase turns,
constant on each unit class of a p-adic shell, and converted to floating
complex once per class through ``WhittakerValue.to_complex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .archimedean import DS2Block, RealPlaceParams
from .hankel import KernelCache, TestFunction, hankel_convolution_batch
from .padic import QSqrt, ramified_transform_gl2, satake_from_eigenvalue, twist_depth, v_p, vanishing_shells
from .quadrature import ToleranceNotMet

__all__ = [
    "TruncationTooSmall",
    "TailNotConverged",
    "DualWalk",
    "DELTA_PLACE",
    "DirichletCoeffs",
    "tau_coefficients",
    "coeffs_from_file",
    "multiplicativity_check",
    "VoronoiJob",
    "lhs_theta",
    "rhs_theta",
    "voronoi_residual",
]


class TruncationTooSmall(ValueError):
    """The coefficient truncation does not cover the support of w."""


class TailNotConverged(ArithmeticError):
    """A dual sum failed to stabilise within the coefficient budget."""


# ---- the dual-sum walk: rhs_theta's α-windows and gj.DualGrid's octaves -----


class DualWalk:
    """Σ_j term(window j) over dyadic windows of dual points, each built once.

    `points(j)` → (xs, info): window j's dual points and what its term reads
    besides; `sample(xs, tol, cache)` → w̃(xs) to per-point tol.  Windows are
    kept, so sums sharing a walk (a scan over s) sample each once.  The
    per-point tolerance is the caller's `share` of its tol, floored so far
    batches, whose kernel arguments push the oscillatory engine toward its
    roundoff floor (~3e-13), are not asked for more than double precision
    delivers, and capped so a loose job still gets a usable w̃.
    """

    def __init__(self, sample, share: float, points):
        self.sample, self.points = sample, points
        self.wtol = min(1e-7, max(2e-9, share))
        self.cache = KernelCache()
        self.windows: list[dict] = []

    def ensure(self) -> None:
        """Build the next window: {**info, "xs", "vals", "dual_tol", "kernel_panels"}.

        A batch that raises ToleranceNotMet is retried once at 8·wtol (a second
        miss propagates) and records the tolerance it met and the model panels
        it built and reused, so every report shows the fallback.  Far batches
        carry negligible weight, so the looser pass costs nothing against the
        tol/10 tail threshold.
        """
        xs, info = self.points(len(self.windows))
        try:
            met, vals = self.wtol, self.sample(xs, self.wtol, self.cache)
        except ToleranceNotMet:
            met = 8 * self.wtol
            vals = self.sample(xs, met, self.cache)
        record = {"dual_tol": met, "kernel_panels": self.cache.panel_counts()}
        self.windows.append({**info, "xs": xs, "vals": vals, **record})

    def total(self, term, tol: float, count: int, reach: str) -> tuple[complex, list[float]]:
        """(Σ term(window j), each |term| read) over j < count, up to and
        including the second consecutive term below tol/10; a larger term
        resets the count.  Windows that run out first raise TailNotConverged,
        which names `reach`, how far they went."""
        total, seen, small = 0j, [], 0
        for j in range(count):
            if j == len(self.windows):
                self.ensure()
            total += (t := term(self.windows[j]))
            seen.append(abs(t))
            small = small + 1 if seen[-1] < tol / 10 else 0
            if small == 2:
                return total, seen
        last = [round(a, 12) for a in seen[-3:]]
        raise TailNotConverged(f"dual sum still above tol/10 after {reach} (last terms: {last})")


# ---- coefficient tables: a form's λ(n), its real place and Satake data -----


# Δ, the level-1 cusp form of weight 12: its real place is the discrete series D_11
DELTA_PLACE = RealPlaceParams((DS2Block(11, 0.0),))


@dataclass(frozen=True, eq=False)
class DirichletCoeffs:
    """Hecke-normalised coefficients λ(1..n) of one form at real place `params`; exact integers kept when known.

    `exact` holds the un-normalised integer coefficients when they are known
    (so multiplicativity can be checked with no rounding at all); a
    file-loaded table carries floats only and has `exact` None.
    """

    n: int
    values: np.ndarray
    params: RealPlaceParams
    exact: tuple | None = None

    def lam(self, n: int) -> complex:
        return complex(self.values[n - 1])

    def satake(self, p: int):
        """Satake data at p of a place of one DS2Block(l), l odd: λ(p) = a(p)·√p/p^{(l+1)/2} exactly."""
        if self.exact is None:
            raise ValueError("ramified places need the exact integer coefficient table")
        if p > self.n:
            raise TruncationTooSmall(f"no coefficient at p = {p}")
        (block,) = self.params.blocks
        root_coef = Fraction(self.exact[p - 1], p ** ((block.l + 1) // 2))
        return satake_from_eigenvalue(p, QSqrt(p, Fraction(0), root_coef))


def _eta_cube_sparse(nmax: int):
    """Exponent/coefficient pairs of Σ (−1)^k (2k+1) q^{k(k+1)/2} up to q^nmax."""
    out = []
    k = 0
    while k * (k + 1) // 2 <= nmax:
        out.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    return out


# the largest primes below 2^31; six cover every N < 1.7·10⁹, beyond any table that fits in memory
_CRT_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)


def _crt_signed(residues: np.ndarray, primes: tuple) -> list:
    """The integers in (−P/2, P/2), P = ∏ primes, with the given residues (one row per prime).

    Garner's mixed-radix digits are formed in int64: every product is of two
    numbers below 2^31.  Only the final Σ digit·(radix) is in Python ints.
    """
    digits = []
    for r, p in zip(residues, primes):
        v = r
        for d, q in zip(digits, primes):
            v = (v - d) % p * pow(q, -1, p) % p
        digits.append(v)
    total = np.zeros(residues.shape[1], dtype=object)
    for d, p in zip(digits[::-1], primes[::-1]):
        total = total * p + d.astype(object)
    big = math.prod(primes)
    return [int(t) - big if 2 * t > big else int(t) for t in total]


def tau_coefficients(N: int) -> DirichletCoeffs:
    """λ(n) = τ(n)/n^{11/2} for n ≤ N, from the exact eta-product expansion.

    The 24th power of ∏(1−q^j) is built as the 8th power of the sparse
    triangular-number series for the cube: eight dense×sparse passes, O(N^{3/2})
    work.  They run in int64 modulo the first few ``_CRT_PRIMES`` at once,
    as many as make the primes' product exceed 4N⁶: Deligne's bound gives
    |τ(n)| ≤ d(n)·n^{11/2} < 2N⁶, so the residues fix τ(n) in (−P/2, P/2)
    and the CRT recovers it exactly.
    """
    if N < 1:
        raise ValueError("need at least one coefficient")
    k = next(k for k in range(1, len(_CRT_PRIMES) + 1) if math.prod(_CRT_PRIMES[:k]) > 4 * N**6)
    primes = _CRT_PRIMES[:k]
    ps = np.array(primes, dtype=np.int64)[:, None]
    sparse = _eta_cube_sparse(N - 1)
    d = np.zeros((k, N), dtype=np.int64)
    d[:, 0] = 1
    for _ in range(8):
        # one reduction per pass: every d < p < 2^31 on entry and the pass's K terms
        # have Σ|c| = Σ(2j+1) = K², so |nd| < K²·2^31, below 2^63 while K < 2^16, which
        # K(K−1)/2 < N < 2^31 ensures (at N = 10⁴: 141 terms of at most 281·2^31)
        nd = np.zeros_like(d)
        for e, cth in sparse:
            nd[:, e:] += cth * d[:, : N - e]
        d = nd % ps
    tau = tuple(_crt_signed(d, primes))
    ns = np.arange(1, N + 1, dtype=float)
    lam = np.array([float(t) for t in tau]) / ns**5.5
    return DirichletCoeffs(N, lam.astype(complex), DELTA_PLACE, tau)


def coeffs_from_file(path, params: RealPlaceParams) -> DirichletCoeffs:
    """The form at real place `params`, from `n,lambda_re,lambda_im` rows (header optional, any n order, once each)."""
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.lower().startswith("n,"):
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path} line {lineno}: expected n,lambda_re,lambda_im, got {line!r}")
            try:
                n, lam = int(parts[0]), complex(float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}, in {line!r}") from None
            if n in rows:
                raise ValueError(f"{path} line {lineno}: n = {n} repeats an earlier row")
            rows[n] = lam
            if not np.isfinite(rows[n]):
                raise ValueError(f"{path} line {lineno}: lambda must be finite, got {line!r}")
    if not rows or min(rows) != 1 or max(rows) != len(rows):
        raise ValueError("coefficient file must cover n = 1..N contiguously")
    values = np.array([rows[i] for i in range(1, len(rows) + 1)], dtype=complex)
    return DirichletCoeffs(len(rows), values, params)


def multiplicativity_check(coeffs: DirichletCoeffs, pairs: int = 20, seed: int = 0) -> float:
    """Largest deviation |λ(mn) − λ(m)λ(n)| over random coprime pairs.

    Exactly zero for the integer-backed table (the check is then done on the
    integers themselves); small-but-nonzero for rounded file input.  A table
    with N < 6 holds no coprime pair m, n ≥ 2 with mn ≤ N and raises ValueError.
    """
    import random

    if coeffs.n < 6:
        raise ValueError(f"a multiplicativity check needs N >= 6 coefficients, got N = {coeffs.n}")
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(pairs):
        while True:
            m = rng.randrange(2, max(3, int(math.isqrt(coeffs.n))))
            n = rng.randrange(2, max(3, coeffs.n // m + 1))
            if m * n <= coeffs.n and math.gcd(m, n) == 1:
                break
        if coeffs.exact is not None:
            dev = 0.0 if coeffs.exact[m * n - 1] == coeffs.exact[m - 1] * coeffs.exact[n - 1] else math.inf
        else:
            dev = abs(coeffs.lam(m * n) - coeffs.lam(m) * coeffs.lam(n))
        worst = max(worst, dev)
    return worst


# ---- the verification job ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class VoronoiJob:
    """One twisted-identity check: twist a/c, window w, truncation, tol and the form's table (Δ's by default)."""

    a: int
    c: int
    w: TestFunction
    n_trunc: int
    tol: float = 1e-6
    coeffs: DirichletCoeffs | None = None

    def __post_init__(self) -> None:
        if self.c < 1 or math.gcd(self.a, self.c) != 1:
            raise ValueError("need c ≥ 1 and gcd(a, c) = 1")
        if self.w.neg is not None:
            raise ValueError("w must be supported inside (0, ∞)")
        if self.n_trunc < 1 or not self.tol > 0:
            raise ValueError("need a positive truncation and tolerance")
        if self.coeffs is None:  # resolved once, for both sides
            object.__setattr__(self, "coeffs", tau_coefficients(self.n_trunc))
        if self.coeffs.n < self.n_trunc:
            raise TruncationTooSmall(f"coefficient table covers {self.coeffs.n} < {self.n_trunc}")
        place = self.coeffs.params  # rhs_theta's dual sum is one-sided for a discrete series only
        if [type(b) for b in place.blocks] != [DS2Block]:
            raise ValueError(f"the GL(2) identity needs one DS2Block; the table's place has rank {place.rank}: {place}")


def _factor(c: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d, left = 2, c
    while d * d <= left:
        while left % d == 0:
            out[d] = out.get(d, 0) + 1
            left //= d
        d += 1
    if left > 1:
        out[left] = out.get(left, 0) + 1
    return out


def _shell(memo: dict, sp, zeta: Fraction, v: int):
    """The twisted factor on the shell v_p(x) = v, one entry per class.

    At x = p^v·u, u a p-adic unit, ramified_transform_gl2(sp, ζ, x) depends on
    u only through u mod p^k, k = max(1, −(v + r)), r = −v_p(ζ).  → (exact,
    table), both indexed by u mod p^k: exact[u] is the transform's
    WhittakerValue (None where p | u) and table[u] its to_complex() (0 there),
    each computed once.  `memo` is keyed (p, v) and local to one ζ, so the
    support detection and the α-sum of `rhs_theta` read the same classes.
    """
    key = (sp.q, v)
    if key not in memo:
        p, r = sp.q, -int(v_p(zeta, sp.q))
        mod = p ** max(1, -(v + r))
        exact = [
            ramified_transform_gl2(sp, zeta, Fraction(u) * Fraction(p) ** v) if u % p else None for u in range(mod)
        ]
        memo[key] = exact, np.array([0j if wv is None else wv.to_complex() for wv in exact])
    return memo[key]


def _detect_min_valuation(sp, zeta: Fraction, memo: dict):
    """Deepest surviving α-shell of the local twisted factor, found exactly.

    Descends v = 0, −1, … through `_shell` by ``padic.vanishing_shells``,
    which stops after two consecutive shells vanish identically on every class
    and raises DepthExceeded if that has not happened by v = −``twist_depth``.
    Returns None if nothing survives at all.
    """
    survivors = lambda v: [wv for wv in _shell(memo, sp, zeta, v)[0] if wv is not None and not wv.is_zero]
    minv = None
    for v, terms in vanishing_shells(survivors, 0, twist_depth(zeta, sp.q)):
        if terms:
            minv = v
    return minv


# ---- the two sides ----------------------------------------------------------


def lhs_theta(job: VoronoiJob) -> complex:
    """Σ_{n ≤ N} e^{−2πi n a/c} λ(n) n^{−1/2} w(n): the direct side.

    w has compact support, so once N clears ⌈sup supp w⌉ the tail is zero
    identically — below that the request is refused rather than silently
    truncated.
    """
    need = math.ceil(job.w.b)
    if job.n_trunc < need:
        raise TruncationTooSmall(f"N = {job.n_trunc} < {need} = ⌈sup supp w⌉")
    co = job.coeffs
    n0 = max(1, math.ceil(job.w.a))
    n1 = min(job.n_trunc, math.floor(job.w.b))
    if n1 < n0:
        return 0j
    ns = np.arange(n0, n1 + 1)
    wn = job.w(ns.astype(float))
    phases = np.exp(-2j * np.pi * ((ns * job.a) % job.c) / job.c)
    return complex(np.sum(phases * co.values[ns - 1] * wn / np.sqrt(ns)))


def rhs_theta(job: VoronoiJob) -> dict:
    """The dual side: Σ over the detected support lattice of
    [∏_{p|c} exact local transform] · λ(m′) m′^{−1/2} · w̃(α).

    α runs over m/D with D the detected denominator (v_p ≥ −2v_p(c) in
    practice); the prime-to-c part m′ of m feeds the untwisted coefficient
    table.  The local factors are read from the per-class tables of `_shell`
    (exact values, each converted once), so a window is one numpy product and
    sum.  w̃ comes from the convolution route in batches; the negative dual
    axis vanishes identically for these discrete-series parameters, so the
    sum is one-sided.  The windows of doubling width are one
    :class:`DualWalk`: accumulated until two consecutive ones fall below
    tol/10 in absolute value (running out of coefficients first raises
    TailNotConverged), sharing one kernel-model cache, each shell recording
    the tolerance it met and the model panels it built and reused
    (``kernel_panels``).  Returns {"value", "support", "shells"}; a prime
    whose exact local factor vanishes everywhere has support None and gives
    value 0 with no shells.
    """
    co = job.coeffs
    fac = _factor(job.c)
    zeta = Fraction(job.a, job.c)
    sps = {}
    support = {}
    memo: dict = {}  # the shells of `_shell`; this call's only
    for p in fac:
        sp = co.satake(p)
        mv = _detect_min_valuation(sp, zeta, memo)
        if mv is None:
            return {"value": 0j, "support": {p: None}, "shells": []}
        sps[p] = sp
        support[p] = mv
    denom = 1
    for p in fac:
        denom *= p ** (-support[p])

    def alpha_window(j):
        # window j ends at α = 2^{j+2} (4, 8, 16, …), so each holds ≥ 4·denom new m
        m_lo = 2 ** (j + 1) * denom + 1 if j else 1
        m_hi = min(job.n_trunc, 2 ** (j + 2) * denom)
        ms = np.arange(m_lo, m_hi + 1)
        return ms / float(denom), {"alpha_hi": 2.0 ** (j + 2), "m_range": (m_lo, m_hi), "ms": ms}

    def term(win):
        # x = m/D lies on p's shell v_p(m) + support[p], in the unit class of (m/p^{v_p(m)})·D_p^{−1},
        # D_p the prime-to-p part of D; m is reduced mod p^k first, so the int64 product stays below p^{2k}
        ms = win["ms"]
        mprime, local = ms.copy(), np.ones(len(ms), dtype=complex)
        for p, sp in sps.items():
            vm = np.zeros(len(ms), dtype=np.int64)
            while (hit := mprime % p == 0).any():
                mprime[hit] //= p
                vm[hit] += 1
            unit, rest = ms // p**vm, denom // p ** -support[p]
            for j in range(int(vm.max()) + 1):
                at = vm == j
                if at.any():
                    table = _shell(memo, sp, zeta, j + support[p])[1]
                    mod = len(table)
                    local[at] *= table[unit[at] % mod * pow(rest, -1, mod) % mod]
        return complex(np.sum(local * co.values[mprime - 1] / np.sqrt(mprime) * win["vals"]))

    def sample(xs, wtol, cache):
        return hankel_convolution_batch(co.params, job.w, xs, tol=wtol, cache=cache)[0]

    walk = DualWalk(sample, job.tol / 500.0, alpha_window)
    # window j ends at m = 2^{j+2}·denom; the first to reach n_trunc is the last
    count = ((job.n_trunc - 1) // (4 * denom)).bit_length() + 1
    total, sizes = walk.total(term, job.tol, count, f"m = {job.n_trunc}")
    keep = ("alpha_hi", "m_range", "dual_tol", "kernel_panels")
    shells = [{**{k: win[k] for k in keep}, "abs": size} for win, size in zip(walk.windows, sizes)]
    return {"value": total, "support": support, "shells": shells}


def voronoi_residual(job: VoronoiJob) -> dict:
    """Evaluate both sides and report absolute/relative residuals."""
    lhs = lhs_theta(job)
    rep = rhs_theta(job)
    rhs = rep["value"]
    abs_residual = abs(lhs - rhs)
    rel_residual = abs_residual / max(abs(lhs), abs(rhs), 1e-30)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "abs_residual": abs_residual,
        "rel_residual": rel_residual,
        "zeta": f"{job.a}/{job.c}",
        "n_trunc": job.n_trunc,
        "tol": job.tol,
        "support": rep["support"],
        "shells": rep["shells"],
    }
