"""Tests for the twisted summation-identity verifier.

The coefficient oracle here is a *dense* expansion of ∏(1−q^j)^24 by plain
repeated polynomial multiplication — a different route than the module's
sparse cube-power passes, so a bug in either one shows up as a mismatch.
The module runs those passes in int64 modulo a few primes and recombines
them by the CRT; the same passes over Python ints are the reference for that.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from vorokit import hankel, voronoi
from vorokit.archimedean import DS2Block, GL1Block, RealPlaceParams
from vorokit.hankel import make_bump
from vorokit.padic import DepthExceeded, QSqrt, WhittakerValue, satake_from_eigenvalue
from vorokit.quadrature import ToleranceNotMet
from vorokit.voronoi import (
    DELTA_PLACE,
    DirichletCoeffs,
    DualWalk,
    TailNotConverged,
    TruncationTooSmall,
    VoronoiJob,
    _detect_min_valuation,
    _factor,
    _shell,
    coeffs_from_file,
    lhs_theta,
    multiplicativity_check,
    rhs_theta,
    tau_coefficients,
    voronoi_residual,
)

F = Fraction

W40 = make_bump(1.0, 40.0)
CO = tau_coefficients(2100)

# first values of the un-normalised integer coefficients, long since tabulated
TAU_SMALL = (1, -24, 252, -1472, 4830, -6048, -16744)


# ---- coefficient table ------------------------------------------------------


def test_tau_golden_values():
    assert CO.provenance == "tau"
    assert CO.exact[:7] == TAU_SMALL
    assert all(isinstance(t, int) for t in CO.exact[:50])
    # multiplicative at a coprime pair, on the integers themselves
    assert CO.exact[5] == CO.exact[1] * CO.exact[2]


def test_tau_against_dense_product():
    # independent oracle: ∏_{j<N}(1−q^j) densely, then 24th power by
    # repeated dense multiplication over Python ints
    N = 120
    eta = [0] * N
    eta[0] = 1
    for j in range(1, N):
        nxt = list(eta)
        for i in range(N - j):
            nxt[i + j] -= eta[i]
        eta = nxt
    prod = [0] * N
    prod[0] = 1
    for _ in range(24):
        nxt = [0] * N
        for i, c in enumerate(prod):
            if c:
                for j in range(N - i):
                    nxt[i + j] += c * eta[j]
        prod = nxt
    assert tau_coefficients(N).exact == tuple(prod)


def _tau_python_ints(N):
    # the eight sparse cube-power passes over Python ints, exact at every step: the
    # reference for the multimodular build, which shares its sparse series only
    sparse = voronoi._eta_cube_sparse(N - 1)
    d = np.zeros(N, dtype=object)
    d[0] = 1
    for _ in range(8):
        nd = np.zeros(N, dtype=object)
        for e, cth in sparse:
            nd[e:] = nd[e:] + cth * d[: N - e]
        d = nd
    return tuple(int(t) for t in d)


@pytest.mark.parametrize("N", [1, 2, 12, 28, 29, 1023, 1024, 10_000])
def test_multimodular_tau_matches_the_python_int_build(N):
    # 28 → 29 and 1023 → 1024 are where the CRT takes a second and a third prime
    got = tau_coefficients(N)
    assert got.exact == _tau_python_ints(N)
    assert all(type(t) is int for t in got.exact)
    assert np.array_equal(got.values, np.array([float(t) for t in got.exact]) / np.arange(1, N + 1) ** 5.5)


def test_crt_takes_a_prime_more_where_four_n_to_the_sixth_outgrows_the_product(monkeypatch):
    real, used = voronoi._crt_signed, []

    def counted(residues, primes):
        used.append(len(primes))
        return real(residues, primes)

    monkeypatch.setattr(voronoi, "_crt_signed", counted)
    for N in (1, 28, 29, 1023, 1024, 10_000):
        tau_coefficients(N)
    assert used == [1, 1, 2, 2, 3, 3]
    # distinct primes below 2^31, by trial division with every odd q ≤ √p
    primes = voronoi._CRT_PRIMES
    assert len(set(primes)) == len(primes)
    for p in primes:
        assert p < 2**31 and p % 2 and all(p % q for q in range(3, math.isqrt(p) + 1, 2))
    # |τ(n)| ≤ d(n)·n^{11/2} < 2N⁶, so the product above 4N⁶ leaves the signed range room
    assert max(abs(t) for t in _tau_python_ints(1024)) < 2 * 1024**6


def test_lambda_normalisation():
    assert CO.lam(1) == 1.0
    assert CO.lam(2) == pytest.approx(-24 / 2**5.5, rel=1e-15)
    assert CO.values.dtype == complex


def test_multiplicativity_check_exact():
    assert multiplicativity_check(CO, pairs=40, seed=7) == 0.0


def test_multiplicativity_check_needs_a_coprime_pair():
    # below N = 6 no coprime m, n ≥ 2 has mn ≤ N, so no pair could ever be drawn
    for n in (1, 5):
        with pytest.raises(ValueError, match="N >= 6"):
            multiplicativity_check(tau_coefficients(n))
    assert multiplicativity_check(tau_coefficients(6)) == 0.0


def test_coeffs_file_roundtrip(tmp_path):
    path = tmp_path / "coeffs.csv"
    small = tau_coefficients(12)
    lines = ["n,lambda_re,lambda_im"]
    for n in (12, 3, 1, 7, 2, 11, 5, 4, 10, 6, 9, 8):  # any order is fine
        lines.append(f"{n},{float(small.values[n - 1].real)!r},0.0")
    path.write_text("\n".join(lines) + "\n")
    back = coeffs_from_file(path, DELTA_PLACE)
    assert back.provenance == "file" and back.exact is None and back.params == DELTA_PLACE
    assert np.allclose(back.values, small.values, rtol=0, atol=0)
    # a gap must be refused
    path.write_text("1,1.0,0.0\n3,0.5,0.0\n")
    with pytest.raises(ValueError):
        coeffs_from_file(path, DELTA_PLACE)
    # and so must a λ that is not finite, by its line
    for bad in ("nan,0.0", "0.5,inf", "-inf,0.0"):
        path.write_text(f"n,lambda_re,lambda_im\n1,1.0,0.0\n2,{bad}\n")
        with pytest.raises(ValueError, match="line 3: lambda must be finite"):
            coeffs_from_file(path, DELTA_PLACE)


# ---- the direct side --------------------------------------------------------


def test_lhs_no_lattice_points_in_support():
    # bump on (1, 2): the only integers touching the closure are the
    # endpoints, where the bump vanishes identically
    job = VoronoiJob(a=0, c=1, w=make_bump(1.0, 2.0), n_trunc=8, coeffs=CO)
    assert lhs_theta(job) == 0j


def test_lhs_two_terms():
    w = make_bump(1.0, 4.0)
    job = VoronoiJob(a=0, c=1, w=w, n_trunc=16, coeffs=CO)
    want = CO.lam(2) * w(2.0) / np.sqrt(2.0) + CO.lam(3) * w(3.0) / np.sqrt(3.0)
    assert lhs_theta(job) == pytest.approx(want, rel=1e-14)


def test_lhs_twist_periodicity_and_conjugation():
    w = make_bump(1.0, 20.0)
    l1 = lhs_theta(VoronoiJob(a=1, c=5, w=w, n_trunc=64, coeffs=CO))
    l6 = lhs_theta(VoronoiJob(a=6, c=5, w=w, n_trunc=64, coeffs=CO))
    l4 = lhs_theta(VoronoiJob(a=4, c=5, w=w, n_trunc=64, coeffs=CO))
    assert l1 == l6  # only a mod c enters
    assert l4 == pytest.approx(np.conj(l1), rel=1e-15)  # real coefficients
    assert abs(l1.imag) > 1e-3


def test_job_validation():
    with pytest.raises(ValueError):
        VoronoiJob(a=2, c=4, w=W40, n_trunc=64)  # gcd ≠ 1
    two_sided = hankel.TestFunction(1.0, 2.0, lambda x: x, lambda x: x)
    with pytest.raises(ValueError):
        VoronoiJob(a=0, c=1, w=two_sided, n_trunc=64)
    with pytest.raises(ValueError):
        VoronoiJob(a=0, c=1, w=W40, n_trunc=0)
    with pytest.raises(ValueError):
        VoronoiJob(a=0, c=1, w=W40, n_trunc=64, tol=0.0)
    # the identity is GL(2)'s with a one-sided dual sum: a table whose place is not one DS2Block is refused
    for place in (RealPlaceParams((GL1Block(0),)), RealPlaceParams((GL1Block(0), GL1Block(1)))):
        other = DirichletCoeffs(CO.n, CO.values, "file", place)
        with pytest.raises(ValueError, match=f"rank {place.rank}"):
            VoronoiJob(a=0, c=1, w=W40, n_trunc=64, coeffs=other)


def test_the_dual_side_reads_the_tables_place(monkeypatch):
    # the same τ values carrying DS2Block(15): the direct side cannot tell, the dual side's w̃ can
    real, seen = voronoi.hankel_convolution_batch, []

    def recorded(params, w, xs, tol, cache):
        seen.append(params)
        return real(params, w, xs, tol=tol, cache=cache)

    monkeypatch.setattr(voronoi, "hankel_convolution_batch", recorded)
    other = DirichletCoeffs(CO.n, CO.values, "file", RealPlaceParams((DS2Block(15, 0.0),)))
    delta, ds15 = (VoronoiJob(a=0, c=1, w=W40, n_trunc=2048, tol=1e-4, coeffs=co) for co in (CO, other))
    assert lhs_theta(delta) == lhs_theta(ds15)
    want, got = rhs_theta(delta)["value"], rhs_theta(ds15)["value"]
    assert {p.blocks[0].l for p in seen} == {11, 15}
    assert abs(got - want) > 100 * delta.tol * abs(want)  # about 4 %: a residual no threshold forgives


def test_truncation_guards():
    with pytest.raises(TruncationTooSmall):
        lhs_theta(VoronoiJob(a=0, c=1, w=W40, n_trunc=8, coeffs=CO))
    # a table shorter than the requested truncation is refused when the job is built
    with pytest.raises(TruncationTooSmall):
        VoronoiJob(a=0, c=1, w=W40, n_trunc=50, coeffs=tau_coefficients(10))


# ---- ramified support detection ---------------------------------------------


def test_support_detection_at_five():
    sp = satake_from_eigenvalue(5, QSqrt(5, F(0), F(4830, 5**6)))
    assert _detect_min_valuation(sp, F(2, 5), {}) == -2
    assert _detect_min_valuation(sp, F(1, 5), {}) == -2
    assert _detect_min_valuation(sp, F(3), {}) == 0  # integral twist: no denominator
    assert _detect_min_valuation(sp, F(1, 25), {}) == -4


def test_support_detection_that_runs_out_of_depth_raises(monkeypatch):
    # a factor that never vanishes on two shells in a row has no support the walk can certify
    sp = satake_from_eigenvalue(5, QSqrt(5, F(0), F(4830, 5**6)))
    live = WhittakerValue(5, F(0), 0, F(1))
    monkeypatch.setattr(voronoi, "_shell", lambda memo, sp, zeta, v: ([None, live], None))
    with pytest.raises(DepthExceeded, match="within 5 shells"):
        _detect_min_valuation(sp, F(1, 5), {})


def test_satake_data_read_the_normaliser_from_the_place():
    # λ(p) = τ(p)·p^{−l/2} = τ(p)·√p/p^{(l+1)/2}: p⁶ at Δ's l = 11, p⁸ at l = 15
    co = tau_coefficients(10)
    assert co.satake(5).elem == (QSqrt(5, F(0), F(4830, 5**6)), 1)
    other = DirichletCoeffs(co.n, co.values, "tau", RealPlaceParams((DS2Block(15, 0.0),)), co.exact)
    assert other.satake(3).elem == (QSqrt(3, F(0), F(252, 3**8)), 1)
    with pytest.raises(ValueError, match="exact"):
        DirichletCoeffs(co.n, co.values, "file", DELTA_PLACE).satake(5)
    with pytest.raises(TruncationTooSmall):
        co.satake(11)


def _unit_class(p, x, r):
    # (v, u mod p^k) for x = p^v·u, k = max(1, −(v + r)): the class the twisted factor is constant on
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    mod = p ** max(1, -(v + r))
    return v, num * pow(den, -1, mod) % mod


@pytest.mark.parametrize("c", [5, 7, 25, 10])
def test_memoised_ramified_factors_equal_direct_transforms(c):
    # every _shell entry that rhs_theta's first window, m/D ≤ 4, reads, for every numerator a/c
    co = tau_coefficients(10)
    fac = _factor(c)
    for a in range(1, c):
        if math.gcd(a, c) != 1:
            continue
        zeta = F(a, c)
        memo, sps, denom = {}, {}, 1
        for p in fac:
            sps[p] = co.satake(p)
            denom *= p ** -_detect_min_valuation(sps[p], zeta, memo)
        for m in range(1, 4 * denom + 1):
            for p, sp in sps.items():
                x = F(m, denom)
                v, u = _unit_class(p, x, fac[p])
                exact, table = _shell(memo, sp, zeta, v)
                direct = voronoi.ramified_transform_gl2(sp, zeta, x)
                assert len(exact) == len(table) and exact[u] == direct, (a, m, p)
                assert table[u] == direct.to_complex(), (a, m, p)


def test_rhs_transforms_once_per_class(monkeypatch):
    real = voronoi.ramified_transform_gl2
    seen = []

    def counted(sp, zeta, x):
        seen.append(_unit_class(sp.q, F(x), 1))
        return real(sp, zeta, x)

    def decaying_dual(params, w, xs, tol, cache):
        # the padic side does not depend on w̃; a decaying stand-in ends the α-sum quickly
        return np.exp(-xs), np.zeros(len(xs))

    monkeypatch.setattr(voronoi, "ramified_transform_gl2", counted)
    monkeypatch.setattr(voronoi, "hankel_convolution_batch", decaying_dual)
    rep = rhs_theta(VoronoiJob(a=2, c=5, w=W40, n_trunc=2000, tol=1e-4, coeffs=CO))
    assert rep["support"] == {5: -2}
    points = rep["shells"][-1]["m_range"][1]
    needed = {_unit_class(5, F(m, 25), 1) for m in range(1, points + 1)}
    assert len(seen) == len(set(seen))  # no class is transformed twice
    assert needed <= set(seen)
    assert len(seen) < points / 5


def _decaying_dual(params, w, xs, tol, cache):
    # the padic side does not depend on w̃; a decaying stand-in ends the α-sum quickly
    return np.exp(-xs), np.zeros(len(xs))


@pytest.mark.parametrize("a, c", [(1, 6), (3, 10), (2, 25)])
def test_rhs_window_product_equals_a_per_m_reference(monkeypatch, a, c):
    # a plain loop over m: the transform of each m/D by the class of its own Fraction, the
    # exact turns summed over p | c and converted once; with two primes it pins the inverse
    # of D's prime-to-p part in the class of m/D
    monkeypatch.setattr(voronoi, "hankel_convolution_batch", _decaying_dual)
    co = tau_coefficients(40_000)
    rep = rhs_theta(VoronoiJob(a=a, c=c, w=W40, n_trunc=40_000, tol=1e-4, coeffs=co))
    fac, zeta = _factor(c), F(a, c)
    assert set(rep["support"]) == set(fac)
    denom = math.prod(p ** -v for p, v in rep["support"].items())
    sps = {p: co.satake(p) for p in fac}
    known, want = {}, 0j
    for m in range(1, rep["shells"][-1]["m_range"][1] + 1):
        x, mprime, turns, size = F(m, denom), m, F(0), 1.0
        for p, sp in sps.items():
            while mprime % p == 0:
                mprime //= p
            key = (p, *_unit_class(p, x, fac[p]))
            if key not in known:
                known[key] = voronoi.ramified_transform_gl2(sp, zeta, x)
            turns += known[key].turns
            size *= complex(known[key].coef) * p ** (known[key].half / 2)
        want += cmath.exp(2j * math.pi * float(turns % 1)) * size * co.lam(mprime) / math.sqrt(mprime) * math.exp(-x)
    assert abs(want) > 1e-3
    assert abs(rep["value"] - want) <= 1e-14 * abs(want)


def _chirped_dual(params, w, xs, tol, cache):
    # a stand-in w̃ whose phase varies from point to point, so no pattern in m can cancel
    return (np.cos(7.3 * xs**2) + 1j * np.sin(3.1 * xs)) * np.exp(-xs), np.zeros(len(xs))


def test_rhs_is_the_level_one_dual_sum(monkeypatch):
    # at level 1 the exact side collapses to Σ λ(m)·m^{−1/2}·e(ā·m/c)·w̃(m/c²), aā ≡ 1 mod c:
    # no ramified transform, no Satake data, so it pins both, and the inverse of D's prime-to-p part
    monkeypatch.setattr(voronoi, "hankel_convolution_batch", _chirped_dual)
    co = tau_coefficients(60_000)
    for c in (4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 27):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            rep = rhs_theta(VoronoiJob(a=a, c=c, w=W40, n_trunc=co.n, tol=1e-4, coeffs=co))
            assert math.prod(p ** -v for p, v in rep["support"].items()) == c * c, (a, c)
            ms = np.arange(1, rep["shells"][-1]["m_range"][1] + 1)
            twist = np.exp(2j * np.pi * (pow(a, -1, c) * ms % c) / c)
            want = np.sum(co.values[ms - 1] / np.sqrt(ms) * twist * _chirped_dual(None, None, ms / c**2, 0, None)[0])
            assert abs(rep["value"] - want) <= 1e-12, (a, c)


# ---- the dual walk: each window's certified batch and the tail sum -----------


def _one_point(j):
    # window j: the single dual point j, nothing else for its term
    return np.array([float(j)]), {}


def test_certified_batch_retries_once_at_eight_times():
    asked = []

    def misses_first(xs, tol, cache):
        asked.append(tol)
        if len(asked) == 1:
            raise ToleranceNotMet(tol, 2 * tol, "forced")
        return [tol]

    walk = DualWalk(misses_first, 1e-8, _one_point)
    walk.ensure()
    first = walk.windows[0]
    assert asked == [1e-8, 8 * 1e-8] and first["vals"] == [8 * 1e-8]
    assert first["dual_tol"] == 8 * 1e-8 and first["kernel_panels"] == {"built": 0, "reused": 0}
    walk.ensure()
    assert walk.windows[1]["dual_tol"] == 1e-8


def test_certified_batch_reraises_a_second_miss():
    asked = []

    def always_misses(xs, tol, cache):
        asked.append(tol)
        raise ToleranceNotMet(tol, 2 * tol, "forced")

    with pytest.raises(ToleranceNotMet):
        DualWalk(always_misses, 1e-8, _one_point).ensure()
    assert asked == [1e-8, 8 * 1e-8]  # one retry, no third pass


def _walk_sum(terms, tol, count, reach):
    # the walk's sum over windows carrying `terms`, failing if it builds a window past them
    def points(j):
        if j >= len(terms):
            raise AssertionError("read past the stopping term")
        return np.zeros(1), {"term": terms[j]}

    return DualWalk(lambda xs, tol, cache: xs, 1e-8, points).total(lambda win: win["term"], tol, count, reach)


def test_tail_sum_stops_at_the_second_consecutive_small_term():
    # tol 1e-3: a term below 1e-4 is small
    assert _walk_sum([1.0, 5e-5, 2e-5], 1e-3, 9, "three terms") == (1.0 + 5e-5 + 2e-5, [1.0, 5e-5, 2e-5])
    # a term of exactly tol/10 is not small
    assert len(_walk_sum([1.0, 1e-4, 5e-5, 2e-5], 1e-3, 9, "four terms")[1]) == 4


def test_tail_sum_resets_on_a_large_term():
    total, sizes = _walk_sum([5e-5, 1.0, 5e-5, 2.0, 5e-5, 5e-5], 1e-3, 9, "six terms")
    assert len(sizes) == 6 and total == 5e-5 + 1.0 + 5e-5 + 2.0 + 5e-5 + 5e-5


def test_tail_sum_raises_when_the_terms_run_out():
    with pytest.raises(TailNotConverged, match="after m = 3"):
        _walk_sum([1.0, 5e-5, 1.0], 1e-3, 3, "m = 3")
    with pytest.raises(TailNotConverged):
        _walk_sum([], 1e-3, 0, "no terms")


def test_walk_builds_each_window_once():
    built = []

    def sample(xs, tol, cache):
        built.append(xs[0])
        return xs

    def term(win):  # 1 on window 0, 1e-5 after
        return 1.0 if win["vals"][0] == 0.0 else 1e-5

    walk = DualWalk(sample, 1e-8, _one_point)
    # the first sum reads three windows; a looser second one reads two of them again and builds none
    assert len(walk.total(term, 1e-3, 9, "nine windows")[1]) == 3
    assert len(walk.total(term, 100.0, 9, "nine windows")[1]) == 2
    assert built == [0.0, 1.0, 2.0] and len(walk.windows) == 3


# ---- both sides against each other ------------------------------------------


def test_untwisted_identity():
    rep = voronoi_residual(VoronoiJob(a=0, c=1, w=W40, n_trunc=2048, tol=1e-6, coeffs=CO))
    assert rep["support"] == {}
    assert abs(rep["lhs"]) > 1e-4  # a real test, not 0 ≈ 0
    assert rep["rel_residual"] < 1e-6


def test_twisted_identity_c5():
    co = tau_coefficients(4000)
    rep = voronoi_residual(VoronoiJob(a=2, c=5, w=W40, n_trunc=4000, tol=1e-5, coeffs=co))
    assert rep["support"] == {5: -2}
    assert abs(rep["lhs"].imag) > 1e-2  # the twist makes the sides genuinely complex
    assert rep["rel_residual"] < 1e-4


def test_rhs_tolerance_stability():
    loose = rhs_theta(VoronoiJob(a=0, c=1, w=W40, n_trunc=2048, tol=1e-4, coeffs=CO))
    tight = rhs_theta(VoronoiJob(a=0, c=1, w=W40, n_trunc=2048, tol=1e-6, coeffs=CO))
    assert abs(loose["value"] - tight["value"]) < 5e-5


def test_windows_report_the_dual_tolerance_they_met(monkeypatch):
    real = voronoi.hankel_convolution_batch
    asked = []

    def first_window_misses(*args, tol, cache):
        asked.append(tol)
        if len(asked) == 1:
            raise ToleranceNotMet(tol, 2 * tol, "forced")
        return real(*args, tol=tol, cache=cache)

    monkeypatch.setattr(voronoi, "hankel_convolution_batch", first_window_misses)
    rep = voronoi_residual(VoronoiJob(a=0, c=1, w=W40, n_trunc=2048, tol=1e-6, coeffs=CO))
    wtol = 2e-9  # min(1e-7, max(2e-9, tol/500))
    met = [shell["dual_tol"] for shell in rep["shells"]]
    assert asked[:2] == [wtol, 8 * wtol]
    assert len(met) >= 2 and met[0] == 8 * wtol and met[1:] == [wtol] * (len(met) - 1)
    assert rep["rel_residual"] < 1e-6


def test_windows_share_one_kernel_cache(monkeypatch):
    real = voronoi.hankel_convolution_batch
    batches = []

    def recorded(params, w, xs, tol, cache):
        vals, errs = real(params, w, xs, tol=tol, cache=cache)
        batches.append((params, xs, tol, cache, vals))
        return vals, errs

    monkeypatch.setattr(voronoi, "hankel_convolution_batch", recorded)
    rep = rhs_theta(VoronoiJob(a=0, c=1, w=W40, n_trunc=2048, tol=1e-4, coeffs=CO))
    assert len(batches) == len(rep["shells"]) >= 3
    assert len({id(b[3]) for b in batches}) == 1  # one cache for the whole call
    for (params, xs, tol, _, vals), shell in zip(batches, rep["shells"]):
        # each window's values are those of a model built for that window alone
        fresh, _ = real(params, W40, xs, tol=tol)
        assert tol == shell["dual_tol"]
        assert np.max(np.abs(vals - fresh)) <= tol
    counts = [shell["kernel_panels"] for shell in rep["shells"]]
    assert counts[0]["built"] > 0 and counts[0]["reused"] == 0
    assert all(c["reused"] > 0 for c in counts[1:])
    # a second call starts from an empty cache and repeats every count and value
    again = rhs_theta(VoronoiJob(a=0, c=1, w=W40, n_trunc=2048, tol=1e-4, coeffs=CO))
    assert again == rep


def test_direct_side_and_mellin_route_build_no_kernel_model(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel model built")

    monkeypatch.setattr(hankel.KernelCache, "model", refuse)
    monkeypatch.setattr(hankel, "_fit_panels", refuse)
    assert abs(lhs_theta(VoronoiJob(a=2, c=5, w=W40, n_trunc=2048, tol=1e-4, coeffs=CO))) > 1e-3
    vals, errs = hankel.hankel_mellin_batch(DELTA_PLACE, W40, [0.5, 3.0], 1e-8)
    assert np.all(np.isfinite(vals)) and np.max(errs) <= 1e-8
    # the patch is live: the convolution route does reach it
    with pytest.raises(AssertionError, match="kernel model built"):
        hankel.hankel_convolution_batch(DELTA_PLACE, W40, [0.5], 1e-8)


def test_tail_not_converged():
    with pytest.raises(TailNotConverged):
        rhs_theta(VoronoiJob(a=0, c=1, w=W40, n_trunc=64, tol=1e-8, coeffs=CO))


def test_rhs_theta_returns_value_support_shells(monkeypatch):
    rep = rhs_theta(VoronoiJob(a=0, c=1, w=W40, n_trunc=2048, tol=1e-4, coeffs=CO))
    assert set(rep) == {"value", "support", "shells"}
    # nothing survives at p = 5: the early return reports the same keys
    monkeypatch.setattr(voronoi, "_detect_min_valuation", lambda sp, zeta, memo: None)
    rep = rhs_theta(VoronoiJob(a=1, c=5, w=W40, n_trunc=2048, tol=1e-4, coeffs=CO))
    assert set(rep) == {"value", "support", "shells"}
    assert rep["value"] == 0 and rep["support"] == {5: None} and rep["shells"] == []
