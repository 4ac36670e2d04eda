import cmath
import math
import random
from fractions import Fraction as F

import pytest

from vorokit import padic
from vorokit.padic import (
    DepthExceeded,
    PAdicMat,
    QSqrt,
    SatakeParams,
    Singular,
    WhittakerValue,
    contragredient_satake,
    elementary_symmetric,
    iwasawa,
    kloosterman_gl3,
    local_l_series_check,
    padic_fractional_part,
    psi_phase,
    ramified_transform_gl2,
    satake_from_eigenvalue,
    v_p,
    vanishing_shells,
    whittaker_diag,
    whittaker_general,
)

SP5 = satake_from_eigenvalue(5, F(2, 3))
SP3_RANK3 = SatakeParams(5, (F(1, 2), F(3), F(2, 3)))


# ---- random exact helpers ---------------------------------------------------


def _integral_frac(p, rng, vmin=0):
    """Random rational with v_p ≥ vmin (denominator prime to p)."""
    num = rng.randrange(-40, 41) or 3
    den = rng.choice([1, 3, 7, 9, 11]) if p != 3 else rng.choice([1, 5, 7, 11])
    return F(num, den) * F(p) ** rng.randrange(vmin, 3)


def _unit_frac(p, rng):
    while True:
        x = _integral_frac(p, rng)
        if v_p(x, p) == 0:
            return x


def _random_k(p, size, rng):
    """Random element of GL_size(ℤ_p) as a product of elementary matrices."""
    m = PAdicMat.identity(p, size)
    for _ in range(3):
        i, j = rng.sample(range(size), 2)
        m = m @ PAdicMat.elementary(p, size, i, j, _integral_frac(p, rng))
    m = m @ PAdicMat.diagonal(p, tuple(_unit_frac(p, rng) for _ in range(size)))
    assert m.is_integral() and m.has_unit_det()
    return m


def _random_g(p, size, rng):
    while True:
        g = PAdicMat(
            p,
            tuple(
                tuple(
                    F(rng.randrange(-30, 31), rng.choice([1, 2, 3, 5])) * F(p) ** rng.randrange(-2, 3)
                    for _ in range(size)
                )
                for _ in range(size)
            ),
        )
        if g.det() != 0:
            return g


# ---- valuation and additive character --------------------------------------


def test_valuation_and_fractional_part():
    assert v_p(50, 5) == 2
    assert v_p(F(7, 10), 5) == -1
    assert v_p(F(7, 10), 2) == -1
    assert v_p(F(7, 10), 3) == 0
    assert v_p(0, 7) == math.inf
    assert padic_fractional_part(F(7, 10), 5) == F(1, 5)
    assert padic_fractional_part(F(1, 5), 5) == F(1, 5)
    assert padic_fractional_part(3, 5) == 0
    assert padic_fractional_part(F(-1, 5), 5) == F(4, 5)
    # difference x − {x}_p must be p-integral
    rng = random.Random(71)
    for _ in range(25):
        x = F(rng.randrange(-200, 201) or 1, rng.randrange(1, 400))
        for p in (2, 5):
            assert v_p(x - padic_fractional_part(x, p), p) >= 0


def test_psi_phase_group_law():
    rng = random.Random(72)
    for _ in range(25):
        x = F(rng.randrange(-99, 100) or 1, rng.randrange(1, 250))
        y = F(rng.randrange(-99, 100) or 1, rng.randrange(1, 250))
        for p in (2, 5):
            assert psi_phase(x + y, p) == (psi_phase(x, p) + psi_phase(y, p)) % 1
    assert psi_phase(4, 5) == 0
    # ψ_p(x) = e^{−2πi{x}_p}: the phase is a fraction of a turn
    got = cmath.exp(2j * math.pi * float(psi_phase(F(1, 5), 5)))
    assert got == pytest.approx(cmath.exp(-2j * math.pi / 5), abs=1e-15)


# ---- exact rings ------------------------------------------------------------


def test_qsqrt_field_arithmetic():
    r2 = QSqrt(2, F(0), F(1))
    assert (1 + r2) * (1 - r2) == -1
    assert 1 / (1 + r2) == -1 + r2
    assert r2 ** -2 == F(1, 2)
    assert r2 ** 3 == QSqrt(2, F(0), F(2))
    assert float(r2) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert complex(QSqrt(5, F(1, 2), F(3))) == pytest.approx(0.5 + 3 * math.sqrt(5))
    with pytest.raises(TypeError):
        r2 * QSqrt(3, F(1), F(1))
    with pytest.raises(TypeError):
        QSqrt(2, 0.5, F(1))


def test_gaussian_rational_arithmetic():
    i = QSqrt(-1, F(0), F(1))
    assert i * i == -1
    assert (1 + i) ** 2 == 2 * i
    assert 1 / (1 + i) == QSqrt(-1, F(1, 2), F(-1, 2))
    assert complex(QSqrt(-1, F(1, 3), F(-2))) == pytest.approx(1 / 3 - 2j)
    with pytest.raises(TypeError):
        float(i)


def test_radicand_must_be_minus_one_or_non_square():
    for d in (4, 9, 1, 0, -2):
        with pytest.raises(ValueError):
            QSqrt(d, F(1), F(1))


def test_square_q_values_stay_rational():
    # (√4)^{-1} and (√9)^{-1} are rational, so the values compare equal to them
    assert whittaker_diag(SatakeParams(4, (F(1), F(1))), 1) == 1
    assert whittaker_diag(SatakeParams(9, (F(1), F(1))), 1) == F(2, 3)
    assert whittaker_diag(SatakeParams(9, (F(1), F(1))), 2) == F(1, 3)


def test_hash_agrees_with_equality():
    halves = {QSqrt(2, F(1, 2), F(0)), QSqrt(3, F(1, 2), F(0)), F(1, 2)}
    assert len(halves) == 1
    w2 = WhittakerValue(5, F(1, 5), 0, QSqrt(2, F(1, 2), F(0)))
    w3 = WhittakerValue(5, F(1, 5), 0, QSqrt(3, F(1, 2), F(0)))
    assert w2 == w3
    assert hash(w2) == hash(w3)


# ---- symmetric functions and diagonal values --------------------------------


def test_complete_homogeneous_examples():
    # h_0 = 1, h_1 = Σα_i, h_2(1, 1) = 3, from the elementary symmetric functions
    assert padic._h_sequence(elementary_symmetric((F(5), F(7))), 0) == [1]
    assert padic._h_sequence(elementary_symmetric((F(2), F(1, 2))), 1)[1] == F(5, 2)
    assert padic._h_sequence(elementary_symmetric((1, 1)), 2) == [1, 2, 3]


def test_whittaker_diag_values():
    # q^{-m/2} h_m for rank 2: exact in ℚ(√q)
    assert whittaker_diag(SP5, 1) == QSqrt(5, F(0), F(2, 15))
    assert whittaker_diag(SP5, 0) == 1
    assert whittaker_diag(SP5, -1) == 0
    # rank 3 stays rational: q^{-m} h_m
    assert whittaker_diag(SP3_RANK3, 1) == F(1, 5) * F(25, 6)


def test_whittaker_diag_refuses_mismatched_radicands():
    # h_1 = √2 + 1/√2 lives in ℚ(√2), and q^{-1/2} at q = 3 needs ℚ(√3): no exact product
    sp = SatakeParams(3, (QSqrt(2, 0, 1), QSqrt(2, 0, 1) ** -1))
    assert whittaker_diag(sp, 2) == F(1, 3) * (F(2) + F(1, 2) + 1)  # even power: stays exact
    with pytest.raises(TypeError, match="√3 and √2 do not mix exactly"):
        whittaker_diag(sp, 1)


def test_weight12_basic_value_is_minus_three_eighths():
    # unitarily normalised eigenvalue at p = 2: (−24/2^6)·√2 = (−3/8)√2
    lam = QSqrt(2, F(0), F(-3, 8))
    sp = satake_from_eigenvalue(2, lam)
    assert whittaker_diag(sp, 1) == F(-3, 8)
    assert whittaker_diag(sp, 0) == 1
    assert whittaker_diag(sp, -2) == 0
    # the displayed Satake roots are unitary and multiply to 1
    assert abs(sp.alpha[0] * sp.alpha[1] - 1) < 1e-14
    assert abs(abs(sp.alpha[0]) - 1) < 1e-14


def test_satake_validation_and_dual():
    with pytest.raises(ValueError):
        SatakeParams(1, (F(1),))
    with pytest.raises(ValueError):
        SatakeParams(5, (F(1), 0))
    sp = SatakeParams(7, (F(2), F(1, 3), F(5)))
    dual = contragredient_satake(sp)
    assert dual.elem[-1] == 1 / sp.elem[-1]
    assert contragredient_satake(dual).elem == sp.elem
    # trivial central character data is its own dual
    assert contragredient_satake(SP5).elem == SP5.elem
    # integers are made exact on entry, so 1 / a and e ** −k on them stay rational
    ints = SatakeParams(7, (2, 3), elem=(5, 6))
    assert all(type(x) is F for x in (*ints.alpha, *ints.elem))
    dual = contragredient_satake(ints)
    assert (dual.alpha, dual.elem) == ((F(1, 2), F(1, 3)), (F(5, 6), F(1, 6)))
    assert all(type(x) is F for x in (*dual.alpha, *dual.elem))


# ---- the local L-series identity -------------------------------------------


def test_local_l_series_random_tuples():
    rng = random.Random(2027)
    for trial in range(20):
        n = rng.choice([1, 2, 3])
        if trial % 7 == 3:
            alpha = tuple(QSqrt(-1, F(rng.randrange(1, 9)), F(rng.randrange(1, 9))) for _ in range(n))
        elif trial % 7 == 5:
            alpha = tuple(QSqrt(3, F(rng.randrange(1, 9)), F(rng.randrange(1, 9))) for _ in range(n))
        else:
            alpha = tuple(
                F(rng.randrange(-9, 10) or 1, rng.randrange(1, 10)) for _ in range(n)
            )
        order = rng.randrange(5, 31)
        series, ok = local_l_series_check(SatakeParams(rng.choice([2, 3, 5]), alpha), order)
        assert ok
        assert series[0] == 1
        assert len(series) == order + 1


def test_local_l_series_weight12_and_corruption():
    lam = QSqrt(2, F(0), F(-3, 8))
    sp = satake_from_eigenvalue(2, lam)
    series, ok = local_l_series_check(sp, 30)
    assert ok
    bad = list(series)
    bad[3] = bad[3] + 1
    _, ok2 = local_l_series_check(sp, 30, series=tuple(bad))
    assert not ok2


# ---- matrices and Iwasawa decompositions ------------------------------------


def test_matrix_guards():
    with pytest.raises(TypeError):
        PAdicMat(5, ((0.5, 1), (0, 1)))
    with pytest.raises(ValueError):
        PAdicMat(5, ((1, 0, 0, 0),) * 4)
    with pytest.raises(ValueError):
        PAdicMat.identity(5, 2) @ PAdicMat.identity(7, 2)
    g = PAdicMat(5, ((1, 2), (3, 4)))
    assert (g @ g.inverse()).entries == PAdicMat.identity(5, 2).entries
    with pytest.raises(Singular):
        PAdicMat(5, ((1, 2), (2, 4))).inverse()


def test_iwasawa_gl2_special_shapes():
    # integral unit-determinant matrices pass through as the k part
    g = PAdicMat(5, ((2, 3), (1, 1)))
    u, t, k = iwasawa(g)
    assert u.entries == t.entries == PAdicMat.identity(5, 2).entries
    assert k.entries == g.entries
    # non-unit diagonal stays in the torus
    g = PAdicMat.diagonal(5, (F(5), F(1, 25)))
    u, t, k = iwasawa(g)
    assert t.entries == g.entries
    assert u.entries == k.entries == PAdicMat.identity(5, 2).entries
    with pytest.raises(Singular):
        iwasawa(PAdicMat(5, ((1, 1), (1, 1))))


def test_iwasawa_gl2_bruhat_flip_example():
    # [[xζ, x], [1, 0]] with v(ζ) = −1: verified by exact re-multiplication
    x, z = F(3, 4), F(2, 5)
    g = PAdicMat(5, ((x * z, x), (1, 0)))
    u, t, k = iwasawa(g)
    assert (u @ t @ k).entries == g.entries
    assert k.is_integral() and k.has_unit_det()
    assert u.entries[1][0] == 0 and u.entries[0][0] == u.entries[1][1] == 1
    assert t.entries[0][1] == t.entries[1][0] == 0


def test_iwasawa_random_re_multiplication():
    rng = random.Random(1405)
    for trial in range(12):
        p = (2, 5)[trial % 2]
        for size in (2, 3):
            g = _random_g(p, size, rng)
            u, t, k = iwasawa(g)
            assert (u @ t @ k).entries == g.entries
            assert k.is_integral() and k.has_unit_det()
            for i in range(size):
                assert u.entries[i][i] == 1
                for j in range(i):
                    assert u.entries[i][j] == 0
                    assert t.entries[i][j] == t.entries[j][i] == 0


# ---- Whittaker values off the torus ----------------------------------------


def test_whittaker_gl2_worked_examples():
    assert whittaker_general(SP5, PAdicMat.identity(5, 2)).scalar() == 1
    # ψ_p is trivial on ℤ_p, so the phase drops
    g = PAdicMat.elementary(5, 2, 0, 1, F(3)) @ PAdicMat.diagonal(5, (5, 1))
    w = whittaker_general(SP5, g)
    assert w.turns == 0
    assert w.scalar() == whittaker_diag(SP5, 1)
    # n(1/p) contributes the exact character value e^{−2πi/p}
    g = PAdicMat.elementary(5, 2, 0, 1, F(1, 5)) @ PAdicMat.diagonal(5, (5, 1))
    w = whittaker_general(SP5, g)
    assert w == WhittakerValue(5, F(4, 5), -1, SP5.elem[0])
    assert w.to_complex() == pytest.approx(
        cmath.exp(-2j * math.pi / 5) * complex(whittaker_diag(SP5, 1)), abs=1e-15
    )
    # torus non-effectivity
    assert whittaker_general(SP5, PAdicMat.diagonal(5, (1, 5))).is_zero
    with pytest.raises(ValueError):
        whittaker_general(SP5, PAdicMat.identity(7, 2))
    with pytest.raises(ValueError):
        whittaker_general(SP5, PAdicMat.identity(5, 3))


def test_whittaker_gl2_invariance_exact():
    rng = random.Random(1406)
    for trial in range(20):
        p = (2, 5)[trial % 2]
        sp = satake_from_eigenvalue(p, F(3, 4))
        g = _random_g(p, 2, rng)
        k = _random_k(p, 2, rng)
        assert whittaker_general(sp, g @ k) == whittaker_general(sp, g)
        y = _integral_frac(p, rng, vmin=-3)
        left = whittaker_general(sp, PAdicMat.elementary(p, 2, 0, 1, y) @ g)
        assert left == whittaker_general(sp, g).rotated(psi_phase(y, p))


def test_whittaker_gl3_invariance_exact():
    rng = random.Random(1407)
    for trial in range(20):
        p = (2, 5)[trial % 2]
        sp = SatakeParams(p, (F(1, 2), F(3), F(2, 3)))
        g = _random_g(p, 3, rng)
        k = _random_k(p, 3, rng)
        assert whittaker_general(sp, g @ k) == whittaker_general(sp, g)
        y12 = _integral_frac(p, rng, vmin=-2)
        y23 = _integral_frac(p, rng, vmin=-2)
        n = PAdicMat.elementary(p, 3, 0, 1, y12) @ PAdicMat.elementary(p, 3, 1, 2, y23)
        left = whittaker_general(sp, n @ g)
        assert left == whittaker_general(sp, g).rotated(psi_phase(y12, p) + psi_phase(y23, p))


def test_whittaker_gl3_diagonal_matches_rank3_formula():
    w = whittaker_general(SP3_RANK3, PAdicMat.diagonal(5, (5, 1, 1)))
    assert w.turns == 0
    assert w.scalar() == whittaker_diag(SP3_RANK3, 1)
    assert whittaker_general(SP3_RANK3, PAdicMat.diagonal(5, (1, 5, 1))).is_zero


# ---- ramified additive twists ----------------------------------------------


def test_ramified_transform_integral_zeta_reduces_to_dual():
    for zeta in (F(0), F(1), F(3), F(10)):
        for m in (-2, -1, 0, 1, 2, 3):
            x = F(2) * F(5) ** m
            got = ramified_transform_gl2(SP5, zeta, x)
            if m < 0:
                assert got.is_zero
            else:
                assert got.turns == 0
                assert got.scalar() == whittaker_diag(SP5, m)


def test_ramified_transform_p5_shells():
    zeta = F(1, 5)
    # support cutoff two shells below the integers
    for u in (1, 2, 7, 12):
        assert ramified_transform_gl2(SP5, zeta, F(u, 125)).is_zero
    # the deepest shell carries a pure unit phase
    w2 = ramified_transform_gl2(SP5, zeta, F(2, 25))
    assert w2 == WhittakerValue(5, F(2, 5), 0, F(1))
    # the phase sees u only through its class mod p
    assert ramified_transform_gl2(SP5, zeta, F(7, 25)) == w2
    assert ramified_transform_gl2(SP5, zeta, F(3, 25)) != w2
    # one shell up: no phase yet, first Hecke coefficient appears
    w1 = ramified_transform_gl2(SP5, zeta, F(2, 5))
    assert w1 == WhittakerValue(5, F(0), -1, SP5.elem[0])
    with pytest.raises(ValueError):
        ramified_transform_gl2(SP5, zeta, 0)
    with pytest.raises(ValueError):
        ramified_transform_gl2(SatakeParams(5, (F(2), F(3))), zeta, 1)


# ---- the shell walk both twisted shell sums share ---------------------------


def test_shell_walk_stops_after_two_empty_shells_or_raises():
    # a stub shell: one term on each live shell, none elsewhere
    def stub(live):
        return lambda j: ["term"] if live(j) else []

    walk = lambda live, start, depth: [j for j, _ in vanishing_shells(stub(live), start, depth)]
    # one empty shell does not stop the walk; the second of two in a row does
    assert walk(lambda j: j in (0, -1, -3), 0, 10) == [0, -1, -2, -3, -4, -5]
    # two empty shells in a row that end exactly at the depth still stop it
    assert walk(lambda j: j > -5, -1, 6) == [-1, -2, -3, -4, -5, -6]
    # never two in a row: the walk runs to −depth and raises there
    seen = []
    with pytest.raises(DepthExceeded, match="within 6 shells"):
        for j, terms in vanishing_shells(stub(lambda j: j % 2 == 0), 0, 6):
            seen.append((j, terms))
    assert seen == [(j, ["term"] if j % 2 == 0 else []) for j in range(0, -7, -1)]


# ---- rank-3 Kloosterman shell sum ------------------------------------------


def test_kloosterman_base_shell_single_value():
    # over ℤ_p the phase is trivial and K-invariance freezes the Whittaker
    # value, so that whole shell is one value times volume 1
    spd = contragredient_satake(SP3_RANK3)
    zeta = F(1, 5)
    tau = PAdicMat(5, ((0, -F(2) / zeta, 0), (1, 0, 0), (0, 0, -zeta)))
    base = whittaker_general(spd, tau)
    for u in (F(0), F(1), F(3), F(1, 2), F(7, 3)):
        shifted = tau @ PAdicMat.elementary(5, 3, 0, 1, u)
        assert whittaker_general(spd, shifted) == base
    report = kloosterman_gl3(F(2), zeta, SP3_RANK3)
    assert report["shells"][0] == [base.describe()]


def test_kloosterman_stabilizes_when_doubling_depth():
    for alpha, zeta in ((F(1), F(1, 5)), (F(3, 5), F(1, 5)), (F(1), F(2, 25))):
        report = kloosterman_gl3(alpha, zeta, SP3_RANK3)
        again = kloosterman_gl3(alpha, zeta, SP3_RANK3, shell_depth=2 * report["shell_depth"])
        assert report["value"] == again["value"]
        assert report["vanished_at"] is not None


def test_kloosterman_non_effective_torus_vanishes():
    # α deep enough below the support cone kills every shell
    report = kloosterman_gl3(F(1, 5 ** 6), F(1, 5), SP3_RANK3)
    assert report["value"] == 0
    assert all(not terms for terms in report["shells"].values())


def test_kloosterman_returns_the_report():
    report = kloosterman_gl3(F(1), F(1, 5), SP3_RANK3)
    assert set(report) == {"value", "prefactor", "vanished_at", "shell_depth", "shells"}
    assert report["prefactor"] == 5 and report["shell_depth"] == 5


def test_kloosterman_guards():
    with pytest.raises(DepthExceeded):
        kloosterman_gl3(F(1), F(1, 5), SP3_RANK3, shell_depth=1)
    with pytest.raises(ValueError):
        kloosterman_gl3(F(1), F(5), SP3_RANK3)
    with pytest.raises(ValueError):
        kloosterman_gl3(0, F(1, 5), SP3_RANK3)


def test_ramified_transform_sees_the_alpha_numerator():
    # the ramified transform depends on the numerator of α, not on its valuation alone
    sp = satake_from_eigenvalue(5, F(1, 2))
    zeta = F(1, 5)
    transforms = [ramified_transform_gl2(sp, zeta, F(a, 25)) for a in (1, 2, 3)]
    assert transforms[0] != transforms[1]
    assert {t.turns for t in transforms} == {F(1, 5), F(2, 5), F(3, 5)}


# ---- the rank-generic code against the former rank-specific copies ---------


def _ref_iwasawa_finish(g, a, kinv):
    n = g.size
    tdiag = [a[i][i] for i in range(n)]
    u = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / tdiag[j]
    return (
        PAdicMat(g.p, tuple(tuple(row) for row in u)),
        PAdicMat.diagonal(g.p, tdiag),
        PAdicMat(g.p, tuple(tuple(row) for row in kinv)).inverse(),
    )


def _ref_iwasawa_gl2(g):
    if g.det() == 0:
        raise Singular("matrix is not invertible")
    if g.is_integral() and g.has_unit_det():
        eye = PAdicMat.identity(g.p, 2)
        return eye, eye, g
    a = [list(row) for row in g.entries]
    kinv = [list(row) for row in PAdicMat.identity(g.p, 2).entries]
    if padic._pivot_col(a[1], (0, 1), g.p) == 0:
        padic._swap_cols(a, 0, 1)
        padic._swap_cols(kinv, 0, 1)
    ratio = a[1][0] / a[1][1]
    padic._add_col(a, 0, 1, -ratio)
    padic._add_col(kinv, 0, 1, -ratio)
    return _ref_iwasawa_finish(g, a, kinv)


def _ref_iwasawa_gl3(g):
    if g.det() == 0:
        raise Singular("matrix is not invertible")
    if g.is_integral() and g.has_unit_det():
        eye = PAdicMat.identity(g.p, 3)
        return eye, eye, g
    a = [list(row) for row in g.entries]
    kinv = [list(row) for row in PAdicMat.identity(g.p, 3).entries]
    c = padic._pivot_col(a[2], (0, 1, 2), g.p)
    if c != 2:
        padic._swap_cols(a, c, 2)
        padic._swap_cols(kinv, c, 2)
    for c2 in (0, 1):
        ratio = a[2][c2] / a[2][2]
        padic._add_col(a, c2, 2, -ratio)
        padic._add_col(kinv, c2, 2, -ratio)
    if padic._pivot_col(a[1], (0, 1), g.p) == 0:
        padic._swap_cols(a, 0, 1)
        padic._swap_cols(kinv, 0, 1)
    ratio = a[1][0] / a[1][1]
    padic._add_col(a, 0, 1, -ratio)
    padic._add_col(kinv, 0, 1, -ratio)
    return _ref_iwasawa_finish(g, a, kinv)


def _ref_whittaker_gl2(sp, g):
    u, t, _ = _ref_iwasawa_gl2(g)
    m1 = v_p(t.entries[0][0], g.p)
    m2 = v_p(t.entries[1][1], g.p)
    if m1 < m2:
        return WhittakerValue(sp.q, F(0), 0, F(0))
    d = int(m1 - m2)
    h = padic._h_sequence(sp.elem, d)[d]
    coef = sp.elem[1] ** int(m2) * h
    return WhittakerValue(sp.q, psi_phase(u.entries[0][1], g.p), -d, coef)


def _ref_whittaker_gl3(sp, g):
    u, t, _ = _ref_iwasawa_gl3(g)
    m1 = v_p(t.entries[0][0], g.p)
    m2 = v_p(t.entries[1][1], g.p)
    m3 = v_p(t.entries[2][2], g.p)
    if not m1 >= m2 >= m3:
        return WhittakerValue(sp.q, F(0), 0, F(0))
    a, b = int(m1 - m3), int(m2 - m3)
    h = padic._h_sequence(sp.elem, a + 1)
    schur = h[a] * h[b] - (h[a + 1] * h[b - 1] if b >= 1 else F(0))
    coef = sp.elem[2] ** int(m3) * schur
    turns = psi_phase(u.entries[0][1] + u.entries[1][2], g.p)
    return WhittakerValue(sp.q, turns, -2 * a, coef)


def _same_value(w, ref):
    # field by field, so a change of ring or of the √q parity also shows
    return (w.q, w.turns, w.half, type(w.coef), w.coef) == (ref.q, ref.turns, ref.half, type(ref.coef), ref.coef)


def test_iwasawa_matches_rank_specific_reference():
    rng = random.Random(1408)
    for trial in range(60):
        p = (2, 3, 5)[trial % 3]
        for size, ref in ((2, _ref_iwasawa_gl2), (3, _ref_iwasawa_gl3)):
            g = _random_g(p, size, rng)
            if trial % 4 == 0:
                g = g @ _random_k(p, size, rng)
            got, want = iwasawa(g), ref(g)
            assert [m.entries for m in got] == [m.entries for m in want]


def test_whittaker_general_matches_rank_specific_reference():
    rng = random.Random(1409)
    sp2 = {p: satake_from_eigenvalue(p, QSqrt(p, F(0), F(3, 4))) for p in (2, 3, 5)}
    sp3 = {p: SatakeParams(p, (F(1, 2), F(3), F(2, 3))) for p in (2, 3, 5)}
    for trial in range(60):
        p = (2, 3, 5)[trial % 3]
        g2, g3 = _random_g(p, 2, rng), _random_g(p, 3, rng)
        assert _same_value(whittaker_general(sp2[p], g2), _ref_whittaker_gl2(sp2[p], g2))
        assert _same_value(whittaker_general(sp3[p], g3), _ref_whittaker_gl3(sp3[p], g3))


def test_ramified_transform_matches_rank_specific_reference():
    # SP5 has rational data; the second datum is the one a Voronoi job at p = 5 builds
    zeta = F(2, 5)
    for sp in (SP5, satake_from_eigenvalue(5, QSqrt(5, F(0), F(4830, 5**6)))):
        for m in range(1, 3001):
            x = F(m, 25)
            want = _ref_whittaker_gl2(sp, PAdicMat(5, ((0, -x), (1, zeta))))
            assert _same_value(ramified_transform_gl2(sp, zeta, x), want)
