import cmath
import dataclasses
import json
import math
import os
import random

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from vorokit import bessel, contours, quadrature
from vorokit.archimedean import (
    DS2Block,
    GL1Block,
    RealPlaceParams,
    log_mb_gamma,
)
from vorokit.bessel import (
    KernelTable,
    bessel_real_batch,
    kernel_table,
    parity_batch,
)
from vorokit.contours import Contour, InfeasibleContour, build_contour, check_admissible
from vorokit.quadrature import panel_nodes

GL1R = RealPlaceParams((GL1Block(0, 0.0),))
DS11 = RealPlaceParams((DS2Block(11, 0.0),))


def b_at(params, x, tol=1e-10, contour=None):
    """b(x) at one point, through the batch."""
    vals, _ = bessel_real_batch(params, [x], tol, contour)
    return complex(vals[0])


# ---- contours --------------------------------------------------------------


def test_build_contour_ds2_example():
    c = build_contour(DS11)
    assert c.asymptote == pytest.approx(-0.25)
    assert c.nodes == ()
    check_admissible(c, DS11)


def test_build_contour_gl1_detours_around_origin():
    c = build_contour(GL1R)
    assert c.asymptote == pytest.approx(-0.75)
    assert c.nodes  # pole at s=0 sits right of the asymptote
    assert max(n.real for n in c.nodes) > 0
    check_admissible(c, GL1R)


def test_pole_data_of_twisted_pieces():
    # GL1(1, 0.2) + DS2(4, −0.1+0.3j), under either sign twist: both parities 0.2 − ℕ, and
    # −0.1+0.3j − 2 − ℕ; bound 1/2 + (0.2 + 2·(−0.1) − 1)/3
    r = RealPlaceParams((GL1Block(1, 0.2), DS2Block(4, -0.1 + 0.3j)))
    s1, s2 = contours.pole_starts(r)
    assert s1 == 0.2
    assert s2 == pytest.approx(-2.1 + 0.3j, abs=1e-15)
    assert contours._asymptote_bound(r) == pytest.approx(1 / 6, abs=1e-15)


def test_shifted_contour_still_admissible():
    for p in (GL1R, DS11):
        check_admissible(build_contour(p).shifted(-0.15), p)


@pytest.mark.parametrize(
    "params",
    [
        GL1R,
        RealPlaceParams((GL1Block(1, 0.0),)),
        DS11,
        RealPlaceParams((GL1Block(0, 0.0), DS2Block(11, 0.0))),
        RealPlaceParams((GL1Block(1, 0.2), DS2Block(4, -0.1 + 0.3j))),
        RealPlaceParams((GL1Block(0, 0.6 - 1.5j), GL1Block(1, -0.3 + 0.7j))),
    ],
)
def test_real_place_contour_serves_both_parities(params):
    # over ℝ the pole set ignores the twist, which is why both Bessel routes integrate
    # the δ = 1 component along the one contour
    check_admissible(build_contour(params), params)


def test_twisted_contours_admissible():
    pair = RealPlaceParams((GL1Block(0, 0.0), GL1Block(1, 0.0)))
    check_admissible(build_contour(pair), pair)


def test_inadmissible_contours_rejected():
    with pytest.raises(InfeasibleContour):
        check_admissible(Contour(0.6), DS11)  # violates the decay bound
    with pytest.raises(InfeasibleContour):
        check_admissible(Contour(-0.75), GL1R)  # pole at 0 on the wrong side


# ---- real-place Bessel functions -------------------------------------------


def test_gl1_real_known_points():
    assert b_at(GL1R, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert b_at(GL1R, 0.25) == pytest.approx(1j, abs=1e-9)
    assert b_at(GL1R, 0.5) == pytest.approx(-1.0, abs=1e-9)


def test_gl1_real_oracle_random():
    rng = random.Random(11)
    xs = [rng.uniform(0.05, 20) * rng.choice([-1, 1]) for _ in range(12)]
    vals, _ = bessel_real_batch(GL1R, xs, tol=1e-10)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(cmath.exp(2j * math.pi * x), abs=2e-10)


def test_ds2_weight11_matches_classical_bessel():
    for x in (0.3, 1.0, 7.0, 40.0, 200.0):
        got = b_at(DS11, x, tol=1e-10)
        want = 2 * math.pi * jv(11, 4 * math.pi * math.sqrt(x))  # i^{l+1} = 1
        assert got == pytest.approx(want, abs=5e-10)
    assert b_at(DS11, -3.0) == 0.0  # parity sum cancels on x < 0


def test_contour_independence():
    rng = random.Random(2024)
    base = build_contour(DS11)
    shifted = base.shifted(-0.15)
    check_admissible(shifted, DS11)
    for _ in range(10):
        x = rng.uniform(0.05, 20)
        a = b_at(DS11, x, tol=1e-9, contour=base)
        b = b_at(DS11, x, tol=1e-9, contour=shifted)
        assert abs(a - b) < 2e-9


def test_integrand_tail_decay_on_asymptote():
    c = build_contour(DS11)
    x = 3.7
    T = 60.0
    mags = [
        abs(np.exp(log_mb_gamma(DS11, 0, complex(c.asymptote, t)) - complex(c.asymptote, t) * math.log(x)))
        for t in (T, 2 * T, 4 * T)
    ]
    assert mags[0] > mags[1] > mags[2]


# ---- Meijer G oracle ---------------------------------------------------------

# Γ_ℝ shifts (t, a) of L(s, π×sgn^δ) = ∏ Γ_ℝ(s + t + a) and the ε exponent Σk, from the
# L-factor table by hand: GL1(δ₀, t) → Γ_ℝ(s + t + δ), δ = δ₀ + δ_χ mod 2, k = δ;
# DS2(l, t) → Γ_ℂ(s + t + l/2) = Γ_ℝ(s + t + l/2)·Γ_ℝ(s + t + l/2 + 1), k = l + 1
MEIJER_SETS = {
    "GL1(0)": (RealPlaceParams((GL1Block(0, 0.0),)), {0: ([(0, 0)], 0), 1: ([(0, 1)], 1)}),
    "GL1(1)": (RealPlaceParams((GL1Block(1, 0.0),)), {0: ([(0, 1)], 1), 1: ([(0, 0)], 0)}),
    "DS2(11)": (DS11, {d: ([(0, 5.5), (0, 6.5)], 12) for d in (0, 1)}),
    "DS2(4)": (RealPlaceParams((DS2Block(4, 0.0),)), {d: ([(0, 2), (0, 3)], 5) for d in (0, 1)}),
    "GL1(1)+DS2(22)": (
        RealPlaceParams((GL1Block(1, 0.0), DS2Block(22, 0.0))),
        {0: ([(0, 1), (0, 11), (0, 12)], 24), 1: ([(0, 0), (0, 11), (0, 12)], 23)},
    ),
    "GL1(1,0.2)+DS2(4,-0.1+0.3i)": (
        RealPlaceParams((GL1Block(1, 0.2), DS2Block(4, -0.1 + 0.3j))),
        {
            0: ([(0.2, 1), (-0.1 + 0.3j, 2), (-0.1 + 0.3j, 3)], 6),
            1: ([(0.2, 0), (-0.1 + 0.3j, 2), (-0.1 + 0.3j, 3)], 5),
        },
    ),
}


def meijer_bessel(shifts, x):
    """b(x) = ½ Σ_δ I_δ(|x|)·sgn(x)^δ in 30 digits, each parity a Meijer G function.

    γ(1−s) = i^k·∏_j Γ_ℝ(s + a_j − t_j)/Γ_ℝ(1 − s + a_j + t_j) over the N shifts (the
    contragredient negates t), and s' = −s/2 turns (1/2πi)∫γ(1−s)X^{−s}ds into
    I_δ(X) = 2·i^k·π^{N/2 + Σt}·G^{N,0}_{0,2N}((π^N X)² | (a_j − t_j)/2 ; (1 − a_j − t_j)/2).
    """
    total = 0j
    with mpmath.workdps(30):
        for d, (sh, k) in shifts.items():
            n = len(sh)
            inner = [(mpmath.mpc(a) - mpmath.mpc(t)) / 2 for t, a in sh]
            outer = [(1 - mpmath.mpc(a) - mpmath.mpc(t)) / 2 for t, a in sh]
            pre = 2 * mpmath.mpc(0, 1) ** k * mpmath.pi ** (mpmath.mpf(n) / 2 + sum(mpmath.mpc(t) for t, _ in sh))
            g = mpmath.meijerg([[], []], [inner, outer], (mpmath.pi**n * abs(x)) ** 2)
            total += 0.5 * complex(pre * g) * (1 if x > 0 else (-1) ** d)
    return total


@pytest.mark.parametrize("name", sorted(MEIJER_SETS))
def test_real_bessel_matches_meijer_g(name):
    # GL1 at |x| = 1e3 walks to height 2π·1e3 and certifies ~1e-10 there, so it asks 1e-9
    params, shifts = MEIJER_SETS[name]
    tol = 1e-9 if params.rank == 1 else 1e-10
    xs = [0.3, -1.7, 5.0, -20.0, 100.0, -1000.0, 1000.0]
    vals, errs = bessel_real_batch(params, xs, tol)
    gaps = np.abs(vals - np.array([meijer_bessel(shifts, x) for x in xs]))
    assert np.all(gaps <= errs) and np.all(errs <= tol), (name, gaps, errs)


# ---- the factored x-phase ----------------------------------------------------


def test_bessel_integrand_factored_phase_matches_direct():
    # G_l·E_h[l]·P against exp(log γ − s·lx), the latter in 30 digits from the same double
    # inputs.  Doubles round the exponent by ~eps·(|log γ| + |s·lx|), however it is formed:
    # on the tail panel |log γ| ≈ 1e5, and the direct double form is 3.5e4·eps off there
    lx = np.linspace(0.0, math.log(1e6), 8)
    sigma = build_contour(DS11).asymptote
    h_bend = 1.25 * 2 * math.pi * 1e3 + 8.0  # the walk's bend height for x up to 1e6
    tail = complex(sigma, h_bend) + 45.0 * quadrature._BEND  # 40 to 50 units down the upper ray
    f = bessel.ContourIntegrand(lambda s: log_mb_gamma(DS11, 0, s), DS11.rank, lx)  # as the batch builds it
    panels = [  # a miss and a hit at t = 700, a slanted detour panel and a bent-tail panel
        (complex(sigma, 701.5), 1.5j, (1, 0)),
        (complex(sigma, 704.5), 1.5j, (1, 1)),
        (complex(sigma + 0.3, 2.0), 0.4 + 0.1j, (2, 1)),
        (tail, 5.0 * quadrature._BEND, (3, 1)),
    ]
    for c, h, counts in panels:
        got = f(np.array([c]), np.array([h]), np.eye(21))[0]  # one panel, W = I: the values at every node
        assert (f.phase.cache_info().misses, f.phase.cache_info().hits) == counts
        assert np.all(np.isfinite(got)), (c, h)
        s = panel_nodes(c, h)
        logg = log_mb_gamma(DS11, 0, s)
        with mpmath.workdps(30):
            exact = lambda g, si, x: mpmath.exp(mpmath.mpc(g) - mpmath.mpc(si) * x)
            ref = np.array([[complex(exact(g, si, x)) for x in lx] for g, si in zip(logg, s)])
        phase = np.abs(logg)[:, None] + np.abs(np.outer(s, lx))
        bound = (1e-13 + np.finfo(float).eps * phase) * np.abs(ref)
        assert np.all(np.abs(got - ref) <= bound), (c, h)


@pytest.mark.xfail(
    strict=True,
    reason="loggamma takes its Stirling term count from the smallest ρ in its call, "
    "so a panel stacked with a lower one gets more terms than it takes alone",
)
def test_a_panel_value_does_not_depend_on_the_panels_stacked_with_it():
    # two vertical panels a Mellin-route walk stacks in one call: alone, the upper one's Γ
    # arguments take 8 Stirling terms; under the lower one, 9, and its values move by 7e-16
    lx = np.linspace(0.0, math.log(1e6), 8)
    f = bessel.ContourIntegrand(lambda s: log_mb_gamma(DS11, 0, s), DS11.rank, lx)
    cs, hs = np.array([-0.25 + 6.75j, -0.25 + 8.25j]), np.array([0.75j, 0.75j])
    alone = f(cs[1:], hs[1:], np.eye(21))[0]
    assert np.array_equal(f(cs, hs, np.eye(21))[1], alone)


def test_bessel_batch_reuses_phase_tables(monkeypatch):
    # every panel of the walk sits on a ladder of repeating half-widths and the two tails
    # share their integrand calls, so one batch over x ∈ [1, 1e4] serves nearly every panel
    # from a memo of at most two tables, in few calls
    memos, sizes, tables, calls = [], [], bessel.phase_tables, []
    integrand_call = bessel.ContourIntegrand.__call__

    def tables_rec(lx):
        phase = tables(lx)
        memos.append(phase.cache_info)

        def rec(h):
            out = phase(h)
            sizes.append(phase.cache_info().currsize)
            return out

        return rec

    monkeypatch.setattr(bessel, "phase_tables", tables_rec)
    monkeypatch.setattr(bessel.ContourIntegrand, "__call__", lambda *a: calls.append(1) or integrand_call(*a))
    bessel_real_batch(DS11, np.geomspace(1.0, 1e4, 9), 1e-10)
    built, reused = sum(m().misses for m in memos), sum(m().hits for m in memos)
    assert len(sizes) == built + reused and max(sizes) == quadrature._PHASE_MEMO == 2
    assert reused >= 12 * built > 0
    assert 0 < len(calls) <= 40


# ---- kernels ---------------------------------------------------------------


def test_kernel_eval_identities():
    # k(x) = b(x)·|x|^{1/2}: the kernel table's values
    assert kernel_table(GL1R, [4.0], tol=1e-9).values[0] == pytest.approx(2.0, abs=1e-8)
    x = 2.3
    assert kernel_table(DS11, [x], tol=1e-10).values[0] == pytest.approx(
        b_at(DS11, x, tol=1e-10) * math.sqrt(x), abs=1e-12
    )


# ---- the parity fold ---------------------------------------------------------


def _stub_component(calls, scalar_error=False):
    # I_δ = (δ+1)·|x| with error (δ+1)·1e-3, recording each call
    def component(d, ax):
        calls.append((d, ax.tolist()))
        err = (d + 1) * 1e-3
        return (d + 1) * ax + 0j, err if scalar_error else np.full(len(ax), err)

    return component


def test_parity_batch_folds_both_parities():
    calls = []
    xs = [1.0, -2.0, 30.0, -0.5]
    vals, errs = parity_batch(xs, 4.0, (0, 1), _stub_component(calls))
    # ½(I₀ + sgn(x)·I₁) = ½(|x| ± 2|x|), error ½(e₀ + e₁)
    assert vals.dtype == complex and vals.tolist() == [1.5, 0.5 * (2.0 - 4.0), 45.0, 0.5 * (0.5 - 1.0)]
    assert errs.tolist() == [0.5 * (1e-3 + 2e-3)] * 4
    # |x| ∈ {0.5, 1, 2} is one magnitude group and 30 another; each parity once per group
    assert calls == [(0, [0.5, 1.0, 2.0]), (1, [0.5, 1.0, 2.0]), (0, [30.0]), (1, [30.0])]


def test_parity_batch_with_one_parity_folds_i0_with_itself():
    calls = []
    vals, errs = parity_batch([1.0, -2.0, 30.0], 4.0, (0,), _stub_component(calls, scalar_error=True))
    assert vals.tolist() == [1.0, 0.0, 30.0] and errs.tolist() == [1e-3] * 3
    assert [d for d, _ in calls] == [0, 0]


def test_parity_batch_refuses_zero_before_any_component():
    calls = []
    with pytest.raises(ValueError, match="nonzero"):
        parity_batch([1.0, 0.0, -2.0], 4.0, (0, 1), _stub_component(calls))
    assert calls == []
    vals, errs = parity_batch([], 4.0, (0, 1), _stub_component(calls))
    assert vals.shape == errs.shape == (0,) and calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_x_is_refused_like_zero(bad):
    # a NaN never met the Mellin tail's stop rule; it is refused with x = 0's ValueError
    calls = []
    with pytest.raises(ValueError, match="nonzero and finite"):
        parity_batch([1.0, bad, -2.0], 4.0, (0, 1), _stub_component(calls))
    assert calls == []
    with pytest.raises(ValueError, match="nonzero and finite"):
        bessel_real_batch(GL1R, [0.5, bad], 1e-8)


def test_gl1_batch_error_is_half_the_sum_of_the_parity_errors():
    # GL1 has both parities; the fold's error is ½(e₀ + e₁), not e₀ + e₁
    xs = np.array([0.6, -0.9, 1.7, -2.2])  # one magnitude group
    vals, errs = bessel_real_batch(GL1R, xs, 1e-8)
    contour = build_contour(GL1R)
    (i0, e0), (i1, e1) = (bessel._mb_batch(GL1R, d, contour, np.abs(xs), 1e-8 / 2) for d in (0, 1))
    assert np.array_equal(errs, 0.5 * (e0 + e1)) and np.all(errs > 0)
    assert np.array_equal(vals, 0.5 * (i0 + np.sign(xs) * i1))


def test_kernel_table_roundtrip(tmp_path):
    t = kernel_table(GL1R, [1.0], tol=1e-8)
    assert t.values[0] == pytest.approx(1.0, abs=1e-7)
    assert t.achieved_tol <= 1e-8
    path = os.path.join(tmp_path, "table.csv")
    t.save(path)
    t2 = KernelTable.load(path)
    assert t2 == t  # bit-identical persistence

    with pytest.raises(ValueError):
        kernel_table(GL1R, [], tol=1e-8)
    with pytest.raises(ValueError):
        kernel_table(GL1R, [2.0, 1.0], tol=1e-8)


def test_kernel_table_load_reads_sidecars_with_old_keys(tmp_path):
    # sidecars written by earlier versions also carry a partial flag and failed indices
    t = kernel_table(GL1R, [1.0], tol=1e-8)
    path = tmp_path / "table.csv"
    t.save(str(path))
    meta_path = tmp_path / "table.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    meta.update(partial=False, failures=[])
    meta_path.write_text(json.dumps(meta, indent=1))
    assert KernelTable.load(str(path)) == t


def test_kernel_table_save_over_an_old_table_is_atomic(tmp_path, monkeypatch):
    old = kernel_table(GL1R, [1.0], tol=1e-8)
    path = str(tmp_path / "table.csv")
    old.save(path)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert sorted(before) == ["table.csv", "table.csv.meta.json"]
    new = dataclasses.replace(old, values=tuple(2 * v for v in old.values), requested_tol=1e-6)

    def crash(src, dst):
        raise OSError("rename interrupted")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="rename interrupted"):
        new.save(path)
    # the old files are untouched and no temp file is left behind
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_kernel_table_torn_between_its_two_renames_is_refused(tmp_path, monkeypatch):
    old = kernel_table(GL1R, [1.0], tol=1e-8)
    path = str(tmp_path / "table.csv")
    old.save(path)
    new = dataclasses.replace(old, values=tuple(2 * v for v in old.values), requested_tol=1e-6)
    real, renamed = os.replace, []

    def second_rename_fails(src, dst):
        renamed.append(os.path.basename(dst))
        if len(renamed) == 2:
            raise OSError("interrupted between the renames")
        real(src, dst)

    monkeypatch.setattr(os, "replace", second_rename_fails)
    with pytest.raises(OSError, match="between the renames"):
        new.save(path)
    monkeypatch.undo()
    assert renamed == ["table.csv", "table.csv.meta.json"]
    # the new CSV now sits beside the old sidecar: its digest refuses the pair
    with pytest.raises(ValueError, match="sidecar"):
        KernelTable.load(path)
    # a sidecar written before the digest existed is read unchecked
    meta_path = tmp_path / "table.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    del meta["csv_sha256"]
    meta_path.write_text(json.dumps(meta, indent=1))
    assert KernelTable.load(path).values == new.values


def test_kernel_table_signs_cover_grid():
    t = kernel_table(DS11, [0.5, 1.5], tol=1e-8)
    assert len(t.xs) == 4 and set(t.signs) == {1, -1}
    neg = [v for v, s in zip(t.values, t.signs) if s < 0]
    assert all(abs(v) < 1e-12 for v in neg)
