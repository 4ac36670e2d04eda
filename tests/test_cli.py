"""End-to-end command-line behaviour: exit codes, reports, determinism."""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vorokit.archimedean import gamma_factor, log_mb_gamma
from vorokit.cli import _build_parser, _parse_args, _parse_s_values, _subcommands, main
from vorokit.params_io import params_from_dict
from vorokit.quadrature import ToleranceNotMet

DELTA_DOC = {"place": "real", "blocks": [{"kind": "ds2", "l": 11}]}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_without_timing(out: str) -> str:
    rep = json.loads(out)
    rep.pop("timing")
    return json.dumps(rep, sort_keys=True)


# ---- exit codes -------------------------------------------------------------


def test_unknown_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 2


def test_no_subcommand_exits_2(capsys):
    code, _, _ = run(capsys, [])
    assert code == 2


def test_bad_flag_value_exits_2(capsys):
    code, _, err = run(capsys, ["gamma", "--s-list", "zork"])
    assert code == 2
    assert "config error" in err


def test_nonpositive_tolerance_exits_2(capsys):
    code, _, err = run(capsys, ["hankel", "--bump", "1,4", "--x", "1", "--tol=-1e-8"])
    assert code == 2
    assert "positive" in err


def test_threshold_failure_exits_1(capsys):
    code, out, err = run(
        capsys,
        ["gj-scan", "--variant", "tate", "--s-list", "2", "--max-defect", "1e-30"],
    )
    assert code == 1
    assert "max_defect" in err
    rep = json.loads(out)
    assert rep["thresholds"]["max_defect"]["passed"] is False


def test_partial_kernel_table_exits_3(capsys, monkeypatch, tmp_path):
    # a batch that cannot meet --tol exits 3 before anything is written
    from vorokit import bessel

    def short(params, xs, tol, contour):
        raise ToleranceNotMet(tol, 2 * tol, "forced")

    monkeypatch.setattr(bessel, "bessel_real_batch", short)
    out_path = tmp_path / "table.csv"
    code, out, err = run(
        capsys, ["kernel-table", "--x-min", "0.5", "--x-max", "8", "--n", "5", "--out", str(out_path)]
    )
    assert code == 3
    assert "computation error: ToleranceNotMet" in err and out == ""
    assert list(tmp_path.iterdir()) == []


def test_hankel_complex_x_exits_2(capsys):
    code, out, err = run(capsys, ["hankel", "--bump", "1,4", "--x", "1+2j", "--route", "convolution"])
    assert code == 2
    assert "config error" in err and "real" in err and out == ""


EMPTY_LISTS = {
    "s-list": ["gamma", "--s-list", ","],
    "x": ["hankel", "--bump", "1,4", "--x", ",", "--route", "both"],
    "alpha-rational": ["padic", "--kloosterman3", "--p", "5", "--zeta", "2/5", "--alpha-rational", ","],
    "alpha": ["padic", "--check-lseries", "--q", "5", "--alpha", " , "],
    "s-list-from-config": ["gj-scan", "--config", "{config}"],
}


@pytest.mark.parametrize("flag, argv", EMPTY_LISTS.items(), ids=EMPTY_LISTS.keys())
def test_empty_list_exits_2_naming_the_flag(capsys, tmp_path, flag, argv):
    config = tmp_path / "job.json"
    config.write_text(json.dumps({"variant": "tate", "s_list": ","}))
    code, out, err = run(capsys, [str(config) if a == "{config}" else a for a in argv])
    assert code == 2 and out == ""
    assert f"config error: --{flag.removesuffix('-from-config')} holds no value" in err


EMPTY_FLAGS = {
    "alpha": (["padic", "--check-lseries", "--q", "5", "--alpha", "", "--count", "2"], "--alpha holds no value"),
    "lam": (["padic", "--check-lseries", "--q", "5", "--lam", ""], "bad --lam ''"),
    "kloosterman3-alpha": (
        ["padic", "--kloosterman3", "--p", "5", "--zeta", "2/5", "--alpha-rational", "1", "--alpha", ""],
        "--alpha holds no value",
    ),
    "s-list": (["gamma", "--s-list", ""], "--s-list holds no value"),
    "s-grid": (["gamma", "--s-grid", ""], "--s-grid must be re:im_lo:im_hi:steps"),
}


@pytest.mark.parametrize("argv, message", EMPTY_FLAGS.values(), ids=EMPTY_FLAGS.keys())
def test_an_empty_flag_value_exits_2_naming_it(capsys, argv, message):
    # an empty value is a bad value, not an absent flag: no random or default tuple, no fallback
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert f"config error: {message}" in err


# ---- config documents -------------------------------------------------------


def test_unknown_config_field_exits_2(capsys, tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"check-lseries": True, "q": 5, "alpha": "1/2,2", "volume": 11}))
    code, _, err = run(capsys, ["padic", "--config", str(doc)])
    assert code == 2
    assert "volume" in err
    # keys are flag names without their leading dashes
    doc.write_text(json.dumps({"check-lseries": True, "--q": 7, "alpha": "1/2,2"}))
    code, _, err = run(capsys, ["padic", "--config", str(doc)])
    assert code == 2
    assert "unknown config field '--q'" in err


def test_threads_is_not_an_option(capsys, tmp_path):
    # jobs run in one thread; a stale `threads` key is an unknown field
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"check-lseries": True, "q": 5, "alpha": "1/2,2", "threads": 2}))
    code, _, err = run(capsys, ["padic", "--config", str(doc)])
    assert code == 2
    assert "unknown config field 'threads'" in err
    code, _, _ = run(capsys, ["gj-scan", "--variant", "tate", "--s-list", "2", "--threads", "2"])
    assert code == 2


UNREAD_FLAGS = [("gamma", "tol"), ("padic", "tol"), ("clozel-test", "tol")] + [
    (sub, "seed")
    for sub in ("gamma", "kernel-table", "hankel", "fe-check", "voronoi-verify", "gj-scan", "clozel-test")
]


@pytest.mark.parametrize("sub,key", UNREAD_FLAGS)
def test_unread_flag_is_not_an_option(capsys, tmp_path, sub, key):
    # a subcommand registers --tol and --seed only if it reads them
    required = ["--variant", "tate"] if sub == "gj-scan" else []
    code, _, err = run(capsys, [sub, *required, f"--{key}", "1"])
    assert code == 2
    assert "unrecognized arguments" in err
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({key: 1}))
    code, _, err = run(capsys, [sub, *required, "--config", str(doc)])
    assert code == 2
    assert f"unknown config field '{key}'" in err


def test_config_supplies_parameters_and_flags_win(capsys, tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"check-lseries": True, "q": 7, "alpha": "1/2,2", "order": 15}))
    code, out, _ = run(capsys, ["padic", "--config", str(doc)])
    assert code == 0
    assert json.loads(out)["results"]["cases"][0]["q"] == 7
    code, out, _ = run(capsys, ["padic", "--config", str(doc), "--q", "11"])
    assert json.loads(out)["results"]["cases"][0]["q"] == 11


def _defaulted_flags():
    for sub, parser in _subcommands(_build_parser()).items():
        for act in parser._actions:
            if act.option_strings and act.default not in (None, argparse.SUPPRESS):
                yield pytest.param(sub, act, id=f"{sub}{act.option_strings[0]}")


def _other_values(act):
    """(config value, flag value): each differs from the default and the two differ."""
    d = act.default
    if act.choices:
        return next(c for c in act.choices if c != d), d
    if isinstance(d, (int, float)):
        return d + 1, d + 2
    return "from-config", "from-flag"


def _resolve(tmp_path, sub, doc, *flags):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    return _parse_args([sub, "--config", str(path), *flags])


@pytest.mark.parametrize("sub,act", _defaulted_flags())
def test_config_overrides_each_default_and_flag_beats_config(tmp_path, sub, act):
    opt, dest = act.option_strings[0], act.dest
    assert getattr(_parse_args([sub]), dest) == act.default
    if act.nargs == 0:  # store_true: the config can set it, and the flag sets it over a false config
        assert getattr(_resolve(tmp_path, sub, {dest: True}), dest) is True
        assert getattr(_resolve(tmp_path, sub, {dest: False}, opt), dest) is True
        return
    cfg, flag = _other_values(act)
    assert cfg != act.default and flag != cfg
    assert getattr(_resolve(tmp_path, sub, {opt[2:]: cfg}), dest) == cfg
    assert getattr(_resolve(tmp_path, sub, {opt[2:]: cfg}, opt, str(flag)), dest) == flag


def test_config_values_are_read_as_flag_text(capsys, tmp_path):
    args = _resolve(tmp_path, "voronoi-verify", {"zeta": 0.2, "n-trunc": 512, "tol": 1e-4})
    assert (args.zeta, args.n_trunc, args.tol) == ("0.2", 512, 1e-4)
    assert json.loads(_resolve(tmp_path, "hankel", {"blocks": DELTA_DOC}).blocks) == DELTA_DOC
    for sub, doc in [("voronoi-verify", {"tol": True}), ("kernel-table", {"n": 3.5}),
                     ("hankel", {"route": "mellon"}), ("padic", {"order": None})]:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, [sub, "--config", str(path)])
        assert code == 2, doc


def test_config_supplies_gj_scan_variant(capsys, tmp_path):
    assert _resolve(tmp_path, "gj-scan", {"variant": "tate"}).variant == "tate"
    doc = tmp_path / "scan.json"
    doc.write_text(json.dumps({"variant": "tate", "s-list": "2"}))
    code, out, _ = run(capsys, ["gj-scan", "--config", str(doc)])
    assert code == 0
    assert json.loads(out)["inputs"]["variant"] == "tate"
    doc.write_text(json.dumps({"variant": "tat", "s-list": "2"}))
    code, _, err = run(capsys, ["gj-scan", "--config", str(doc)])
    assert code == 2
    assert "variant" in err
    code, _, err = run(capsys, ["gj-scan", "--s-list", "2"])
    assert code == 2
    assert "variant" in err


def test_fe_check_s_grid_replaces_the_default_list(capsys):
    grid = _parse_s_values(_parse_args(["fe-check", "--s-grid", "0.5:0:1:3"]))
    assert grid == [0.5 + 0j, 0.5 + 0.5j, 0.5 + 1j]
    assert _parse_s_values(_parse_args(["fe-check"])) == [0.2, 0.5, 0.8]
    code, _, err = run(capsys, ["gamma"])
    assert code == 2
    assert "--s-list or --s-grid" in err


def test_malformed_config_exits_2(capsys, tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text("{not json")
    code, _, err = run(capsys, ["padic", "--config", str(doc)])
    assert code == 2
    doc.write_text(json.dumps([1, 2, 3]))
    code, _, err = run(capsys, ["padic", "--config", str(doc)])
    assert code == 2
    assert "object" in err


@pytest.mark.parametrize(
    "doc,key",
    [
        ({"check-lseries": "false", "count": 2}, "check-lseries"),  # a string "false" used to run the job
        ({"kloosterman3": "no", "check-lseries": True}, "kloosterman3"),  # and "no" to select a second one
    ],
    ids=["string-false", "string-no"],
)
def test_config_flag_without_argument_takes_only_a_boolean(capsys, tmp_path, doc, key):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["padic", "--config", str(path)])
    assert code == 2 and out == ""
    assert f"config field {key!r} is a flag" in err
    path.write_text(json.dumps({"check-lseries": True, "count": 2}))
    code, out, _ = run(capsys, ["padic", "--config", str(path)])
    assert code == 0 and json.loads(out)["inputs"]["mode"] == "check-lseries"


@pytest.mark.parametrize(
    "blocks",
    [
        '{"place":"real","blocks":[5]}',  # a block that is not a JSON object
        '{"place":"complex","blocks":[{"t":[0.0,0.0],"l":0}]}',  # real place only
        '{"place":"real","blocks":[{"kind":"ds2","l":true}]}',  # a JSON boolean is no weight
    ],
    ids=["non-object-block", "complex-place", "boolean-weight"],
)
def test_malformed_blocks_exit_2(capsys, blocks):
    code, _, err = run(capsys, ["gamma", "--blocks", blocks, "--s-list", "0.5"])
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "rows,why",
    [
        ("1,1.0,0.0\n2,0.5\n", "line 3: expected n,lambda_re,lambda_im"),  # too few fields
        ("1,1.0,0.0\n2,0.5,0.0,9\n", "line 3: expected n,lambda_re,lambda_im"),  # too many
        ("1,1.0,0.0\n2,0.5,0.0\n2,0.25,0.0\n", "line 4: n = 2 repeats"),
        ("1,1.0,0.0\n2,abc,0.0\n", "line 3: could not convert string to float: 'abc'"),
        ("1,1.0,0.0\n1.5,0.1,0.0\n", "line 3: invalid literal for int()"),
    ],
    ids=["short-row", "long-row", "repeated-n", "unparsable-lambda", "non-integer-n"],
)
def test_malformed_coeffs_file_exits_2(capsys, tmp_path, rows, why):
    path = tmp_path / "coeffs.csv"
    path.write_text("n,lambda_re,lambda_im\n" + rows)
    code, _, err = run(capsys, ["voronoi-verify", "--zeta", "0", "--support", "1,8", "--coeffs", str(path)])
    assert code == 2
    assert why in err


NON_FINITE = {
    "hankel-x-nan": ["hankel", "--x", "nan"],
    "hankel-mellin-x-inf": ["hankel", "--x", "inf", "--route", "mellin"],
    "hankel-convolution-x-nan": ["hankel", "--x", "nan", "--route", "convolution"],
    "hankel-bump-inf": ["hankel", "--bump", "1,inf", "--x", "1"],
    "gj-scan-s-list-nan": ["gj-scan", "--variant", "tate", "--s-list", "nan"],
    "gj-scan-gaussian-nan": ["gj-scan", "--variant", "tate", "--phi", "gaussian:nan,0", "--s-list", "2"],
    "fe-check-s-grid-inf": ["fe-check", "--s-grid", "0.5:0:inf:3"],
    "gamma-blocks-t-nan": ["gamma", "--blocks", '{"place":"real","blocks":[{"kind":"ds2","l":11,"t":[NaN,0]}]}',
                           "--s-list", "0.5"],
    "voronoi-verify-support-inf": ["voronoi-verify", "--support", "1,inf"],
    "voronoi-verify-coeffs-nan": ["voronoi-verify", "--zeta", "0", "--support", "1,8", "--coeffs", "{coeffs}"],
    "voronoi-verify-tol-inf": ["voronoi-verify", "--tol", "inf", "--support", "1,8"],
    "fe-check-max-residual-nan": ["fe-check", "--max-residual", "nan", "--s-list", "0.5", "--bump", "1,4",
                                  "--tol", "1e-4"],
    "clozel-test-t0-inf": ["clozel-test", "--t0", "inf", "--steps", "5"],
    "hankel-tol-inf": ["hankel", "--tol", "inf", "--x", "1", "--route", "convolution"],
    "kernel-table-x-max-inf": ["kernel-table", "--x-max", "inf"],
    "fe-check-config-tol-nan": ["fe-check", "--config", "{config}"],
}


@pytest.mark.parametrize("argv", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_input_exits_2_at_once(tmp_path, argv):
    # in a fresh process with a timeout, so a refusal that regresses into a hang fails here
    path = tmp_path / "coeffs.csv"
    path.write_text("n,lambda_re,lambda_im\n1,1.0,0.0\n2,nan,0.0\n")
    config = tmp_path / "job.json"
    config.write_text('{"tol": "nan"}')
    argv = [{"{coeffs}": str(path), "{config}": str(config)}.get(a, a) for a in argv]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-m", "vorokit.cli", *argv], env=env, capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout) == (2, ""), out.stderr
    assert time.monotonic() - t0 < 5.0
    assert "config error" in out.stderr and "finite" in out.stderr


def test_params_from_dict_refuses_a_non_finite_t():
    for t in ([math.nan, 0.0], [0.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            params_from_dict({"place": "real", "blocks": [{"kind": "gl1", "delta": 0, "t": t}]})


# ---- determinism ------------------------------------------------------------


def test_rerun_same_seed_is_byte_identical_modulo_timing(capsys):
    argv = ["padic", "--check-lseries", "--count", "4", "--seed", "3"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert body_without_timing(out1) == body_without_timing(out2)
    _, out3, _ = run(capsys, ["padic", "--check-lseries", "--count", "4", "--seed", "4"])
    assert body_without_timing(out1) != body_without_timing(out3)
    # a job whose windows share one kernel-model cache, panel counts included
    argv = ["voronoi-verify", "--zeta", "0", "--support", "1,8", "--n-trunc", "512", "--tol", "1e-4"]
    code, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert code == 0 and body_without_timing(out1) == body_without_timing(out2)
    windows = json.loads(out1)["results"]["windows"]
    assert len(windows) >= 2 and all(set(w["kernel_panels"]) == {"built", "reused"} for w in windows)
    assert windows[0]["kernel_panels"]["built"] > 0 and windows[-1]["kernel_panels"]["reused"] > 0
    # the mellin route's work counts in the fe-check grid block
    argv = ["fe-check", "--blocks", GL1_DOC, "--bump", "1,2", "--s-list", "0.5", "--tol", "1e-4"]
    code, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert code == 0 and body_without_timing(out1) == body_without_timing(out2)
    grid = json.loads(out1)["results"]["grid"]
    assert grid["tail_panels"] > 0 and set(grid["phase_memo"]) == {"built", "reused"}
    assert grid["phase_memo"]["reused"] > grid["phase_memo"]["built"] > 0
    # and the inner transform's memo, kept apart from the x-phase counts
    memo = grid["inner_memo"]
    assert set(memo) == {"grids_built", "tables_built", "tables_reused"}
    assert memo["tables_reused"] > memo["tables_built"] >= memo["grids_built"] > 0


# ---- gamma ------------------------------------------------------------------


def test_gamma_matches_direct_evaluation(capsys):
    code, out, _ = run(capsys, ["gamma", "--s-list", "0.3,0.5+2j"])
    assert code == 0
    rep = json.loads(out)
    params = params_from_dict(DELTA_DOC)
    for point in rep["results"]["points"]:
        s = complex(*point["s"]) if isinstance(point["s"], list) else complex(point["s"])
        want = gamma_factor(params, 0, s)
        got = complex(*point["gamma"]["value"])
        assert got == pytest.approx(want, rel=1e-12)
        assert point["gamma"]["provenance"] == "gamma-ratio-closed-form"


def test_gamma_at_large_height_is_finite(capsys):
    # at s = 2 + 1000i both L-factors of the ratio underflow to zero; their log ratio does not
    code, out, _ = run(capsys, ["gamma", "--s-list", "2+1000j,0.5+2j"])
    assert code == 0
    far, near = json.loads(out)["results"]["points"]
    want = complex(log_mb_gamma(params_from_dict(DELTA_DOC), 0, np.array([-1 - 1000j]))[0])
    assert complex(*far["log_gamma"]["value"]) == want
    assert far["gamma"]["provenance"] == "gamma-ratio-closed-form"
    got = complex(*far["gamma"]["value"])
    assert abs(got - cmath.exp(want)) <= 1e-12 * abs(cmath.exp(want))
    assert near["gamma"]["provenance"] == "gamma-ratio-closed-form"


# ---- padic ------------------------------------------------------------------


def test_padic_random_tuples_all_pass(capsys):
    code, out, _ = run(capsys, ["padic", "--check-lseries", "--count", "6", "--seed", "0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["thresholds"]["exact_identity"]["passed"] is True
    assert len(rep["results"]["cases"]) == 6
    for case in rep["results"]["cases"]:
        assert case["identity_holds"]["value"] is True
        assert case["identity_holds"]["provenance"] == "exact-rational"


def test_padic_kloosterman_report_shape(capsys):
    code, out, _ = run(
        capsys,
        ["padic", "--kloosterman3", "--p", "5", "--zeta", "2/5", "--alpha-rational", "1,7/5"],
    )
    assert code == 0
    rep = json.loads(out)
    sums = rep["results"]["sums"]
    assert [entry["alpha"] for entry in sums] == ["1", "7/5"]
    for entry in sums:
        assert entry["prefactor"] == "5"
        assert isinstance(entry["vanished_at"], int)
        # shells carry the exact summands: phase in turns, √p parity, ring coefficient
        some_shell = next(iter(entry["shells"].values()))
        if some_shell:
            assert set(some_shell[0]) == {"turns", "sqrtq_power", "coef"}


def test_padic_echoes_seed_only_when_tuples_are_drawn(capsys):
    drawn = json.loads(run(capsys, ["padic", "--check-lseries", "--count", "2", "--seed", "4"])[1])
    assert drawn["inputs"]["seed"] == 4
    for argv in (
        ["padic", "--check-lseries", "--q", "5", "--alpha", "2/3,3/2", "--order", "8"],
        ["padic", "--check-lseries", "--q", "5", "--lam", "1/2", "--order", "8"],
        ["padic", "--kloosterman3", "--p", "5", "--zeta", "2/5", "--alpha-rational", "1"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "seed" not in json.loads(out)["inputs"]


def test_padic_rejects_zero_order_and_count(capsys):
    for flag in ("--order", "--count"):
        code, _, err = run(capsys, ["padic", "--check-lseries", flag, "0"])
        assert code == 2
        assert f"{flag} must be positive" in err


def test_padic_requires_a_mode(capsys):
    code, _, err = run(capsys, ["padic", "--q", "5"])
    assert code == 2
    assert "check-lseries" in err


def test_padic_rejects_both_modes(capsys):
    code, out, err = run(
        capsys,
        ["padic", "--check-lseries", "--kloosterman3", "--p", "5", "--zeta", "2/5", "--alpha-rational", "1"],
    )
    assert code == 2 and out == ""
    assert "--check-lseries" in err and "--kloosterman3" in err


def test_padic_kloosterman_rejects_lam(capsys):
    code, _, err = run(
        capsys,
        ["padic", "--kloosterman3", "--p", "5", "--zeta", "2/5", "--alpha-rational", "1", "--lam", "1/2"],
    )
    assert code == 2
    assert "--lam" in err and "--check-lseries" in err


# ---- table and route outputs ------------------------------------------------


def test_kernel_table_writes_csv_and_meta(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, out, _ = run(
        capsys,
        ["kernel-table", "--x-min", "0.5", "--x-max", "8", "--n", "5", "--tol", "1e-7",
         "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,sign,re,im"
    assert len(lines) == 11  # header + 5 points × 2 signs
    meta = json.loads((tmp_path / "table.csv.meta.json").read_text())
    assert set(meta) == {"csv_sha256", "params", "twist", "achieved_tol", "requested_tol", "contour"}
    rep = json.loads(out)
    assert rep["results"]["achieved_tol"]["value"] < 1e-7


def test_hankel_both_routes_agree_and_csv(capsys, tmp_path):
    out_path = tmp_path / "dual.csv"
    code, out, _ = run(
        capsys,
        ["hankel", "--bump", "1,8", "--x", "0.5,2", "--route", "both", "--tol", "1e-7",
         "--max-disagree", "1e-5", "--out", str(out_path)],
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["max_route_disagreement"]["value"] < 1e-5
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,route,re,im,err"
    assert len(lines) == 5  # header + 2 points × 2 routes
    routes = {line.split(",")[1] for line in lines[1:]}
    assert routes == {"mellin", "convolution"}


GL1_DOC = '{"place":"real","blocks":[{"kind":"gl1","delta":0}]}'


def test_hankel_takes_the_rank_from_the_blocks(capsys):
    code, out, err = run(
        capsys,
        ["hankel", "--blocks", GL1_DOC, "--bump", "1,2", "--x", "1,-1.7", "--route", "both",
         "--max-disagree", "1e-5", "--tol", "1e-7"],
    )
    assert code == 0, err
    assert json.loads(out)["thresholds"]["route_agreement"]["passed"] is True


def test_fe_check_takes_the_rank_from_the_blocks(capsys):
    code, out, err = run(capsys, ["fe-check", "--blocks", GL1_DOC, "--bump", "1,2", "--s-list", "0.5"])
    assert code == 0, err
    rep = json.loads(out)
    assert rep["thresholds"]["max_rel_residual"]["passed"] is True
    assert {e["parity"] for e in rep["results"]["samples"]} == {0, 1}


# ---- voronoi-verify ---------------------------------------------------------


def test_voronoi_verify_report_fields(capsys, tmp_path):
    out_path = tmp_path / "vor.json"
    code, out, _ = run(
        capsys,
        ["voronoi-verify", "--zeta", "0", "--support", "1,8", "--n-trunc", "512",
         "--tol", "1e-4", "--out", str(out_path)],
    )
    assert code == 0
    assert "report written" in out
    rep = json.loads(out_path.read_text())
    results = rep["results"]
    for key in ("lhs", "rhs", "abs_residual", "rel_residual"):
        assert key in results
    assert results["rel_residual"]["value"] < 1e-2
    assert rep["thresholds"]["rel_residual"]["passed"] is True
    # the place is echoed as --blocks is, in place of a weight
    assert rep["inputs"]["blocks"] == {"place": "real", "blocks": [{"kind": "ds2", "l": 11, "t": [0.0, 0.0]}]}
    assert "k" not in rep["inputs"]
    # no stray temp files from the atomic write
    assert [p.name for p in tmp_path.iterdir()] == ["vor.json"]


def test_voronoi_verify_rejects_unknown_weight(capsys):
    # the built-in table is Δ's: another place needs its own --coeffs
    ds6 = '{"place":"real","blocks":[{"kind":"ds2","l":6}]}'
    code, _, err = run(capsys, ["voronoi-verify", "--blocks", ds6, "--zeta", "0", "--support", "1,8"])
    assert code == 2
    assert "coeffs" in err


def _coeffs_file(tmp_path, rows):
    path = tmp_path / "t.csv"
    path.write_text("n,lambda_re,lambda_im\n" + "".join(f"{n},{(-1) ** n / n},0.0\n" for n in range(1, rows + 1)))
    return str(path)


def test_voronoi_verify_refuses_a_mismatched_table_before_any_work(capsys, tmp_path):
    # a table shorter than --n-trunc is a configuration mismatch: exit 2, and no report is written
    out_path = tmp_path / "vor.json"
    table = _coeffs_file(tmp_path, 100)
    code, out, err = run(capsys, ["voronoi-verify", "--coeffs", table, "--n-trunc", "512", "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert "config error" in err and "covers 100 < 512" in err
    assert not out_path.exists()
    # a table whose place is not GL(2)'s: exit 2, naming the rank
    code, out, err = run(capsys, ["voronoi-verify", "--coeffs", table, "--n-trunc", "100", "--blocks", GL1_DOC])
    assert (code, out) == (2, "")
    assert "rank 1" in err


def test_voronoi_verify_config_with_a_weight_is_refused(capsys, tmp_path):
    # the weight is the place's now; a config that still carries k names it as unknown
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"k": 12, "zeta": "0", "support": "1,8", "n-trunc": 512}))
    code, out, err = run(capsys, ["voronoi-verify", "--config", str(doc)])
    assert (code, out) == (2, "")
    assert "unknown config field 'k'" in err


# ---- scans ------------------------------------------------------------------


def test_gj_scan_csv_shape(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys,
        ["gj-scan", "--variant", "tate", "--s-grid", "0.5:13:15:5", "--out", str(out_path)],
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "s_re,s_im,defect,reference_abs"
    assert len(lines) == 6
    for line in lines[1:]:
        s_re, s_im, defect, ref = (float(tok) for tok in line.split(","))
        assert s_re == 0.5 and 13 <= s_im <= 15
        assert defect >= 0 and ref >= 0


def test_gj_scan_tate_reads_no_tolerance(capsys):
    results = []
    for tol in ("1e-2", "1e-9"):
        code, out, _ = run(capsys, ["gj-scan", "--variant", "tate", "--s-list", "0.5+14j,2", "--tol", tol])
        assert code == 0
        rep = json.loads(out)
        assert all(p["value"]["error"] is None for p in rep["results"]["points"])
        # nor the τ table's size, so its inputs echo neither
        assert sorted(rep["inputs"]) == ["out", "phi", "s", "variant"]
        results.append(json.dumps(rep["results"], sort_keys=True))
    assert results[0] == results[1]


def test_gj_scan_phi_variant_mismatch(capsys):
    code, _, err = run(
        capsys, ["gj-scan", "--variant", "tate", "--s-list", "2", "--phi", "bump:1,8"]
    )
    assert code == 2
    assert "Schwartz" in err
    code, _, err = run(
        capsys, ["gj-scan", "--variant", "cuspidal", "--s-list", "2", "--phi", "gaussian"]
    )
    assert code == 2
    assert "compact support" in err


def test_gj_scan_reports_the_dual_tolerance_met(capsys, monkeypatch):
    from vorokit import gj

    real = gj.hankel_convolution_batch
    asked = []

    def first_octave_misses(*args, tol, cache):
        asked.append(tol)
        if len(asked) == 1:
            raise ToleranceNotMet(tol, 2 * tol, "forced")
        return real(*args, tol=tol, cache=cache)

    argv = ["gj-scan", "--variant", "cuspidal", "--s-list", "0.5,2", "--phi", "bump:1,4", "--tol", "1e-5"]
    wtol = 1e-7  # min(1e-7, max(2e-9, tol/100))
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert [p["dual_tol"] for p in json.loads(out)["results"]["points"]] == [wtol, wtol]
    # the cuspidal variant reads the τ table's size and the tolerance, so its inputs echo both
    assert json.loads(out)["inputs"]["n_trunc"] == 1024 and json.loads(out)["inputs"]["tol"] == 1e-5
    monkeypatch.setattr(gj, "hankel_convolution_batch", first_octave_misses)
    code, out, _ = run(capsys, argv)
    assert code == 0 and asked[:2] == [wtol, 8 * wtol]
    # both points read the first octave, so both show the looser retry
    assert [p["dual_tol"] for p in json.loads(out)["results"]["points"]] == [8 * wtol, 8 * wtol]
    code, out, _ = run(capsys, ["gj-scan", "--variant", "tate", "--s-list", "2"])
    assert code == 0 and json.loads(out)["results"]["points"][0]["dual_tol"] is None


def test_clozel_test_dip(capsys, tmp_path):
    out_path = tmp_path / "dip.csv"
    code, out, _ = run(
        capsys,
        ["clozel-test", "--window", "0.4", "--steps", "9", "--out", str(out_path)],
    )
    assert code == 0
    rep = json.loads(out)
    results = rep["results"]
    assert results["dip_ratio"]["value"] > 100
    assert results["zero_located"]["value"] == pytest.approx(14.134725141734693, abs=1e-9)
    assert abs(results["zero_vs_dip_gap"]["value"]) <= 0.4 / 8 + 1e-12
    assert len(out_path.read_text().splitlines()) == 10


def test_clozel_test_threshold(capsys):
    code, _, err = run(
        capsys, ["clozel-test", "--window", "0.4", "--steps", "9", "--min-dip", "1e12"]
    )
    assert code == 1
    assert "dip_ratio" in err


# ---- report envelope --------------------------------------------------------


def test_report_envelope_fields(capsys):
    _, out, _ = run(capsys, ["gamma", "--s-list", "0.3"])
    rep = json.loads(out)
    assert rep["tool"]["name"] == "vorokit"
    assert rep["subcommand"] == "gamma"
    assert "inputs" in rep and "results" in rep and "thresholds" in rep
    assert "wall_time_s" in rep["timing"] and "generated_at" in rep["timing"]
    point = rep["results"]["points"][0]
    assert {"value", "error", "provenance"} <= set(point["log_gamma"])
