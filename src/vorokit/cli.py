"""Command-line front end: batch jobs in, JSON/CSV reports out.

One process runs one job.  Each parameter comes from its subcommand flag, else
from a ``--config`` JSON document (unknown keys are rejected), else from the
default declared on the flag.  Every report echoes its resolved inputs, tags
each numeric result with an error estimate and a provenance label, and is
written atomically (temp file + rename) so a killed job never leaves a torn
file.

Exit codes: 0 success with all thresholds met, 1 a threshold failed,
2 configuration error, 3 the computation itself gave up.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import random
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import __version__
from .archimedean import PoleError, RealPlaceParams, gamma_factor, log_mb_gamma
from .bessel import kernel_table
from .contours import InfeasibleContour
from .gj import (
    CoeffRangeExceeded,
    PoleAtOne,
    SchwartzGaussian,
    zero_criterion_pairing,
)
from .hankel import (
    BadSupport,
    hankel_convolution_batch,
    hankel_mellin_batch,
    local_fe_residual,
    make_bump,
)
from .lseries import hardy_z, zeta_zero_bisect
from .padic import (
    DepthExceeded,
    SatakeParams,
    Singular,
    kloosterman_gl3,
    local_l_series_check,
    satake_from_eigenvalue,
)
from .params_io import atomic_write, params_from_dict, params_to_dict
from .quadrature import ToleranceNotMet
from .voronoi import (
    DELTA_PLACE,
    TailNotConverged,
    TruncationTooSmall,
    VoronoiJob,
    coeffs_from_file,
    tau_coefficients,
    voronoi_residual,
)

__all__ = ["ConfigError", "main"]

_DELTA_BLOCKS = json.dumps(params_to_dict(DELTA_PLACE))


class ConfigError(ValueError):
    """Bad flags, bad config document, or parameters outside the contracts."""


_COMPUTE_ERRORS = (
    ToleranceNotMet,
    TailNotConverged,
    TruncationTooSmall,
    PoleError,
    PoleAtOne,
    CoeffRangeExceeded,
    DepthExceeded,
    InfeasibleContour,
    Singular,
)


# ---- small parsing grammars -------------------------------------------------


def _parse_complex_list(text: str, what: str) -> list:
    try:
        values = [complex(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad complex list {text!r}: {exc}") from None
    if not values:
        raise ConfigError(f"{what} holds no value: {text!r}")
    if not all(map(cmath.isfinite, values)):
        raise ConfigError(f"complex list {text!r} holds a non-finite value")
    return values


def _parse_float_pair(text: str, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated numbers, got {text!r}")
    try:
        pair = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from None
    if not all(map(math.isfinite, pair)):
        raise ConfigError(f"{what} {text!r} holds a non-finite value")
    return pair


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from None


def _parse_rational_list(text: str, what: str) -> list:
    values = [_parse_rational(tok, what) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ConfigError(f"{what} holds no value: {text!r}")
    return values


def _parse_blocks(text: str) -> RealPlaceParams:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--blocks is not valid JSON: {exc}") from None
    try:
        return params_from_dict(doc)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None


def _parse_bump(text: str, what: str):
    try:
        return make_bump(*_parse_float_pair(text, what))
    except BadSupport as exc:
        raise ConfigError(str(exc)) from None


def _parse_phi(text: str):
    """'gaussian', 'gaussian:c0,c2', or 'bump:a,b' → a test-function object."""
    if text == "gaussian":
        return SchwartzGaussian()
    if text.startswith("gaussian:"):
        c0, c2 = _parse_float_pair(text[len("gaussian:") :], "gaussian coefficients")
        return SchwartzGaussian(c0, c2)
    if text.startswith("bump:"):
        return _parse_bump(text[len("bump:") :], "bump support")
    raise ConfigError(f"phi must be gaussian[:c0,c2] or bump:a,b, got {text!r}")


def _parse_s_values(args) -> list:
    """The s-set: ``--s-grid`` when given, else ``--s-list``."""
    if args.s_grid is not None:
        parts = args.s_grid.split(":")
        if len(parts) != 4:
            raise ConfigError(f"--s-grid must be re:im_lo:im_hi:steps, got {args.s_grid!r}")
        try:
            re, lo, hi, steps = float(parts[0]), float(parts[1]), float(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ConfigError(f"bad --s-grid {args.s_grid!r}: {exc}") from None
        if not all(map(math.isfinite, (re, lo, hi))):
            raise ConfigError(f"--s-grid {args.s_grid!r} holds a non-finite value")
        if steps < 1:
            raise ConfigError("--s-grid needs at least one step")
        return [complex(re, t) for t in np.linspace(lo, hi, steps)]
    if args.s_list is not None:
        return _parse_complex_list(args.s_list, "--s-list")
    raise ConfigError("one of --s-list or --s-grid is required")


# ---- report plumbing --------------------------------------------------------


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, complex):
        return [float(v.real), float(v.imag)]
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


def _num(value, error, provenance: str) -> dict:
    """The report atom: a value, how far it can be trusted, and where it came from."""
    return {"value": _jsonable(value), "error": _jsonable(error), "provenance": provenance}


def _report(sub: str, inputs: dict, results: dict, thresholds: dict, t0: float) -> dict:
    return {
        "tool": {"name": "vorokit", "version": __version__},
        "subcommand": sub,
        "inputs": _jsonable(inputs),
        "results": _jsonable(results),
        "thresholds": _jsonable(thresholds),
        "timing": {
            "wall_time_s": round(time.time() - t0, 3),
            "generated_at": datetime.now(timezone.utc).isoformat(),
        },
    }


def _threshold(limit: float, observed: float, mode: str = "max") -> dict:
    passed = observed <= limit if mode == "max" else observed >= limit
    return {"limit": limit, "observed": _jsonable(observed), "mode": mode, "passed": bool(passed)}


def _write_csv(path: str, header: list, rows: list) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue())


# ---- subcommand handlers ----------------------------------------------------


def _run_gamma(args, t0):
    params = _parse_blocks(args.blocks)
    s_values = _parse_s_values(args)
    rows = []
    for s in s_values:
        lg = complex(log_mb_gamma(params, args.twist, np.array([1 - s]))[0])
        entry = {"s": s, "log_gamma": _num(lg, 5e-14 * max(1.0, abs(lg)), "gamma-ratio-closed-form")}
        try:
            g = gamma_factor(params, args.twist, s)
            entry["gamma"] = _num(g, 5e-14 * max(1.0, abs(g)), "gamma-ratio-closed-form")
        except OverflowError:
            entry["gamma"] = _num(None, None, "overflow; use log_gamma")
        rows.append(entry)
    inputs = {"blocks": params_to_dict(params), "twist": args.twist, "s": s_values}
    return _report("gamma", inputs, {"points": rows}, {}, t0)


def _run_kernel_table(args, t0):
    params = _parse_blocks(args.blocks)
    if args.x_min is None or args.x_max is None or not 0 < args.x_min < args.x_max:
        raise ConfigError("need 0 < --x-min < --x-max")
    if args.n < 1:
        raise ConfigError("--n must be positive")
    grid = np.geomspace(args.x_min, args.x_max, args.n) if args.spacing == "log" else np.linspace(
        args.x_min, args.x_max, args.n
    )
    table = kernel_table(params, [float(g) for g in grid], tol=args.tol)
    if args.out:
        table.save(args.out)
    inputs = {
        "blocks": params_to_dict(params),
        "x_min": args.x_min,
        "x_max": args.x_max,
        "n": args.n,
        "spacing": args.spacing,
        "tol": args.tol,
        "out": args.out,
    }
    results = {
        "points": _num(len(table.xs), 0, "grid"),
        "achieved_tol": _num(table.achieved_tol, 0.0, "bent-contour-quadrature"),
        "max_abs_value": _num(max(abs(v) for v in table.values), table.achieved_tol, "bent-contour-quadrature"),
    }
    return _report("kernel-table", inputs, results, {}, t0)


def _run_hankel(args, t0):
    params = _parse_blocks(args.blocks)
    w = _parse_bump(args.bump, "--bump")
    zs = _parse_complex_list(args.x, "--x")
    if any(z.imag != 0 for z in zs):
        raise ConfigError("dual evaluation points must be real")
    xs = [z.real for z in zs]
    if any(x == 0 for x in xs):
        raise ConfigError("dual evaluation points must be nonzero")
    routes = ("mellin", "convolution") if args.route == "both" else (args.route,)
    values = {}
    for route in routes:
        fn = hankel_mellin_batch if route == "mellin" else hankel_convolution_batch
        vals, errs = fn(params, w, xs, tol=args.tol)
        values[route] = (vals, errs)
    rows = []
    csv_rows = []
    for i, x in enumerate(xs):
        entry = {"x": x}
        for route in routes:
            v, e = values[route][0][i], float(values[route][1][i])
            entry[route] = _num(complex(v), e, f"{route}-route")
            csv_rows.append([repr(x), route, repr(complex(v).real), repr(complex(v).imag), repr(e)])
        rows.append(entry)
    results = {"points": rows}
    thresholds = {}
    if len(routes) == 2:
        disagree = max(
            abs(values["mellin"][0][i] - values["convolution"][0][i])
            / max(abs(values["mellin"][0][i]), abs(values["convolution"][0][i]), 1e-30)
            for i in range(len(xs))
        )
        results["max_route_disagreement"] = _num(float(disagree), 0.0, "dual-route")
        if args.max_disagree is not None:
            thresholds["route_agreement"] = _threshold(args.max_disagree, float(disagree))
    if args.out:
        _write_csv(args.out, ["x", "route", "re", "im", "err"], csv_rows)
    inputs = {
        "blocks": params_to_dict(params),
        "bump": [w.a, w.b],
        "x": xs,
        "route": args.route,
        "tol": args.tol,
        "out": args.out,
    }
    return _report("hankel", inputs, results, thresholds, t0)


def _run_fe_check(args, t0):
    params = _parse_blocks(args.blocks)
    w = _parse_bump(args.bump, "--bump")
    s_values = _parse_s_values(args)
    rep = local_fe_residual(params, params.rank, w, s_values, tol=args.tol)
    samples = [
        {
            "s": e["s"],
            "parity": e["parity"],
            "lhs": _num(e["lhs"], args.tol, "mellin-route-dual"),
            "rhs": _num(e["rhs"], 1e-12, "gamma-times-mellin"),
            "rel_residual": _jsonable(e["rel_residual"]),
        }
        for e in rep["samples"]
    ]
    results = {
        "samples": samples,
        "max_rel_residual": _num(rep["max_rel_residual"], 0.0, "dual-route"),
        "grid": rep["grid"],
    }
    thresholds = {"max_rel_residual": _threshold(args.max_residual, float(rep["max_rel_residual"]))}
    inputs = {
        "blocks": params_to_dict(params),
        "bump": [w.a, w.b],
        "s": s_values,
        "tol": args.tol,
        "max_residual": args.max_residual,
    }
    return _report("fe-check", inputs, results, thresholds, t0)


def _random_satake(rng: random.Random) -> SatakeParams:
    q = rng.choice((2, 3, 5, 7, 11))
    rank = rng.choice((1, 2, 2, 3))
    alpha = []
    for _ in range(rank):
        num = rng.choice((-3, -2, -1, 1, 2, 3))
        den = rng.choice((1, 2, 3, 4))
        alpha.append(Fraction(num, den))
    return SatakeParams(q, tuple(alpha))


def _run_padic(args, t0):
    if args.check_lseries and args.kloosterman3:
        raise ConfigError("--check-lseries and --kloosterman3 are separate jobs; give one")
    if args.check_lseries:
        if args.order < 1:
            raise ConfigError("--order must be positive")
        if args.count < 1:
            raise ConfigError("--count must be positive")
        cases, drawn = [], {}
        if args.alpha is not None:
            if not args.q:
                raise ConfigError("--alpha needs --q")
            cases.append(SatakeParams(args.q, tuple(_parse_rational_list(args.alpha, "--alpha"))))
        elif args.lam is not None:
            if not args.q:
                raise ConfigError("--lam needs --q")
            cases.append(satake_from_eigenvalue(args.q, _parse_rational(args.lam, "--lam")))
        else:
            rng = random.Random(args.seed)
            cases = [_random_satake(rng) for _ in range(args.count)]
            drawn = {"seed": args.seed}  # echoed only when random tuples were drawn
        rows = []
        all_ok = True
        for sp in cases:
            _, ok = local_l_series_check(sp, args.order)
            all_ok = all_ok and ok
            rows.append(
                {
                    "q": sp.q,
                    "alpha": [repr(a) for a in sp.alpha],
                    "elem": [repr(e) for e in sp.elem],
                    "identity_holds": _num(bool(ok), "exact", "exact-rational"),
                }
            )
        results = {"order": args.order, "cases": rows}
        thresholds = {"exact_identity": {"limit": True, "observed": all_ok, "mode": "exact", "passed": all_ok}}
        inputs = {"mode": "check-lseries", "order": args.order, "count": len(cases), **drawn}
        return _report("padic", inputs, results, thresholds, t0)
    if args.kloosterman3:
        if args.lam is not None:
            raise ConfigError("--lam is a --check-lseries flag (a rank-2 eigenvalue); give kloosterman3 --alpha")
        if not args.p or not args.zeta or not args.alpha_rational:
            raise ConfigError("--kloosterman3 needs --p, --zeta and --alpha-rational")
        zeta = _parse_rational(args.zeta, "--zeta")
        alphas = _parse_rational_list(args.alpha_rational, "--alpha-rational")
        if args.alpha is not None:
            sp = SatakeParams(args.p, tuple(_parse_rational_list(args.alpha, "--alpha")))
        else:
            sp = SatakeParams(args.p, (Fraction(1, 2), Fraction(1), Fraction(2)))
        rows = []
        for al in alphas:
            rep = kloosterman_gl3(al, zeta, sp, shell_depth=args.shell_depth)
            rows.append(
                {
                    "alpha": str(al),
                    "value": _num(rep["value"], 1e-15 * max(1.0, abs(rep["value"])), "exact-shell-sum"),
                    "prefactor": str(rep["prefactor"]),
                    "vanished_at": rep["vanished_at"],
                    "shell_depth": rep["shell_depth"],
                    "shells": rep["shells"],
                }
            )
        inputs = {
            "mode": "kloosterman3",
            "p": args.p,
            "zeta": str(zeta),
            "alpha": [str(a) for a in alphas],
            "satake_elem": [repr(e) for e in sp.elem],
        }
        return _report("padic", inputs, {"sums": rows}, {}, t0)
    raise ConfigError("padic needs one of --check-lseries or --kloosterman3")


def _run_voronoi_verify(args, t0):
    tol = args.tol
    params = _parse_blocks(args.blocks)
    zeta = _parse_rational(args.zeta, "--zeta")
    w = _parse_bump(args.support, "--support")
    if not args.coeffs and params != DELTA_PLACE:
        raise ConfigError("the built-in τ table is Δ's; give --coeffs for the form of another --blocks")
    coeffs = coeffs_from_file(args.coeffs, params) if args.coeffs else None
    n_trunc = args.n_trunc if args.n_trunc is not None else 4096 * zeta.denominator
    try:
        job = VoronoiJob(a=int(zeta.numerator), c=int(zeta.denominator), w=w, n_trunc=n_trunc, tol=tol, coeffs=coeffs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rep = voronoi_residual(job)
    max_rel = args.max_rel if args.max_rel is not None else 100 * tol
    results = {
        "lhs": _num(rep["lhs"], tol / 10, "dirichlet-partial-sum"),
        "rhs": _num(rep["rhs"], tol, "hankel-convolution+exact-local"),
        "abs_residual": _num(rep["abs_residual"], 0.0, "derived"),
        "rel_residual": _num(rep["rel_residual"], 0.0, "derived"),
        "support": rep["support"],
        "windows": rep["shells"],
    }
    thresholds = {"rel_residual": _threshold(max_rel, float(rep["rel_residual"]))}
    inputs = {
        "blocks": params_to_dict(params),
        "zeta": str(zeta),
        "support": [w.a, w.b],
        "n_trunc": n_trunc,
        "tol": tol,
        "max_rel": max_rel,
        "coeffs": args.coeffs,
    }
    return _report("voronoi-verify", inputs, results, thresholds, t0)


def _scan_rows(results: list) -> list:
    return [
        [repr(r.s.real), repr(r.s.imag), repr(r.defect), repr(abs(r.reference))]
        for r in results
    ]


def _run_gj_scan(args, t0):
    tol = args.tol
    s_values = _parse_s_values(args)
    phi = _parse_phi(args.phi or ("gaussian" if args.variant == "tate" else "bump:1,40"))
    if args.variant == "tate":
        if not isinstance(phi, SchwartzGaussian):
            raise ConfigError("the tate pairing needs a Schwartz witness: --phi gaussian[:c0,c2]")
        res = zero_criterion_pairing("tate", s_values, phi=phi)
    elif args.variant == "cuspidal":
        if isinstance(phi, SchwartzGaussian):
            raise ConfigError("the cuspidal pairing needs compact support: --phi bump:a,b")
        coeffs = tau_coefficients(args.n_trunc)
        res = zero_criterion_pairing("cuspidal", s_values, w=phi, coeffs=coeffs, tol=tol)
    else:
        raise ConfigError(f"--variant must be tate or cuspidal, got {args.variant!r}")
    if args.out:
        _write_csv(args.out, ["s_re", "s_im", "defect", "reference_abs"], _scan_rows(res))
    points = [
        {
            "s": r.s,
            "value": _num(r.value, None if r.variant == "tate" else tol, "gap-quadrature"),
            "reference": _num(r.reference, 1e-12, "euler-maclaurin-zeta" if r.variant == "tate" else r.variant),
            "defect": _jsonable(r.defect),
            "phi": r.phi,
            "dual_tol": r.dual_tol,
        }
        for r in res
    ]
    results = {"points": points, "min_defect": min(r.defect for r in res), "max_defect": max(r.defect for r in res)}
    thresholds = {}
    if args.max_defect is not None:
        thresholds["max_defect"] = _threshold(args.max_defect, max(r.defect for r in res))
    # the cuspidal variant alone reads the τ table's size and the tolerance
    read = {"n_trunc": args.n_trunc, "tol": tol} if args.variant == "cuspidal" else {}
    inputs = {"variant": args.variant, "s": s_values, "phi": res[0].phi if res else None, "out": args.out, **read}
    return _report("gj-scan", inputs, results, thresholds, t0)


def _run_clozel_test(args, t0):
    if args.steps < 3 or args.window <= 0:
        raise ConfigError("need --steps ≥ 3 and --window > 0")
    phi = _parse_phi(args.phi)
    if not isinstance(phi, SchwartzGaussian):
        raise ConfigError("the tate pairing needs a Schwartz witness: --phi gaussian[:c0,c2]")
    ts = np.linspace(args.t0 - args.window / 2, args.t0 + args.window / 2, args.steps)
    res = zero_criterion_pairing("tate", [complex(0.5, t) for t in ts], phi=phi)
    defects = np.array([r.defect for r in res])
    i_min = int(np.argmin(defects))
    # the independent location of the zero: Hardy Z sign change inside the window
    located = None
    zs = [hardy_z(float(t)) for t in ts]
    for i in range(len(ts) - 1):
        if zs[i] * zs[i + 1] < 0:
            located = zeta_zero_bisect(float(ts[i]), float(ts[i + 1]))
            break
    dip_ratio = float(np.max(defects) / max(np.min(defects), 1e-300))
    if args.out:
        _write_csv(args.out, ["s_re", "s_im", "defect", "reference_abs"], _scan_rows(res))
    results = {
        "t_min_defect": _num(float(ts[i_min]), float(ts[1] - ts[0]), "grid-scan"),
        "min_defect": _num(float(defects[i_min]), 1e-14, "gap-quadrature"),
        "max_defect": _num(float(np.max(defects)), 1e-14, "gap-quadrature"),
        "dip_ratio": _num(dip_ratio, 0.0, "derived"),
        "zero_located": _num(located, 5e-14 if located else None, "euler-maclaurin-hardy-bisect"),
        "zero_vs_dip_gap": _num(abs(located - ts[i_min]) if located is not None else None,
                                float(ts[1] - ts[0]), "derived"),
        "phi": res[0].phi,
    }
    thresholds = {"dip_ratio": _threshold(args.min_dip, dip_ratio, mode="min")}
    inputs = {"t0": args.t0, "window": args.window, "steps": args.steps, "phi": res[0].phi, "out": args.out}
    return _report("clozel-test", inputs, results, thresholds, t0)


# ---- argument plumbing ------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vorokit",
        description="Voronoi-summation and L-function kernel toolkit (batch jobs, JSON/CSV reports).",
    )
    top.add_argument("--version", action="version", version=f"vorokit {__version__}")
    subs = top.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    def common(p, tol=None):
        p.add_argument("--config", help="JSON document of parameters (flags win on conflict)")
        p.add_argument("--out", help="report/table output path")
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol, help="target tolerance (default %(default)s)")

    def blocks(p):
        p.add_argument("--blocks", default=_DELTA_BLOCKS,
                       help="place-parameter JSON (default: the weight-12 real place, %(default)s)")

    p = subs.add_parser("gamma", help="γ-factor values on an s-grid")
    blocks(p)
    p.add_argument("--twist", type=int, default=0, help="character twist index (default %(default)s)")
    p.add_argument("--s-list", help="comma-separated complex s values")
    p.add_argument("--s-grid", help="re:im_lo:im_hi:steps vertical grid (replaces --s-list)")
    common(p)

    p = subs.add_parser("kernel-table", help="tabulate the oscillatory kernel on a grid")
    blocks(p)
    p.add_argument("--x-min", type=float)
    p.add_argument("--x-max", type=float)
    p.add_argument("--n", type=int, default=32, help="grid points (default %(default)s)")
    p.add_argument("--spacing", choices=("log", "linear"), default="log", help="(default %(default)s)")
    common(p, tol=1e-8)

    p = subs.add_parser("hankel", help="dual test function by either route")
    blocks(p)
    p.add_argument("--bump", default="1,40", help="support a,b of the bump test function (default %(default)s)")
    p.add_argument("--x", default="0.5,1,2,5", help="nonzero real evaluation points (default %(default)s)")
    p.add_argument("--route", choices=("mellin", "convolution", "both"), default="both",
                   help="(default %(default)s)")
    p.add_argument("--max-disagree", type=float, help="threshold on cross-route relative disagreement")
    common(p, tol=1e-8)

    p = subs.add_parser("fe-check", help="local functional-equation residuals")
    blocks(p)
    p.add_argument("--bump", default="1,40", help="support a,b of the bump test function (default %(default)s)")
    p.add_argument("--s-list", default="0.2,0.5,0.8", help="comma-separated complex s values (default %(default)s)")
    p.add_argument("--s-grid", help="re:im_lo:im_hi:steps vertical grid (replaces --s-list)")
    p.add_argument("--max-residual", type=float, default=1e-6,
                   help="threshold on the max relative residual (default %(default)s)")
    common(p, tol=1e-6)

    p = subs.add_parser("padic", help="exact nonarchimedean checks")
    p.add_argument("--check-lseries", action="store_true")
    p.add_argument("--kloosterman3", action="store_true")
    p.add_argument("--q", type=int, help="residue cardinality (check-lseries)")
    p.add_argument("--p", type=int, help="prime (kloosterman3)")
    p.add_argument("--alpha", help="comma-separated rational Satake parameters")
    p.add_argument("--lam", help="rational rank-2 Hecke eigenvalue (check-lseries)")
    p.add_argument("--order", type=int, default=30, help="series truncation order (default %(default)s)")
    p.add_argument("--count", type=int, default=20,
                   help="number of random tuples when no --alpha/--lam (default %(default)s)")
    p.add_argument("--zeta", help="additive-twist rational a/c")
    p.add_argument("--alpha-rational", help="comma-separated torus arguments")
    p.add_argument("--shell-depth", type=int)
    p.add_argument("--seed", type=int, default=0, help="seed for the random Satake tuples (default %(default)s)")
    common(p)

    p = subs.add_parser("voronoi-verify", help="two-sided summation-identity residual")
    blocks(p)
    p.add_argument("--zeta", default="0", help="additive twist a/c (default %(default)s)")
    p.add_argument("--support", default="1,40", help="bump support a,b (default %(default)s)")
    p.add_argument("--n-trunc", type=int, help="coefficients summed (default 4096·c)")
    p.add_argument("--coeffs", help="CSV coefficient table (n,lambda_re,lambda_im)")
    p.add_argument("--max-rel", type=float, help="relative-residual threshold (default 100·tol)")
    common(p, tol=1e-6)

    p = subs.add_parser("gj-scan", help="zero-criterion pairing over an s-set")
    p.add_argument("--variant", choices=("tate", "cuspidal"), help="required, as a flag or a config key")
    p.add_argument("--s-list", help="comma-separated complex s values")
    p.add_argument("--s-grid", help="re:im_lo:im_hi:steps vertical grid (replaces --s-list)")
    p.add_argument("--phi", help="gaussian[:c0,c2] or bump:a,b (default gaussian for tate, bump:1,40 for cuspidal)")
    p.add_argument("--n-trunc", type=int, default=1024, help="cuspidal coefficients (default %(default)s)")
    p.add_argument("--max-defect", type=float)
    common(p, tol=1e-7)

    p = subs.add_parser("clozel-test", help="dip scan of the tate pairing across a window")
    p.add_argument("--t0", type=float, default=14.134725, help="window centre height (default %(default)s)")
    p.add_argument("--window", type=float, default=2.0, help="window width (default %(default)s)")
    p.add_argument("--steps", type=int, default=81, help="grid points (default %(default)s)")
    p.add_argument("--phi", default="gaussian", help="gaussian[:c0,c2] (default %(default)s)")
    p.add_argument("--min-dip", type=float, default=100.0,
                   help="required max/min defect ratio (default %(default)s)")
    common(p)

    return top


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name → its parser."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


_DISPATCH = {
    "gamma": _run_gamma,
    "kernel-table": _run_kernel_table,
    "hankel": _run_hankel,
    "fe-check": _run_fe_check,
    "padic": _run_padic,
    "voronoi-verify": _run_voronoi_verify,
    "gj-scan": _run_gj_scan,
    "clozel-test": _run_clozel_test,
}


def _read_config(path: str, sub: argparse.ArgumentParser, name: str) -> dict:
    """The ``--config`` document as defaults for the subcommand parser ``sub``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    actions = {act.dest: act for act in sub._actions if act.dest not in ("help", "config")}
    defaults = {}
    for key, val in doc.items():
        act = actions.get(key.replace("-", "_"))
        if act is None:
            raise ConfigError(f"unknown config field {key!r} for {name}")
        # argparse checks no choices on a default, but runs a string default through type=
        if act.choices and val not in act.choices:
            raise ConfigError(f"config field {key!r} must be one of {list(act.choices)}, got {val!r}")
        if act.nargs == 0 and not isinstance(val, bool):  # a flag that takes no argument
            raise ConfigError(f"config field {key!r} is a flag: true or false, got {val!r}")
        defaults[act.dest] = val if act.nargs == 0 or isinstance(val, str) else json.dumps(val)
    return defaults


def _parse_args(argv) -> argparse.Namespace:
    """Resolve every parameter: its flag, else the ``--config`` key, else the flag's default."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.subcommand:
        parser.print_help()
        raise SystemExit(2)
    if args.config:
        sub = _subcommands(parser)[args.subcommand]
        sub.set_defaults(**_read_config(args.config, sub, args.subcommand))
        args = parser.parse_args(argv)
    for dest, val in vars(args).items():
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"--{dest.replace('_', '-')} must be finite, got {val}")
    if "tol" in vars(args) and not args.tol > 0:
        raise ConfigError("tolerances must be positive")
    return args


def main(argv=None) -> int:
    t0 = time.time()
    try:
        args = _parse_args(argv)
        report = _DISPATCH[args.subcommand](args, t0)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _COMPUTE_ERRORS as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    failed = [k for k, t in report["thresholds"].items() if not t["passed"]]
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out and args.subcommand in ("gamma", "fe-check", "padic", "voronoi-verify"):
        atomic_write(args.out, payload)
        print(f"report written to {args.out}" + (f"; thresholds failed: {failed}" if failed else ""))
    else:
        sys.stdout.write(payload)
    if failed:
        print(f"threshold failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
