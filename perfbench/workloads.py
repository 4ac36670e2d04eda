"""The benchmark's workloads: inputs drawn from a seed, the job, its checks.

Each job goes through the same public entry points and tolerances as the
acceptance suite (tests/test_acceptance.py, criteria A4, A6 and A7), and
each check uses that criterion's bound.  Only this module knows what a
workload computes; run.py and worker.py treat inputs and checks as data.

This module imports nothing from vorokit at import time: the worker times
`load` and `prepare` as the set-up a user pays on every job.
"""

from __future__ import annotations

import importlib
import random
import traceback
from dataclasses import dataclass

NAMES = ("voronoi-c5", "fe-check", "split-scan")

# the library modules a job reaches; the tracer wraps names inside them
MODULES = ("archimedean", "bessel", "hankel", "voronoi", "gj", "lseries", "quadrature")

BUMP = (1.0, 40.0)


@dataclass(frozen=True)
class Check:
    """One acceptance check: one numerator, one s-point or one (s, parity)."""

    label: str
    rel: float | None  # relative residual or defect; None when the job raised
    ok: bool
    error: str = ""


def make_inputs(name: str, seed: int) -> dict:
    """Every input of one job, as JSON data; the seed picks the drawn parts.

    Complex points travel as [re, im] pairs.  The drawn parts leave the work
    per job nearly unchanged: every numerator a/5 has the denominator
    D = 25, the fe-check grid is fixed by s = 0.2 and 0.8, and the
    split-scan grid is shared by every s.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "voronoi-c5":
        return {
            "numerators": [rng.choice([1, 2, 3, 4])],
            "c": 5,
            "n_trunc": 6500,
            "bump": BUMP,
            "tol": 1e-6,
            "bound": 1e-4,
        }
    if name == "fe-check":
        drawn = [[0.5, rng.uniform(-2.0, 2.0)] for _ in range(2)]
        return {"s_list": [[0.2, 0.0], [0.8, 0.0], *drawn], "bump": BUMP, "tol": 1e-6, "bound": 1e-6}
    if name == "split-scan":
        drawn = [[0.5, rng.uniform(10.0, 30.0)] for _ in range(3)]
        return {
            "s_list": [[2.0, 0.0], [0.5, 0.0], *drawn],
            "bump": BUMP,
            "n_coeffs": 1024,
            "tol": 1e-7,
            "euler_bound": 1e-6,  # relative to |L(s)|, Euler-product route (Re s > 3/2)
            "smoothed_bound": 1e-5,  # absolute, smoothed-sum route
        }
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


def n_checks(name: str, inputs: dict) -> int:
    if name == "voronoi-c5":
        return len(inputs["numerators"])
    if name == "fe-check":
        return 2 * len(inputs["s_list"])
    return len(inputs["s_list"])


def load() -> dict:
    """Import the library modules; part of the set-up time."""
    return {m: importlib.import_module(f"vorokit.{m}") for m in MODULES}


def prepare(name: str, mods: dict, inputs: dict) -> dict:
    """Coefficient table, bump and place parameters: the rest of set-up."""
    arch = mods["archimedean"]
    state = {
        "params": arch.RealPlaceParams((arch.DS2Block(11, 0.0),)),
        "w": mods["hankel"].make_bump(*inputs["bump"]),
    }
    if name == "voronoi-c5":
        state["coeffs"] = mods["voronoi"].tau_coefficients(inputs["n_trunc"])
    elif name == "split-scan":
        state["coeffs"] = mods["voronoi"].tau_coefficients(inputs["n_coeffs"])
    return state


def run(name: str, mods: dict, state: dict, inputs: dict) -> tuple[list[Check], list[complex]]:
    """The job and its checks → (checks, the computed values)."""
    return _JOBS[name](mods, state, inputs)


def _failed(labels) -> list[Check]:
    """Checks failed by the exception being handled; each keeps its traceback."""
    return [Check(label, None, False, traceback.format_exc()) for label in labels]


def _voronoi_c5(mods, state, inputs):
    vor = mods["voronoi"]
    checks, values = [], []
    for a in inputs["numerators"]:
        label = f"a/c={a}/{inputs['c']}"
        job = vor.VoronoiJob(
            a=a, c=inputs["c"], w=state["w"], n_trunc=inputs["n_trunc"], tol=inputs["tol"], coeffs=state["coeffs"]
        )
        try:
            rep = vor.voronoi_residual(job)
        except Exception:  # a numerator that raises fails its own check only
            checks += _failed([label])
            continue
        rel = float(rep["rel_residual"])
        checks.append(Check(label, rel, rel < inputs["bound"]))
        values += [rep["lhs"], rep["rhs"]]
    return checks, values


def _fe_check(mods, state, inputs):
    s_list = [complex(re, im) for re, im in inputs["s_list"]]
    try:
        rep = mods["hankel"].local_fe_residual(state["params"], 2, state["w"], s_list, tol=inputs["tol"])
    except Exception:
        return _failed([f"s={s:.6g} parity={d}" for s in s_list for d in (0, 1)]), []
    both = {e["parity"] for e in rep["samples"]} == {0, 1}
    checks = [
        Check(f"s={e['s']:.6g} parity={e['parity']}", float(e["rel_residual"]),
              bool(both and e["rel_residual"] < inputs["bound"]))
        for e in rep["samples"]
    ]
    return checks, [v for e in rep["samples"] for v in (e["lhs"], e["rhs"])]


def _split_scan(mods, state, inputs):
    s_list = [complex(re, im) for re, im in inputs["s_list"]]
    try:
        res = mods["gj"].zero_criterion_pairing(
            "cuspidal", s_list, w=state["w"], coeffs=state["coeffs"], tol=inputs["tol"]
        )
    except Exception:
        return _failed([f"s={s:.6g}" for s in s_list]), []
    checks = []
    for r in res:
        # split_zeta_identity takes L(s) from the Euler product exactly when Re s > 3/2
        bound = inputs["euler_bound"] * abs(r.reference) if r.s.real > 1.5 else inputs["smoothed_bound"]
        rel = float(r.defect / max(abs(r.reference), 1e-300))
        checks.append(Check(f"s={r.s:.6g}", rel, bool(r.defect < bound)))
    return checks, [v for r in res for v in (r.value, r.reference)]


_JOBS = {"voronoi-c5": _voronoi_c5, "fe-check": _fe_check, "split-scan": _split_scan}
