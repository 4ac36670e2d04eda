"""The benchmark's own checks: tracing changes no result, and counts repeat.

Run with `PYTHONPATH=src python -m pytest perfbench -q`.
"""

from __future__ import annotations

import time
import types

import run
import spans
import speed

# voronoi-c5 at a loose tolerance: about two seconds, and it reaches the
# padic, convolution, kernel-model, Bessel, γ-factor and coefficient layers
SMALL = {"numerators": [1], "c": 5, "n_trunc": 6500, "bump": [1.0, 40.0], "tol": 1e-3, "bound": 1e-4}
COUNTS = ("calls", "points", "raised", "distinct_frac")


def _job(trace: bool) -> dict:
    out = run._spawn({"workload": "voronoi-c5", "inputs": SMALL, "trace": trace}, timeout=120)
    assert not out.get("error"), out.get("error")
    assert [c["ok"] for c in out["checks"]] == [True]
    return out


def test_tracing_is_bit_identical_and_counts_repeat():
    plain, traced, again = _job(False), _job(True), _job(True)
    assert traced["values"] == plain["values"]
    assert again["values"] == plain["values"]
    assert traced["trace"]["absent"] == []

    def counts(job):
        return {k: {q: v[q] for q in COUNTS} for k, v in job["trace"]["layers"].items()}

    assert counts(traced) == counts(again)
    layers = counts(traced)
    for layer in ("hankel.hankel_convolution_batch", "bessel.bessel_real_batch",
                  "padic.ramified_transform_gl2", "archimedean.log_mb_gamma", "voronoi.tau_coefficients"):
        assert layers[layer]["calls"] > 0, layer


def test_self_time_and_absent_targets():
    class Boom(ArithmeticError):
        pass

    inner = types.SimpleNamespace()
    def leaf(xs):
        time.sleep(0.05)
        return sum(xs)

    inner.leaf = leaf

    def outer(xs):
        if len(xs) > 3:
            raise Boom
        return inner.leaf(xs) + inner.leaf(xs)

    inner.outer = outer
    tracer = spans.Tracer(raised_type=Boom)
    tracer.install({"m": inner}, (
        spans.Target("m.leaf", "m", "leaf", size_arg="xs"),
        spans.Target("m.outer", "m", "outer"),
        spans.Target("m.gone", "m", "gone"),
        spans.Target("m.gone", "missing", "leaf"),
    ))
    try:
        assert inner.outer([1, 2]) == 6
        try:
            inner.outer([1, 2, 3, 4])
        except Boom:
            pass
    finally:
        tracer.uninstall()
    assert inner.outer is outer
    assert tracer.absent == ["m.gone", "missing.leaf"]
    leaf, top = tracer.layers["m.leaf"], tracer.layers["m.outer"]
    assert (leaf.calls, leaf.points) == (2, 4)
    assert (top.calls, top.raised) == (2, 1)
    assert leaf.self_s >= 0.1
    assert top.self_s < leaf.self_s / 4  # the leaf's spans are not the caller's self time
    assert tracer.layers["m.gone"].calls == 0


def test_speed_probes_run_during_a_job_and_are_accounted():
    sampler = speed.Sampler(interval=0.02)
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
    assert len(sampler.durations) >= 5
    assert sampler.spent_s >= sum(sampler.durations)
    assert speed.factor([speed.REF_PROBE_S] * 3) == 1.0
    assert speed.factor([2 * speed.REF_PROBE_S, speed.REF_PROBE_S / 2]) == 1.25
