"""Spans around calls into vorokit's layers, recorded from outside the library.

The tracer replaces a public name in the module that imported it (for
example `hankel_convolution_batch` inside `vorokit.voronoi`) with a wrapper
that opens a span on entry and closes it on return or raise.  Spans nest, so
a layer's self time is its span's duration minus the time covered by spans
opened inside it.  Only aggregates are kept: calls, batch sizes, self time,
exceptions of one type, and distinct exact results.

A target whose name no longer exists is recorded as absent and skipped, so a
refactor of the library cannot crash the benchmark.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Target:
    layer: str  # stats key: <defining module>.<public name>
    module: str  # the vorokit module whose imported name is replaced
    attr: str  # name in that module; Class.method for a method
    size_arg: str | None = None  # argument whose element count is the work done
    exact_result: bool = False  # count distinct results, keyed by describe()


# Each name is wrapped where the workloads' call paths look it up.
TARGETS = (
    Target("hankel.local_fe_residual", "hankel", "local_fe_residual"),
    Target("hankel.hankel_mellin_batch", "hankel", "hankel_mellin_batch", size_arg="xs"),
    Target("hankel.signed_mellin", "hankel", "signed_mellin"),
    Target("hankel.signed_mellin", "gj", "signed_mellin"),
    Target("hankel.hankel_convolution_batch", "voronoi", "hankel_convolution_batch", size_arg="xs"),
    Target("hankel.hankel_convolution_batch", "gj", "hankel_convolution_batch", size_arg="xs"),
    Target("bessel.bessel_real_batch", "hankel", "bessel_real_batch", size_arg="xs"),
    Target("archimedean.log_mb_gamma", "bessel", "log_mb_gamma", size_arg="s"),
    Target("archimedean.log_mb_gamma", "hankel", "log_mb_gamma", size_arg="s"),
    Target("padic.ramified_transform_gl2", "voronoi", "ramified_transform_gl2", exact_result=True),
    Target("voronoi.tau_coefficients", "voronoi", "tau_coefficients"),
    Target("voronoi.tau_coefficients", "gj", "tau_coefficients"),
    Target("voronoi.tau_coefficients", "lseries", "tau_coefficients"),
    Target("voronoi.lhs_theta", "voronoi", "lhs_theta"),
    Target("voronoi.rhs_theta", "voronoi", "rhs_theta"),
    Target("gj.split_zeta_identity", "gj", "split_zeta_identity"),
    Target("gj.DualGrid.ensure", "gj", "DualGrid.ensure"),
    Target("lseries.euler_product_l_delta", "gj", "euler_product_l_delta"),
    Target("lseries.l_delta_smoothed", "gj", "l_delta_smoothed"),
)


@dataclass
class LayerStats:
    calls: int = 0
    points: int = 0
    self_s: float = 0.0
    raised: int = 0
    distinct: set = field(default_factory=set)

    @property
    def distinct_frac(self) -> float:
        return len(self.distinct) / self.calls if self.calls else 0.0


class Tracer:
    """Installs span wrappers on a set of modules and aggregates per layer.

    `raised_type` is the exception type counted in `LayerStats.raised`.
    `overhead_s` is the time spent in the wrappers' own bookkeeping.
    """

    def __init__(self, raised_type: type[BaseException] = Exception):
        self.raised_type = raised_type
        self.layers: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self.overhead_s = 0.0
        self._open: list[float] = []  # child time covered so far, per open span
        self._undo: list[tuple[object, str, object]] = []

    def install(self, modules: dict, targets=TARGETS) -> None:
        for t in targets:
            stats = self.layers.setdefault(t.layer, LayerStats())
            owner = modules.get(t.module)
            *path, name = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None)
            if not callable(fn):
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            setattr(owner, name, self._wrap(fn, stats, t))
            self._undo.append((owner, name, fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo.clear()

    def _wrap(self, fn, stats: LayerStats, t: Target):
        open_spans = self._open
        raised_type = self.raised_type
        pos = list(inspect.signature(fn).parameters).index(t.size_arg) if t.size_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            if pos is not None:
                stats.points += int(np.size(args[pos] if len(args) > pos else kwargs[t.size_arg]))
            open_spans.append(0.0)
            out = None
            t1 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except raised_type:
                stats.raised += 1
                raise
            finally:
                t2 = perf_counter()
                stats.calls += 1
                stats.self_s += (t2 - t1) - open_spans.pop()
                if t.exact_result and out is not None:
                    stats.distinct.add(tuple(sorted(out.describe().items())))
                t3 = perf_counter()
                if open_spans:
                    open_spans[-1] += t3 - t0
                self.overhead_s += (t1 - t0) + (t3 - t2)

        return traced
