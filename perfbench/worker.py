"""One job in a fresh process: set-up, the job, its checks and its resource use.

run.py starts it as

    python3 perfbench/worker.py <spawn time> <request JSON>

with `src` on PYTHONPATH.  <spawn time> is the parent's time.monotonic()
just before the process was started; the clock is system-wide, so set-up is
timed from process start, interpreter start-up included.  The request holds
the workload name, its inputs and two flags: `setup_only` stops after
set-up, `trace` wraps the library's public names (spans.py) before the
coefficient tables are built.  Untraced, the job runs under speed.py's
probes; the report gives each time as measured, probes' own time taken out,
with the speed factor that refers it to the reference speed.  The last line
of standard output is one JSON object.  The worker writes no file itself
(Python may write its bytecode cache), so no computed value outlives the
process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import resource
import signal
import sys
import time
import traceback

import workloads


def _blas_facts() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    facts["env"] = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    # the thread count the loaded OpenBLAS actually uses, from its own API
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getter = getattr(lib, sym)
                getter.restype = ctypes.c_int
                facts["threads"] = int(getter())
                return facts
    return facts


def _versions() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def _hex(z: complex) -> list[str]:
    z = complex(z)
    return [z.real.hex(), z.imag.hex()]


def main(argv: list[str]) -> int:
    spawn = float(argv[1])
    req = json.loads(argv[2])
    name, inputs = req["workload"], req["inputs"]

    # threads started while the library loads (BLAS) inherit a blocked SIGALRM,
    # so the speed probes' timer signal reaches only the main thread
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    mods = workloads.load()
    import speed

    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    tracer = None
    if req.get("trace"):
        import spans

        tracer = spans.Tracer(raised_type=mods["quadrature"].ToleranceNotMet)
        tracer.install(mods)
    state = workloads.prepare(name, mods, inputs)
    setup_s = time.monotonic() - spawn
    out: dict = {"setup_s": setup_s, "setup_factor": speed.factor(speed.probe_round())}
    if req.get("setup_only"):
        print(json.dumps(out))
        return 0

    # a traced job runs without probes, so they add nothing to its spans
    sampler = speed.Sampler()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.nullcontext() if tracer else sampler:
        try:
            checks, values = workloads.run(name, mods, state, inputs)
            out["error"] = ""
        except Exception:  # reported as a failed job; run.py still prints its result
            checks, values = [], []
            out["error"] = traceback.format_exc()
    job_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    out.update(
        # the probes' own time is not the job's
        job_s=job_s - sampler.spent_s,
        # user + system time of every thread of this process, BLAS threads included
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime) - sampler.spent_cpu_s,
        job_factor=speed.factor(sampler.durations) if sampler.durations else out["setup_factor"],
        job_probes=len(sampler.durations),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        checks=[dataclasses.asdict(c) for c in checks],
        values=[_hex(v) for v in values],
        versions=_versions(),
        blas=_blas_facts(),
    )
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {
            "layers": {
                k: {"calls": s.calls, "points": s.points, "self_s": s.self_s,
                    "raised": s.raised, "distinct_frac": s.distinct_frac}
                for k, s in tracer.layers.items()
            },
            "absent": tracer.absent,
            "overhead_s": tracer.overhead_s,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
