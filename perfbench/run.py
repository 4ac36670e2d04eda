"""vorokit's benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload voronoi-c5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from anywhere inside a checkout; the library is imported from `src`.
Workloads, metric names, units and bounds are defined in BENCHMARK.json at
the root; perfbench/BASELINE.md records what each layer metric should move
and the numbers measured at the seed commit.

A run starts every job in a fresh process (worker.py), so no cache outlives
a job.  Untraced, it first starts SETUP_PROBES processes that only set up,
then job processes one after another until the next would end more than
--seconds after the first started, or a check fails; at least one job
always runs.  Times are medians over those processes, each referred to a
fixed reference speed by probes taken in the same process (speed.py); the
report and the record keep the wall-clock times and the speed factors too.
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs one job with every layer's public names wrapped (spans.py) and reports
the per-layer metrics.

Standard output ends with a table of every metric by name and unit, a
`record:` line (JSON: inputs, machine facts, every sample, every check) and
finally one JSON line {"correct", "attempted", "failed", "metrics"}.  The
exit code is 0 when every check passed, 1 when a check failed or a job did
not finish (the result is still printed), and 2, with no result, when there
is nothing to run: no vorokit source under src/, or an unknown workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUP_PROBES = 4  # set-up-only processes per run, besides each job process's own set-up
RUN_LIMIT_S = 170.0  # a run, all its processes included, ends within 180 s


class NothingToRun(Exception):
    pass


def _spawn(request: dict, timeout: float) -> dict:
    """Run worker.py once and return its report.

    When the worker reports nothing (it crashed or ran past `timeout`), the
    report is measured from outside instead: wall time from start to exit,
    the CPU time of the reaped process, and the peak resident set of the
    largest process reaped so far; `error` says why.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), repr(spawn), json.dumps(request)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return {**json.loads(lines[-1]), "wall_s": time.monotonic() - spawn}
        error = f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the worker
        error = f"worker did not finish within {timeout:.0f} s"
    elapsed = time.monotonic() - spawn
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"error": error, "measured_outside": True, "wall_s": elapsed, "setup_s": elapsed, "job_s": elapsed,
            "cpu_s": cpu, "peak_rss_mb": after.ru_maxrss / 1024.0, "checks": []}


def _median(xs) -> float:
    return float(statistics.median(xs))


def _machine() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "vorokit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise NothingToRun(f"no {path.name} at {ROOT}")
    return json.loads(path.read_text())


# per-layer quantity in BENCHMARK.json → LayerStats field (spans.py)
_QUANTITY = {"calls": "calls", "points": "points", "nodes": "points", "retries": "raised",
             "distinct_frac": "distinct_frac"}


def _layer_value(metric: str, job: dict) -> float:
    """A per-layer metric from one traced job: <layer>.<quantity>."""
    trace = job["trace"]
    if metric == "check.max_rel_residual":
        # a check that raised has no residual; it counts as a 100 % error
        return max((c["rel"] if c["rel"] is not None else 1.0 for c in job["checks"]), default=1.0)
    if metric == "trace.job_s":
        return job["job_s"]
    if metric == "trace.overhead_s":
        return trace["overhead_s"]
    if metric == "trace.absent":
        return len(trace["absent"])
    layer, quantity = metric.rsplit(".", 1)
    stats = trace["layers"][layer]
    if quantity == "self_frac":
        # self time as a share of the traced process's wall time, set-up included:
        # a layer a workload never calls reads 0 here, and no time metric is constant
        return stats["self_s"] / (job["setup_s"] + job["job_s"])
    return stats[_QUANTITY[quantity]]


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    inputs = workloads.make_inputs(name, seed)
    expected = workloads.n_checks(name, inputs)
    deadline = time.monotonic() + RUN_LIMIT_S
    request = {"workload": name, "inputs": inputs, "trace": trace}

    n_probes = 0 if trace else SETUP_PROBES
    probes = [_spawn({**request, "setup_only": True}, deadline - time.monotonic()) for _ in range(n_probes)]
    jobs: list[dict] = []
    start = time.monotonic()
    while True:
        jobs.append(_spawn(request, deadline - time.monotonic()))
        last, now, per_job = jobs[-1], time.monotonic(), _median(j["wall_s"] for j in jobs)
        if trace or last.get("error") or not all(c["ok"] for c in last["checks"]):
            break
        if now - start + per_job > seconds or now + per_job > deadline:
            break

    attempted = failed = 0
    errors = [p["error"] for p in probes + jobs if p.get("error")]
    for job in jobs:
        checks = job["checks"]
        attempted += max(expected, len(checks))
        failed += sum(not c["ok"] for c in checks) + max(0, expected - len(checks))
    # times in seconds at the reference speed (speed.py); a report measured
    # from outside has no probes and keeps its wall-clock time
    setups = [p["setup_s"] * p.get("setup_factor", 1.0) for p in probes + jobs]

    if trace:
        if "trace" not in jobs[0]:
            print(f"perfbench {name}: the traced job did not report:\n{errors[-1]}", file=sys.stderr)
            return 1
        metrics = {m["name"]: (_layer_value(m["name"], jobs[0]), m["unit"]) for m in spec["per_layer"]}
    else:
        samples = {
            "setup_s": setups,
            "job_s": [j["job_s"] * j.get("job_factor", 1.0) for j in jobs],
            "cpu_s": [j["cpu_s"] * j.get("job_factor", 1.0) for j in jobs],
            "peak_rss_mb": [j["peak_rss_mb"] for j in jobs],
        }
        values = {k: _median(v) for k, v in samples.items()}
        values["pass_frac"] = (attempted - failed) / attempted
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "inputs": inputs,
        "machine": {**_machine(), **next((j["versions"] for j in jobs if "versions" in j), {}),
                    "blas": next((j["blas"] for j in jobs if "blas" in j), {})},
        "setup_s_samples": setups,
        "jobs": [{k: v for k, v in j.items() if k not in ("versions", "blas")} for j in jobs],
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
    }
    _print_report(record, metrics, len(setups), len(jobs))
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 and not errors else 1


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _print_report(record: dict, metrics: dict, n_setup: int, n_jobs: int) -> None:
    m = record["machine"]
    blas = m["blas"]
    env = ", ".join(f"{k}={v}" for k, v in blas.get("env", {}).items() if v is not None) or "no thread variables set"
    print(f"perfbench {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}")
    print(f"  inputs   {json.dumps(record['inputs'])}")
    print(f"  machine  nproc {m['nproc']} (usable {m['cpus_usable']}), python {m.get('python')}, "
          f"numpy {m.get('numpy')}, scipy {m.get('scipy')}, mpmath {m.get('mpmath')}")
    print(f"  blas     {blas.get('name')} {blas.get('version')}, {blas.get('threads')} threads ({env})")
    print(f"  code     git {m['git_commit'] or 'unavailable'}, src sha256 {m['src_sha256'][:16]}")
    for job in record["jobs"]:
        for c in job.get("checks", []):
            rel = "raised" if c["rel"] is None else f"{c['rel']:.3e}"
            print(f"  check    {c['label']:<28} {rel:>10}  {'pass' if c['ok'] else 'FAIL ' + _last_line(c['error'])}")
    for err in record["errors"]:
        print(f"  error    {_last_line(err)}")
    print(f"  failed_frac = {record['failed']}/{record['attempted']} = {record['failed'] / record['attempted']:.4g}")
    if record["trace"]:
        job = next(j for j in record["jobs"] if "trace" in j)
        print(f"  {'layer (traced)':<34} {'calls':>8} {'points':>10} {'self_s':>10} {'raised':>6} {'distinct':>9}")
        for layer, st in job["trace"]["layers"].items():
            print(f"  {layer:<34} {st['calls']:>8} {st['points']:>10} {st['self_s']:>10.4f} "
                  f"{st['raised']:>6} {st['distinct_frac']:>9.3g}")
        for name in job["trace"]["absent"]:
            print(f"  absent   {name}")
    else:
        print(f"  timings are medians: set-up over {n_setup} processes, the rest over {n_jobs} job process(es)")
        walls = ", ".join(f"{j['job_s']:.3f}" for j in record["jobs"])
        factors = ", ".join(f"{j.get('job_factor', 1.0):.3f}" for j in record["jobs"])
        print(f"  speed    times are at the reference speed (speed.py): wall job_s {walls} "
              f"× speed factor {factors}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help=f"one of {', '.join(workloads.NAMES)}, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None, help="wall time of job processes to fill; default run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if not (ROOT / "src" / "vorokit" / "__init__.py").is_file():
            raise NothingToRun(f"no vorokit source under {ROOT / 'src'}")
        spec = _spec()
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        for name in names:
            workloads.make_inputs(name, args.seed)  # rejects an unknown name before any work
    except (NothingToRun, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    status = 0
    for name in names:
        status = max(status, run_workload(name, args.seed, seconds, bool(args.trace), spec))
    return status


if __name__ == "__main__":
    sys.exit(main())
