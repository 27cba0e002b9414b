"""Benchmark of the whitehead library on seeded orbit, peak and translator workloads.

Run from the repository root:

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 20 --trace 0

One caller in one process drives a closed loop: the next instance starts
only after the previous one returns.  Instances come in blocks of fixed
composition generated from the seed; generation, building the library
objects and checking answers all happen outside the timed window, and the
loop runs whole blocks until ``--seconds`` of timed work have passed.
Every answer is checked by ``reference.py``; a wrong answer makes the run
exit 1 with ``"correct": false``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` the first blocks of the seed run once untraced and once
traced, and the last line reports the per-layer metrics, the tracing
overhead and each ``wh`` subcommand's cold-process time.  Earlier lines
give a readable table and a JSON record with the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys; sys.path[:0] = [{src!r}, {here!r}]; "
    "import workloads; workloads.setup({workload!r})"
)


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload):
    """Median wall time of a fresh interpreter importing the library and
    building the workload's per-rank caches.  One unmeasured run first
    writes the bytecode caches."""
    cmd = [sys.executable, "-c", SETUP_CODE.format(src=SRC, here=HERE, workload=workload)]
    times = []
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_pass(run_fn, objs):
    """Run each instance once; returns (results, errors, latencies)."""
    results, errors, latencies = [], [], []
    for args in objs:
        t0 = time.perf_counter()
        try:
            result, error = run_fn(args), None
        except Exception as exc:  # a failed instance is counted, not fatal
            result, error = None, exc
        latencies.append(time.perf_counter() - t0)
        results.append(result)
        errors.append(error)
    return results, errors, latencies


def check_answers(workload, instances, results, errors):
    """Returns (failed count, wrong-answer problems)."""
    import workloads

    _, _, answer_fn, check_fn = workloads.WORKLOADS[workload]
    failed, problems = 0, []
    for k, (inst, result, error) in enumerate(zip(instances, results, errors)):
        if error is not None:
            failed += 1
            if failed <= 3:
                print(f"instance {k} failed:", file=sys.stderr)
                traceback.print_exception(type(error), error, error.__traceback__)
            continue
        problems.extend(f"instance {k}: {p}" for p in check_fn(inst, answer_fn(result)))
    return failed, problems


def tail_percentile(latencies, pct):
    """Nearest-rank percentile as (percentile, value, instances beyond).

    Lowered to 90, 75 or 50 when fewer than ten instances lie beyond the
    workload's fixed percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in [pct] + [q for q in (90, 75, 50) if q < pct]:
        k = math.ceil(p * n / 100)
        if n - k >= 10 or p == 50:
            return p, ordered[k - 1], n - k


def end_to_end(workload, seed, seconds):
    import workloads

    block_fn, run_fn = workloads.WORKLOADS[workload][:2]
    workloads.setup(workload)
    instances, results, errors, latencies = [], [], [], []
    index = 0
    while sum(latencies) < seconds:
        block = block_fn(seed, index)
        index += 1
        objs = [workloads.materialize(workload, inst) for inst in block]
        res, err, lat = timed_pass(run_fn, objs)
        instances += block
        results += res
        errors += err
        latencies += lat
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = check_answers(workload, instances, results, errors)
    n = len(instances)
    pct, tail, beyond = tail_percentile(latencies, workloads.TAIL_PERCENTILE[workload])
    metrics = {
        "setup_s": (measure_setup(workload), "s"),
        "instances_per_s": (n / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (tail * 1000.0, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {
        "blocks": index,
        "timed_s": sum(latencies),
        "tail_percentile": pct,
        "tail_beyond": beyond,
    }
    return n, failed, problems, metrics, detail


def traced(workload, seed):
    import cliprobe
    import tracing
    import workloads

    block_fn, run_fn = workloads.WORKLOADS[workload][:2]
    workloads.setup(workload)
    instances = [
        inst for i in range(workloads.TRACE_BLOCKS[workload]) for inst in block_fn(seed, i)
    ]
    objs = [workloads.materialize(workload, inst) for inst in instances]
    t0 = time.perf_counter()
    res0, err0, _ = timed_pass(run_fn, objs)
    untraced_s = time.perf_counter() - t0

    objs = [workloads.materialize(workload, inst) for inst in instances]
    with tracing.Tracer() as tracer:
        t0 = time.perf_counter()
        res1, err1, _ = timed_pass(run_fn, objs)
        traced_s = time.perf_counter() - t0

    cold, problems = cliprobe.probe(ROOT, SRC, seed)
    _, bad0 = check_answers(workload, instances, res0, err0)
    failed, bad1 = check_answers(workload, instances, res1, err1)
    metrics = tracer.metrics()
    for sub, ms in cold.items():
        metrics[f"cli.{sub}.cold_ms"] = (ms, "ms")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "1")
    detail = {"untraced_s": untraced_s, "traced_s": traced_s}
    return len(instances), failed, problems + bad0 + bad1, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("orbit", "peak", "translator"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "whitehead")):
        print(f"error: no whitehead package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    from whitehead import _kernels

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "jit_enabled": bool(_kernels.JIT_ENABLED),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }
    if args.trace:
        n, failed, problems, metrics, detail = traced(args.workload, args.seed)
    else:
        n, failed, problems, metrics, detail = end_to_end(
            args.workload, args.seed, args.seconds
        )

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<48} {value:>14.6g} {unit}")
    print(f"{args.workload:<11} {'attempted':<48} {n:>14d}")
    print(f"{args.workload:<11} {'failed':<48} {failed:>14d}")
    print(f"{args.workload:<11} {'failed_frac':<48} {failed / n:>14.6g} 1")
    for p in problems[:20]:
        print(f"wrong answer: {p}", file=sys.stderr)
    print(json.dumps({"stamp": stamp, "detail": detail, "problems": len(problems)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
