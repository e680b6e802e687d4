"""Benchmark of the latscale closed loop, long-window training and re-planning.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the same checkout.  The run
sets the workload up, runs one untimed warm-up operation, then runs
operations back to back for ``--seconds`` and checks the outputs of
each one.  Set-up is repeated four more times over that window and
``setup_s`` is the median of the five.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` every other operation runs under
the span tracer and the metrics are the per-layer ones.  The spans of a
traced run are written to ``perfbench/out/<workload>.trace.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_latscale():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "latscale" / "__init__.py").is_file():
        raise SystemExit(f"error: no latscale package under {SRC}")
    sys.path.insert(0, str(SRC))
    import latscale
    import latscale.cli  # not imported by the package itself
    if not Path(latscale.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: latscale imported from {latscale.__file__}, not {SRC}")
    return latscale


def static_facts():
    import scipy
    return {
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "nproc": os.cpu_count(),
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("name"),
        "blas_version": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_setup(workload, k, tracer=None):
    """Run set-up repetition ``k``; returns its seconds."""
    if tracer:
        tracer.request = f"setup-{k}"
        tracer.install()
    start = time.perf_counter()
    try:
        workload.setup()
    finally:
        if tracer:
            tracer.uninstall()
    return time.perf_counter() - start


def run_op(workload, i, tracer=None):
    """Run and check operation ``i``; returns (seconds, problems)."""
    if tracer:
        tracer.request = i
        tracer.install()
    start = time.perf_counter()
    try:
        result, error = workload.op(i), None
    except Exception as exc:  # a failing operation is counted, not fatal
        result, error = None, exc
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    if error is not None:
        return elapsed, [f"{type(error).__name__}: {error}"]
    try:
        return elapsed, workload.check(i, result)
    except Exception as exc:  # unreadable outputs are a failed check
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


def run_workload(workload, seconds, tracer):
    """Set-up, a warm-up operation, then operations back to back.

    The operations run for ``seconds`` of window time.  The machine's
    speed drifts by tens of percent over seconds, so the set-up
    repetitions are spread evenly over the window, at its start, end and
    in between, and their median samples the whole run.  Set-up time
    does not count against the window.  Every set-up builds the same
    state from the seed, so operations after a repeat see the same
    inputs.

    The warm-up is checked and counted but not timed: the first
    operation of a process pays one-off costs (the first 400/50 training
    run faults in its graph memory) that the later ones do not.  In a
    traced run every other operation runs under the tracer, so traced
    and untraced operations see the same machine conditions.

    Returns (set-up seconds, (request, seconds, traced) per timed
    operation, attempted, failed).
    """
    setup_times = [run_setup(workload, 0, tracer)]
    warmup_s, problems = run_op(workload, 0)
    failures = [(0, problems)] if problems else []
    due = [seconds * k / (SETUP_REPEATS - 1) for k in range(1, SETUP_REPEATS)]
    min_ops = 2 if tracer else 1
    ops = []
    start = time.perf_counter()

    def window():  # seconds of operations so far; set-up repeats do not count
        return time.perf_counter() - start - sum(setup_times[1:])

    i = 1
    while len(ops) < min_ops or window() < seconds:
        if len(setup_times) < SETUP_REPEATS and window() >= due[len(setup_times) - 1]:
            setup_times.append(run_setup(workload, len(setup_times), tracer))
            continue
        traced = tracer is not None and i % 2 == 0
        elapsed, problems = run_op(workload, i, tracer if traced else None)
        if problems:
            failures.append((i, problems))
        ops.append((i, elapsed, traced))
        i += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(run_setup(workload, len(setup_times), tracer))
    for i, problems in failures:
        print(f"{workload.name} op {i} failed: {'; '.join(problems)}", file=sys.stderr)
    print(f"{workload.name} set-up seconds: {' '.join(f'{t:.3f}' for t in setup_times)}; "
          f"op seconds: warm-up {warmup_s:.3f}, {' '.join(f'{o[1]:.3f}' for o in ops)}",
          file=sys.stderr)
    return setup_times, ops, len(ops) + 1, len(failures)


def end_to_end_metrics(setup_times, ops, probe):
    latency_ms = [seconds * 1e3 for _, seconds, _ in ops]
    return {
        "setup_s": statistics.median(setup_times),
        "op_ms.p50": float(np.percentile(latency_ms, 50)),
        "op_ms.p90": float(np.percentile(latency_ms, 90)),
        "train_windows_per_s": probe.windows_per_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ls = import_latscale()
    facts = static_facts()
    print("facts " + json.dumps(facts, sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    probe = tracing.TrainProbe(ls)
    tracer = tracing.Tracer(ls) if args.trace else None
    try:
        workload = WORKLOADS[args.workload](ls, work, args.seed)
        setup_times, ops, attempted, failed = run_workload(workload, args.seconds, tracer)
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)

    if tracer:
        outcome = {"theta": workload.theta, "sla_ratio_after": workload.sla_ratios,
                   "val_pinball": workload.val_losses, "failed_share": failed / attempted}
        values = tracer.metrics(ops, facts["src_lines"], outcome)
        tracer.write(OUT / f"{args.workload}.trace.json", ops, facts)
        declared = spec["per_layer"]
    else:
        values = end_to_end_metrics(setup_times, ops, probe)
        declared = spec["end_to_end"]
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(names))} "
                         "are not both computed and declared in BENCHMARK.json")
    bad = [n for n, v in values.items() if not math.isfinite(v)]
    if bad:
        raise SystemExit(f"error: non-finite metrics {bad}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
