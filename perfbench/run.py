"""Benchmark of the twophase reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Workloads: rp6-compare, rp6-kapila, exact-sample, rp4-godunov (see
perfbench/README.md).  With `--trace 0` the run measures the end-to-end
metrics with tracing off; with `--trace 1` it alternates untraced and traced
repeats and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits 2 without a result when the sources are missing.
"""

import os

# pin BLAS/OpenMP pools before numpy loads; children inherit the setting
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from reference import Normalizer  # noqa: E402  (this directory is on sys.path)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 7  # fresh processes timed per run for setup_s
MIN_REPEATS = 3  # untraced repeats per run, however long they take
MIN_TRACED = 2  # traced repeats, so the exact counters can be compared

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "l1_rho": "L1",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(workload):
    import numpy
    import scipy

    try:
        from numpy._core._multiarray_umath import __cpu_features__ as feats
        simd = ",".join(k for k in ("AVX2", "AVX512F", "FMA3") if feats.get(k))
    except ImportError:
        simd = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "simd": simd,
        "cpu_model_and_caches": "not read: the benchmark reads no file outside its checkout "
                                "(baseline machine in perfbench/README.md)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "bytes_per_state_array_computed": workload.state_bytes(),
    }


def setup_times(problem, normalizer):
    """Set-up time of SETUP_SAMPLES fresh processes, one after another;
    returns (raw, rescaled) seconds."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), problem],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(normalizer.scale(raw[-1]))
    return raw, scaled


def keep_going(walls, minimum, started, seconds):
    """Start another repeat while it is expected to end within the budget."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def run_untraced(workload, seconds):
    setup_raw, setup = setup_times(workload.setup_problem, Normalizer())
    workload.prepare()
    raw, walls = [], []
    started = time.perf_counter()
    normalizer = Normalizer()  # fresh: the warm-up ran since the last reference
    while keep_going(raw, MIN_REPEATS, started, seconds):
        raw.append(workload.repeat())
        walls.append(normalizer.scale(raw[-1]))
    checks = workload.checks()
    wall = statistics.median(walls)
    print(f"repeats: {len(walls)}; raw wall s: " + ", ".join(f"{w:.4f}" for w in raw))
    print("rescaled wall s: " + ", ".join(f"{w:.4f}" for w in walls))
    print(f"raw medians: wall {statistics.median(raw):.4f} s, setup {statistics.median(setup_raw):.4f} s "
          f"(samples " + ", ".join(f"{s:.4f}" for s in setup_raw) + ")")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "work_per_s": workload.work / wall,
        "l1_rho": workload.l1_rho,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, checks


def run_traced(workload, seconds):
    from layers import (
        PER_LAYER, PRESETS, REQUIRED, Window, exact_counters,
        exact_sample_metrics, install_probes, layer_metrics, setup_metrics,
    )
    from tracer import Tracer
    from twophase.errors import TwoPhaseError
    from twophase.problems import get_problem

    tracer = Tracer(TwoPhaseError)
    install_probes(tracer)
    tracer.calibrate()
    absent = [n for n in REQUIRED if not tracer.present(n)]

    # the first construction of every preset in this process is uncached
    tracer.patch()
    before = tracer.snapshot()
    for name in PRESETS:
        get_problem(name).build_exact()
    setup = setup_metrics(Window(tracer, before))
    tracer.unpatch()

    workload.prepare()
    untraced, traced, per_repeat = [], [], []
    first = None
    started = time.perf_counter()
    while len(traced) < MIN_TRACED or (
        time.perf_counter() - started + statistics.median(untraced) + statistics.median(traced)
        <= seconds
    ):
        untraced.append(workload.repeat())
        tracer.patch()
        snap = tracer.snapshot()
        first = first or snap
        traced.append(workload.repeat(tracer))
        per_repeat.append(exact_counters(Window(tracer, snap)))
        tracer.unpatch()
    checks = workload.checks()

    # the wrapper cost measured on this workload: traced minus untraced wall
    # per span; the no-op calibration stands in when noise makes it negative
    window = Window(tracer, first)
    base = statistics.median(untraced)
    measured = (statistics.median(traced) - base) / max(window.spans() / len(traced), 1)
    tracer.cost_out = max(measured - tracer.cost_in, tracer.cost_out)

    metrics = layer_metrics(window, len(traced), sum(traced))
    metrics.update(setup)
    exact, exact_same = exact_sample_metrics(tracer, workload)
    metrics.update(exact)
    metrics["trace.overhead_share"] = (statistics.median(traced) - base) / base
    metrics["trace.span_cost_us"] = tracer.span_cost * 1e6

    same = exact_same and all(r == per_repeat[0] for r in per_repeat)
    checks.append(
        ("exact-repeat counters identical across traced repeats", same,
         "; ".join(f"{k}={v!r}" for k, v in per_repeat[0].items()))
    )
    print("untraced wall s: " + ", ".join(f"{w:.4f}" for w in untraced))
    print("traced wall s:   " + ", ".join(f"{w:.4f}" for w in traced))
    print(f"span cost {tracer.span_cost * 1e6:.3f} us (inside {tracer.cost_in * 1e6:.3f} us); "
          f"spans kept {len(tracer.spans)}, dropped {tracer.dropped}")
    if absent:
        print("absent wrap targets (metrics reading them are 0): " + ", ".join(absent))
    others = {k: v for k, v in tracer.counters.items()
              if k.startswith("error:") and f"errors.{k[6:]}" not in metrics}
    if others:
        print(f"other errors raised in wrapped calls: {others}")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload.name}.json")
    ordered = {name: metrics.get(name, 0.0) for name, _, _ in PER_LAYER}
    return ordered, checks, {name: unit for name, unit, _ in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "twophase" / "__init__.py").is_file():
        print(f"perfbench: no twophase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](out_dir, args.seed)
    print(f"workload {workload.name}: {workload.why}")
    print("environment: " + json.dumps(environment(workload)))
    try:
        if args.trace:
            metrics, checks, units = run_traced(workload, args.seconds)
        else:
            metrics, checks = run_untraced(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed_checks = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"check [{'ok' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    attempted = workload.attempted + len(checks)
    failed = len(workload.failures) + len(failed_checks)
    if not args.trace:
        print(f"{workload.rate_name} = {metrics['work_per_s']:.6g} 1/s  "
              f"({workload.work} {workload.work_unit} per repeat)")
        print(f"error_rate = {failed / attempted:.6g}  ({failed} of {attempted} commands and checks)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
